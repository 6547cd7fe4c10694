"""Deterministic depth-first search for packing colorings of a window.

The solver colors cells in scan order, trying colors 1..max_color
ascending at each cell, backtracking on dead ends, and stopping at the
first complete coloring (SAT) or after exhausting the tree (UNSAT by
exhaustion). Sequential runs are bit-deterministic: the same GridSpec
always produces the same node count.

Counters, and what they mean here:

* ``nodes``   successful color assignments (anchor installation and
              prefix/branch replay excluded). This is the package's
              "checked configurations" unit.
* ``tests``   admissibility checks, counting one per color considered
              at a cell, admissible or not.
* ``calls``   arrivals at a non-anchor cell with a fresh color loop
              (the recursion depth events of the classic formulation).

The engine counts only ``nodes`` and the deepest position; ``tests`` and
``calls`` are derived. A run from decisions B0 (a prefix or a checkpoint's
branch) to decisions B1 in N nodes, with k colors and n open cells, has

    tests = sum(B1) - sum(B0) + k * (N - len(B1) + len(B0) + [ended UNSAT])
    calls = N + [len(B1) < n]

([x] is 1 if x holds, else 0), as a node on color c after colors s..c-1
failed makes c - s + 1 tests, a cell whose colors s..k all fail makes
k - s + 1, and a call is a run's start or a node that leaves a cell
open. So a finished UNSAT unit makes k * (N + 1) tests and N + 1 calls.

The fast route is a compiled C kernel (``_kernel.c``, built with the
local C compiler and loaded through ``ctypes``) that keeps one
forbidden-color word per free cell and journals the cells each
assignment newly forbade. The naive route, in pure Python, rescans
distance balls on every test; it is the independent reference for
differential runs and the fallback where the kernel cannot be built or
``max_color`` exceeds its word. Both traverse the identical tree.
"""

from __future__ import annotations

import contextlib
import os
import time
import zlib
from functools import cached_property, lru_cache, partial
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

from packlat.coloring import verify
from packlat.errors import (
    CorruptCheckpoint,
    CorruptUnit,
    MalformedInput,
    VersionMismatch,
)
from packlat.grid import GridSpec, json_int

SAT = "SAT"
UNSAT = "UNSAT"
INTERRUPTED = "INTERRUPTED"

CHECKPOINT_VERSION = 1

_INTERRUPT_POLL = 1 << 16  # nodes between interrupt-flag polls


class SearchStats(NamedTuple):
    """Deterministic work accounting for one search run."""

    nodes: int = 0
    tests: int = 0
    calls: int = 0
    max_depth: int = 0
    elapsed: float = 0.0

    def counters(self) -> dict:
        return {
            "nodes": self.nodes,
            "tests": self.tests,
            "calls": self.calls,
            "max_depth": self.max_depth,
        }


class WorkUnit(NamedTuple):
    """A consistent prefix of scan-order decisions, naming a subtree.

    ``prefix[i]`` is the color of the i-th non-anchor cell in scan order.
    """

    grid: GridSpec
    prefix: tuple[int, ...]

    def to_dict(self) -> dict:
        return {"grid": self.grid.to_dict(), "prefix": list(self.prefix)}

    @classmethod
    def from_dict(cls, data: object) -> "WorkUnit":
        if not isinstance(data, dict) or "grid" not in data or "prefix" not in data:
            raise MalformedInput('work unit JSON must have "grid" and "prefix"')
        grid = GridSpec.from_dict(data["grid"])
        try:
            prefix = tuple(json_int(c) for c in data["prefix"])
        except (TypeError, ValueError) as exc:
            raise MalformedInput(f"bad work unit prefix: {exc}") from exc
        return cls(grid=grid, prefix=prefix)


class Checkpoint(NamedTuple):
    """A suspended sequential search: the branch in progress plus nodes so far."""

    grid: GridSpec
    branch: tuple[int, ...]
    nodes: int

    def to_dict(self) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            "grid": self.grid.to_dict(),
            "branch": list(self.branch),
            "nodes": self.nodes,
        }

    @classmethod
    def from_dict(cls, data: object) -> "Checkpoint":
        if not isinstance(data, dict):
            raise MalformedInput("checkpoint must be a JSON object")
        version = data.get("version")
        if version != CHECKPOINT_VERSION:
            raise VersionMismatch(
                f"checkpoint version {version!r}, expected {CHECKPOINT_VERSION}"
            )
        try:
            grid = GridSpec.from_dict(data["grid"])
            branch = tuple(json_int(c) for c in data["branch"])
            nodes = json_int(data["nodes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInput(f"bad checkpoint: {exc}") from exc
        if nodes < 0:
            raise MalformedInput(f"negative node count {nodes}")
        return cls(grid=grid, branch=branch, nodes=nodes)


class SplitResult(NamedTuple):
    """Work units plus the bookkeeping needed to reconcile node counts.

    ``assignments_at_emission[i]`` is the number of assignments the
    splitting pass had performed when it emitted unit i; a sequential run
    reaching that unit's prefix has done exactly that much work above the
    split depth. ``emitted_prefix_assignments`` counts split assignments
    that lie on some emitted prefix, ``prefix_overhead`` the dead-end
    remainder.
    """

    units: tuple[WorkUnit, ...]
    emitted_prefix_assignments: int
    prefix_overhead: int
    assignments_at_emission: tuple[int, ...]


class SolveResult(NamedTuple):
    status: str
    coloring: list[list[int]] | None
    stats: SearchStats
    checkpoint: Checkpoint | None = None
    parallel: SimpleNamespace | None = None  # solve_parallel's record of the run
    engine: str | None = None  # the route that ran: "c" or "naive"


class _Tables:
    """Per-grid search tables; each route's tables are built on first use."""

    def __init__(self, grid: GridSpec):
        self.grid = grid
        n = grid.n_cells
        anchor_at = [0] * n
        for pos, color in grid.anchors:
            anchor_at[grid.index_of(pos)] = color
        self.free: tuple[int, ...] = tuple(i for i in range(n) if not anchor_at[i])
        self.k = grid.max_color
        self.anchor_at = tuple(anchor_at)
        self._naive_scan: list[tuple[tuple[int, ...], ...]] = []

    def _distance(self, a: int, b: int) -> int:
        w = self.grid.width
        return abs(a % w - b % w) + abs(a // w - b // w)

    @cached_property
    def init_rows(self) -> tuple[int, ...]:
        """Colors the anchors forbid at each free cell, bit c-1 for color c."""
        rows = [0] * len(self.free)
        for acell, ac in enumerate(self.anchor_at):
            if ac:
                for p, cell in enumerate(self.free):
                    if self._distance(acell, cell) <= ac:
                        rows[p] |= 1 << (ac - 1)
        return tuple(rows)

    def naive_scan(self, upto: int) -> list[tuple[tuple[int, ...], ...]]:
        """Naive route: per (free cell, color), the cells that can already be
        colored when that cell is the frontier: earlier cells plus anchors
        anywhere, within distance c, in scan order.

        Rows are built on first use, for the first ``upto`` free cells, from
        the square of side 2k+1 around each cell; a split reads only the
        rows above its depth.
        """
        w, h, k, scan = self.grid.width, self.grid.height, self.k, self._naive_scan
        while len(scan) < upto:
            cell = self.free[len(scan)]
            r0, c0 = divmod(cell, w)
            near = [(abs(r - r0) + abs(c - c0), r * w + c)
                    for r in range(max(0, r0 - k), min(h, r0 + k + 1))
                    for c in range(max(0, c0 - k), min(w, c0 + k + 1))]
            near = [(d, q) for d, q in near
                    if 0 < d <= k and (q < cell or self.anchor_at[q])]
            scan.append(tuple(tuple(q for d, q in near if d <= c) for c in range(1, k + 1)))
        return scan

    @cached_property
    def csr(self):
        """Kernel route: forward balls as flat int32 arrays.

        Color c on free cell p constrains the later free cells within
        distance c (earlier ones are already colored), which are
        ``nbr[row[p] : row[p] + cnt[p * k + c - 1]]``, built from the
        window geometry ring by ring, so each ball extends the previous.
        """
        import ctypes

        w, h, k = self.grid.width, self.grid.height, self.k
        fpos = {cell: p for p, cell in enumerate(self.free)}
        rings = [
            [(dr, dc) for dr in range(d + 1) for dc in sorted({d - dr, dr - d})
             if dr or dc > 0]  # later in scan order
            for d in range(1, k + 1)
        ]
        row: list[int] = []
        cnt: list[int] = []
        nbr: list[int] = []
        for cell in self.free:
            r0, c0 = divmod(cell, w)
            row.append(len(nbr))
            for ring in rings:
                for dr, dc in ring:
                    r, c = r0 + dr, c0 + dc
                    if r < h and 0 <= c < w and r * w + c in fpos:
                        nbr.append(fpos[r * w + c])
                cnt.append(len(nbr) - row[-1])
        i32 = ctypes.c_int32
        return (i32 * len(row))(*row), (i32 * len(cnt))(*cnt), (i32 * len(nbr))(*nbr)

    def frontier_cells(self, free_pos: int) -> int:
        """Length of the colored scan prefix once free_pos cells are assigned."""
        if free_pos < len(self.free):
            return self.free[free_pos]
        return len(self.anchor_at)


@lru_cache(maxsize=64)
def _tables(grid: GridSpec) -> _Tables:
    return _Tables(grid)


_KERNEL_COLORS = 32  # width of the compiled kernel's forbidden-color word
_KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")
_KERNEL_CACHE = "~/.cache/packlat"
_KERNEL_CC = ("cc", "-O2", "-shared", "-fPIC")


def _crc(data: bytes) -> str:
    # zlib is loaded at startup anyway; hashlib would map OpenSSL (3 MB, 4 ms)
    return f"{zlib.crc32(data):08x}"


def _kernel_key() -> str:
    """CRC-32 of the kernel source and the command that compiles it."""
    return _crc(_KERNEL_SOURCE.read_bytes() + "\0".join(_KERNEL_CC).encode())


def _build_kernel(cache: Path, key: str) -> Path:
    """Compile the kernel into the cache, published with one ``os.replace``.

    The file name carries a CRC-32 of the library's own bytes, so a
    damaged copy is recognised before it is loaded. Libraries cached
    under other keys stay: another checkout may be using them.
    """
    import subprocess
    import tempfile

    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache, prefix=f"kernel-{key}-", suffix=".tmp")
    os.close(fd)
    try:
        proc = subprocess.run([*_KERNEL_CC, "-o", tmp, str(_KERNEL_SOURCE)],
                              capture_output=True)
        if proc.returncode != 0:
            raise OSError(f"{_KERNEL_CC[0]} exited {proc.returncode}")
        target = cache / f"kernel-{key}-{_crc(Path(tmp).read_bytes())}.so"
        os.replace(tmp, target)
        return target
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _intact(lib: Path, key: str) -> bool:
    return lib.name == f"kernel-{key}-{_crc(lib.read_bytes())}.so"


def _open_kernel(lib: Path, key: str):
    """The loaded ``lib``, or None when it is damaged or gone.

    A library that fails is deleted, so the caller's build replaces it.
    Older versions of packlat prune the libraries of other kernel sources,
    so ``lib`` may vanish at any moment.
    """
    import ctypes

    with contextlib.suppress(OSError):
        if _intact(lib, key):
            return ctypes.CDLL(str(lib))
    lib.unlink(missing_ok=True)
    return None


@lru_cache(maxsize=None)
def _load_kernel():
    """The compiled kernel library, or None when it cannot be built or loaded.

    The library is built once per CRC-32 of its source and compiler
    command in ``~/.cache/packlat``. A cached library that is damaged (its
    bytes no longer match the CRC in its name) or vanishes before it is
    loaded is built once more. Without a working compiler the engine runs
    on the naive route instead.
    """
    try:
        cache = Path(_KERNEL_CACHE).expanduser()
        key = _kernel_key()
        found = sorted(cache.glob(f"kernel-{key}-*.so"))
        lib = _open_kernel(found[0], key) if found else None
        if lib is None:
            lib = _open_kernel(_build_kernel(cache, key), key)
        if lib is None:
            return None
    except (OSError, RuntimeError):  # RuntimeError: no home directory
        return None
    import ctypes

    i32, i64, p32 = ctypes.c_int32, ctypes.c_int64, ctypes.POINTER(ctypes.c_int32)
    p64 = ctypes.POINTER(i64)
    lib.packlat_batch.argtypes = (i32, i32, p32, p32, p32, ctypes.POINTER(ctypes.c_uint32),
                                  p32, p32, p32, p64, i32, i32, i64, p32, p64, i64)
    lib.packlat_batch.restype = ctypes.c_int
    return lib


_NEVER = float("inf")  # a node count no run reaches
_LIMIT, _SAT, _UNSAT, _DONE = range(4)  # the kernel's return codes
_POS, _START, _NODES, _MAX_POS, _UNIT, _LIVE = range(6)  # its state slots
_STATUS = (INTERRUPTED, SAT, UNSAT)  # a unit's status code; one left in flight reads 0
_OUT = 3  # a batch's outputs per unit: status code, nodes, max_pos


class _Engine:
    """Single-owner mutable search state; one engine per run.

    ``route`` is "c" (the compiled kernel) or "naive" (ball rescans, for
    differential runs, and wherever the kernel is unavailable or
    ``max_color`` exceeds its word). Every search is a batch of prefixes,
    each searched down to a floor, and both routes run batches with one
    contract, that of ``packlat_batch`` in ``_kernel.c``, on its arrays:
    ``st``, the state slots above, and ``branch``, the color of each free
    cell decided so far. ``run`` handles all events between batch calls.
    """

    def __init__(self, grid: GridSpec, naive: bool = False):
        self.grid = grid
        self.tables = _tables(grid)
        self.k = grid.max_color
        self.n_free = n = len(self.tables.free)
        kernel = None if naive or self.k > _KERNEL_COLORS else _load_kernel()
        if kernel is None:
            self.route = "naive"
            self.st = [0, 1, 0, 0, 0, 0]
            self.branch = [0] * n
            self.cell_colors = list(self.tables.anchor_at)
            self._batch = self._batch_naive
        else:
            import ctypes

            self.route = "c"
            self.st = (ctypes.c_int64 * 6)(0, 1)
            self.branch = (ctypes.c_int32 * n)()
            csr = self.tables.csr
            self._forb = (ctypes.c_uint32 * n)(*self.tables.init_rows)
            self._jtop = (ctypes.c_int32 * (n + 1))()
            journal = (ctypes.c_int32 * len(csr[2]))()
            self._batch = partial(kernel.packlat_batch, n, self.k, *csr, self._forb, self.branch,
                                  self._jtop, journal, self.st)

    def run(self, prefixes, floor: int | None = None, nodes: int = 0,
            suspend_at: int | None = None, checkpoint_every: int | None = None,
            on_checkpoint=None, progress_every: int | None = None, on_progress=None,
            interrupted=None) -> tuple[list[int], dict[int, list[list[int]]]]:
        """Search below each prefix in turn, down to ``floor`` (default: the
        prefix length). The prefixes have one length and come in DFS order.

        Returns plain data, which ``_unit_outcomes`` decodes: ``_OUT``
        numbers per unit and the colorings of the SAT units by index. It
        places the prefixes unchecked: only ``_search``'s checked decisions
        and ``split``'s prefixes may reach it. The events read
        ``nodes + st[_NODES]``, the count of the unit in flight:

        * ``suspend_at``: return once the count reaches this many nodes.
        * ``checkpoint_every`` / ``on_checkpoint``: call ``on_checkpoint``
          with a rolling Checkpoint at every multiple of N, and go on.
        * ``progress_every`` / ``on_progress``: call ``on_progress(count,
          frontier_cells)`` at every multiple of N.
        * ``interrupted``: a callable polled every ``_INTERRUPT_POLL``
          nodes; a true result returns as ``suspend_at`` does.

        A suspension leaves the unit in flight live, with status code 0 and
        its counters so far. A batch of several units only returns to
        Python every ``_INTERRUPT_POLL`` nodes, so that a Ctrl-C lands.
        """
        d = len(prefixes[0]) if prefixes else 0
        m, st = len(prefixes), self.st
        units, out = prefixes, [0] * (_OUT * m)
        if self.route == "c":
            import ctypes

            units = _int32_array(prefixes)
            out = (ctypes.c_int64 * len(out))()
        floor = d if floor is None else floor
        stop_at = _NEVER if suspend_at is None else suspend_at
        next_poll = nodes + _INTERRUPT_POLL  # a Ctrl-C lands between calls
        next_progress, next_checkpoint = (
            (nodes // every + 1) * every if every else _NEVER
            for every in (progress_every, checkpoint_every))
        colorings, count = {}, nodes + st[_NODES]
        while True:
            budget = _INTERRUPT_POLL if m > 1 else (
                min(stop_at, next_poll, next_progress, next_checkpoint) - count)
            code = self._batch(d, floor, m, units, out, budget)
            count = nodes + st[_NODES]
            if code == _DONE:
                return out[:], colorings
            if code == _SAT:
                colorings[st[_UNIT] - 1] = self.verified_coloring()
                continue
            if count >= stop_at or (
                    count >= next_poll and interrupted is not None and interrupted()):
                return out[:], colorings
            if count >= next_poll:
                next_poll = count + _INTERRUPT_POLL
            if count >= next_progress:
                on_progress(count, self.tables.frontier_cells(st[_POS]))
                next_progress += progress_every
            if count >= next_checkpoint:
                on_checkpoint(Checkpoint(self.grid, self.decisions(), count))
                next_checkpoint += checkpoint_every

    def decisions(self) -> tuple[int, ...]:
        """The colors of the free cells decided so far, in scan order."""
        return tuple(self.branch[:self.st[_POS]])

    def verified_coloring(self) -> list[list[int]]:
        colors = list(self.tables.anchor_at)
        for p, c in enumerate(self.decisions()):
            colors[self.tables.free[p]] = c
        w = self.grid.width
        coloring = [colors[r * w:(r + 1) * w] for r in range(self.grid.height)]
        violation = verify(self.grid, coloring)
        if violation is not None:
            raise RuntimeError(f"internal error: SAT coloring fails verify: {violation}")
        return coloring

    def _batch_naive(self, d: int, floor: int, m: int, prefixes, out: list, budget: int) -> int:
        """``packlat_batch`` on the naive route, with ``_slice_naive`` as its slice."""
        free, colors, branch, st = self.tables.free, self.cell_colors, self.branch, self.st
        while st[_UNIT] < m:
            if not st[_LIVE]:
                prefix, pos, shared = prefixes[st[_UNIT]], st[_POS], 0
                while shared < min(pos, d) and branch[shared] == prefix[shared]:
                    shared += 1
                while pos > shared:
                    pos -= 1
                    colors[free[pos]] = 0
                for color in prefix[shared:]:
                    colors[free[pos]] = branch[pos] = color
                    pos += 1
                # pos, start, nodes, max_pos, as the kernel places a unit
                st[_POS:_UNIT] = d, 1, 0, d
                st[_LIVE] = 1
            before = st[_NODES]
            status = self._slice_naive(self.n_free, floor, before + budget)
            j = _OUT * st[_UNIT]
            out[j:j + _OUT] = status, *st[_NODES:_UNIT]
            if status == _LIMIT:
                return _LIMIT
            budget -= st[_NODES] - before
            st[_UNIT] += 1
            st[_LIVE] = 0
            if status == _SAT:
                return _SAT
        return _DONE

    def _slice_naive(self, n: int, floor: int, limit: float) -> int:
        """The kernel's slice on the naive route, with its return codes;
        coloring the first ``n`` free cells counts as SAT."""
        k = self.k
        scan = self.tables.naive_scan(n)
        free = self.tables.free
        colors = self.cell_colors
        branch = self.branch
        pos, start, nodes, max_pos = self.st[_POS:_UNIT]

        status = _LIMIT
        while True:
            if pos == n:
                status = _SAT
                break
            per_color = scan[pos]
            for c in range(start, k + 1):
                for q in per_color[c - 1]:
                    if colors[q] == c:
                        break
                else:  # no cell within distance c holds c
                    break
            else:
                c = 0
            if c:
                colors[free[pos]] = branch[pos] = c
                nodes += 1
                pos += 1
                start = 1
                if pos > max_pos:
                    max_pos = pos
                if nodes >= limit:
                    break
            elif pos == floor:
                status = _UNSAT
                break
            else:
                pos -= 1
                colors[free[pos]] = 0
                start = branch[pos] + 1

        self.st[_POS:_UNIT] = pos, start, nodes, max_pos
        return status


def _int32_array(prefixes):
    """The prefixes end to end as a C int32 array."""
    import array
    import ctypes
    import itertools

    flat = array.array("i", itertools.chain.from_iterable(prefixes))
    return (ctypes.c_int32 * len(flat)).from_buffer(flat)


def _check_decisions(grid: GridSpec, decisions, error_cls) -> None:
    """Raise ``error_cls`` unless ``decisions``, a unit's prefix or a
    checkpoint's branch, can be placed from the root: each a color in
    1..k that the anchors and the decisions before it allow. It replays
    them on the naive route's rows; the engines place them unchecked."""
    tables = _tables(grid)
    free, k = tables.free, grid.max_color
    if len(decisions) > len(free):
        raise error_cls(f"{len(decisions)} decisions exceed the {len(free)} open cells")
    colors = list(tables.anchor_at)
    for pos, (color, rows) in enumerate(zip(decisions, tables.naive_scan(len(decisions)))):
        if not 1 <= color <= k:
            raise error_cls(f"decision color {color} outside 1..{k}")
        if any(colors[q] == color for q in rows[color - 1]):
            raise error_cls(f"decision {pos} (color {color}) is inadmissible")
        colors[free[pos]] = color


def _search(grid: GridSpec, naive: bool, prefix=(), floor: int | None = None,
            error_cls=CorruptUnit, nodes: int = 0, /, **events) -> SolveResult:
    """Check ``prefix`` and search below it on a fresh engine, counting on
    from ``nodes``; only ``_Engine.run``'s events can come by keyword."""
    t0 = time.perf_counter()
    _check_decisions(grid, prefix, error_cls)
    engine = _Engine(grid, naive=naive)
    out, colorings = engine.run([prefix], floor, nodes, **events)
    (unit,) = _unit_outcomes(grid, [prefix], out, colorings, engine.route, engine.decisions())
    stats = SearchStats(nodes + unit.nodes, unit.tests, unit.calls, unit.max_depth,
                        time.perf_counter() - t0)
    checkpoint = None
    if unit.status == INTERRUPTED:
        checkpoint = Checkpoint(grid, engine.decisions(), stats.nodes)
    return SolveResult(unit.status, unit.coloring, stats, checkpoint, engine=unit.engine)


def solve(grid: GridSpec, naive: bool = False, **events) -> SolveResult:
    """Search the whole window for a packing coloring extending the anchors.

    Sequential and bit-deterministic. SAT comes with a verified coloring;
    UNSAT means the deterministic exhaustion completed with no solution;
    INTERRUPTED (from ``suspend_at`` or the ``interrupted`` flag callable)
    comes with a resumable checkpoint.

    Args:
        grid: window, color budget, anchors.
        naive: use the ball-rescan admissibility test instead of the
            compiled kernel (slow; for differential runs).
        events: the run options of ``_Engine.run``, all optional:
            suspend_at: stop once this many nodes have been counted.
            checkpoint_every / on_checkpoint: a rolling Checkpoint every N nodes.
            progress_every / on_progress: ``on_progress(nodes, frontier_cells)``
                every N nodes.
            interrupted: a callable polled every 65536 nodes; true suspends.
    """
    return _search(grid, naive, **events)


def resume(checkpoint: Checkpoint, naive: bool = False, **events) -> SolveResult:
    """Continue a suspended run to the same final (status, nodes).

    Takes the run options of ``solve``. Only the node counter carries
    across a suspension; tests, calls, max_depth and elapsed restart from
    the resume point.
    """
    return _search(checkpoint.grid, naive, checkpoint.branch, 0, CorruptCheckpoint,
                   checkpoint.nodes, **events)


def solve_unit(unit: WorkUnit, naive: bool = False) -> SolveResult:
    """Search one work unit's subtree; nodes count only below the prefix."""
    return _search(unit.grid, naive, unit.prefix)


def check_split_depth(grid: GridSpec, depth: object) -> int:
    """``depth`` if it is an integer in 1..(open cells); ValueError otherwise.

    Checked before any search table is built, so it costs O(1) on any grid.
    """
    open_cells = grid.n_cells - len(grid.anchors)
    if not 1 <= json_int(depth) <= open_cells:
        raise ValueError(f"split depth {depth} outside 1..{open_cells}")
    return depth


def split(grid: GridSpec, depth: int) -> SplitResult:
    """Enumerate every consistent prefix of the given length, in DFS order.

    The emitted units partition the search space below the split depth.
    Assignments spent on prefixes that die before reaching the depth are
    returned as prefix overhead so that node counts stay reconcilable.
    """
    check_split_depth(grid, depth)
    engine = _Engine(grid, naive=True)
    st = engine.st
    units: list[WorkUnit] = []
    cum: list[int] = []
    emitted, last = 0, ()
    while engine._slice_naive(depth, 0, _NEVER) == _SAT:  # a complete prefix counts as SAT
        prefix = engine.decisions()
        # in DFS order a unit adds the assignments below its longest common
        # prefix with the unit before it to those on some emitted prefix
        shared = len(last)
        while last[:shared] != prefix[:shared]:
            shared -= 1
        emitted += depth - shared
        units.append(WorkUnit(grid, prefix))
        cum.append(st[_NODES])
        last = prefix
        st[_POS] -= 1  # go on with the next color
        engine.cell_colors[engine.tables.free[st[_POS]]] = 0
        st[_START] = engine.branch[st[_POS]] + 1
    return SplitResult(
        units=tuple(units),
        emitted_prefix_assignments=emitted,
        prefix_overhead=st[_NODES] - emitted,
        assignments_at_emission=tuple(cum),
    )


class UnitOutcome(NamedTuple):
    """What one work unit reported back: enough to merge deterministically."""

    prefix: tuple[int, ...]
    status: str
    nodes: int
    coloring: list[list[int]] | None = None
    tests: int = 0
    calls: int = 0
    max_depth: int = 0
    engine: str | None = None


def merge_outcomes(
    split_result: SplitResult, outcomes: list[UnitOutcome]
) -> tuple[str, list[list[int]] | None, int, int]:
    """Combine unit outcomes into (status, coloring, sequential_nodes, unit_total).

    ``sequential_nodes`` reconstructs what one uninterrupted sequential run
    would have counted: for UNSAT that is emitted prefix assignments plus
    overhead plus every unit's nodes; for SAT the reconstruction stops at
    the DFS-first satisfiable unit, crediting the split assignments that
    preceded its emission.
    """
    expected = {unit.prefix for unit in split_result.units}
    got = {o.prefix for o in outcomes}
    if expected != got or len(outcomes) != len(split_result.units):
        raise MalformedInput(
            "unit outcomes do not cover the split exactly: "
            f"{len(outcomes)} outcomes for {len(split_result.units)} units"
        )
    ordered = sorted(outcomes, key=lambda o: o.prefix)
    unit_total = sum(o.nodes for o in ordered)
    for i, outcome in enumerate(ordered):
        if outcome.status == SAT:
            sequential = split_result.assignments_at_emission[i] + sum(
                o.nodes for o in ordered[: i + 1]
            )
            return SAT, outcome.coloring, sequential, unit_total
        if outcome.status != UNSAT:
            raise MalformedInput(
                f"unit {outcome.prefix} has non-terminal status {outcome.status}"
            )
    sequential = (
        split_result.emitted_prefix_assignments
        + split_result.prefix_overhead
        + unit_total
    )
    return UNSAT, None, sequential, unit_total


def _unit_outcomes(grid: GridSpec, prefixes, out: list[int], colorings: dict,
                   engine: str, last=None) -> list[UnitOutcome]:
    """The outcomes of a batch from what ``_Engine.run`` returned.

    ``tests`` and ``calls`` are derived as the module docstring says. B0 is
    a unit's prefix; B1 is ``last`` in a batch of one (the engine's
    decisions at its end), else the SAT coloring's open cells or the prefix.
    """
    tables = _tables(grid)
    k, n, w = grid.max_color, len(tables.free), grid.width
    outcomes = []
    for i, (b0, j) in enumerate(zip(prefixes, range(0, len(out), _OUT))):
        status, nodes, coloring = _STATUS[out[j]], out[j + 1], colorings.get(i)
        b1 = last if last is not None else b0 if coloring is None else [
            coloring[cell // w][cell % w] for cell in tables.free]
        tests = sum(b1) - sum(b0) + k * (nodes - len(b1) + len(b0) + (status == UNSAT))
        calls = nodes + (len(b1) < n)
        outcomes.append(UnitOutcome(b0, status, nodes, coloring, tests, calls,
                                    tables.frontier_cells(out[j + 2]), engine))
    return outcomes


def _unit_worker(task: tuple[GridSpec, list[tuple[int, ...]]]) -> tuple:
    """Run a task's batch; return numbers, colorings and route, which pickle
    small, and not the prefixes, which the parent holds."""
    grid, prefixes = task
    engine = _Engine(grid)
    return (*engine.run(prefixes), engine.route)


def _watched(results, workers):
    """The results of a pool's ``imap``, or ``ChildProcessError`` once one of
    ``workers`` has died: the pool starts another worker in its place, but
    neither re-runs nor fails the task the dead one held."""
    import multiprocessing

    while True:
        try:
            yield results.next(timeout=0.5)
        except StopIteration:
            return
        except multiprocessing.TimeoutError:
            for proc in workers:
                if proc.exitcode is not None:
                    raise ChildProcessError(f"worker {proc.pid} died (exit code "
                                            f"{proc.exitcode}); its units were lost") from None


def solve_parallel(grid: GridSpec, depth: int, workers: int | None = None,
                   progress_every: int | None = None, on_progress=None) -> SolveResult:
    """Split the search and run every unit to completion across worker processes.

    The merged node count reproduces the sequential one exactly,
    independent of scheduling. ``workers`` defaults to, and is capped at,
    the CPUs this process may run on, and at the number of units. Each
    task is a run of contiguous units that one worker searches as one
    batch. ``on_progress(units_done, units_total, unit_nodes)`` is invoked
    as tasks finish, each time the unit nodes pass a multiple of
    ``progress_every``.

    Every unit runs to completion, so the merged ``nodes`` always
    reproduce the sequential run; ``parallel``'s two constant flags say so
    in reports, which print its ``vars``. ``tests``, ``calls`` and
    ``max_depth`` come from the units alone, without the split's own
    work; with no unit they are 0.
    """
    import multiprocessing
    import signal

    t0 = time.perf_counter()
    split_result = split(grid, depth)
    units = split_result.units
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = max(1, min(cpus if workers is None else workers, cpus, len(units) or 1))
    size = -(-len(units) // (4 * workers)) or 1  # the chunks of Pool.map
    tasks = [(grid, [u.prefix for u in units[i:i + size]])
             for i in range(0, len(units), size)]

    outcomes: list[UnitOutcome] = []
    nodes, next_progress = 0, progress_every or _NEVER
    with contextlib.ExitStack() as stack:
        results = map(_unit_worker, tasks)
        if workers > 1:
            _load_kernel()  # build or load once here, not in every worker
            others = set(multiprocessing.active_children())
            # a Ctrl-C stops this process alone; leaving the pool terminates the workers
            pool = stack.enter_context(multiprocessing.get_context().Pool(
                workers, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN)))
            started = [p for p in multiprocessing.active_children() if p not in others]
            results = _watched(pool.imap(_unit_worker, tasks), started)
        for (_, prefixes), result in zip(tasks, results):
            batch = _unit_outcomes(grid, prefixes, *result)
            outcomes += batch
            nodes += sum(o.nodes for o in batch)
            if nodes >= next_progress:
                on_progress(len(outcomes), len(units), nodes)
                next_progress = (nodes // progress_every + 1) * progress_every

    status, coloring, sequential, unit_total = merge_outcomes(split_result, outcomes)
    stats = SearchStats(
        nodes=sequential,
        tests=sum(o.tests for o in outcomes),
        calls=sum(o.calls for o in outcomes),
        max_depth=max((o.max_depth for o in outcomes), default=0),
        elapsed=time.perf_counter() - t0,
    )
    info = SimpleNamespace(
        depth=depth, units=len(units), unit_nodes_total=unit_total,
        emitted_prefix_assignments=split_result.emitted_prefix_assignments,
        prefix_overhead=split_result.prefix_overhead, workers=workers,
        count_reproducible=True, early_exit=False)
    engine = "+".join(sorted({o.engine for o in outcomes})) or None
    return SolveResult(status=status, coloring=coloring, stats=stats,
                       parallel=info, engine=engine)
