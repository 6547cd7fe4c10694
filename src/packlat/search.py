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
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

from packlat.coloring import verify
from packlat.errors import (
    CorruptCheckpoint,
    CorruptUnit,
    MalformedInput,
    VersionMismatch,
)
from packlat.grid import GridSpec

SAT = "SAT"
UNSAT = "UNSAT"
INTERRUPTED = "INTERRUPTED"

CHECKPOINT_VERSION = 1
DEFAULT_PROGRESS_EVERY = 10**8

_INTERRUPT_POLL = 1 << 16  # nodes between interrupt-flag polls


@dataclass
class SearchStats:
    """Deterministic work accounting for one search run."""

    nodes: int = 0
    tests: int = 0
    calls: int = 0
    max_depth: int = 0
    elapsed: float = 0.0
    status: str = UNSAT

    def counters(self) -> dict:
        return {
            "nodes": self.nodes,
            "tests": self.tests,
            "calls": self.calls,
            "max_depth": self.max_depth,
        }


@dataclass(frozen=True)
class WorkUnit:
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
            prefix = tuple(int(c) for c in data["prefix"])
        except (TypeError, ValueError) as exc:
            raise MalformedInput(f"bad work unit prefix: {exc}") from exc
        return cls(grid=grid, prefix=prefix)


@dataclass(frozen=True)
class Checkpoint:
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
            branch = tuple(int(c) for c in data["branch"])
            nodes = int(data["nodes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInput(f"bad checkpoint: {exc}") from exc
        if nodes < 0:
            raise MalformedInput(f"negative node count {nodes}")
        return cls(grid=grid, branch=branch, nodes=nodes)


@dataclass(frozen=True)
class SplitResult:
    """Work units plus the bookkeeping needed to reconcile node counts.

    ``assignments_at_emission[i]`` is the number of assignments the
    splitting pass had performed when it emitted unit i; a sequential run
    reaching that unit's prefix has done exactly that much work above the
    split depth. ``emitted_prefix_assignments`` counts split assignments
    that lie on some emitted prefix, ``prefix_overhead`` the dead-end
    remainder.
    """

    units: tuple[WorkUnit, ...]
    depth: int
    emitted_prefix_assignments: int
    prefix_overhead: int
    assignments_at_emission: tuple[int, ...]


@dataclass
class ParallelInfo:
    """How a parallel run was carried out and whether counts are exact."""

    depth: int
    units: int
    unit_nodes_total: int
    emitted_prefix_assignments: int
    prefix_overhead: int
    count_reproducible: bool
    early_exit: bool
    workers: int


@dataclass
class SolveResult:
    status: str
    coloring: list[list[int]] | None
    stats: SearchStats
    checkpoint: Checkpoint | None = None
    parallel: ParallelInfo | None = None
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

    @cached_property
    def naive_scan(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Naive route: per (free cell, color), the cells that can already be
        colored when that cell is the frontier: earlier free cells plus
        anchors anywhere, within distance c."""
        anchor_at, free = self.anchor_at, self.free
        fpos = {cell: p for p, cell in enumerate(free)}
        naive_scan = []
        for p, cell in enumerate(free):
            per_color = []
            for c in range(1, self.k + 1):
                candidates = [
                    q for q in range(len(anchor_at))
                    if q != cell and self._distance(cell, q) <= c
                    and (anchor_at[q] or fpos[q] < p)
                ]
                per_color.append(tuple(candidates))
            naive_scan.append(tuple(per_color))
        return tuple(naive_scan)

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
    damaged copy is recognised before it is loaded.
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


@lru_cache(maxsize=None)
def _load_kernel():
    """The compiled slice function, or None when it cannot be built or loaded.

    The library is built once per CRC-32 of its source and compiler
    command in ``~/.cache/packlat``. A cached library whose bytes no
    longer match the CRC in its name is deleted and built once more.
    Without a working compiler the engine runs on the naive route instead.
    """
    try:
        cache = Path(_KERNEL_CACHE).expanduser()
        key = _kernel_key()
        found = sorted(cache.glob(f"kernel-{key}-*.so"))
        lib = found[0] if found else _build_kernel(cache, key)
        if not _intact(lib, key):
            lib.unlink(missing_ok=True)
            lib = _build_kernel(cache, key)
            if not _intact(lib, key):
                return None
        import ctypes

        fn = ctypes.CDLL(str(lib)).packlat_slice
    except (OSError, RuntimeError):  # RuntimeError: no home directory
        return None
    i32, i64, p32 = ctypes.c_int32, ctypes.c_int64, ctypes.POINTER(ctypes.c_int32)
    fn.argtypes = (i32, i32, p32, p32, p32, ctypes.POINTER(ctypes.c_uint32),
                   p32, p32, p32, ctypes.POINTER(i64), i32, i64)
    fn.restype = ctypes.c_int
    return fn


_NEVER = 1 << 62  # a node count no run reaches
_SLICE_STATUS = (None, SAT, UNSAT)  # the kernel's return codes


class _Engine:
    """Single-owner mutable search state; one engine per run.

    ``route`` is "c" (the compiled kernel) or "naive" (ball rescans, for
    differential runs, and wherever the kernel is unavailable or
    ``max_color`` exceeds its word). Both routes run the tree in slices
    with one contract: a slice returns None right after the assignment
    that brings ``nodes`` to ``limit``, SAT when every cell is colored,
    and UNSAT when the cell at ``floor`` runs out of colors. ``run``
    handles all events between slices.
    """

    def __init__(self, grid: GridSpec, naive: bool = False):
        self.grid = grid
        self.tables = _tables(grid)
        self.k = grid.max_color
        self.n_free = len(self.tables.free)
        self.branch: list[int] = []
        self.pos = 0
        self.start = 1
        self.nodes = 0
        self.tests = 0
        self.calls = 0
        self.max_pos = 0
        kernel = None if naive or self.k > _KERNEL_COLORS else _load_kernel()
        if kernel is None:
            self.route = "naive"
            self.cell_colors = list(self.tables.anchor_at)
            self._place, self._slice = self._place_naive, self._slice_naive
        else:
            import ctypes

            n = self.n_free
            self.route = "c"
            self._kernel = kernel
            self._csr = self.tables.csr
            self._forb = (ctypes.c_uint32 * n)(*self.tables.init_rows)
            self._cbranch = (ctypes.c_int32 * n)()
            self._jtop = (ctypes.c_int32 * (n + 1))()
            self._journal = (ctypes.c_int32 * len(self._csr[2]))()
            self._state = (ctypes.c_int64 * 6)()  # as _slice_c packs it
            self._place, self._slice = self._place_c, self._slice_c

    def replay(self, decisions, error_cls) -> None:
        """Re-apply a decision sequence without counting any work.

        Raises ``error_cls`` when a decision is out of range or lands on a
        forbidden color, which is how corrupt units and checkpoints with
        tampered branches surface.
        """
        k = self.k
        if self.pos + len(decisions) > self.n_free:
            raise error_cls(
                f"{len(decisions)} decisions exceed the {self.n_free} open cells"
            )
        for color in decisions:
            if not 1 <= color <= k:
                raise error_cls(f"decision color {color} outside 1..{k}")
            if not self._place(color):
                raise error_cls(
                    f"decision {self.pos} (color {color}) is inadmissible"
                )
            self.branch.append(color)
            self.pos += 1
        self.max_pos = max(self.max_pos, self.pos)

    def _place_naive(self, color: int) -> bool:
        colors = self.cell_colors
        if any(colors[q] == color for q in self.tables.naive_scan[self.pos][color - 1]):
            return False
        colors[self.tables.free[self.pos]] = color
        return True

    def _place_c(self, color: int) -> bool:
        p, forb, bit = self.pos, self._forb, 1 << (color - 1)
        if forb[p] & bit:
            return False
        row, cnt, nbr = self._csr
        top = self._jtop[p]
        for q in nbr[row[p]:row[p] + cnt[p * self.k + color - 1]]:
            if not forb[q] & bit:
                forb[q] |= bit
                self._journal[top] = q
                top += 1
        self._jtop[p + 1] = top
        self._cbranch[p] = color
        return True

    def coloring_rows(self) -> list[list[int]]:
        colors = list(self.tables.anchor_at)
        for p, c in enumerate(self.branch):
            colors[self.tables.free[p]] = c
        w = self.grid.width
        return [colors[r * w:(r + 1) * w] for r in range(self.grid.height)]

    def run(
        self,
        floor: int = 0,
        suspend_at: int | None = None,
        checkpoint_every: int | None = None,
        on_checkpoint=None,
        progress_every: int | None = None,
        on_progress=None,
        interrupted=None,
    ) -> str:
        nodes = self.nodes
        stop_at = _NEVER if suspend_at is None else suspend_at
        next_poll = nodes + _INTERRUPT_POLL if interrupted is not None else _NEVER
        next_progress = (
            (nodes // progress_every + 1) * progress_every if progress_every else _NEVER
        )
        next_checkpoint = (
            (nodes // checkpoint_every + 1) * checkpoint_every
            if checkpoint_every else _NEVER
        )
        if self.pos < self.n_free:
            self.calls += 1
        while True:
            status = self._slice(
                floor, min(stop_at, next_poll, next_progress, next_checkpoint)
            )
            if status is not None:
                return status
            nodes = self.nodes
            if nodes >= stop_at:
                return INTERRUPTED
            if nodes >= next_poll:
                if interrupted():
                    return INTERRUPTED
                next_poll = nodes + _INTERRUPT_POLL
            if nodes >= next_progress:
                on_progress(nodes, self.tables.frontier_cells(self.pos))
                next_progress += progress_every
            if nodes >= next_checkpoint:
                on_checkpoint(Checkpoint(self.grid, tuple(self.branch), nodes))
                next_checkpoint += checkpoint_every

    def _slice_c(self, floor: int, limit: int) -> str | None:
        st = self._state
        st[:] = (self.pos, self.start, self.nodes, self.tests, self.calls, self.max_pos)
        code = self._kernel(
            self.n_free, self.k, *self._csr, self._forb, self._cbranch,
            self._jtop, self._journal, st, floor, min(limit, _NEVER),
        )
        self.pos, self.start, self.nodes, self.tests, self.calls, self.max_pos = st
        self.branch[:] = self._cbranch[:self.pos]
        return _SLICE_STATUS[code]

    def _slice_naive(self, floor: int, limit: int) -> str | None:
        k = self.k
        n = self.n_free
        scan = self.tables.naive_scan
        free = self.tables.free
        colors = self.cell_colors
        branch = self.branch
        pos = self.pos
        start = self.start
        nodes = self.nodes
        tests = self.tests
        calls = self.calls
        max_pos = self.max_pos

        status = None
        while True:
            if pos == n:
                status = SAT
                break
            found = 0
            c = start
            per_color = scan[pos]
            while c <= k:
                tests += 1
                ok = True
                for q in per_color[c - 1]:
                    if colors[q] == c:
                        ok = False
                        break
                if ok:
                    found = c
                    break
                c += 1
            if found:
                colors[free[pos]] = found
                branch.append(found)
                nodes += 1
                pos += 1
                start = 1
                if pos > max_pos:
                    max_pos = pos
                if pos < n:
                    calls += 1
                if nodes >= limit:
                    break
            else:
                if pos == floor:
                    status = UNSAT
                    break
                pos -= 1
                c = branch.pop()
                colors[free[pos]] = 0
                start = c + 1

        self.pos = pos
        self.start = start
        self.nodes = nodes
        self.tests = tests
        self.calls = calls
        self.max_pos = max_pos
        return status


def _search(grid: GridSpec, naive: bool, decisions=(), error_cls=None, nodes: int = 0,
            floor: int = 0, **events) -> SolveResult:
    """Replay ``decisions`` on a fresh engine, then run it from ``nodes`` on."""
    t0 = time.perf_counter()
    engine = _Engine(grid, naive=naive)
    engine.replay(decisions, error_cls)
    engine.nodes = nodes
    status = engine.run(floor, **events)
    stats = SearchStats(
        nodes=engine.nodes,
        tests=engine.tests,
        calls=engine.calls,
        max_depth=engine.tables.frontier_cells(engine.max_pos),
        elapsed=time.perf_counter() - t0,
        status=status,
    )
    coloring = None
    checkpoint = None
    if status == SAT:
        coloring = engine.coloring_rows()
        violation = verify(engine.grid, coloring)
        if violation is not None:
            raise RuntimeError(f"internal error: SAT coloring fails verify: {violation}")
    elif status == INTERRUPTED:
        checkpoint = Checkpoint(engine.grid, tuple(engine.branch), engine.nodes)
    return SolveResult(status=status, coloring=coloring, stats=stats,
                       checkpoint=checkpoint, engine=engine.route)


def solve(
    grid: GridSpec,
    naive: bool = False,
    suspend_at: int | None = None,
    checkpoint_every: int | None = None,
    on_checkpoint=None,
    progress_every: int | None = None,
    on_progress=None,
    interrupted=None,
) -> SolveResult:
    """Search the whole window for a packing coloring extending the anchors.

    Sequential and bit-deterministic. SAT comes with a verified coloring;
    UNSAT means the deterministic exhaustion completed with no solution;
    INTERRUPTED (from ``suspend_at`` or the ``interrupted`` flag callable)
    comes with a resumable checkpoint.

    Args:
        grid: window, color budget, anchors.
        naive: use the ball-rescan admissibility test instead of the
            compiled kernel (slow; for differential runs).
        suspend_at: stop once this many nodes have been counted.
        checkpoint_every / on_checkpoint: invoke the callback with a
            rolling Checkpoint every N nodes, without stopping.
        progress_every / on_progress: invoke ``on_progress(nodes,
            frontier_cells)`` every N nodes.
        interrupted: zero-argument callable polled every 65536 nodes; a
            true result suspends the search with a checkpoint.
    """
    return _search(grid, naive, suspend_at=suspend_at, checkpoint_every=checkpoint_every,
                   on_checkpoint=on_checkpoint, progress_every=progress_every,
                   on_progress=on_progress, interrupted=interrupted)


def resume(
    checkpoint: Checkpoint,
    naive: bool = False,
    suspend_at: int | None = None,
    checkpoint_every: int | None = None,
    on_checkpoint=None,
    progress_every: int | None = None,
    on_progress=None,
    interrupted=None,
) -> SolveResult:
    """Continue a suspended run to the same final (status, nodes).

    Only the node counter carries across a suspension; tests, calls,
    max_depth and elapsed restart from the resume point.
    """
    return _search(checkpoint.grid, naive, checkpoint.branch, CorruptCheckpoint,
                   checkpoint.nodes, suspend_at=suspend_at,
                   checkpoint_every=checkpoint_every, on_checkpoint=on_checkpoint,
                   progress_every=progress_every, on_progress=on_progress,
                   interrupted=interrupted)


def solve_unit(unit: WorkUnit, naive: bool = False) -> SolveResult:
    """Search one work unit's subtree; nodes count only below the prefix."""
    return _search(unit.grid, naive, unit.prefix, CorruptUnit, floor=len(unit.prefix))


def split(grid: GridSpec, depth: int) -> SplitResult:
    """Enumerate every consistent prefix of the given length, in DFS order.

    The emitted units partition the search space below the split depth.
    Assignments spent on prefixes that die before reaching the depth are
    returned as prefix overhead so that node counts stay reconcilable.
    """
    engine = _Engine(grid, naive=True)
    if not 1 <= depth <= engine.n_free:
        raise ValueError(f"split depth {depth} outside 1..{engine.n_free}")
    engine.n_free = depth  # cut the tree: a complete prefix counts as SAT
    units: list[WorkUnit] = []
    cum: list[int] = []
    while engine.run() == SAT:
        units.append(WorkUnit(grid, tuple(engine.branch)))
        cum.append(engine.nodes)
        engine.pos -= 1  # undo the last decision and go on with its next color
        engine.start = engine.branch.pop() + 1
        engine.cell_colors[engine.tables.free[engine.pos]] = 0
    emitted = len({u.prefix[:i] for u in units for i in range(1, depth + 1)})
    return SplitResult(
        units=tuple(units),
        depth=depth,
        emitted_prefix_assignments=emitted,
        prefix_overhead=engine.nodes - emitted,
        assignments_at_emission=tuple(cum),
    )


@dataclass(frozen=True)
class UnitOutcome:
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


def _unit_worker(unit: WorkUnit) -> UnitOutcome:
    result = solve_unit(unit)
    return UnitOutcome(prefix=unit.prefix, status=result.status, coloring=result.coloring,
                       engine=result.engine, **result.stats.counters())


def default_workers() -> int:
    cap = os.environ.get("PACKLAT_THREADS")
    count = os.cpu_count() or 1
    if cap:
        try:
            count = min(count, max(1, int(cap)))
        except ValueError:
            pass
    return count


def solve_parallel(
    grid: GridSpec,
    depth: int,
    workers: int | None = None,
    early_exit: bool = False,
) -> SolveResult:
    """Split the search and run the units across worker processes.

    Without ``early_exit`` every unit runs to completion and the merged
    node count reproduces the sequential one exactly, independent of
    scheduling. With it, the first SAT unit wins and counting is only a
    lower bound (flagged in the result).
    """
    import multiprocessing

    t0 = time.perf_counter()
    split_result = split(grid, depth)
    if workers is None:
        workers = default_workers()
    workers = max(1, min(workers, len(split_result.units) or 1))

    outcomes: list[UnitOutcome] = []
    early_hit = False
    with contextlib.ExitStack() as stack:
        run_units = map
        if workers > 1:
            _load_kernel()  # build or load once here, not in every worker
            pool = stack.enter_context(multiprocessing.get_context().Pool(workers))
            # imap_unordered yields the first SAT as soon as any worker finds it
            run_units = pool.imap_unordered if early_exit else pool.map
        for outcome in run_units(_unit_worker, split_result.units):
            outcomes.append(outcome)
            if early_exit and outcome.status == SAT:
                early_hit = True
                break  # leaving the block terminates the pool

    elapsed = time.perf_counter() - t0
    unit_total = sum(o.nodes for o in outcomes)
    if early_hit:  # the loop stopped at the one SAT outcome it holds
        status, coloring, sequential = SAT, outcomes[-1].coloring, unit_total
    else:
        status, coloring, sequential, unit_total = merge_outcomes(
            split_result, outcomes
        )
    stats = SearchStats(
        nodes=sequential,
        tests=sum(o.tests for o in outcomes),
        calls=sum(o.calls for o in outcomes),
        max_depth=max((o.max_depth for o in outcomes), default=0),
        elapsed=elapsed,
        status=status,
    )
    info = ParallelInfo(
        depth=depth,
        units=len(split_result.units),
        unit_nodes_total=unit_total,
        emitted_prefix_assignments=split_result.emitted_prefix_assignments,
        prefix_overhead=split_result.prefix_overhead,
        count_reproducible=not early_hit,
        early_exit=early_exit,
        workers=workers,
    )
    engine = "+".join(sorted({o.engine for o in outcomes})) or None
    return SolveResult(status=status, coloring=coloring, stats=stats,
                       parallel=info, engine=engine)
