/* Compiled DFS kernel of packlat's scan-order search (see search.py).

   A slice runs the tree from the state in st[] until a node count
   reaches `limit` (returns LIMIT right after that assignment), a complete
   coloring is found (SAT), or the cell at position `floor` runs out of
   colors (UNSAT). It counts nodes (assignments) and the deepest
   position reached; search.py derives tests and calls from those and
   the branch at each end. Counters and traversal order are those of the
   naive route, which the tests compare it against. The kernel trusts
   its input: search.py checks every decision read from a file first.

   forb[p]   forbidden colors of free cell p, bit c-1 for color c
   nbr       later free cells within distance c of cell p are
             nbr[row[p] .. row[p] + cnt[p*k + c-1]), sorted by distance
   journal   cells whose bit the assignment at p newly set are
             journal[jtop[p] .. jtop[p+1]) */
#include <stdint.h>

enum { LIMIT, SAT, UNSAT, DONE };
enum { POS, START, NODES, MAX_POS, UNIT, LIVE };

/* Color cell p with c: forbid c on the later cells within distance c. */
static inline void assign(int32_t k, const int32_t *row, const int32_t *cnt,
                          const int32_t *nbr, uint32_t *forb, int32_t *branch,
                          int32_t *jtop, int32_t *journal, int64_t p, int32_t c)
{
    uint32_t bit = 1u << (c - 1);
    int32_t top = jtop[p];
    const int32_t *q = nbr + row[p], *end = q + cnt[p * k + c - 1];
    for (; q < end; q++)
        if (!(forb[*q] & bit)) { forb[*q] |= bit; journal[top++] = *q; }
    jtop[p + 1] = top;
    branch[p] = c;
}

/* Take back the assignment at cell p. */
static inline void unassign(uint32_t *forb, const int32_t *branch,
                            const int32_t *jtop, const int32_t *journal, int64_t p)
{
    uint32_t keep = ~(1u << (branch[p] - 1));
    for (int32_t j = jtop[p]; j < jtop[p + 1]; j++) forb[journal[j]] &= keep;
}

static int slice(int32_t n, int32_t k, const int32_t *row, const int32_t *cnt,
                 const int32_t *nbr, uint32_t *forb, int32_t *branch,
                 int32_t *jtop, int32_t *journal, int64_t *st,
                 int32_t floor, int64_t limit)
{
    const uint32_t full = 0xffffffffu >> (32 - k);
    int64_t pos = st[POS], start = st[START], nodes = st[NODES], max_pos = st[MAX_POS];
    int status;
    for (;;) {
        if (pos == n) { status = SAT; break; }
        uint32_t avail = start > k ? 0 : ~forb[pos] & full & (~0u << (start - 1));
        if (avail) {
            int32_t c = __builtin_ctz(avail) + 1;
            assign(k, row, cnt, nbr, forb, branch, jtop, journal, pos++, c);
            nodes++;
            start = 1;
            if (pos > max_pos) max_pos = pos;
            if (nodes >= limit) { status = LIMIT; break; }
        } else {
            if (pos == floor) { status = UNSAT; break; }
            unassign(forb, branch, jtop, journal, --pos);
            start = branch[pos] + 1;
        }
    }
    st[POS] = pos; st[START] = start; st[NODES] = nodes; st[MAX_POS] = max_pos;
    return status;
}

/* The one entry point. A batch runs the subtrees of m prefixes of d
   decisions each, prefixes[i*d .. i*d + d), in turn from unit st[UNIT]
   on, each slice down to `floor` (d: the unit's subtree; 0: the rest of
   the tree from a resumed branch), with the counters of unit i written
   to out[3*i ..] as status, nodes, max_pos. Between two units the
   branch is undone only down to the prefix they share. Prefixes arrive
   checked: d <= n, each decision a color in 1..k allowed where it lands.
   Returns DONE after the last unit; SAT right after a SAT unit, its
   coloring in branch[]; and LIMIT once `budget` nodes are spent, the
   unit in flight kept in st[] (st[LIVE] = 1) for the next call and its
   counters so far in out[], status LIMIT. */
int packlat_batch(int32_t n, int32_t k, const int32_t *row, const int32_t *cnt,
                  const int32_t *nbr, uint32_t *forb, int32_t *branch,
                  int32_t *jtop, int32_t *journal, int64_t *st,
                  int32_t d, int32_t floor, int64_t m, const int32_t *prefixes,
                  int64_t *out, int64_t budget)
{
    for (; st[UNIT] < m; st[UNIT]++, st[LIVE] = 0) {
        if (!st[LIVE]) {
            const int32_t *pre = prefixes + st[UNIT] * d;
            int64_t pos = st[POS], shared = 0;
            while (shared < pos && shared < d && branch[shared] == pre[shared]) shared++;
            while (pos > shared) unassign(forb, branch, jtop, journal, --pos);
            for (; pos < d; pos++)
                assign(k, row, cnt, nbr, forb, branch, jtop, journal, pos, pre[pos]);
            st[POS] = d; st[START] = 1; st[NODES] = 0; st[MAX_POS] = d; st[LIVE] = 1;
        }
        int64_t before = st[NODES];
        int status = slice(n, k, row, cnt, nbr, forb, branch, jtop, journal,
                           st, floor, before + budget);
        int64_t *o = out + 3 * st[UNIT];
        o[0] = status; o[1] = st[NODES]; o[2] = st[MAX_POS];
        if (status == LIMIT) return LIMIT;
        budget -= st[NODES] - before;
        if (status == SAT) { st[UNIT]++; st[LIVE] = 0; return SAT; }
    }
    return DONE;
}
