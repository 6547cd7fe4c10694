/* Compiled DFS kernel of packlat's scan-order search (see search.py).

   One slice runs the tree from the state in st[] until a node count
   reaches `limit` (returns LIMIT right after that assignment), a complete
   coloring is found (SAT), or the cell at position `floor` runs out of
   colors (UNSAT). Counters and traversal order are those of the naive
   route, which the tests compare it against.

   forb[p]   forbidden colors of free cell p, bit c-1 for color c
   nbr       later free cells within distance c of cell p are
             nbr[row[p] .. row[p] + cnt[p*k + c-1]), sorted by distance
   journal   cells whose bit the assignment at p newly set are
             journal[jtop[p] .. jtop[p+1]) */
#include <stdint.h>

enum { LIMIT, SAT, UNSAT };
enum { POS, START, NODES, TESTS, CALLS, MAX_POS, N_STATE };

int packlat_slice(int32_t n, int32_t k, const int32_t *row, const int32_t *cnt,
                  const int32_t *nbr, uint32_t *forb, int32_t *branch,
                  int32_t *jtop, int32_t *journal, int64_t *st,
                  int32_t floor, int64_t limit)
{
    const uint32_t full = 0xffffffffu >> (32 - k);
    int64_t pos = st[POS], start = st[START], nodes = st[NODES];
    int64_t tests = st[TESTS], calls = st[CALLS], max_pos = st[MAX_POS];
    int status;
    for (;;) {
        if (pos == n) { status = SAT; break; }
        uint32_t avail = start > k ? 0 : ~forb[pos] & full & (~0u << (start - 1));
        if (avail) {
            int32_t c = __builtin_ctz(avail) + 1, top = jtop[pos];
            uint32_t bit = 1u << (c - 1);
            const int32_t *q = nbr + row[pos], *end = q + cnt[pos * k + c - 1];
            tests += c - start + 1;
            for (; q < end; q++)
                if (!(forb[*q] & bit)) { forb[*q] |= bit; journal[top++] = *q; }
            jtop[pos + 1] = top;
            branch[pos++] = c;
            nodes++;
            start = 1;
            if (pos > max_pos) max_pos = pos;
            if (pos < n) calls++;
            if (nodes >= limit) { status = LIMIT; break; }
        } else {
            tests += k - start + 1;
            if (pos == floor) { status = UNSAT; break; }
            pos--;
            uint32_t keep = ~(1u << (branch[pos] - 1));
            for (int32_t j = jtop[pos]; j < jtop[pos + 1]; j++) forb[journal[j]] &= keep;
            start = branch[pos] + 1;
        }
    }
    st[POS] = pos; st[START] = start; st[NODES] = nodes;
    st[TESTS] = tests; st[CALLS] = calls; st[MAX_POS] = max_pos;
    return status;
}
