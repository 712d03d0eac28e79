"""The enumeration search for girth-maximum (m, 3) graphs, m = b*k^2.

Candidates are built from a single (b*k)-cycle q1 and a circulant
shift j:  p1 = scale_up(q1, k),  p2 = I,  p3 = C_j.  The search scores
the pairs with 2j < m (the transpose of (q1, j) is (q1^-1, m - j), with
the same girth), up to the first shift that meets the proven girth
ceiling, and reports the best girth with a deterministic witness.

Interleaved scaling with the full q1 enumeration attains the published
girths (k=5..8 -> 8, 8, 10, 10); block scaling tops out lower for the
small k, which is why table 1 is emitted with interleaved.

Run:  python demos/04_search.py
"""

import os

from girthmax import (
    ScalingStrategy,
    SearchConfig,
    construct_candidate,
    format_report,
    girth_bfs,
    search_r3,
    valid_shifts,
)
from girthmax.bounds import factorize_bk, moore_bipartite

# The shift sweep: coprime to m, away from the ends.
print("valid shifts for m=25, lower=5:", valid_shifts(25, 5))

# Given a plain m, the factorization picks the largest square k².
print("factor m=50:", factorize_bk(50, 3))

# A small search, end to end.
cfg = SearchConfig(k=5, strategy=ScalingStrategy.INTERLEAVED, worker_count=min(4, os.cpu_count() or 1))
result = search_r3(cfg)
print(format_report(cfg, result), end="")

# The witness rebuilds to the reported girth.
best = construct_candidate(result.witness_q1, result.witness_j, cfg)
print("rebuilt girth:", girth_bfs(best.matrix()).value)

# Block scaling on the same space for comparison.
block = search_r3(SearchConfig(k=5, strategy=ScalingStrategy.BLOCK))
print("block scaling best girth at k=5:", block.best_girth)

# Every candidate keeps the 2*b*k cycles of p1 against the identity, so
# girth never exceeds 2*b*k (10 at k=5); and a 3-regular bipartite graph
# on 2m = 50 vertices has girth at most 8 by the Moore bound. The k=5
# maximum meets that ceiling, so the search stopped at the shift that
# reached it.
moore = max(g for g in range(4, 2 * cfg.m, 2) if moore_bipartite(g, 3) <= 2 * cfg.m)
print("family ceiling at k=5:", 2 * cfg.b * cfg.k, "Moore ceiling:", moore)
