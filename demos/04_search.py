"""The enumeration search for girth-maximum (m, 3) graphs, m = b*k^2.

Candidates are built from a single (b*k)-cycle q1 and a circulant
shift j:  p1 = scale_up(q1, k),  p2 = I,  p3 = C_j.  The search scores
every pair with 2j < m (the transpose of (q1, j) is (q1^-1, m - j), with
the same girth) and reports the best girth with a deterministic witness.

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
from girthmax.bounds import factorize_bk

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
# girth never exceeds 2*b*k; at k=5 the maximum 8 sits just under that
# ceiling of 10.
print("family ceiling at k=5:", 2 * cfg.b * cfg.k)
