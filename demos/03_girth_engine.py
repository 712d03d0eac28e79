"""Girth computation: the BFS engine against the exhaustive oracle.

Run:  python demos/03_girth_engine.py
"""

import random

from girthmax import Btu, Permutation, circulant, girth_bfs, girth_oracle, identity

# Known graphs first.
k33 = Btu([identity(3), circulant(3, 1), circulant(3, 2)])
heawood = Btu([circulant(7, 0), circulant(7, 1), circulant(7, 3)])
print("K_{3,3} girth:", girth_bfs(k33.to_bipartite()).value)
print("Heawood girth:", girth_bfs(heawood.to_bipartite()).value)

# A 2-permutation BTU is a disjoint union of even cycles; [I_m, C_1] is
# the single 2m-cycle.
for m in (3, 5, 8):
    g = Btu([identity(m), circulant(m, 1)]).to_bipartite()
    print(f"[I_{m}, C_1] girth:", girth_bfs(g).value)

# A matching has no cycle at all.
print("perfect matching girth:", girth_bfs(Btu([identity(5)]).to_bipartite()).value)

# Witnesses are the cycle's vertices (left i -> i, right c -> m + c).
res = girth_bfs(heawood.to_bipartite(), want_witness=True)
print("witness cycle:", res.witness)

# The oracle enumerates every simple cycle (guarded to 32 vertices) and
# is kept algorithmically independent; on random BTUs the two always
# agree.
rng = random.Random(7)
for trial in range(5):
    m = rng.randint(4, 12)
    perms = []
    taken = [set() for _ in range(m)]
    for _ in range(3):
        while True:
            image = rng.sample(range(m), m)
            if all(v not in taken[i] for i, v in enumerate(image)):
                break
        perms.append(Permutation(image))
        for i, v in enumerate(image):
            taken[i].add(v)
    graph = Btu(perms).to_bipartite()
    fast, slow = girth_bfs(graph), girth_oracle(graph)
    print(f"random (m={m}, r=3): bfs={fast.value} oracle={slow.value}")
    assert fast.value == slow.value
