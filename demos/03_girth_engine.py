"""Girth computation: the BFS engine against the exhaustive oracle.

Both engines read a 0/1 matrix (`BinaryMatrix`; `Btu.matrix()` for a
BTU) as a bipartite graph: a left vertex per row, a right vertex per
column, joined where the row has a one.

Run:  python demos/03_girth_engine.py
"""

import random

from girthmax import BinaryMatrix, Btu, Permutation, circulant, girth_bfs, girth_oracle, identity

# Known graphs first.
k33 = Btu([identity(3), circulant(3, 1), circulant(3, 2)])
heawood = Btu([circulant(7, 0), circulant(7, 1), circulant(7, 3)])
print("K_{3,3} girth:", girth_bfs(k33.matrix()).value)
print("Heawood girth:", girth_bfs(heawood.matrix()).value)

# A 2-permutation BTU is a disjoint union of even cycles; [I_m, C_1] is
# the single 2m-cycle.
for m in (3, 5, 8):
    g = Btu([identity(m), circulant(m, 1)]).matrix()
    print(f"[I_{m}, C_1] girth:", girth_bfs(g).value)

# A matching has no cycle at all.
print("perfect matching girth:", girth_bfs(Btu([identity(5)]).matrix()).value)

# Witnesses are the cycle's vertices (left i -> i, right c -> n_rows + c).
res = girth_bfs(heawood.matrix(), want_witness=True)
print("witness cycle:", res.witness)

# The matrix need be neither square nor regular: a 3 x 4 parity check
# with an empty row, whose two-row part closes one 4-cycle.
check = BinaryMatrix(3, 4, [(0, 1, 3), (0, 1), ()])
res = girth_bfs(check, want_witness=True)
print("3 x 4 girth:", res.value, "witness:", res.witness, "oracle:", girth_oracle(check).value)

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
    graph = Btu(perms).matrix()
    fast, slow = girth_bfs(graph), girth_oracle(graph)
    print(f"random (m={m}, r=3): bfs={fast.value} oracle={slow.value}")
    assert fast.value == slow.value
