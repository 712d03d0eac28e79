"""Balanced Tanner units: building, relabeling, serializing.

An (m, r) BTU is an m x m 0/1 matrix with r ones per row and column,
stored as r disjoint permutations. The Heawood graph appears here as
the (7, 3) BTU with circulant shifts {0, 1, 3}.

Run:  python demos/02_btu_matrices.py
"""

from girthmax import (
    Btu,
    IncompatiblePermutations,
    btu_from_matrix,
    circulant,
    identity,
    read_alist,
    same_matrix,
    write_alist,
    write_dense,
    write_dimacs,
)

heawood = Btu([circulant(7, 0), circulant(7, 1), circulant(7, 3)])
print("Heawood BTU:", heawood)
print(write_dense(heawood))

# Compatibility is checked on construction: two permutations that agree
# anywhere would stack two ones in one matrix cell.
try:
    Btu([identity(4), identity(4)])
except IncompatiblePermutations as exc:
    print("rejected:", exc)

# Row/column relabelings are graph isomorphisms; making one constituent
# the identity is the usual normal form.
shifted = Btu([circulant(7, 1), circulant(7, 3), circulant(7, 0)])
normal = shifted.normalize_to_identity(0)
print("normalized first constituent:", normal.perms[0].image)

# alist is the LDPC interchange format; the matrix is the round-trip
# object (a decomposition back into permutations need not preserve
# constituent order).
text = write_alist(heawood)
print("alist header lines:", text.splitlines()[:4])
matrix = read_alist(text)
recovered = btu_from_matrix(matrix)
print("round-trip matrix equal:", matrix == heawood.matrix())
print("recovered same matrix:  ", same_matrix(recovered, heawood))

# DIMACS edge format for graph tooling: left vertices 1..m, right m+1..2m.
print(write_dimacs(Btu([identity(3)])), end="")

# The matrix is also the bipartite graph (left vertex i per row i, right
# vertex c per column c) that the girth engines read; its numpy array
# serves anything array-shaped downstream.
print("dense array:\n", heawood.matrix().to_array())
