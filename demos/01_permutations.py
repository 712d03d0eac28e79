"""Permutation algebra: circulants, cycle types, scaling, k-cycle streams.

Run:  python demos/01_permutations.py
"""

from girthmax import (
    Permutation,
    ScalingStrategy,
    circulant,
    compose,
    cycle_type,
    enumerate_k_cycles,
    identity,
    inverse,
    one_based,
    relative_cycle_type,
    scale_up,
)

# One-line notation, 0-based internally, 1-based when rendered.
p = Permutation([1, 2, 0])
print("p            =", one_based(p), "(a 3-cycle)")
print("p inverse    =", one_based(inverse(p)))
print("p after p    =", one_based(compose(p, p)))

# Circulant shifts split into gcd(n, j) cycles of equal length.
for j in (1, 2, 8):
    c = circulant(12, j)
    print(f"cycle type of shift-{j} on 12 points:", cycle_type(c))

# The relation between two permutations is the cycle type of p o q^-1;
# it is what determines the girth of the 2-permutation graph they span.
print("relation of shift-2 vs shift-5 on 9 points:",
      relative_cycle_type(circulant(9, 2), circulant(9, 5)))

# Scaling replicates a permutation across k offset classes. The two
# digit conventions place the copies differently but both turn each
# cycle into k copies of itself.
q = Permutation([1, 2, 0])
print("block scale by 3:      ", one_based(scale_up(q, 3, ScalingStrategy.BLOCK)))
print("interleaved scale by 3:", one_based(scale_up(q, 3, ScalingStrategy.INTERLEAVED)))
print("cycle type either way: ", cycle_type(scale_up(q, 3)))

# Single k-cycles stream in lexicographic order: (k-1)! of them.
print("4-cycles:")
for cand in enumerate_k_cycles(4):
    print("  ", one_based(cand))
print("identity stays identity under composition checks:",
      compose(p, inverse(p)) == identity(3))
