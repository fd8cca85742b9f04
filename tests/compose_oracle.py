"""GradedMap.identity, GradedMap.compose, GradedMap.leibniz and
find_contraction as they were before the library skipped or fused
their products.

identity builds fresh identity matrices through the checking
GradedMap.build on every call, and compose multiplies every pair of
stored blocks, identity factors included.  tests/test_skipped_work.py
requires the library's results to be equal to these by repr.

leibniz takes two products per degree, d f_n and f_(n-1) d, and adds
or subtracts the second; find_contraction builds a fresh identity and
subtracts k_(n-1) @ d_n from it in every degree.  tests/test_lean_matrix.py
and tests/test_chains.py require the library's one product per
degree to give the same maps by repr.
"""

from __future__ import annotations

from chainbench.chains import ChainComplex, GradedMap
from chainbench.exact_linalg import Matrix, ShapeMismatch, solve_linear


def identity(c: ChainComplex) -> GradedMap:
    return GradedMap.build(
        c, c, 0, {n: Matrix.identity(c.ring, r) for n, r in c.ranks}
    )


def compose(f: GradedMap, g: GradedMap) -> GradedMap:
    """f after g."""
    if g.target != f.source:
        raise ShapeMismatch("composition needs other.target == self.source")
    mine = f._block_map
    out = {}
    for n, m in g.blocks:
        left = mine.get(n + g.degree)
        if left is not None:
            out[n] = left @ m
    return GradedMap._unchecked(g.source, f.target, f.degree + g.degree, out)


def leibniz(f: GradedMap) -> GradedMap:
    """Graded differential df; chain maps are the maps with df == 0."""
    odd = f.degree % 2 == 1
    d_tgt, d_src = f.target._diff_map, f.source._diff_map
    out = {}
    for n, b in f.blocks:
        d = d_tgt.get(n + f.degree)
        if d is not None:
            out[n] = d @ b
    for n, b in f.blocks:
        d = d_src.get(n + 1)
        if d is not None:
            # Subtract (-1)^degree f_n d_(n+1) from the block in degree n + 1.
            corr = b @ d
            if n + 1 in out:
                out[n + 1] = out[n + 1] + corr if odd else out[n + 1] - corr
            else:
                out[n + 1] = corr if odd else -corr
    return GradedMap._unchecked(f.source, f.target, f.degree - 1, out)


def find_contraction(c: ChainComplex):
    """Homotopy k with dk == identity, or None when c is not contractible."""
    ring = c.ring
    blocks = {}
    for n in c.degrees():
        rhs = Matrix.identity(ring, c.rank(n))
        below = blocks.get(n - 1)
        if below is not None:
            rhs = rhs - below @ c.diff(n)
        k_n = solve_linear(c.diff(n + 1), rhs)
        if k_n is None:
            return None
        blocks[n] = k_n
    k = GradedMap.build(c, c, 1, blocks)
    if leibniz(k) != identity(c):
        raise AssertionError("solver produced a wrong contraction")
    return k
