"""GradedMap.identity and GradedMap.compose as they were before the
identity blocks were shared.

identity builds fresh identity matrices through the checking
GradedMap.build on every call, and compose multiplies every pair of
stored blocks, identity factors included.  tests/test_skipped_work.py
requires the library's results to be equal to these by repr.
"""

from __future__ import annotations

from chainbench.chains import ChainComplex, GradedMap
from chainbench.exact_linalg import Matrix, ShapeMismatch


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
