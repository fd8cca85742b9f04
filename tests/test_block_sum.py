"""chains._block_sum and chains._slot, the one layout of sum-shaped
complexes, on a hand-written layout over Z, Q and Z/6.

The layout has four slots: A shifted up by one, the zero complex, B,
and C shifted up by ten, so that C's degrees meet no other slot's.
Its pieces are -dA, dB, dC and a block F from A to B that is stored in
degree 0 only, so the same piece out of the next degree is zero.  The
sum is not a complex (d^2 != 0), which _block_sum does not check; the
test reads the layout alone.  Each slot's projection after its
inclusion is the identity of the slot, and the inclusions after the
projections add up to the identity of the sum.
"""

import pytest

from chainbench.chains import ChainComplex, GradedMap, _block_sum, _slot
from chainbench.exact_linalg import QQ, ZZ, Matrix, Zmod


def _m(ring, rows):
    return Matrix.from_rows(ring, rows)


def _layout(ring):
    a = ChainComplex.build(ring, {0: 1, 1: 2}, {1: _m(ring, [[1, 2]])})
    b = ChainComplex.build(ring, {0: 1, 1: 1}, {1: _m(ring, [[3]])})
    c = ChainComplex.build(ring, {0: 1, 1: 1}, {1: _m(ring, [[5]])})
    parts = ((a, 1), (ChainComplex.zero_complex(ring), 0), (b, 0), (c, 10))
    pieces = (
        (0, 0, a._diff_map, True),
        (2, 0, {0: _m(ring, [[4]])}, False),
        (2, 2, b._diff_map, False),
        (3, 3, c._diff_map, False),
    )
    return parts, pieces


@pytest.mark.parametrize("ring", (ZZ, QQ, Zmod(6)), ids=str)
def test_block_sum_lays_out_shifted_zero_and_missing_blocks(ring):
    parts, pieces = _layout(ring)
    total, sizes = _block_sum(ring, parts, pieces)
    assert [sizes(n) for n in (0, 1, 2, 10, 11)] == [[0, 0, 1, 0], [1, 0, 1, 0], [2, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 1]]
    # Out of degree 1: F on A_0 and dB on B_1.  Out of degree 2: -dA on
    # A_1 above a zero row, since F has no block in degree 1.  C keeps
    # its boundary, ten degrees up.
    want = ChainComplex.build(
        ring,
        {0: 1, 1: 2, 2: 2, 10: 1, 11: 1},
        {1: _m(ring, [[4, 3]]), 2: _m(ring, [[-1, -2], [0, 0]]), 11: _m(ring, [[5]])},
        validate=False,
    )
    assert repr(total) == repr(want)


@pytest.mark.parametrize("ring", (ZZ, QQ, Zmod(6)), ids=str)
def test_slots_split_the_sum(ring):
    parts, pieces = _layout(ring)
    total, sizes = _block_sum(ring, parts, pieces)
    summed = GradedMap.zero(total, total, 0)
    for j, (part, shift) in enumerate(parts):
        inc, prj = _slot(total, sizes, parts, j)
        assert (inc.source, inc.target, inc.degree) == (part, total, shift)
        assert (prj.source, prj.target, prj.degree) == (total, part, -shift)
        assert prj @ inc == GradedMap.identity(part)
        assert inc.is_zero() == prj.is_zero() == (part.total_rank == 0)
        summed = summed + inc @ prj
    assert summed == GradedMap.identity(total)
