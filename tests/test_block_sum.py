"""chains._block_sum, chains._block_map and chains._slot, the one
layout of sum-shaped complexes and of the maps between them, on a
hand-written layout over Z, Q and Z/6.

The layout has four slots: A shifted up by one, the zero complex, B,
and C shifted up by ten, so that C's degrees meet no other slot's.
Its pieces are -dA, dB, dC and a block F from A to B that is stored in
degree 0 only, so the same piece out of the next degree is zero.  The
sum is not a complex (d^2 != 0), which _block_sum does not check; the
test reads the layout alone.  Each slot's projection after its
inclusion is the identity of the slot, and the inclusions after the
projections add up to the identity of the sum.  _block_map places
pieces between slots at any degree and shift, leaves a block that a
piece does not give zero, negates a piece when asked, and reads a plain
complex as the one-slot layout ((c, 0),).
"""

import pytest

from chainbench.chains import ChainComplex, GradedMap, _block_map, _block_sum, _sizes, _slot
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
    total = _block_sum(ring, parts, pieces)
    assert [_sizes(parts, n) for n in (0, 1, 2, 10, 11)] == [[0, 0, 1, 0], [1, 0, 1, 0], [2, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 1]]
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
    total = _block_sum(ring, parts, pieces)
    summed = GradedMap.zero(total, total, 0)
    for j, (part, shift) in enumerate(parts):
        inc, prj = _slot(total, parts, j)
        assert (inc.source, inc.target, inc.degree) == (part, total, shift)
        assert (prj.source, prj.target, prj.degree) == (total, part, -shift)
        assert prj @ inc == GradedMap.identity(part)
        assert inc.is_zero() == prj.is_zero() == (part.total_rank == 0)
        summed = summed + inc @ prj
    assert summed == GradedMap.identity(total)


@pytest.mark.parametrize("ring", (ZZ, QQ, Zmod(6)), ids=str)
def test_block_map_of_degree_one_between_shifted_slots(ring):
    """B_n in slot 2 (shift 0) to A_n in slot 0 (shift 1), which sits
    in degree n + 1: a degree +1 map of the sum to itself."""
    parts, pieces = _layout(ring)
    total = _block_sum(ring, parts, pieces)
    b_to_a = {0: _m(ring, [[7]]), 1: _m(ring, [[7], [8]])}
    got = _block_map(total, parts, total, parts, 1, ((0, 2, b_to_a, False),))
    want = GradedMap.build(total, total, 1, {0: _m(ring, [[7], [0]]), 1: _m(ring, [[0, 7], [0, 8]])})
    assert repr(got) == repr(want)


@pytest.mark.parametrize("ring", (ZZ, QQ, Zmod(6)), ids=str)
def test_block_map_piece_missing_in_a_degree_is_zero(ring):
    """A piece given in degree 1 only: the map has no block out of
    degree 0, and out of degree 1 the slot-0 column stays zero."""
    parts, pieces = _layout(ring)
    total = _block_sum(ring, parts, pieces)
    got = _block_map(total, parts, total, parts, 1, ((0, 2, {1: _m(ring, [[7], [8]])}, False),))
    assert repr(got) == repr(GradedMap.build(total, total, 1, {1: _m(ring, [[0, 7], [0, 8]])}))
    assert got.block(0).is_zero()


@pytest.mark.parametrize("ring", (ZZ, QQ, Zmod(6)), ids=str)
def test_block_map_negates_a_piece(ring):
    """C's boundary placed from slot 3 to itself, negated, as a degree
    -1 map: the block out of degree 11 is -dC and nothing else."""
    parts, pieces = _layout(ring)
    total = _block_sum(ring, parts, pieces)
    c = parts[3][0]
    got = _block_map(total, parts, total, parts, -1, ((3, 3, c._diff_map, True),))
    assert repr(got) == repr(GradedMap.build(total, total, -1, {11: _m(ring, [[-5]])}))
    plain = _block_map(total, parts, total, parts, -1, ((3, 3, c._diff_map, False),))
    assert got == -plain


@pytest.mark.parametrize("ring", (ZZ, QQ, Zmod(6)), ids=str)
def test_block_map_reads_a_plain_complex_as_one_slot(ring):
    """A plain complex c on either side is the layout ((c, 0),): B's
    identity into slot 2 is slot 2's inclusion, and out of it is its
    projection, whichever way the one-slot side is written."""
    parts, pieces = _layout(ring)
    total = _block_sum(ring, parts, pieces)
    b = parts[2][0]
    eye = dict(b._identity_blocks)
    inc, prj = _slot(total, parts, 2)
    assert repr(_block_map(b, b, total, parts, 0, ((2, 0, eye, False),))) == repr(inc)
    assert repr(_block_map(b, ((b, 0),), total, parts, 0, ((2, 0, eye, False),))) == repr(inc)
    assert repr(_block_map(total, parts, b, b, 0, ((0, 2, eye, False),))) == repr(prj)
    assert repr(_block_map(total, parts, b, ((b, 0),), 0, ((0, 2, eye, False),))) == repr(prj)
    f = GradedMap.build(b, b, 0, {0: _m(ring, [[2]]), 1: _m(ring, [[3]])})
    assert _block_map(b, b, b, b, 0, ((0, 0, f._block_map, False),)) == f
