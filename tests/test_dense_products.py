"""Wide dense integer products, one dot product per entry, against the row loop.

Over Z, and over Q on the cleared integer rows of _rational_product,
a product whose right factor is at least _DOT_WIDTH (16) columns wide
computes each entry of a left row with at most a quarter zeros as one
dot product with a column of the right factor.  Sparse rows, unit rows,
narrower products and Z/m keep the row loop, which
matrix_oracle.product_rows keeps as it was.  With it in place of
exact_linalg._product_rows every product must be equal by repr, which
keeps ints, bools and Fractions apart.  The inputs cover widths 15, 16,
17 and 40, left rows with 0%, 25%, 26% and 100% zeros, unit rows and
1000-bit entries, over Z, Q, Z/7 and Z/12.
"""

from fractions import Fraction
import random

import pytest
from hypothesis import given, settings, strategies as st

import matrix_oracle
from chainbench import exact_linalg
from chainbench.exact_linalg import QQ, ZZ, Matrix, Zmod

RINGS = {"Z": ZZ, "Q": QQ, "Z/7": Zmod(7), "Z/12": Zmod(12)}
WIDTHS = (15, 16, 17, 40)
# Zeros per left row of 100 entries: 0%, 25%, 26% and 100%.
ZERO_COUNTS = (0, 25, 26, 100)

PROPERTY = settings(max_examples=80, deadline=None, database=None, derandomize=True)


def _row_loop(a, b):
    """repr of a @ b with the oracle's row loop in place of the library's."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact_linalg, "_product_rows", matrix_oracle.product_rows)
        return repr(a @ b)


def _entry(rng, ring, bits):
    x = rng.randrange(1, 2 ** bits) * rng.choice((1, -1))
    if ring.kind == "Q":
        return Fraction(x, rng.randrange(1, 2 ** min(bits, 8)))
    return x


def _row(rng, ring, n, zeros, bits):
    row = [_entry(rng, ring, bits) for _ in range(n)]
    for k in rng.sample(range(n), zeros):
        row[k] = 0
    return row


@pytest.mark.parametrize("label", sorted(RINGS))
@pytest.mark.parametrize("bits", (4, 1000))
def test_products_at_the_width_and_density_bounds_match_the_row_loop(label, bits):
    """Left rows of 100 entries with each zero count, a unit row and a
    row that is a 1 plus one more nonzero entry, times right factors
    of each width."""
    ring = RINGS[label]
    rng = random.Random(bits)
    n = 100
    rows = [_row(rng, ring, n, zeros, bits) for zeros in ZERO_COUNTS]
    unit = [0] * n
    unit[7] = 1
    rows.append(unit)
    rows.append(unit[:3] + [5] + unit[4:])
    a = Matrix.from_rows(ring, rows)
    for width in WIDTHS:
        b = Matrix.from_rows(ring, [_row(rng, ring, width, k % 3, bits) for k in range(n)])
        assert repr(a @ b) == _row_loop(a, b), width


@st.composite
def products(draw, ring):
    """(a, b) with a of 1 to 12 columns, b of a width from WIDTHS or
    narrower, and each row of a dense, at the quarter bound, just past
    it, sparse, zero or a unit row."""
    n = draw(st.integers(1, 12))
    width = draw(st.sampled_from(WIDTHS + (1, 6)))
    bits = draw(st.sampled_from((3, 1000)))
    entry = st.integers(-(2 ** bits), 2 ** bits).filter(bool)
    if ring.kind == "Q":
        entry = st.builds(Fraction, entry, st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        zeros = draw(st.sampled_from((0, n // 4, n // 4 + 1, n - 1, n)))
        row = draw(st.lists(entry, min_size=n, max_size=n))
        for k in draw(st.permutations(range(n)))[:zeros]:
            row[k] = 0
        if draw(st.booleans()) and zeros == n - 1:
            row = [1 if x else 0 for x in row]
        rows.append(row)
    a = Matrix(ring, len(rows), n, tuple(map(tuple, rows)))
    b = Matrix(ring, n, width, tuple(tuple(draw(st.lists(entry, min_size=width, max_size=width))) for _ in range(n)))
    return a, b


@pytest.mark.parametrize("label", sorted(RINGS))
@PROPERTY
@given(data=st.data())
def test_drawn_products_match_the_row_loop(label, data):
    a, b = data.draw(products(RINGS[label]))
    assert repr(a @ b) == _row_loop(a, b), (a, b)


def test_a_unit_row_keeps_the_right_factors_entries():
    """A left row whose only nonzero entry is a 1 takes the right
    factor's row whole, so a bool entry stays a bool, as before."""
    b = Matrix.from_rows(ZZ, [[True, 2]])
    assert repr(Matrix.identity(ZZ, 1) @ b) == "Matrix(Z, 1x2, [[True, 2]])"
    assert repr(Matrix.identity(ZZ, 1) @ b) == _row_loop(Matrix.identity(ZZ, 1), b)
    wide = Matrix.from_rows(ZZ, [[True] + [2] * 16])
    assert repr(Matrix.identity(ZZ, 1) @ wide) == _row_loop(Matrix.identity(ZZ, 1), wide)


def _dot_terms(monkeypatch, a, b):
    """How many products the dot route multiplies for a @ b."""
    calls = []
    mul = exact_linalg.mul

    def counting(x, y):
        calls.append(1)
        return mul(x, y)

    with monkeypatch.context() as patch:
        patch.setattr(exact_linalg, "mul", counting)
        a @ b
    return len(calls)


def test_the_rule_reads_width_density_and_ring(monkeypatch):
    """Each dense row of a product at least 16 wide over Z or Q costs
    one term per entry of a @ b; narrower products, rows past a quarter
    zeros and Z/m take none."""
    rng = random.Random(3)
    n = 8
    for ring in (ZZ, QQ, Zmod(7), Zmod(12)):
        dense, sparse = _row(rng, ring, n, n // 4, 5), _row(rng, ring, n, n // 4 + 1, 5)
        for width in WIDTHS:
            b = Matrix.from_rows(ring, [_row(rng, ring, width, 0, 5) for _ in range(n)])
            wide = ring.modulus is None and width >= exact_linalg._DOT_WIDTH
            assert _dot_terms(monkeypatch, Matrix.from_rows(ring, [dense]), b) == (n * width if wide else 0), (ring, width)
            assert _dot_terms(monkeypatch, Matrix.from_rows(ring, [sparse]), b) == 0, (ring, width)
