"""The integer-cleared routes over Q against the Fraction oracles.

Over Q a product clears each left row and the right factor of their
denominators and multiplies integers, and _rref runs fraction-free
Gauss-Jordan elimination on rows cleared of their denominators;
solve_linear and kernel_basis read their answers off that _rref.
Property-based tests (hypothesis, derandomized) draw rational matrices
with denominators up to 10**6, zero rows and columns, and the shapes
0 x n, n x 0 and 1 x 1, and compare every result with the
Fraction-by-Fraction routines kept in tests/matrix_oracle.py and
tests/snf_oracle.py.  repr keeps 1 and Fraction(1) apart, so every
comparison is bit for bit.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import matrix_oracle
import snf_oracle
from chainbench.exact_linalg import QQ, Matrix, _rref, kernel_basis, kron, solve_linear

PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)

BIG = 10 ** 6
ENTRIES = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
)
SIZES = st.integers(0, 6)


@st.composite
def rationals(draw, rows=SIZES, cols=SIZES):
    """A rational matrix, some of its rows and columns zeroed, or a
    product of two such through an inner dimension of at most 2, so
    that deficient ranks, free columns and solvable systems come up."""
    r, c = draw(rows), draw(cols)
    if draw(st.booleans()) and r and c:
        k = draw(st.integers(1, 2))
        return matrix_oracle.matmul(draw(rationals(st.just(r), st.just(k))), draw(rationals(st.just(k), st.just(c))))
    data = [[draw(ENTRIES) for _ in range(c)] for _ in range(r)]
    zero_rows = draw(st.sets(st.integers(0, max(r - 1, 0)), max_size=r))
    zero_cols = draw(st.sets(st.integers(0, max(c - 1, 0)), max_size=c))
    for i in range(r):
        for j in range(c):
            if i in zero_rows or j in zero_cols:
                data[i][j] = 0
    return Matrix(QQ, r, c, tuple(map(tuple, data)))


@st.composite
def products(draw):
    """Two rational matrices that can be multiplied, 1 x 1 included."""
    k = draw(SIZES)
    return draw(rationals(cols=st.just(k))), draw(rationals(rows=st.just(k)))


@st.composite
def systems(draw):
    """(a, b) with b drawn freely or as a @ x, so both answers occur."""
    a = draw(rationals())
    width = draw(st.integers(0, 3))
    if draw(st.booleans()):
        b = matrix_oracle.matmul(a, draw(rationals(st.just(a.cols), st.just(width))))
    else:
        b = draw(rationals(st.just(a.rows), st.just(width)))
    return a, b


@PROPERTY
@given(products())
def test_product_matches_oracle(ab):
    a, b = ab
    assert repr(a @ b) == repr(matrix_oracle.matmul(a, b))


@PROPERTY
@given(rationals(), rationals(rows=st.integers(0, 3), cols=st.integers(0, 3)))
def test_kron_matches_oracle(a, b):
    assert repr(kron(a, b)) == repr(matrix_oracle.kron(a, b))


@PROPERTY
@given(rationals())
def test_rref_and_kernel_match_oracle(a):
    assert repr(_rref(a)) == repr(snf_oracle._rref(a))
    assert repr(kernel_basis(a)) == repr(snf_oracle._kernel_field(a))


@PROPERTY
@given(systems())
def test_solve_matches_oracle(ab):
    a, b = ab
    assert repr(solve_linear(a, b)) == repr(snf_oracle._solve_field(a, b))


def test_edge_shapes_match_oracle():
    """0 x n, n x 0 and 1 x 1, each entry a zero, a unit or a fraction
    with large numerator and denominator."""
    cases = [Matrix.zero(QQ, 0, 3), Matrix.zero(QQ, 3, 0), Matrix.zero(QQ, 0, 0)]
    for x in (0, 1, Fraction(-999983, 1000000)):
        cases.append(Matrix.from_rows(QQ, [[x]]))
    for a in cases:
        assert repr(_rref(a)) == repr(snf_oracle._rref(a)), a
        assert repr(kernel_basis(a)) == repr(snf_oracle._kernel_field(a)), a
        for b in cases:
            if a.cols == b.rows:
                assert repr(a @ b) == repr(matrix_oracle.matmul(a, b)), (a, b)
            if a.rows == b.rows:
                assert repr(solve_linear(a, b)) == repr(snf_oracle._solve_field(a, b)), (a, b)
            assert repr(kron(a, b)) == repr(matrix_oracle.kron(a, b)), (a, b)


def test_rational_constants_are_shared():
    assert QQ.zero is QQ.zero and QQ.one is QQ.one
    assert repr((QQ.zero, QQ.one)) == repr((Fraction(0), Fraction(1)))


def test_rational_product_builds_one_matrix(monkeypatch):
    """A product over Q that is by no identity makes one Matrix, its
    result; the cleared integer rows are multiplied without wrapping
    them, so the count is the one a product over Z makes."""
    made = []
    original = Matrix.__post_init__

    def counted(self, canonical):
        made.append(canonical)
        original(self, canonical)

    a = Matrix.from_rows(QQ, [[Fraction(1, 2), 3], [0, Fraction(-2, 3)]])
    b = Matrix.from_rows(QQ, [[Fraction(5, 4), 0], [1, Fraction(1, 6)]])
    monkeypatch.setattr(Matrix, "__post_init__", counted)
    product = a @ b
    monkeypatch.undo()
    assert made == [True]
    assert repr(product) == repr(matrix_oracle.matmul(a, b))
