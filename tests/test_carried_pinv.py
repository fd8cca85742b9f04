"""pinv read off the carried a @ q, against the product route.

With pinv kept, the Smith worker keeps a @ q transposed (aq_t), one
row per column of a, and every column step updates it as it updates
q_t.  When every row of d has a nonzero pivot, column j of pinv is
row j of aq_t divided by d_jj, and no product is formed.  The worker
that multiplied a @ q once the reduction ended is kept as
snf_oracle.ProductPinvSnfWorker; with it in place of
exact_linalg._SnfWorker the library runs the same step sequence, so the
Smith data must be equal by repr, which keeps 1 and Fraction(1) apart.
Property tests (hypothesis, derandomized) draw square, wide, tall and
rank-deficient matrices and 0 x n and n x 0 ones, with entries drawn
as multiples of non-units over Z so that d_jj is often not 1; dense
30 x 30 and 40 x 40 inputs with entries bounded by 9 are fixed.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import snf_oracle
from chainbench import exact_linalg
from chainbench.exact_linalg import QQ, ZZ, Matrix, Zmod, smith_normal_form
from chainbench.fuzz import random_matrix

RINGS = {
    "Z": ZZ,
    "Q": QQ,
    "Z/7": Zmod(7),
    "Z/18446744073709551557": Zmod(18446744073709551557),
}
SHAPES = ("square", "wide", "tall", "rank-deficient", "0 x n", "n x 0")

PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)


def _via_product(monkeypatch, a):
    """repr of smith_normal_form(a) with the oracle worker in place of the library's."""
    with monkeypatch.context() as patch:
        patch.setattr(exact_linalg, "_SnfWorker", snf_oracle.ProductPinvSnfWorker)
        return repr(smith_normal_form(a))


def _entries(ring):
    if ring.kind == "Z":
        return st.builds(lambda f, x: f * x, st.sampled_from((1, 2, 3, 6)), st.integers(-5, 5))
    return st.integers(-9, 9).map(ring.normalize)


@st.composite
def _matrices(draw, ring, rows, cols):
    flat = draw(st.lists(_entries(ring), min_size=rows * cols, max_size=rows * cols))
    return Matrix(ring, rows, cols, tuple(tuple(flat[i * cols:(i + 1) * cols]) for i in range(rows)))


@st.composite
def matrices(draw, ring):
    shape = draw(st.sampled_from(SHAPES))
    small, large = draw(st.integers(1, 3)), draw(st.integers(4, 7))
    if shape == "rank-deficient":
        inner = draw(st.integers(0, large - 1))
        return draw(_matrices(ring, large, inner)) @ draw(_matrices(ring, inner, large))
    rows, cols = {
        "square": (large, large),
        "wide": (small, large),
        "tall": (large, small),
        "0 x n": (0, large),
        "n x 0": (large, 0),
    }[shape]
    return draw(_matrices(ring, rows, cols))


@pytest.mark.parametrize("label", sorted(RINGS))
@PROPERTY
@given(data=st.data())
def test_carried_pinv_matches_the_product_route(label, data):
    a = data.draw(matrices(RINGS[label]))
    with pytest.MonkeyPatch.context() as monkeypatch:
        want = _via_product(monkeypatch, a)
    got = smith_normal_form(a)
    assert repr(got) == want, a
    assert got.p @ got.pinv == Matrix.identity(a.ring, a.rows)


@pytest.mark.parametrize("label", sorted(RINGS))
def test_dense_carried_pinv_matches_the_product_route(label, monkeypatch):
    """Over Z the last invariant factors of these inputs are not 1, so
    the division by d_jj is exercised."""
    ring = RINGS[label]
    rng = random.Random(20261022)
    for n in (30, 40):
        a = random_matrix(rng, ring, n, n, bound=9)
        got = smith_normal_form(a)
        assert repr(got) == _via_product(monkeypatch, a), n
        if ring == ZZ:
            assert got.diagonal[-1] != 1, n


def test_zero_row_input_carries_empty_rows():
    """A 0 x n input keeps n empty rows of a @ q transposed, which every
    column step may touch, and its pinv is the 0 x 0 matrix."""
    for n in (0, 1, 5):
        w = exact_linalg._SnfWorker(Matrix.zero(ZZ, 0, n))
        assert w.aq_t == [[] for _ in range(n)]
        if n > 1:
            w.swap_cols(0, n - 1)
            w.add_col(1, 0, 3)
        assert w.result().pinv == Matrix.zero(ZZ, 0, 0)


def test_only_kept_pinv_carries_a_times_q():
    """Solves, kernels and invariant factors keep no pinv and carry nothing."""
    a = random_matrix(random.Random(5), ZZ, 6, 6, bound=9)
    for keep in ((), ("q",), ("q", "qinv"), ("p", "q", "qinv")):
        assert exact_linalg._SnfWorker(a, keep).aq_t is None, keep
    assert exact_linalg._SnfWorker(a).aq_t == [list(col) for col in zip(*a.entries)]
