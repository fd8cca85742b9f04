"""The Smith worker's derived pinv and carried right-hand sides.

The worker does not update pinv during the reduction.  It records the
row steps, and pinv is built at the end, either from d == p @ a @ q
(column j of a @ q divided by d_jj, when q is kept and every row of d
has a nonzero pivot) or by replaying the steps on the identity.  Both
routes must give the Smith data of snf_oracle.smith_normal_form to the
bit, with one elimination per call.  A solve over Z or composite Z/m
carries the rows of b through the row steps instead of keeping p and
multiplying p @ b at the end; snf_oracle keeps that route, and the
two must return the same solution or None.  repr keeps 1 and
Fraction(1) apart, so every comparison below is bit for bit.  A step
lost from the row sweep, the column sweep or the divisibility step
must make _smith raise AssertionError instead of repeating its passes
without end.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import snf_oracle
from chainbench import exact_linalg
from chainbench.exact_linalg import QQ, ZZ, Matrix, Zmod, smith_normal_form, solve_linear
from chainbench.exact_linalg import rank as matrix_rank
from chainbench.fuzz import random_matrix


def _drawn(rng, ring, rows, cols, rank, zero_rows=()):
    """A random rows x cols matrix of the given rank; the rows in
    zero_rows are zero, and one further row repeats an earlier one
    plus twice another when the other rows leave rank to spare."""
    z = (ring.zero,) * cols
    while True:
        data = [z if i in zero_rows else row for i, row in enumerate(random_matrix(rng, ring, rows, cols, bound=9).entries)]
        live = [i for i in range(rows) if i not in zero_rows]
        if len(live) > rank >= 2:
            data[live[-1]] = tuple(x + 2 * y for x, y in zip(data[live[0]], data[live[1]]))
        a = Matrix(ring, rows, cols, tuple(data))
        if matrix_rank(a) == rank:
            return a


def _pinv_inputs(ring):
    """(label, matrix) for each shape both pinv routes must handle."""
    rng = random.Random(20261019)
    return [
        ("30x30 nonsingular", _drawn(rng, ring, 30, 30, 30)),
        ("30x30 of rank 29", _drawn(rng, ring, 30, 30, 29)),
        ("20x30 of full row rank", _drawn(rng, ring, 20, 30, 20)),
        ("30x20", _drawn(rng, ring, 30, 20, 20)),
        ("12x10 with zero rows", _drawn(rng, ring, 12, 10, 9, zero_rows={0, 5, 11})),
        ("4x6 zero", Matrix.zero(ring, 4, 6)),
    ]


@pytest.mark.parametrize("ring", (ZZ, QQ, Zmod(7)), ids=str)
def test_both_pinv_routes_match_oracle_bit_for_bit(ring, monkeypatch):
    workers = []
    products = []

    class CountingWorker(exact_linalg._SnfWorker):
        def __init__(self, a, *args, **kwargs):
            workers.append(a)
            super().__init__(a, *args, **kwargs)

    matmul = Matrix.__matmul__

    def counting_matmul(self, other):
        products.append(self)
        return matmul(self, other)

    monkeypatch.setattr(exact_linalg, "_SnfWorker", CountingWorker)
    monkeypatch.setattr(Matrix, "__matmul__", counting_matmul)
    for label, a in _pinv_inputs(ring):
        workers.clear()
        products.clear()
        got = smith_normal_form(a)
        assert workers == [a], label
        # The division route reads a @ q off the worker's carried rows,
        # and the replay never forms it: neither multiplies a by q.
        divided = sum(1 for x in products if x is a)
        assert divided == 0, label
        assert repr(got) == repr(snf_oracle.smith_normal_form(a)), label


# ---------------------------------------------------------------------------
# Solves that carry b, against the solves that kept p


# Divisors of each composite modulus: entries drawn as their multiples
# give non-unit pivots with coprime gcds.  1000000016000000063 is
# 1000000007 * 1000000009.
SOLVE_RINGS = {
    "Z": (ZZ, ()),
    "Z/4": (Zmod(4), (2,)),
    "Z/6": (Zmod(6), (2, 3)),
    "Z/12": (Zmod(12), (2, 3, 4, 6)),
    "Z/36": (Zmod(36), (2, 3, 4, 6, 9, 12, 18)),
    "Z/1000000016000000063": (Zmod(1000000016000000063), (1000000007, 1000000009)),
}

SHAPES = ("wide", "tall", "square", "rank-deficient")

PROPERTY = settings(max_examples=100, deadline=None, database=None, derandomize=True)


def _entries(ring, divisors):
    if ring.kind == "Z":
        return st.integers(-6, 6)
    m = ring.modulus
    return st.builds(lambda f, k: f * k % m, st.sampled_from((1,) + divisors), st.integers(0, m - 1))


@st.composite
def _matrices(draw, ring, divisors, rows, cols):
    flat = draw(st.lists(_entries(ring, divisors), min_size=rows * cols, max_size=rows * cols))
    return Matrix(ring, rows, cols, tuple(tuple(flat[i * cols:(i + 1) * cols]) for i in range(rows)))


@st.composite
def systems(draw, ring, divisors):
    """(a, b): a wide, tall, square or of rank below its smaller side,
    and b with no column, one or two, or more columns than a has rows;
    half of the b are a @ x for a drawn x."""
    shape = draw(st.sampled_from(SHAPES))
    small, large = draw(st.integers(0, 3)), draw(st.integers(4, 6))
    rows, cols = {"wide": (small, large), "tall": (large, small)}.get(shape, (large, large))
    if shape == "rank-deficient":
        inner = draw(st.integers(0, rows - 1))
        a = draw(_matrices(ring, divisors, rows, inner)) @ draw(_matrices(ring, divisors, inner, cols))
    else:
        a = draw(_matrices(ring, divisors, rows, cols))
    width = draw(st.sampled_from((0, 1, 2, rows + 1, rows + 2)))
    if draw(st.booleans()):
        b = a @ draw(_matrices(ring, divisors, cols, width))
    else:
        b = draw(_matrices(ring, divisors, rows, width))
    return a, b


@pytest.mark.parametrize("label", sorted(SOLVE_RINGS))
@PROPERTY
@given(data=st.data())
def test_solve_carrying_b_matches_solve_via_p(label, data):
    ring, divisors = SOLVE_RINGS[label]
    a, b = data.draw(systems(ring, divisors))
    via_p = snf_oracle.solve_integer_via_p if ring.kind == "Z" else snf_oracle.solve_zmod_composite_via_p
    x = solve_linear(a, b)
    assert repr(x) == repr(via_p(a, b)), (a, b)
    if x is not None:
        assert a @ x == b


# At one pivot position the pivot key |d[t][t]| never rises from one
# pass to the next and stays the same for at most two passes in a row;
# over a field there is one pass per position.  A lost step breaks
# this, and _smith raises AssertionError where it would spin.
LOST_STEPS = {
    # The row sweep adds a multiple of the pivot row to a row below it.
    "row sweep": ("add_row", lambda i, j: i > j, ((2, 1), (4, 3))),
    # The column sweep adds a multiple of the pivot column to a later one.
    "column sweep": ("add_col", lambda j, i: True, ((1, 3), (0, 1))),
    # The divisibility step adds a row below to the pivot row.
    "divisibility step": ("add_row", lambda i, j: i < j, ((2, 0), (0, 3))),
}


@pytest.mark.parametrize("lost", sorted(LOST_STEPS))
def test_smith_raises_instead_of_spinning_when_a_step_is_lost(lost, monkeypatch):
    name, skipped, rows = LOST_STEPS[lost]
    original = getattr(exact_linalg._SnfWorker, name)

    def lossy(self, x, y, c, pairs=None):
        if not skipped(x, y):
            original(self, x, y, c, pairs)

    monkeypatch.setattr(exact_linalg._SnfWorker, name, lossy)
    rings = (ZZ,) if lost == "divisibility step" else (ZZ, QQ, Zmod(5))
    for ring in rings:
        with pytest.raises(AssertionError, match="pivot key"):
            exact_linalg._smith(Matrix.from_rows(ring, rows))

