"""The Smith worker's joined rows, live column window and sparse column
steps against the oracles in tests/.

The worker keeps each row of d joined with the row of p or of the
carried b, starts every row step at column min(i, j), and updates q and
qinv only where the source row is nonzero.  Its outputs must equal the
oracles' bit for bit; repr keeps 1 and Fraction(1) apart.  Property
tests (hypothesis, derandomized) draw wide, tall and rank-deficient
matrices and matrices with zero rows, carried b of no column, one
column and two more columns than a has rows, and entries drawn as
multiples of non-units so that pivots are often not units.  The only
row steps that add a lower row to an upper one are the divisibility
step add_row(t, bad_row, 1) over Z and the redo add_row(t - 1,
outside, 1) over composite Z/m, where the window starts at the upper
row; both are counted, so the edge cases of the window are known to
be reached.
"""

from fractions import Fraction
import random

import pytest
from hypothesis import given, settings, strategies as st

import snf_oracle
from chainbench import exact_linalg
from chainbench.chains import ChainComplex, homology
from chainbench.exact_linalg import QQ, ZZ, Matrix, NonFreeKernel, Zmod, kernel_basis, smith_normal_form, solve_linear
from chainbench.fuzz import random_complex

# Each ring with the non-units that entries are drawn as multiples of.
RINGS = {
    "Z": (ZZ, (2, 3)),
    "Q": (QQ, ()),
    "Z/7": (Zmod(7), ()),
    "Z/4": (Zmod(4), (2,)),
    "Z/6": (Zmod(6), (2, 3)),
    "Z/12": (Zmod(12), (2, 3, 4, 6)),
}
COMPOSITE = ("Z/4", "Z/6", "Z/12")
# The rings where an upward row step must fire; over Z/4, a prime
# power, every pivot's ideal contains the rest of the block.
UPWARD = ("Z", "Z/6", "Z/12")
SHAPES = ("wide", "tall", "rank-deficient", "zero rows")

PROPERTY = settings(max_examples=80, deadline=None, database=None, derandomize=True)


def _entries(ring, factors):
    if ring.kind == "Q":
        return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
    k = st.integers(-5, 5) if ring.kind == "Z" else st.integers(0, ring.modulus - 1)
    return st.builds(lambda f, x: ring.normalize(f * x), st.sampled_from(factors or (1,)), k)


@st.composite
def _matrices(draw, ring, factors, rows, cols):
    units = draw(st.booleans())
    entries = _entries(ring, (1,) + factors if units else factors)
    flat = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
    return Matrix(ring, rows, cols, tuple(tuple(flat[i * cols:(i + 1) * cols]) for i in range(rows)))


@st.composite
def systems(draw, ring, factors):
    """(a, b) with a of a drawn shape and b of width 0, 1 or rows + 2;
    half of the b are a @ x for a drawn x."""
    shape = draw(st.sampled_from(SHAPES))
    small, large = draw(st.integers(0, 3)), draw(st.integers(4, 7))
    rows, cols = {"wide": (small, large), "tall": (large, small)}.get(shape, (large, large))
    if shape == "rank-deficient":
        inner = draw(st.integers(0, rows - 1))
        a = draw(_matrices(ring, factors, rows, inner)) @ draw(_matrices(ring, factors, inner, cols))
    else:
        a = draw(_matrices(ring, factors, rows, cols))
    if shape == "zero rows":
        zero = draw(st.sets(st.integers(0, rows - 1), min_size=1, max_size=rows - 1))
        z = (ring.zero,) * cols
        a = Matrix(ring, rows, cols, tuple(z if i in zero else row for i, row in enumerate(a.entries)))
    width = draw(st.sampled_from((0, 1, rows + 2)))
    if draw(st.booleans()):
        b = a @ draw(_matrices(ring, factors, cols, width))
    else:
        b = draw(_matrices(ring, factors, rows, width))
    return a, b


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except NonFreeKernel as err:
        return f"NonFreeKernel: {err}"


def _check_smith(a):
    if a.ring.kind == "Zmod" and not a.ring.is_field():
        with pytest.raises(ValueError):
            smith_normal_form(a)
        return
    assert repr(smith_normal_form(a)) == repr(snf_oracle.smith_normal_form(a)), a


def _check_solve(a, b):
    ring = a.ring
    if ring.is_field():
        oracles = (snf_oracle._solve_field,)
    elif ring.kind == "Z":
        oracles = (snf_oracle.solve_integer_via_p,)
    else:
        oracles = (snf_oracle.solve_zmod_composite_dense, snf_oracle.solve_zmod_composite_via_p)
    got = solve_linear(a, b)
    for oracle in oracles:
        assert repr(got) == repr(oracle(a, b)), (oracle.__name__, a, b)
    if got is not None:
        assert a @ got == b


def _check_kernel(a):
    ring = a.ring
    if ring.is_field():
        want = repr(snf_oracle._kernel_field(a))
    elif ring.kind == "Z":
        snf = snf_oracle.smith_normal_form(a)
        want = repr(snf.q.cols_slice(snf.rank, a.cols))
    else:
        want = _outcome(snf_oracle.kernel_zmod_composite_dense, a)
    assert _outcome(kernel_basis, a) == want, a


@pytest.fixture
def upward(monkeypatch):
    """The row steps (i, j, c) of the library worker with i < j."""
    seen = []
    add_row = exact_linalg._SnfWorker.add_row

    def counting(self, i, j, c, pairs=None):
        if i < j:
            seen.append((i, j, c))
        add_row(self, i, j, c, pairs)

    monkeypatch.setattr(exact_linalg._SnfWorker, "add_row", counting)
    return seen


@pytest.mark.parametrize("label", sorted(RINGS))
def test_worker_matches_oracles_bit_for_bit(label, upward):
    ring, factors = RINGS[label]

    @PROPERTY
    @given(data=st.data())
    def check(data):
        a, b = data.draw(systems(ring, factors))
        _check_smith(a)
        _check_solve(a, b)
        _check_kernel(a)

    check()
    if label in UPWARD:
        assert upward, label


@pytest.mark.parametrize("label", COMPOSITE)
def test_composite_homology_matches_oracle(label, upward):
    """Complexes C_2 -> C_1 -> C_0 with d_2 = [v; 0] and d_1 = [0 | w]
    for drawn v and w, and seeded random complexes, which mix their
    summands by a change of basis in every degree."""
    ring, factors = RINGS[label]

    @PROPERTY
    @given(data=st.data(), seed=st.integers(0, 2 ** 32))
    def check(data, seed):
        k, j, r, s = (data.draw(st.integers(0, 4)) for _ in range(4))
        v = data.draw(_matrices(ring, factors, k, s))
        w = data.draw(_matrices(ring, factors, r, j))
        d2 = v.vstack(Matrix.zero(ring, j, s))
        d1 = Matrix.zero(ring, r, k).hstack(w)
        block = ChainComplex.build(ring, {0: r, 1: k + j, 2: s}, {1: d1, 2: d2})
        mixed = random_complex(random.Random(seed), ring, max_atoms=6).complex
        for c in (block, mixed):
            got = homology(c)
            for n in c.degrees():
                assert repr(got[n]) == repr(snf_oracle.homology_at(c, n)), (n, c)

    check()
    if label in UPWARD:
        assert upward, label
