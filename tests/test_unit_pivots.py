"""Homology over composite Z/m removes every unit pivot first.

chains._without_unit_pivots removes each entry u of a differential with
gcd(u, m) == 1 by one Schur-complement step, and homology, homology_at,
is_acyclic and same_homology read every degree off the unit-free
residual with exact_linalg.cycle_quotient_mod.  The tests compare them
by repr with the route that read each degree off the full
differentials, kept as snf_oracle.homology_per_degree_mod on the
cycle_quotient_mod that always ran both of its diagonalizations, and
with the lattice route snf_oracle.homology_at.  They pin an exact complex with
no unit entry, where the reduction removes nothing and
cycle_quotient_mod does all the work, and check the residual itself: a
complex with no unit entry left, two generators smaller per pivot.
Hypothesis runs derandomized, with no example database.
"""

import random
from math import gcd

from hypothesis import given, settings, strategies as st

import snf_oracle
from chainbench.chains import (
    ChainComplex,
    HomologySummary,
    _without_unit_pivots,
    homology,
    homology_at,
    is_acyclic,
    same_homology,
)
from chainbench.exact_linalg import Matrix, Zmod, cycle_quotient_mod
from chainbench.fuzz import random_complex

PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)

BIG = 1000000007 * 1000000009
MODULI = (4, 6, 12, 36, BIG)

# The proper divisors of each modulus that no unit multiplies into 1,
# as test_smith_transforms.SOLVE_RINGS lists them.
NON_UNITS = {
    6: (2, 3),
    12: (2, 3, 4, 6),
    36: (2, 3, 4, 6, 9, 12, 18),
}


def _window(c: ChainComplex):
    """Every degree of c and one on each side, or 0 +- 1 for the zero complex."""
    lo, hi = (c.min_degree, c.max_degree) if c.ranks else (0, 0)
    return range(lo - 1, hi + 2)


def _units(c: ChainComplex) -> int:
    m = c.ring.modulus
    return sum(1 for _, d in c.diffs for row in d.entries for x in row if gcd(x, m) == 1)


def _check_against_per_degree_route(c: ChainComplex) -> dict:
    got = homology(c)
    assert list(got) == list(c.degrees())
    for n in _window(c):
        want = snf_oracle.homology_per_degree_mod(c, n)
        assert cycle_quotient_mod(c.diff(n), c.diff(n + 1)) == want.torsion, (n, c)
        assert repr(homology_at(c, n)) == repr(want), (n, c)
        if n in got:
            assert repr(got[n]) == repr(want), (n, c)
    assert is_acyclic(c) == all(h.is_trivial() for h in got.values())
    return got


def _check_residual(c: ChainComplex) -> ChainComplex:
    r = _without_unit_pivots(c)
    r.validate()
    assert r.ring == c.ring and _units(r) == 0
    assert set(r.degrees()) <= set(c.degrees())
    assert all(r.rank(n) <= c.rank(n) for n in c.degrees())
    assert (c.total_rank - r.total_rank) % 2 == 0
    assert same_homology(c, r) and homology(r) == {n: h for n, h in homology(c).items() if r.rank(n)}
    return r


def test_exact_complex_with_no_unit_entry():
    """Z/6 -> (Z/6)^2 -> Z/6 through (2, 3), then [3, -2], is exact
    although no entry is a unit: the reduction removes nothing, and
    cycle_quotient_mod reads every degree off the complex as it is."""
    z6 = Zmod(6)
    c = ChainComplex.build(
        z6, {0: 1, 1: 2, 2: 1},
        {1: Matrix.from_rows(z6, [[3, -2]]), 2: Matrix.from_rows(z6, [[2], [3]])},
    )
    assert _units(c) == 0
    assert _without_unit_pivots(c) == c
    trivial = HomologySummary(0, (), 6)
    assert homology(c) == {0: trivial, 1: trivial, 2: trivial}
    for n in range(-1, 4):
        assert repr(homology_at(c, n)) == repr(trivial) == repr(snf_oracle.homology_at(c, n))
    assert is_acyclic(c) and same_homology(c, ChainComplex.zero_complex(z6))
    _check_against_per_degree_route(c)


def test_unit_pivots_by_hand():
    z4 = Zmod(4)
    # Z/4 --3--> Z/4: one unit pivot empties both degrees.
    unit = ChainComplex.build(z4, {0: 1, 1: 1}, {1: Matrix.from_rows(z4, [[3]])})
    assert _without_unit_pivots(unit) == ChainComplex.zero_complex(z4)
    assert homology(unit) == {0: HomologySummary(0, (), 4), 1: HomologySummary(0, (), 4)}
    # d_1 = [1 2], then d_2 = [2; -1], and C_3 with no differential.
    # The pivot 1 of d_1 takes row 0 and column 0, so row 0 leaves d_2.
    # What is left of d_2 is the unit -1, whose pivot takes the rest of
    # C_1 and C_2; C_3 stays.
    c = ChainComplex.build(
        z4, {0: 1, 1: 2, 2: 1, 3: 1},
        {1: Matrix.from_rows(z4, [[1, 2]]), 2: Matrix.from_rows(z4, [[2], [-1]])},
    )
    assert _without_unit_pivots(c) == ChainComplex.build(z4, {3: 1}, {})
    assert homology(c) == {n: HomologySummary(0, (4,) if n == 3 else (), 4) for n in range(4)}
    _check_against_per_degree_route(c)
    # Over Z/6 a row of non-units can gain a unit from another pivot's
    # step: row 0 of [[2, 3], [1, 1]] becomes [0, 1] after the pivot in
    # row 1, so the search takes a second pass.
    z6 = Zmod(6)
    c = ChainComplex.build(z6, {0: 2, 1: 2}, {1: Matrix.from_rows(z6, [[2, 3], [1, 1]])})
    assert _without_unit_pivots(c) == ChainComplex.zero_complex(z6)
    _check_against_per_degree_route(c)


def test_zero_and_one_degree_complexes():
    for m in MODULI:
        ring = Zmod(m)
        zero = ChainComplex.zero_complex(ring)
        assert _without_unit_pivots(zero) == zero
        assert homology(zero) == {} and is_acyclic(zero)
        _check_against_per_degree_route(zero)
        for n, r in ((0, 1), (-2, 3), (5, 2)):
            c = ChainComplex.build(ring, {n: r}, {})
            assert _without_unit_pivots(c) == c
            assert homology(c) == {n: HomologySummary(0, (m,) * r, m)}
            _check_against_per_degree_route(c)


def test_reduction_empties_degrees():
    """Over Z/4, a local ring, a unit-free exact complex is zero, so an
    acyclic complex reduces to nothing; mixed complexes lose whole
    degrees too, and homology still lists each of them."""
    rng = random.Random(20261020)
    emptied = 0
    for i in range(60):
        ring = Zmod(MODULI[i % len(MODULI)])
        acyclic = i % 3 == 0
        c = random_complex(rng, ring, max_atoms=rng.choice((2, 5, 9)), force_acyclic=acyclic).complex
        r = _check_residual(c)
        if acyclic and ring.modulus == 4:
            assert r.total_rank == 0, c
        emptied += sum(1 for n in c.degrees() if not r.rank(n))
        _check_against_per_degree_route(c)
    assert emptied > 30


@PROPERTY
@given(st.integers(0, 2 ** 32), st.sampled_from(MODULI), st.integers(0, 3), st.sampled_from((1, 3, 6, 10)))
def test_homology_matches_per_degree_route(seed, m, span, atoms):
    rng = random.Random(seed)
    sample = random_complex(rng, Zmod(m), max_atoms=atoms, degree_span=span, force_acyclic=seed % 5 == 0)
    c = sample.complex
    got = _check_against_per_degree_route(c)
    _check_residual(c)
    for n, want in sample.expected.items():
        assert repr(got[n]) == repr(want), (n, c)


@st.composite
def _unit_free_complexes(draw):
    """A complex over Z/6, Z/12 or Z/36 whose entries are all non-units.

    d_n = x_n * A_n for a drawn A_n and a proper divisor x_n of m with
    x_n * x_(n+1) == 0 mod m, so that d_n @ d_(n+1) == 0.  A multiplier
    of 0 leaves the differential out.
    """
    m = draw(st.sampled_from(sorted(NON_UNITS)))
    ring = Zmod(m)
    bottom = draw(st.integers(-2, 2))
    ranks = [draw(st.integers(0, 4)) for _ in range(draw(st.integers(1, 4)))]
    diffs, x = {}, 0
    for i in range(1, len(ranks)):
        x = draw(st.sampled_from([0] + [y for y in NON_UNITS[m] if x * y % m == 0]))
        rows, cols = ranks[i - 1], ranks[i]
        flat = draw(st.lists(st.integers(0, m - 1), min_size=rows * cols, max_size=rows * cols))
        entries = [[x * flat[r * cols + k] % m for k in range(cols)] for r in range(rows)]
        diffs[bottom + i] = Matrix(ring, rows, cols, tuple(map(tuple, entries)))
    return ChainComplex.build(ring, {bottom + i: r for i, r in enumerate(ranks)}, diffs)


@PROPERTY
@given(_unit_free_complexes())
def test_unit_free_complexes_match_lattice_oracle(c):
    """With no unit entry the residual is the complex itself, and both
    homology and homology_at agree with the lattice route over Z."""
    assert _units(c) == 0
    assert _without_unit_pivots(c) == c
    got = homology(c)
    assert list(got) == list(c.degrees())
    for n in _window(c):
        want = snf_oracle.homology_at(c, n)
        assert repr(snf_oracle.homology_per_degree_mod(c, n)) == repr(want), (n, c)
        assert repr(homology_at(c, n)) == repr(want), (n, c)
        if n in got:
            assert repr(got[n]) == repr(want), (n, c)
