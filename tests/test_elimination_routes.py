"""The lean elimination routes against the oracles they replace.

Homology reads only what each elimination leaves: the Smith diagonal
without transforms over Z, a fraction-free rank over Q, and over
composite Z/m an elimination in Z/m itself that never lifts to Z or
factors m.  Property-based tests (hypothesis, derandomized) draw seeds
for the fuzz generators and compare every route with the oracle kept
in tests/: homology with snf_oracle.homology_at, rank with the oracle
row echelon form and Smith form, every transform subset of the Smith
worker with the full smith_normal_form.  The one field and rank
elimination, _eliminate, is checked through its callers rank, det and
_rref against the three loops it replaced, kept in snf_oracle.  Over Z
and composite Z/m, solve_linear, kernel_basis and _is_onto read one
diagonalization off the same way; they are checked against the routes
that read it ring by ring, kept there too.
"""

import itertools
import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import snf_oracle
from chainbench.chains import ChainComplex, GradedMap, homology, homology_at
from chainbench.exact_linalg import (
    MAX_MODULUS,
    QQ,
    TRANSFORMS,
    ZZ,
    Matrix,
    NonFreeKernel,
    Zmod,
    _cleared_rows,
    _invariant_chain,
    _is_onto,
    _is_prime,
    _rref,
    _smith,
    cycle_quotient_mod,
    det,
    invariant_factors,
    inverse,
    is_split_surjection,
    kernel_basis,
    rank,
    smith_normal_form,
    solve_linear,
)
from chainbench.fuzz import (
    random_complex,
    random_graded_map,
    random_matrix,
    random_unimodular,
)

SEEDS = st.integers(0, 2 ** 32)
PROPERTY = settings(max_examples=40, deadline=None, database=None, derandomize=True)

# Two ten-digit primes; their product lies below MAX_MODULUS.
P10, Q10 = 1000000007, 1000000009
COMPOSITE = (4, 6, 8, 9, 12, 30, 36, 100, 864, P10 * Q10)


def _check_homology(c: ChainComplex):
    got = homology(c)
    assert list(got) == list(c.degrees())
    for n in c.degrees():
        want = snf_oracle.homology_at(c, n)
        assert got[n] == want, (n, c)
        assert homology_at(c, n) == want, (n, c)
    return got


def _reduced(c: ChainComplex, ring) -> ChainComplex:
    """A complex over Z with its entries read in another ring."""
    return ChainComplex.build(ring, dict(c.ranks), {n: d.to_ring(ring) for n, d in c.diffs})


def three_term(rng, ring, r0, r1, r2) -> ChainComplex:
    """C_2 -> C_1 -> C_0 over Z/m with boundaries meeting cycles of every order.

    d_1 = A diag(x) V^-1 and d_2 = V diag(y) B for random A, B, a random
    unimodular V and y_i a multiple of m / gcd(x_i, m), so that
    d_1 d_2 = A diag(x_i y_i) B = 0.
    """
    m = ring.modulus
    xs = [rng.randrange(m) for _ in range(r1)]
    ys = [m // gcd(x, m) * rng.randrange(m) % m for x in xs]

    def diag(vals):
        return Matrix(ring, r1, r1, tuple(tuple(v if i == j else 0 for j in range(r1)) for i, v in enumerate(vals)))

    v = random_unimodular(rng, ring, r1, steps=3 * r1)
    d1 = random_matrix(rng, ring, r0, r1) @ diag(xs) @ inverse(v)
    d2 = v @ diag(ys) @ random_matrix(rng, ring, r1, r2)
    return ChainComplex.build(ring, {0: r0, 1: r1, 2: r2}, {1: d1, 2: d2})


@PROPERTY
@given(SEEDS)
def test_homology_matches_oracle_over_z_q_and_prime_fields(seed):
    rng = random.Random(seed)
    for ring in (ZZ, QQ, Zmod(5), Zmod(P10)):
        if ring.kind == "Zmod" and ring.modulus == P10:
            c = _reduced(random_complex(rng, ZZ, max_atoms=6).complex, ring)
        else:
            c = random_complex(rng, ring, max_atoms=6).complex
        _check_homology(c)


@PROPERTY
@given(SEEDS, st.sampled_from(COMPOSITE))
def test_composite_homology_matches_oracle(seed, m):
    ring = Zmod(m)
    rng = random.Random(seed)
    _check_homology(_reduced(random_complex(rng, ZZ, max_atoms=6).complex, ring))
    _check_homology(three_term(rng, ring, rng.randint(0, 5), rng.randint(1, 6), rng.randint(0, 5)))
    if m < 1000:
        # The generator's expected table factors m by trial division.
        sample = random_complex(rng, ring, max_atoms=6)
        got = _check_homology(sample.complex)
        for n, want in sample.expected.items():
            assert got.get(n, want) == want


def test_composite_homology_sees_torsion():
    """The composite generator is not trivial: it meets proper orders."""
    rng = random.Random(20261018)
    seen = set()
    for m in (12, 36, 864):
        for _ in range(20):
            c = three_term(rng, Zmod(m), 3, 4, 3)
            for h in _check_homology(c).values():
                seen.update(t for t in h.torsion if t != m)
    assert len(seen) >= 5


def test_two_large_primes_never_factored():
    """A modulus with two ten-digit prime factors answers at once."""
    m = P10 * Q10
    ring = Zmod(m)
    # Z/m --P--> Z/m: the kernel Q Z/m and the cokernel are both Z/P.
    c = ChainComplex.build(ring, {0: 1, 1: 1}, {1: Matrix.from_rows(ring, [[P10]])})
    start = time.perf_counter()
    h = homology(c)
    assert time.perf_counter() - start < 5.0
    assert h[0].torsion == (P10,) and h[1].torsion == (P10,)
    # diag(P, Q): Z/P + Z/Q = Z/m on both sides.
    d = Matrix.from_rows(ring, [[P10, 0], [0, Q10]])
    c = ChainComplex.build(ring, {0: 2, 1: 2}, {1: d})
    assert homology(c)[0].torsion == homology(c)[1].torsion == (m,)
    _check_homology(c)


def test_cycle_quotient_mod_by_hand():
    z4 = Zmod(4)
    two = Matrix.from_rows(z4, [[2]])
    zero = Matrix.zero(z4, 1, 0)
    # Z/4 --2--> Z/4: ker 2 = 2Z/4 and im 2 = 2Z/4 in the middle degree.
    assert cycle_quotient_mod(two, two) == ()
    assert cycle_quotient_mod(two, zero) == (2,)
    assert cycle_quotient_mod(Matrix.zero(z4, 0, 1), two) == (2,)
    z6 = Zmod(6)
    d = Matrix.from_rows(z6, [[2, 3]])
    # ker [2 3] over Z/6 has order 6 and is cyclic.
    assert cycle_quotient_mod(d, Matrix.zero(z6, 2, 0)) == (6,)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.lists(st.sampled_from((1, 2, 3, 4, 6, 8, 9, 12, 25, 36, 100, 864)), max_size=8))
def test_gcd_lcm_pairing_matches_trial_division(orders):
    assert _invariant_chain(orders) == snf_oracle.invariant_factors_of_cyclics(orders)


@PROPERTY
@given(SEEDS)
def test_rank_matches_rref_and_oracle(seed):
    rng = random.Random(seed)
    for ring in (ZZ, QQ, Zmod(5), Zmod(P10)):
        for _ in range(3):
            rows, cols = rng.randint(0, 7), rng.randint(0, 7)
            a = random_matrix(rng, ring, rows, cols, bound=rng.choice((1, 3, 50)))
            if rng.random() < 0.5 and rows > 1:
                # Repeat a row scaled, so that rank deficiency shows up.
                a = Matrix(ring, rows, cols, a.entries[:-1] + (tuple(2 * x for x in a.entries[0]),))
            r = rank(a)
            assert r == snf_oracle.smith_normal_form(a).rank, a
            if ring.is_field():
                assert r == len(_rref(a)[1]) == len(snf_oracle._rref(a)[1]), a


# The largest prime below 2^64: residues of 64 bits.
P64 = 2 ** 64 - 59
ELIMINATION_RINGS = (ZZ, QQ, Zmod(2), Zmod(5), Zmod(P64))


SHAPES = ("0xn", "nx0", "square", "tall", "wide")


def elimination_input(rng, ring, shape) -> Matrix:
    """A matrix of the given shape over ring: 0 x n, n x 0, square, tall
    or wide; dense or sparse; with zero rows and with rows repeated or
    scaled from earlier ones."""
    n, extra = rng.randint(0, 7), rng.randint(1, 4)
    rows, cols = {
        "0xn": (0, n), "nx0": (n, 0), "square": (n, n), "tall": (n + extra, n), "wide": (n, n + extra),
    }[shape]
    density = rng.choice((1.0, 0.6, 0.25, 0.1))
    bound = rng.choice((1, 9, 10 ** 6))

    def entry():
        if rng.random() >= density:
            return 0
        if ring.kind == "Zmod":
            return rng.randrange(ring.modulus)
        if ring.kind == "Q":
            return Fraction(rng.randint(-bound, bound), rng.choice((1, 2, 3, 12, 10 ** 6 + 3)))
        return rng.randint(-bound, bound)

    data = [[entry() for _ in range(cols)] for _ in range(rows)]
    for i in range(1, rows):
        roll = rng.random()
        if roll < 0.1:
            data[i] = [0] * cols
        elif roll < 0.2:
            k = rng.choice((1, -1, 2))
            data[i] = [k * x for x in data[rng.randrange(i)]]
    return Matrix(ring, rows, cols, tuple(map(tuple, data)))


@PROPERTY
@given(SEEDS)
def test_one_elimination_matches_the_loops_it_replaced(seed):
    """rank, det and _rref against _bareiss, _det_bareiss, _rref_rational
    and the normalising _rref, all kept in snf_oracle."""
    rng = random.Random(seed)
    for ring, shape in itertools.product(ELIMINATION_RINGS, SHAPES):
        a = elimination_input(rng, ring, shape)
        kind = ring.kind
        if kind == "Z":
            assert rank(a) == snf_oracle._bareiss(a.entries)[0], a
        elif kind == "Q":
            assert rank(a) == snf_oracle._bareiss(_cleared_rows(a.entries)[0])[0], a
        else:
            assert rank(a) == len(snf_oracle._rref(a)[1]), a
        if a.is_square():
            assert repr(det(a)) == repr(snf_oracle.det(a)), a
        if kind != "Z":
            want = repr(snf_oracle._rref(a))
            assert repr(_rref(a)) == want, a
            if kind == "Q":
                assert repr(snf_oracle._rref_rational(a)) == want, a


READ_OFF_RINGS = (ZZ, Zmod(4), Zmod(6), Zmod(12), Zmod(30), Zmod(P10 * Q10))


def read_off_input(rng, ring, shape) -> Matrix:
    """elimination_input with some rows, or all, multiplied by a prime
    factor of the modulus (over Z by 2 or 3), so that pivots that are
    not units show up over every ring."""
    a = elimination_input(rng, ring, shape)
    m = ring.modulus
    factor = rng.choice([f for f in (2, 3, 5, P10, Q10) if m % f == 0] if m else (2, 3))
    share = rng.choice((0.0, 0.5, 1.0))
    data = [[x * factor for x in row] if rng.random() < share else row for row in a.entries]
    return Matrix(ring, a.rows, a.cols, tuple(map(tuple, data)))


def _outcome(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except NonFreeKernel as err:
        return f"NonFreeKernel: {err}"


@PROPERTY
@given(SEEDS)
def test_one_read_off_matches_the_routes_it_replaced(seed):
    """solve_linear, kernel_basis and _is_onto over Z and composite Z/m
    against _solve_integer, _kernel_integer, solve_zmod_composite_diagonal,
    kernel_zmod_composite_diagonal and the three-branch _is_onto, all
    kept in snf_oracle: the same reprs, the same NonFreeKernel messages
    and the same verdicts, which is_split_surjection's section confirms."""
    rng = random.Random(seed)
    for ring, shape in itertools.product(READ_OFF_RINGS, SHAPES):
        a = read_off_input(rng, ring, shape)
        if ring == ZZ:
            old_solve, old_kernel = snf_oracle._solve_integer, snf_oracle._kernel_integer
            units = (1, -1)
        else:
            old_solve = snf_oracle.solve_zmod_composite_diagonal
            old_kernel = snf_oracle.kernel_zmod_composite_diagonal
            units = [u for u in (5, 7, 11, 13) if gcd(u, ring.modulus) == 1]
        assert _outcome(kernel_basis, a) == _outcome(old_kernel, a), a
        width = rng.randint(1, 3)
        for b in (
            random_matrix(rng, ring, a.rows, width, bound=9),
            a @ random_matrix(rng, ring, a.cols, width, bound=9),
            Matrix.zero(ring, a.rows, width),
        ):
            assert repr(solve_linear(a, b)) == repr(old_solve(a, b)), (a, b)
        widened = a.hstack(Matrix.identity(ring, a.rows).scale(rng.choice(units)))
        for c in (a, a.transpose(), widened):
            onto = _is_onto(c)
            assert onto == snf_oracle._is_onto(c), c
            assert onto == (is_split_surjection(c) is not None), c


def test_rank_rejects_composite_moduli():
    with pytest.raises(ValueError):
        rank(Matrix.from_rows(Zmod(6), [[2]]))


SUBSETS = [keep for k in range(len(TRANSFORMS) + 1) for keep in itertools.combinations(TRANSFORMS, k)]


@PROPERTY
@given(SEEDS)
def test_transform_subsets_match_full_smith(seed):
    rng = random.Random(seed)
    for ring in (ZZ, QQ, Zmod(7)):
        a = random_matrix(rng, ring, rng.randint(0, 6), rng.randint(0, 6), bound=9)
        full = smith_normal_form(a)
        assert invariant_factors(a) == full.invariant_factors
        for keep in SUBSETS:
            part = _smith(a, keep).result()
            assert part.d == full.d
            for name in TRANSFORMS:
                got = getattr(part, name)
                assert got == (getattr(full, name) if name in keep else None), (name, keep)


# ---------------------------------------------------------------------------
# Graded maps built by arithmetic skip build's checks


@PROPERTY
@given(SEEDS)
def test_graded_map_arithmetic_equals_build(seed):
    rng = random.Random(seed)
    ring = rng.choice((ZZ, QQ, Zmod(4), Zmod(5)))
    a = random_complex(rng, ring).complex
    b = random_complex(rng, ring).complex
    deg = rng.randint(-1, 1)
    f = random_graded_map(rng, a, b, deg)
    g = random_graded_map(rng, a, b, deg)
    h = random_graded_map(rng, b, a, rng.randint(-1, 1))
    results = [f + g, f - g, -f, f + (-f), h.compose(f), f.compose(h), f.leibniz(), (f - f).leibniz()]
    for r in results:
        assert r == GradedMap.build(r.source, r.target, r.degree, dict(r.blocks))
        assert all(not m.is_zero() for _, m in r.blocks)
        assert [n for n, _ in r.blocks] == sorted(n for n, _ in r.blocks)


# ---------------------------------------------------------------------------
# Moduli: exact primality below the cap, and the cap itself


def test_miller_rabin_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(64)
    for n in list(range(3000)) + [rng.randrange(MAX_MODULUS) for _ in range(3000)]:
        assert _is_prime(n) == sympy.isprime(n), n
    # Strong pseudoprimes to the first bases, and the largest 64-bit prime.
    for n in (3215031751, 2152302898747, 3474749660383, 341550071728321, 3825123056546413051):
        assert not _is_prime(n)
    assert _is_prime(2 ** 64 - 59)


def test_ring_caps_its_modulus_and_decides_field_once():
    assert Zmod(MAX_MODULUS).modulus == MAX_MODULUS
    with pytest.raises(ValueError):
        Zmod(MAX_MODULUS + 1)
    big = Zmod(10 ** 14 + 31)
    assert big.is_field() and not Zmod(P10 * Q10).is_field()
    assert big == Zmod(10 ** 14 + 31) and hash(big) == hash(Zmod(10 ** 14 + 31))
    assert repr(big) == "Ring(kind='Zmod', modulus=100000000000031)"
