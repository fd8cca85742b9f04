"""Tests for the exact linear algebra layer.

Oracles used here are independent of the code under test: sympy for
Smith invariant factors, ranks, and nullspaces; brute-force bounded-box
enumeration for Diophantine solvability; full enumeration for Z/m
solvability and kernel structure.  The earlier Smith reduction, kept in
snf_oracle, pins the exact Smith data the current one must return.
"""

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

import snf_oracle
from chainbench.exact_linalg import (
    Matrix,
    NonFreeKernel,
    QQ,
    Ring,
    ShapeMismatch,
    ZZ,
    Zmod,
    block_matrix,
    det,
    inverse,
    is_split_injection,
    is_split_surjection,
    kernel_basis,
    kron,
    rank,
    smith_normal_form,
    solve_linear,
    split_with_complement,
    unvec_row_major,
    vec_row_major,
)
from chainbench.exact_linalg import _rref


def mk(ring, data):
    return Matrix.from_rows(ring, data)


def rand_matrix(rng, ring, rows, cols, bound=4):
    if rows == 0 or cols == 0:
        return Matrix.zero(ring, rows, cols)
    if ring.kind == "Zmod":
        data = [[rng.randrange(ring.modulus) for _ in range(cols)] for _ in range(rows)]
    elif ring.kind == "Q":
        data = [
            [Fraction(rng.randint(-bound, bound), rng.choice([1, 1, 2, 3])) for _ in range(cols)]
            for _ in range(rows)
        ]
    else:
        data = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    return mk(ring, data)


def rand_unimodular(rng, n, steps=6):
    """Product of elementary integer matrices, hence determinant +-1."""
    m = Matrix.identity(ZZ, n)
    rows = [list(r) for r in m.entries]
    for _ in range(steps):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            rows[i][k] += c * rows[j][k]
    return mk(ZZ, rows)


# ---------------------------------------------------------------------------
# Ring and Matrix basics


def test_ring_validation():
    with pytest.raises(ValueError):
        Ring("R")
    with pytest.raises(ValueError):
        Ring("Zmod", 1)
    with pytest.raises(ValueError):
        Ring("Z", 5)
    assert str(Zmod(6)) == "Z/6"
    assert Zmod(5).is_field()
    assert not Zmod(6).is_field()
    assert QQ.is_field()
    assert not ZZ.is_field()


def test_normalization_and_equality():
    a = mk(Zmod(5), [[7, -1], [5, 3]])
    assert a.entries == ((2, 4), (0, 3))
    b = mk(QQ, [[1, 2]])
    assert isinstance(b[0, 0], Fraction)
    with pytest.raises(ValueError):
        ZZ.normalize(Fraction(1, 2))
    # Plain ints and fractions take a fast path; anything else keeps
    # the general coercions and their errors.
    assert type(QQ.normalize(3)) is Fraction and QQ.normalize(3) == 3
    assert Zmod(7).normalize(-1) == 6
    assert type(ZZ.normalize(Fraction(4, 2))) is int
    assert ZZ.normalize(True) is True
    with pytest.raises(TypeError, match="as an element of Z/7"):
        Zmod(7).normalize(Fraction(1, 2))
    with pytest.raises(TypeError, match="as a rational"):
        QQ.normalize(0.5)
    assert mk(ZZ, [[1]]) != mk(QQ, [[1]])
    assert hash(mk(ZZ, [[1, 2]])) == hash(mk(ZZ, [[1, 2]]))


def test_matrix_shape_errors():
    a = mk(ZZ, [[1, 2]])
    b = mk(ZZ, [[1, 2], [3, 4]])
    with pytest.raises(ShapeMismatch):
        a + b
    with pytest.raises(ShapeMismatch):
        a @ a
    with pytest.raises(ShapeMismatch):
        a.vstack(mk(ZZ, [[1]]))
    with pytest.raises(ShapeMismatch):
        mk(ZZ, [[1]]) @ mk(QQ, [[1]])


def test_matrix_arithmetic_smoke():
    a = mk(ZZ, [[1, 2], [3, 4]])
    b = mk(ZZ, [[0, 1], [1, 0]])
    assert a @ b == mk(ZZ, [[2, 1], [4, 3]])
    assert (a - a).is_zero()
    assert (-a) + a == Matrix.zero(ZZ, 2, 2)
    assert a.scale(2) == mk(ZZ, [[2, 4], [6, 8]])
    assert a.transpose() == mk(ZZ, [[1, 3], [2, 4]])
    assert a.hstack(b).cols_slice(2, 4) == b
    assert a.vstack(b).rows_slice(2, 4) == b
    assert a.select_columns([1]) == mk(ZZ, [[2], [4]])


def test_zero_dimension_edge_cases():
    e = Matrix.zero(ZZ, 0, 3)
    f = Matrix.zero(ZZ, 3, 0)
    assert (f @ e).shape == (3, 3)
    assert (f @ e).is_zero()
    assert (e @ f).shape == (0, 0)
    snf = smith_normal_form(e)
    assert snf.rank == 0 and snf.d.shape == (0, 3)
    assert kernel_basis(e) == Matrix.identity(ZZ, 3)
    assert kernel_basis(f).shape == (0, 0)
    assert solve_linear(e, Matrix.zero(ZZ, 0, 2)) == Matrix.zero(ZZ, 3, 2)
    assert det(Matrix.zero(ZZ, 0, 0)) == 1


def test_block_matrix_and_kron():
    a = mk(ZZ, [[1, 2]])
    b = mk(ZZ, [[3]])
    g = block_matrix(ZZ, [1], [2, 1], {(0, 0): a, (0, 1): b.transpose() @ b @ mk(ZZ, [[0]])})
    assert g == mk(ZZ, [[1, 2, 0]])
    # Blocks not given are zero, including whole block rows and columns.
    assert block_matrix(ZZ, [1], [2, 1], {(0, 0): a}) == g
    padded = block_matrix(Zmod(4), [2, 0, 1], [1, 2], {(0, 1): mk(Zmod(4), [[1, 5], [6, 3]])})
    assert padded == mk(Zmod(4), [[0, 1, 1], [0, 2, 3], [0, 0, 0]])
    assert block_matrix(QQ, [], [3], {}) == Matrix.zero(QQ, 0, 3)
    assert block_matrix(QQ, [2], [], {}) == Matrix.zero(QQ, 2, 0)
    for bad in (
        {(0, 0): mk(ZZ, [[1]])},
        {(0, 1): mk(ZZ, [[1], [2]])},
        {(0, 0): mk(QQ, [[1, 2]])},
        {(1, 0): a},
        {(0, 2): b},
    ):
        with pytest.raises(ShapeMismatch):
            block_matrix(ZZ, [1], [2, 1], bad)
    x = mk(ZZ, [[1, 0], [2, 1]])
    y = mk(ZZ, [[0, 1], [1, 1]])
    k = kron(x, y)
    assert k.shape == (4, 4)
    assert k[2, 1] == x[1, 0] * y[0, 1]


def test_vec_row_major_identity():
    rng = random.Random(101)
    for _ in range(25):
        p, q, m, n = (rng.randint(1, 3) for _ in range(4))
        a = rand_matrix(rng, ZZ, m, p)
        x = rand_matrix(rng, ZZ, p, q)
        b = rand_matrix(rng, ZZ, q, n)
        lhs = vec_row_major(a @ x @ b)
        rhs = kron(a, b.transpose()) @ vec_row_major(x)
        assert lhs == rhs
        assert unvec_row_major(vec_row_major(x), p, q) == x


def test_to_ring_conversions():
    a = mk(ZZ, [[3, -2]])
    assert a.to_ring(Zmod(5)) == mk(Zmod(5), [[3, 3]])
    assert a.to_ring(QQ)[0, 1] == Fraction(-2)
    assert mk(QQ, [[2]]).to_ring(ZZ) == mk(ZZ, [[2]])
    with pytest.raises(ValueError):
        mk(QQ, [[Fraction(1, 2)]]).to_ring(ZZ)
    assert mk(Zmod(7), [[6]]).to_ring(ZZ) == mk(ZZ, [[6]])


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_frozen_2x2_full():
    # Hand-worked reduction of [[2,4],[6,8]] under the pinned pivot rule.
    res = smith_normal_form(mk(ZZ, [[2, 4], [6, 8]]))
    assert res.d == mk(ZZ, [[2, 0], [0, 4]])
    assert res.p == mk(ZZ, [[1, 0], [3, -1]])
    assert res.q == mk(ZZ, [[1, -2], [0, 1]])
    assert res.pinv == mk(ZZ, [[1, 0], [3, -1]])
    assert res.qinv == mk(ZZ, [[1, 2], [0, 1]])


def test_snf_frozen_diagonals():
    assert smith_normal_form(mk(ZZ, [[6, 10], [15, 25]])).diagonal == (1, 0)
    assert smith_normal_form(mk(ZZ, [[2, 0], [0, 3]])).diagonal == (1, 6)
    assert smith_normal_form(mk(ZZ, [[0]])).diagonal == (0,)
    assert smith_normal_form(mk(ZZ, [[1, 0], [0, 0]])).diagonal == (1, 0)
    assert smith_normal_form(Matrix.identity(ZZ, 3)).diagonal == (1, 1, 1)


def check_snf_contract(a, res):
    assert res.p @ a @ res.q == res.d
    assert res.p @ res.pinv == Matrix.identity(a.ring, a.rows)
    assert res.pinv @ res.p == Matrix.identity(a.ring, a.rows)
    assert res.q @ res.qinv == Matrix.identity(a.ring, a.cols)
    assert res.qinv @ res.q == Matrix.identity(a.ring, a.cols)
    diag = res.diagonal
    for i in range(len(diag)):
        for j in range(a.cols):
            if j != i and i < a.rows:
                assert res.d[i, j] == a.ring.zero
    if a.ring.kind == "Z":
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            if x != 0:
                assert y % x == 0
            else:
                assert y == 0
    if a.ring.is_field():
        nz = [x for x in diag if x != a.ring.zero]
        assert all(x == a.ring.one for x in nz)


def test_snf_random_integer_contract_and_sympy_factors():
    rng = random.Random(20260818)
    for _ in range(150):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = rand_matrix(rng, ZZ, rows, cols, bound=6)
        res = smith_normal_form(a)
        check_snf_contract(a, res)
        expected = sympy_snf(sympy.Matrix(rows, cols, [int(x) for r in a.entries for x in r]))
        exp_diag = sorted(
            abs(int(expected[i, i])) for i in range(min(rows, cols)) if expected[i, i] != 0
        )
        assert sorted(int(x) for x in res.invariant_factors) == exp_diag


def test_snf_is_deterministic():
    rng = random.Random(7)
    a = rand_matrix(rng, ZZ, 4, 4, bound=9)
    r1 = smith_normal_form(a)
    r2 = smith_normal_form(a)
    assert (r1.d, r1.p, r1.q) == (r2.d, r2.p, r2.q)


def test_snf_over_fields():
    rng = random.Random(23)
    for ring in (QQ, Zmod(5)):
        for _ in range(40):
            a = rand_matrix(rng, ring, rng.randint(1, 4), rng.randint(1, 4))
            res = smith_normal_form(a)
            check_snf_contract(a, res)
            lifted = sympy.Matrix(
                a.rows, a.cols,
                [sympy.Rational(x) if ring is QQ else sympy.GF(5)(x) for r in a.entries for x in r],
            )
            if ring is QQ:
                assert res.rank == lifted.rank()


def _snf_oracle_inputs():
    """Seeded matrices over Z, Q, Z/2, Z/5 and Z/7 of every shape class."""
    rings = (ZZ, QQ, Zmod(2), Zmod(5), Zmod(7))
    for ring in rings:
        for rows, cols in ((0, 0), (0, 3), (3, 0), (3, 4)):
            yield Matrix.zero(ring, rows, cols)
        yield Matrix.identity(ring, 4)
    rng = random.Random(20261018)
    for k in range(1250):
        ring = rings[k % len(rings)]
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        bound = rng.choice((1, 2, 5, 20, 100))
        density = rng.choice((0.15, 0.5, 1.0))
        data = []
        for _ in range(rows):
            row = []
            for _ in range(cols):
                x = rng.randint(-bound, bound) if rng.random() < density else 0
                if ring is QQ:
                    x = Fraction(x, rng.choice((1, 1, 2, 3, 7)))
                row.append(x)
            data.append(row)
        yield mk(ring, data)
    for _ in range(3):
        yield rand_matrix(rng, ZZ, 30, 30, bound=9)


def test_snf_matches_oracle_bit_for_bit():
    count = 0
    for a in _snf_oracle_inputs():
        got, want = smith_normal_form(a), snf_oracle.smith_normal_form(a)
        for name in ("d", "p", "q", "pinv", "qinv"):
            assert getattr(got, name) == getattr(want, name), (name, a)
        count += 1
    assert count >= 1000


def test_snf_of_large_identity_is_trivial():
    eye = Matrix.identity(ZZ, 300)
    res = smith_normal_form(eye)
    assert res.d == eye and res.p == eye and res.q == eye
    assert res.pinv == eye and res.qinv == eye


def test_snf_zmod_composite_rejected():
    with pytest.raises(ValueError):
        smith_normal_form(mk(Zmod(6), [[2]]))


# ---------------------------------------------------------------------------
# solve_linear


def brute_box_solutions(a, b, bound):
    """All integer x with entries in [-bound, bound] and a x == b (single column)."""
    found = []
    for cand in itertools.product(range(-bound, bound + 1), repeat=a.cols):
        x = Matrix.from_columns(ZZ, [cand], a.cols)
        if a @ x == b:
            found.append(x)
    return found


def test_solve_integer_against_box_oracle():
    rng = random.Random(3141)
    box = 3
    none_count = 0
    some_count = 0
    for _ in range(120):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        a = rand_matrix(rng, ZZ, rows, cols, bound=3)
        b = rand_matrix(rng, ZZ, rows, 1, bound=4)
        x = solve_linear(a, b)
        brute = brute_box_solutions(a, b, box)
        if x is not None:
            some_count += 1
            assert a @ x == b
        else:
            none_count += 1
            assert brute == []
        if brute:
            assert x is not None
    assert none_count > 5 and some_count > 5


def test_solve_integer_divisibility():
    assert solve_linear(mk(ZZ, [[2]]), mk(ZZ, [[3]])) is None
    assert solve_linear(mk(ZZ, [[2]]), mk(ZZ, [[6]])) == mk(ZZ, [[3]])
    # Multi-column right-hand side: all columns must be solvable.
    a = mk(ZZ, [[2, 0], [0, 3]])
    b = mk(ZZ, [[4, 2], [3, 3]])
    assert solve_linear(a, b) == mk(ZZ, [[2, 1], [1, 1]])
    assert solve_linear(a, mk(ZZ, [[1, 2], [3, 3]])) is None


def test_solve_rational_and_prime_field():
    rng = random.Random(99)
    for ring in (QQ, Zmod(7)):
        for _ in range(40):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            a = rand_matrix(rng, ring, rows, cols)
            xs = rand_matrix(rng, ring, cols, 2)
            b = a @ xs
            x = solve_linear(a, b)
            assert x is not None
            assert a @ x == b


def test_solve_rational_unsolvable():
    a = mk(QQ, [[1, 2], [2, 4]])
    b = mk(QQ, [[1], [3]])
    assert solve_linear(a, b) is None
    lifted = sympy.Matrix([[1, 2], [2, 4]])
    assert lifted.rank() < lifted.row_join(sympy.Matrix([[1], [3]])).rank()


def test_solve_zmod_composite_full_enumeration():
    rng = random.Random(555)
    for m in (4, 6):
        ring = Zmod(m)
        for _ in range(40):
            rows = rng.randint(1, 2)
            cols = rng.randint(1, 3)
            a = rand_matrix(rng, ring, rows, cols)
            b = rand_matrix(rng, ring, rows, 1)
            x = solve_linear(a, b)
            all_sols = [
                cand
                for cand in itertools.product(range(m), repeat=cols)
                if a @ Matrix.from_columns(ring, [cand], cols) == b
            ]
            if x is None:
                assert all_sols == []
            else:
                assert a @ x == b
                assert all_sols != []


# ---------------------------------------------------------------------------
# kernel_basis


def test_kernel_integer_contract():
    rng = random.Random(777)
    for _ in range(80):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = rand_matrix(rng, ZZ, rows, cols, bound=4)
        k = kernel_basis(a)
        assert (a @ k).is_zero()
        assert k.cols == cols - rank(a)
        if k.cols:
            # Saturated: the basis extends to a basis of the ambient lattice.
            assert all(x == 1 for x in smith_normal_form(k).invariant_factors)
            assert len(smith_normal_form(k).invariant_factors) == k.cols
        # Completeness on a small box: every kernel vector is a combination.
        for cand in itertools.product(range(-2, 3), repeat=cols):
            v = Matrix.from_columns(ZZ, [cand], cols)
            if (a @ v).is_zero():
                assert solve_linear(k, v) is not None


def test_kernel_field_matches_sympy_dimension():
    rng = random.Random(31337)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = rand_matrix(rng, QQ, rows, cols)
        k = kernel_basis(a)
        assert (a @ k).is_zero()
        sm = sympy.Matrix(rows, cols, [sympy.Rational(x) for r in a.entries for x in r])
        assert k.cols == len(sm.nullspace())
        assert rank(k) == k.cols


def module_is_free_of_rank(elements, m, cols):
    """Decide freeness of a finite Z/m-module given as a list of vectors.

    Uses torsion counting: a module with m**s elements is free of rank s
    exactly when, for every divisor d of m, the d-torsion has d**s
    elements.
    """
    size = len(elements)
    s = 0
    while m ** s < size:
        s += 1
    if m ** s != size:
        return False
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    for d in divisors:
        tor = sum(
            1 for e in elements if all((d * x) % m == 0 for x in e)
        )
        if tor != d ** s:
            return False
    return True


def test_kernel_zmod_composite_enumeration_oracle():
    rng = random.Random(2024)
    raised = 0
    returned = 0
    for m in (4, 6):
        ring = Zmod(m)
        for _ in range(50):
            rows = rng.randint(1, 2)
            cols = rng.randint(1, 3)
            a = rand_matrix(rng, ring, rows, cols)
            elements = [
                cand
                for cand in itertools.product(range(m), repeat=cols)
                if (a @ Matrix.from_columns(ring, [cand], cols)).is_zero()
            ]
            free = module_is_free_of_rank(elements, m, cols)
            try:
                k = kernel_basis(a)
            except NonFreeKernel:
                raised += 1
                assert not free
                continue
            returned += 1
            assert free
            assert (a @ k).is_zero()
            assert m ** k.cols == len(elements)
            for cand in elements:
                v = Matrix.from_columns(ring, [cand], cols)
                assert solve_linear(k, v) is not None
    assert raised > 3 and returned > 3


def test_kernel_zmod_frozen_cases():
    with pytest.raises(NonFreeKernel):
        kernel_basis(mk(Zmod(4), [[2]]))
    with pytest.raises(NonFreeKernel):
        kernel_basis(mk(Zmod(6), [[2]]))
    k = kernel_basis(mk(Zmod(6), [[0, 0]]))
    assert k == Matrix.identity(Zmod(6), 2)
    # Unit entry: trivial kernel.
    assert kernel_basis(mk(Zmod(6), [[5]])).cols == 0


# ---------------------------------------------------------------------------
# splittings, inverse, det


def test_inverse_random_unimodular():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 4)
        u = rand_unimodular(rng, n)
        ui = inverse(u)
        assert ui is not None
        assert u @ ui == Matrix.identity(ZZ, n)
        assert ui @ u == Matrix.identity(ZZ, n)
    assert inverse(mk(ZZ, [[2]])) is None
    assert inverse(mk(QQ, [[2]])) == mk(QQ, [[Fraction(1, 2)]])
    assert inverse(mk(Zmod(6), [[5]])) == mk(Zmod(6), [[5]])
    assert inverse(mk(Zmod(6), [[2]])) is None


def test_split_injection_and_surjection():
    rng = random.Random(42)
    for _ in range(30):
        big = rng.randint(2, 4)
        small = rng.randint(1, big)
        u = rand_unimodular(rng, big)
        a = u.cols_slice(0, small)
        r = is_split_injection(a)
        assert r is not None
        assert r @ a == Matrix.identity(ZZ, small)
        p = u @ Matrix.identity(ZZ, big).rows_slice(0, small).transpose()
        # p is big x small; its transpose-style surjection:
        s_map = (inverse(u)).rows_slice(0, small)
        sec = is_split_surjection(s_map)
        assert sec is not None
        assert s_map @ sec == Matrix.identity(ZZ, small)
    assert is_split_injection(mk(ZZ, [[2]])) is None
    assert is_split_injection(mk(QQ, [[2]])) is not None
    assert is_split_surjection(mk(ZZ, [[2, 3]])) is not None
    assert is_split_surjection(mk(ZZ, [[2, 4]])) is None


def test_split_with_complement_contract():
    rng = random.Random(4242)
    rings = [ZZ, QQ, Zmod(6)]
    for _ in range(30):
        ring = rng.choice(rings)
        big = rng.randint(2, 4)
        small = rng.randint(1, big)
        if ring.kind == "Z":
            u = rand_unimodular(rng, big)
        elif ring.kind == "Q":
            while True:
                u = rand_matrix(rng, QQ, big, big)
                if det(u) != 0:
                    break
        else:
            u = rand_unimodular(rng, big).to_ring(ring)
        a = u.cols_slice(0, small)
        got = split_with_complement(a)
        assert got is not None
        r, comp, proj = got
        eye_small = Matrix.identity(ring, small)
        eye_big = Matrix.identity(ring, big)
        assert r @ a == eye_small
        assert a @ r + comp @ proj == eye_big
        assert proj @ comp == Matrix.identity(ring, comp.cols)
        assert (r @ comp).is_zero()
        assert (proj @ a).is_zero()
    assert split_with_complement(mk(ZZ, [[3]])) is None


def test_det_against_sympy():
    rng = random.Random(1234)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, ZZ, n, n, bound=6)
        expected = int(sympy.Matrix(n, n, [int(x) for r in a.entries for x in r]).det())
        assert det(a) == expected
        assert det(a.to_ring(Zmod(7))) == expected % 7
        aq = a.to_ring(QQ)
        assert det(aq) == Fraction(expected)
    u = rand_unimodular(rng, 4)
    assert det(u) in (1, -1)


# ---------------------------------------------------------------------------
# One elimination core against the routines it replaced.  repr keeps the
# entry types apart (1 == Fraction(1), but their reprs differ), so every
# comparison below is bit for bit.


def test_field_elimination_matches_oracle_bit_for_bit():
    rng = random.Random(20261021)
    count = 0
    for a in _snf_oracle_inputs():
        if not a.ring.is_field():
            continue
        want_rows, want_pivots = snf_oracle._rref(a)
        assert repr(_rref(a)) == repr((want_rows, want_pivots)), a
        assert rank(a) == len(want_pivots)
        assert repr(kernel_basis(a)) == repr(snf_oracle._kernel_field(a)), a
        solvable = a @ rand_matrix(rng, a.ring, a.cols, 2)
        for b in (rand_matrix(rng, a.ring, a.rows, rng.randint(1, 3)), solvable):
            assert repr(solve_linear(a, b)) == repr(snf_oracle._solve_field(a, b)), (a, b)
        count += 1
    assert count >= 1000


def test_solve_without_unknowns_matches_elimination():
    """A system with no unknowns is answered without eliminating; the
    answer must be the one each elimination route gives."""
    routes = (
        (ZZ, snf_oracle._solve_integer),
        (Zmod(6), snf_oracle.solve_zmod_composite_diagonal),
        (QQ, snf_oracle._solve_field),
        (Zmod(5), snf_oracle._solve_field),
    )
    for ring, route in routes:
        for rows in (0, 1, 4):
            a = Matrix.zero(ring, rows, 0)
            cases = [Matrix.zero(ring, rows, 2)]
            if rows:
                cases.append(mk(ring, [[0, 0]] * (rows - 1) + [[0, 1]]))
            for b in cases:
                want = route(a, b)
                assert (want is None) == (not b.is_zero())
                assert repr(solve_linear(a, b)) == repr(want), (ring, rows, b)


def test_det_matches_oracle_bit_for_bit():
    rng = random.Random(20261022)
    for ring in (ZZ, QQ, Zmod(4), Zmod(7)):
        cases = [Matrix.zero(ring, 0, 0), Matrix.zero(ring, 3, 3), Matrix.identity(ring, 4)]
        for _ in range(120):
            n = rng.randint(1, 6)
            bound = rng.choice((1, 3, 9))
            if ring is QQ:
                data = [
                    [Fraction(rng.randint(-bound, bound), rng.choice((1, 2, 3, 4, 7, 12)))
                     for _ in range(n)]
                    for _ in range(n)
                ]
                a = mk(ring, data)
            else:
                a = rand_matrix(rng, ring, n, n, bound=bound)
            if n > 1 and rng.random() < 0.2:
                a = mk(ring, a.entries[:-1] + (a.entries[0],))  # singular
            cases.append(a)
        for a in cases:
            assert repr(det(a)) == repr(snf_oracle.det(a)), a
    with pytest.raises(ShapeMismatch):
        det(Matrix.zero(QQ, 2, 3))


def _kernel_outcome(fn, a):
    try:
        return fn(a)
    except NonFreeKernel as err:
        return f"NonFreeKernel: {err}"


def _check_kernel_against_oracle(a):
    """The same NonFreeKernel message as the lattice oracle, or a basis
    of the same size that spans the oracle's module; returns the outcome."""
    got = _kernel_outcome(kernel_basis, a)
    want = _kernel_outcome(snf_oracle._kernel_zmod_composite, a)
    if isinstance(want, str):
        assert got == want, a
    else:
        assert isinstance(got, Matrix) and got.shape == want.shape, a
        assert (a @ got).is_zero(), a
        assert snf_oracle._solve_zmod_composite(got, want) is not None, a
        assert snf_oracle._solve_zmod_composite(want, got) is not None, a
    return got


def test_kernel_zmod_composite_matches_oracle():
    rng = random.Random(20261023)
    outcomes = []
    for ring in (Zmod(4), Zmod(6), Zmod(12)):
        cases = [Matrix.zero(ring, 0, 3), Matrix.zero(ring, 2, 0), Matrix.zero(ring, 2, 3),
                 Matrix.identity(ring, 3)]
        for _ in range(80):
            cases.append(rand_matrix(rng, ring, rng.randint(1, 3), rng.randint(1, 4)))
        for a in cases:
            outcomes.append(_check_kernel_against_oracle(a))
    raised = sum(1 for o in outcomes if isinstance(o, str))
    assert 20 < raised < len(outcomes) - 20


def test_rank_variants():
    a = mk(ZZ, [[2, 4], [1, 2]])
    assert rank(a) == 1
    assert rank(a.to_ring(QQ)) == 1
    with pytest.raises(ValueError):
        rank(a.to_ring(Zmod(6)))


# ---------------------------------------------------------------------------
# Kernels and solves over composite Z/m against the congruence lattice,
# on hypothesis inputs.  A basis is not unique, so the two routes must
# agree on the verdict: the same NonFreeKernel message, or bases with
# the same number of columns that span the same module, and a solve
# returns None exactly when the oracle does.  Entries are drawn as
# multiples of divisors of m, so that non-unit pivots with coprime
# gcds, where the diagonalization needs its ideal step, come up often.
# 1000000016000000063 is 1000000007 * 1000000009.

DIVISORS = {
    4: (2,),
    6: (2, 3),
    12: (2, 3, 4, 6),
    30: (2, 3, 5, 6, 10, 15),
    36: (2, 3, 4, 6, 9, 12, 18),
    1000000016000000063: (1000000007, 1000000009),
}

SETTINGS = settings(derandomize=True, database=None, max_examples=100, deadline=None)


def _multiples(m, factors):
    return st.builds(lambda f, k: f * k % m, st.sampled_from(factors), st.integers(0, m - 1))


ENTRIES = {m: _multiples(m, (0, 1) + fs) for m, fs in DIVISORS.items()}
NON_UNITS = {m: _multiples(m, fs) for m, fs in DIVISORS.items()}


@st.composite
def matrices(draw, m, rows=None, cols=None):
    """A matrix over Z/m of at most 4 x 5.  Half of them are diagonal
    with non-unit entries, whose coprime gcds make a free kernel out of
    several cyclic pieces; half of them have one row and one column zero."""
    rows = draw(st.integers(0, 4)) if rows is None else rows
    cols = draw(st.integers(0, 5)) if cols is None else cols
    if draw(st.booleans()):
        diagonal = draw(st.lists(NON_UNITS[m], min_size=min(rows, cols), max_size=min(rows, cols)))
        flat = [diagonal[i] if i == j else 0 for i in range(rows) for j in range(cols)]
    else:
        flat = draw(st.lists(ENTRIES[m], min_size=rows * cols, max_size=rows * cols))
    data = [flat[i * cols:(i + 1) * cols] for i in range(rows)]
    if rows and cols and draw(st.booleans()):
        zero_row, zero_col = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        data[zero_row] = [0] * cols
        for row in data:
            row[zero_col] = 0
    return Matrix(Zmod(m), rows, cols, tuple(map(tuple, data)))


@pytest.mark.parametrize("m", sorted(DIVISORS))
@SETTINGS
@given(data=st.data())
def test_kernel_matches_lattice_oracle(m, data):
    _check_kernel_against_oracle(data.draw(matrices(m)))


@pytest.mark.parametrize("m", sorted(DIVISORS))
@SETTINGS
@given(data=st.data())
def test_solve_matches_lattice_oracle(m, data):
    a = data.draw(matrices(m))
    width = data.draw(st.integers(1, 2))
    x0 = data.draw(matrices(m, a.cols, width))
    for b in (data.draw(matrices(m, a.rows, width)), a @ x0):
        x = solve_linear(a, b)
        assert (x is None) == (snf_oracle._solve_zmod_composite(a, b) is None), b
        if x is not None:
            assert a @ x == b
    assert solve_linear(a, a @ x0) is not None
