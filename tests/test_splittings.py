"""Splitting derivation, contraction operators, and the twisted calculus."""

import random

import pytest

from chainbench.exact_linalg import ShapeMismatch, ZZ, QQ, Zmod
from chainbench.chains import ChainComplex, GradedMap
from chainbench.diagrams import Bimodule, tensor_map_with_bimodule, tensor_with_bimodule
from chainbench.ladder import D0Complex, test_object as probe
from chainbench.fuzz import (
    random_complex,
    random_graded_map,
    random_kernel_tower,
    random_reduced_ladder,
)
from chainbench.splittings import (
    F_from_fhat,
    delta_differential,
    derive_splittings,
    fhat_from_F,
    inversion_sign,
    invert_homotopy,
    t_operator,
    t_differential_holds,
    tensor_power,
    tensor_power_map,
)

RINGS = [ZZ, QQ, Zmod(3)]


def twisted_pair(seed, ring, n_levels=3):
    """A fully acyclic probe ladder and a twisted kernel tower, same shape."""
    rng = random.Random(seed)
    tower = random_kernel_tower(rng, ring, n_levels=n_levels, twist=True, scramble=True)
    ladder = random_reduced_ladder(
        rng,
        ring,
        n_levels=n_levels,
        s_rank=1,
        acyclic_levels=set(range(1, n_levels + 1)),
        scramble=True,
    )
    return ladder.complex, tower.complex


def check_boxed_identities(s):
    """All split-exactness, compatibility, and boundary identities, rechecked."""
    a, b = s.probe, s.target
    for n in range(s.top_index):
        lam = a.lambda_map(n)
        assert s.u_map(n) @ lam == GradedMap.identity(lam.source)
        assert s.pi_map(n + 1) @ s.v_map(n + 1) == GradedMap.identity(s.quotient(n + 1))
        assert (lam @ s.u_map(n)) + (s.v_map(n + 1) @ s.pi_map(n + 1)) == GradedMap.identity(
            lam.target
        )
        assert s.u_map(n).leibniz() == s.phi_map(n + 1) @ s.pi_map(n + 1)
        assert s.v_map(n + 1).leibniz() == (lam @ s.phi_map(n + 1)).scale(-1)
    for n in range(1, s.top_index + 1):
        beta = b.alpha_map(n)
        assert s.theta_map(n) @ s.j_map(n) == GradedMap.identity(s.kernel)
        assert beta @ s.sigma_map(n) == GradedMap.identity(beta.target)
        assert (s.j_map(n) @ s.theta_map(n)) + (s.sigma_map(n) @ beta) == GradedMap.identity(
            b.level(n)
        )
        assert (s.theta_map(n) @ s.sigma_map(n)).is_zero()
        d_theta = s.theta_map(n).leibniz()
        rhs = s.delta_map(n - 1) @ beta
        for deg in b.level(n).degrees():
            assert d_theta.block(deg) == rhs.block(deg)
        assert s.sigma_map(n).leibniz() == (s.j_map(n) @ s.delta_map(n - 1)).scale(-1)
    for n in range(1, s.top_index):
        assert s.theta_map(n + 1) @ b.lambda_map(n) == s.theta_map(n)


def test_block_diagonal_target_has_chain_map_splittings():
    rng = random.Random(3)
    tower = random_kernel_tower(rng, ZZ, n_levels=3, twist=False, scramble=False)
    a = probe("g_m", 2, 3, tower.complex.bimodule)
    s = derive_splittings(a, tower.complex)
    check_boxed_identities(s)
    assert all(d.is_zero() for d in s.deltas)
    assert all(p.is_zero() for p in s.phis)
    assert t_operator(s, 0).map.is_zero()
    assert t_operator(s, 1).map.is_zero()
    for q in (-1, 0, 1):
        f = random_graded_map(rng, s.total.complex, s.kernel, q, 2)
        assert delta_differential(s, f) == f.leibniz()


def test_boxed_identities_on_twisted_fuzz():
    twisted_hits = 0
    for seed in range(6):
        ring = RINGS[seed % len(RINGS)]
        a, b = twisted_pair(seed, ring)
        s = derive_splittings(a, b)
        check_boxed_identities(s)
        if any(not d.is_zero() for d in s.deltas):
            twisted_hits += 1
    assert twisted_hits >= 3


def test_probe_side_splittings_for_capped_probe():
    rng = random.Random(9)
    tower = random_kernel_tower(rng, ZZ, n_levels=3, twist=True, scramble=True)
    a = probe("g_m_cone", 1, 3, tower.complex.bimodule)
    s = derive_splittings(a, tower.complex)
    check_boxed_identities(s)
    assert not s.phi_map(2).is_zero()
    assert s.total.contraction is not None
    assert s.total.nilpotency == 1


def test_kernel_stability_and_shape_errors():
    rng = random.Random(4)
    ladder = random_reduced_ladder(rng, ZZ, n_levels=3, acyclic_levels={1, 2, 3})
    a = probe("g_m", 1, 3, ladder.complex.bimodule)
    with pytest.raises(ValueError, match="kernel-stable"):
        derive_splittings(a, ladder.complex)
    tower = random_kernel_tower(rng, ZZ, n_levels=3)
    other = Bimodule(ZZ, 2)
    with pytest.raises(ShapeMismatch):
        derive_splittings(probe("g_m", 1, 3, other), tower.complex)
    short = random_kernel_tower(rng, ZZ, n_levels=2).complex
    with pytest.raises(ShapeMismatch):
        derive_splittings(a, short)


def test_non_split_descent_rejected():
    s_bim = Bimodule(ZZ, 1)
    unit = ChainComplex.build(ZZ, {0: 1}, {})
    level2 = ChainComplex.build(ZZ, {0: 2}, {})
    zero = ChainComplex.zero_complex(ZZ)
    from chainbench.exact_linalg import Matrix

    mu0 = GradedMap.zero(zero, unit, 0)
    mu1 = GradedMap.build(unit, level2, 0, {0: Matrix.from_rows(ZZ, [[1], [0]])})
    beta1 = GradedMap.zero(unit, tensor_with_bimodule(zero, s_bim), 0)
    beta2 = GradedMap.build(
        level2, tensor_with_bimodule(unit, s_bim), 0, {0: Matrix.from_rows(ZZ, [[0, 2]])}
    )
    b = D0Complex.build(s_bim, [zero, unit, level2], [mu0, mu1], [beta1, beta2], 2)
    a = probe("g_m", 1, 2, s_bim)
    with pytest.raises(ValueError, match="split surjective"):
        derive_splittings(a, b)


def test_t_operator_contract():
    rng = random.Random(5)
    tower = random_kernel_tower(rng, ZZ, n_levels=3, twist=True, scramble=True)
    a = probe("g_m", 1, 3, tower.complex.bimodule)
    s = derive_splittings(a, tower.complex)
    assert t_operator(s, 0).map.leibniz().is_zero()
    assert t_operator(s, 2).map.is_zero()
    assert t_operator(s, 5).map.is_zero()
    with pytest.raises(ValueError):
        t_operator(s, -1)
    for p in range(2):
        assert t_differential_holds(s, p)
    # a three-level ladder only expresses the operators up to index one
    with pytest.raises(ValueError, match="too short"):
        t_differential_holds(s, 2)


def test_t_quadratic_relation_nonvacuous_on_deep_tower():
    from chainbench.exact_linalg import Matrix

    for seed in (0, 1):
        rng = random.Random(seed)
        kernel = ChainComplex.build(ZZ, {0: 1, 1: 1}, {1: Matrix.from_rows(ZZ, [[2]])})
        tower = random_kernel_tower(
            rng, ZZ, n_levels=6, twist=True, scramble=True, kernel=kernel
        )
        a = probe("g_m", 1, 6, tower.complex.bimodule)
        s = derive_splittings(a, tower.complex)
        bim = tower.complex.bimodule
        seen_nonzero = False
        for p in range(5):
            assert t_differential_holds(s, p)
            seen_nonzero = seen_nonzero or not t_operator(s, p).map.is_zero()
        assert seen_nonzero
        t0, t1, t2 = (t_operator(s, i).map for i in range(3))
        lhs = t2.leibniz()
        rhs = (t0 @ tensor_power_map(t1, bim, 1)) + (t1 @ tensor_power_map(t0, bim, 2))
        for deg in lhs.source.degrees():
            assert lhs.block(deg) == rhs.block(deg)


def test_total_space_structure():
    rng = random.Random(12)
    a, b = twisted_pair(12, ZZ)
    s = derive_splittings(a, b)
    t = s.total
    assert t.assembly.is_chain_map()
    top = a.level(a.top_index)
    for deg in top.degrees():
        assert t.assembly.block(deg).cols == top.rank(deg)
    for n in range(1, s.top_index + 1):
        assert t.lambda_inf[n - 1].is_chain_map()
    assert t.alpha_total.is_chain_map()
    assert 1 <= t.nilpotency <= s.top_index + 1
    assert t.alpha_power(t.nilpotency) is None
    ident = GradedMap.identity(t.complex)
    total_sum = GradedMap.zero(t.complex, t.complex, 0)
    for inc, proj in zip(t.inclusions, t.projections):
        assert proj @ inc == GradedMap.identity(inc.source)
        total_sum = total_sum + inc @ proj
    assert total_sum == ident
    k = t.contraction
    assert k is not None
    assert k.leibniz() == ident


def test_fhat_closed_formula_and_recursion():
    for seed in range(4):
        ring = RINGS[seed % len(RINGS)]
        a, b = twisted_pair(seed + 20, ring)
        s = derive_splittings(a, b)
        bim = a.bimodule
        for q in (-1, 0, 1):
            f = random_graded_map(random.Random(seed + 31 + q), s.total.complex, s.kernel, q, 2)
            fams = fhat_from_F(s, f)
            coords = [f @ inc for inc in s.total.inclusions]
            assert fams[0] == s.j_map(1) @ f @ s.total.lambda_inf[0]
            for n in range(1, s.top_index):
                recursion = (
                    s.j_map(n + 1) @ s.theta_map(n) @ fams[n - 1] @ s.u_map(n)
                    + s.sigma_map(n + 1)
                    @ tensor_power_map(fams[n - 1], bim, 1)
                    @ s.alpha_map(n + 1)
                    + s.j_map(n + 1) @ coords[n] @ s.pi_map(n + 1)
                )
                assert fams[n] == recursion
            assert F_from_fhat(s, fams) == f
        zero_f = GradedMap.zero(s.total.complex, s.kernel, 0)
        assert all(piece.is_zero() for piece in fhat_from_F(s, zero_f))


def test_delta_is_the_levelwise_boundary_under_the_correspondence():
    for seed in range(4):
        ring = RINGS[seed % len(RINGS)]
        a, b = twisted_pair(seed + 40, ring)
        s = derive_splittings(a, b)
        rng = random.Random(seed + 50)
        for q in (-1, 0, 1, 2):
            f = random_graded_map(rng, s.total.complex, s.kernel, q, 2)
            fams = fhat_from_F(s, f)
            image = fhat_from_F(s, delta_differential(s, f))
            for n in range(s.top_index):
                assert image[n] == fams[n].leibniz()
            assert delta_differential(s, delta_differential(s, f)).is_zero()


def test_invert_homotopy_fuzz_and_special_cases():
    hit_nonzero = 0
    for seed in range(4):
        ring = RINGS[seed % len(RINGS)]
        a, b = twisted_pair(seed + 60, ring)
        s = derive_splittings(a, b)
        rng = random.Random(seed + 70)
        for q in (0, 1):
            f = random_graded_map(rng, s.total.complex, s.kernel, q, 2)
            cycle = delta_differential(s, f)
            got = invert_homotopy(s, s.total, cycle)
            assert delta_differential(s, got) == cycle
            if not cycle.is_zero():
                hit_nonzero += 1
        zero_f = GradedMap.zero(s.total.complex, s.kernel, 0)
        assert invert_homotopy(s, s.total, zero_f).is_zero()
    assert hit_nonzero >= 4


def test_untwisted_inversion_is_signed_contraction():
    rng = random.Random(8)
    kernel = ChainComplex.build(ZZ, {0: 2, 1: 2}, {})
    tower = random_kernel_tower(
        rng, ZZ, n_levels=3, twist=False, scramble=False, kernel=kernel
    )
    a = probe("g_m_cone", 1, 3, tower.complex.bimodule)
    s = derive_splittings(a, tower.complex)
    k = s.total.contraction
    ident = GradedMap.identity(s.total.complex)
    assert k.leibniz() == ident
    for q in (0, 1):
        f = random_graded_map(rng, s.total.complex, s.kernel, q, 2)
        cycle = delta_differential(s, f)
        sign = 1 if cycle.degree % 2 == 0 else -1
        assert (cycle @ k).leibniz() == cycle.scale(sign)
        got = invert_homotopy(s, s.total, cycle)
        expect = (cycle @ k).scale(inversion_sign(0, cycle.degree))
        assert got == expect


def test_invert_homotopy_preconditions():
    rng = random.Random(13)
    kernel = ChainComplex.build(ZZ, {0: 1, 1: 1}, {})
    tower = random_kernel_tower(
        rng, ZZ, n_levels=3, twist=True, scramble=True, kernel=kernel
    )
    a_flat = probe("g_m", 1, 3, tower.complex.bimodule)
    s_flat = derive_splittings(a_flat, tower.complex)
    assert s_flat.total.contraction is None
    good_cycle = delta_differential(
        s_flat, random_graded_map(rng, s_flat.total.complex, s_flat.kernel, 1, 2)
    )
    with pytest.raises(ValueError, match="not contractible"):
        invert_homotopy(s_flat, s_flat.total, good_cycle)
    a_cone = probe("g_m_cone", 1, 3, tower.complex.bimodule)
    s_cone = derive_splittings(a_cone, tower.complex)
    non_cycle = random_graded_map(rng, s_cone.total.complex, s_cone.kernel, 1, 2)
    while delta_differential(s_cone, non_cycle).is_zero():
        non_cycle = random_graded_map(rng, s_cone.total.complex, s_cone.kernel, 1, 2)
    with pytest.raises(ValueError, match="not a cycle"):
        invert_homotopy(s_cone, s_cone.total, non_cycle)


def test_inversion_sign_ledger():
    for q in range(-2, 4):
        base = inversion_sign(0, q)
        assert base == (-1 if q % 2 else 1)
        for p in range(6):
            step = -1 if (p * q) % 2 else 1
            assert inversion_sign(p, q) == base * step


def test_tensor_power_matches_iterated_tensoring():
    """One Kronecker step with S^i equals i steps with S."""
    rng = random.Random(20261025)
    for ring in RINGS:
        for s_rank in (1, 2, 3):
            s = Bimodule(ring, s_rank)
            src = random_complex(rng, ring, max_atoms=3).complex
            tgt = random_complex(rng, ring, max_atoms=3).complex
            f = random_graded_map(rng, src, tgt, 1)
            c_iter, f_iter = src, f
            for i in range(4):
                assert tensor_power(src, s, i) == c_iter
                assert tensor_power_map(f, s, i) == f_iter
                c_iter = tensor_with_bimodule(c_iter, s)
                f_iter = tensor_map_with_bimodule(f_iter, s)
