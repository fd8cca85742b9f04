import random

import pytest

from chainbench.exact_linalg import Matrix, ZZ, QQ, Zmod, ShapeMismatch
from chainbench.chains import (
    ChainComplex,
    GradedMap,
    cone,
    direct_sum,
    find_contraction,
    find_null_homotopy,
    homology_at,
    is_acyclic,
    same_homology,
)
from chainbench import ladder
from chainbench.diagrams import Bimodule, tensor_with_bimodule
from chainbench.ladder import (
    D0Complex,
    D0Morphism,
    check_an_local,
    check_bn_local,
    classify,
    constant_tower,
    d0_compose,
    d0_direct_sum,
    d0_zero_morphism,
    detect_probe,
    exact_square_total,
    factor_through_acyclic,
    hom_complex,
    is_reduced,
    kernel_complex,
    kernel_lambda,
    morphism_space,
    reduction_certificates,
    replace_level_with_cylinder,
)
from chainbench.ladder import test_object as probe
from chainbench.fuzz import random_reduced_ladder
from chainbench.chains import leibniz_system
from chainbench.exact_linalg import kernel_basis


def two_term(ring, mult, degree=1):
    return ChainComplex.build(
        ring, {degree: 1, degree - 1: 1}, {degree: Matrix.from_rows(ring, [[mult]])}
    )


def unit_complex(ring, degree=0):
    return ChainComplex.build(ring, {degree: 1}, {})


def zero_tower(ring, n_levels=3, s_rank=1):
    s = Bimodule(ring, s_rank)
    zero = ChainComplex.zero_complex(ring)
    levels = [zero] * (n_levels + 1)
    ascents = [GradedMap.identity(zero)] * n_levels
    descents = [GradedMap.zero(zero, tensor_with_bimodule(zero, s), 0)] * n_levels
    return D0Complex.build(s, levels, ascents, descents, 0)


def bn_oracle(flags, n):
    """Level i of a generated ladder is acyclic iff all fresh pieces up to i are."""
    return all(flags[:n])


def an_oracle(flags, ms):
    """Kernel ascent at m is an equivalence iff fresh m+1 and levels below m are acyclic."""
    return all(flags[m] and all(flags[: m - 1]) for m in ms)


def test_probe_towers_frozen():
    s = Bimodule(ZZ, 1)
    g1 = probe("g_m", 1, 3, s)
    assert [c.total_rank for c in g1.levels] == [0, 1, 1, 1]
    assert all(c.degrees() in ((), (0,)) for c in g1.levels)
    assert g1.stabilization == 1
    for i in (1, 2):
        assert g1.lambda_map(i) == GradedMap.identity(g1.level(1))
    for i in (1, 2, 3):
        assert g1.alpha_map(i).is_zero()
    g2 = probe("g_m", 2, 3, s)
    assert [c.total_rank for c in g2.levels] == [0, 0, 1, 1]
    assert g2.stabilization == 2

    gc = probe("g_m_cone", 1, 3, s)
    assert [c.total_rank for c in gc.levels] == [0, 1, 2, 2]
    assert gc.stabilization == 2
    assert gc.lambda_map(2) == GradedMap.identity(gc.level(2))

    assert detect_probe(g1) == ("g_m", 1)
    assert detect_probe(g2) == ("g_m", 2)
    assert detect_probe(gc) == ("g_m_cone", 1)
    assert detect_probe(zero_tower(ZZ)) == (None, None)

    with pytest.raises(ValueError):
        probe("g_m", 0, 3, s)
    with pytest.raises(ValueError):
        probe("g_m", 4, 3, s)
    with pytest.raises(ValueError):
        probe("g_m_cone", 3, 3, s)
    with pytest.raises(ValueError):
        probe("pentagon", 1, 3, s)


def test_probe_membership_and_reducedness():
    s = Bimodule(ZZ, 1)
    for m in (1, 2, 3):
        g = probe("g_m", m, 3, s)
        cm = classify(g, m)
        assert cm.in_bn
        assert not cm.in_an
        # descents with zero targets are vacuously surjective; the others
        # are zero maps onto a nonzero module, so only g_3 is reduced
        assert cm.reduced == (m == 3)
    for m in (1, 2):
        gc = probe("g_m_cone", m, 3, s)
        assert find_contraction(gc.level(m + 1)) is not None
        cm = classify(gc, m + 1)
        assert cm.in_bn and cm.in_an


def test_zero_tower_in_every_class():
    c = zero_tower(ZZ)
    for n in range(4):
        cm = classify(c, n)
        assert cm.in_bn and cm.in_an and cm.reduced
        assert check_bn_local(c, n).holds
    for bound in ("strict", "inclusive"):
        rep = check_an_local(c, 2, bound)
        assert rep.holds and rep.square_holds
    assert kernel_complex(c, 1).complex.total_rank == 0


def test_cone_tower_fails_reduced():
    s = Bimodule(ZZ, 1)
    cd = cone(GradedMap.identity(unit_complex(ZZ))).complex
    zero = ChainComplex.zero_complex(ZZ)
    levels = [zero, cd, cd, cd]
    ascents = [GradedMap.zero(zero, cd, 0)] + [GradedMap.identity(cd)] * 2
    descents = [
        GradedMap.zero(levels[i], tensor_with_bimodule(levels[i - 1], s), 0)
        for i in (1, 2, 3)
    ]
    c = D0Complex.build(s, levels, ascents, descents, 1)
    assert not is_reduced(c)
    assert reduction_certificates(c) is None
    cm = classify(c, 0)
    assert cm.in_bn and cm.in_an and not cm.reduced
    # the only descent that breaks surjectivity is one with a nonzero target
    assert c.alpha_map(1).target.total_rank == 0
    assert c.alpha_map(2).target.total_rank > 0


def test_d0complex_validation():
    s = Bimodule(ZZ, 1)
    zero = ChainComplex.zero_complex(ZZ)
    unit = unit_complex(ZZ)
    doubling = GradedMap.build(unit, unit, 0, {0: Matrix.from_rows(ZZ, [[2]])})
    levels = [zero, unit, unit]
    descents = [
        GradedMap.zero(levels[i], tensor_with_bimodule(levels[i - 1], s), 0)
        for i in (1, 2)
    ]
    # multiplication by two is injective but not split over the integers
    with pytest.raises(ValueError):
        D0Complex.build(s, levels, [GradedMap.zero(zero, unit, 0), doubling], descents, 2)
    relaxed = D0Complex.build(
        s, levels, [GradedMap.zero(zero, unit, 0), doubling], descents, 2,
        require_cofibrations=False,
    )
    assert relaxed.ascent_witness(1) is None
    assert relaxed.ascent_witness(0) is not None

    good = [GradedMap.zero(zero, unit, 0), GradedMap.identity(unit)]
    with pytest.raises(ValueError):
        D0Complex.build(s, levels, good, descents, 3)
    with pytest.raises(ValueError):
        # non-identity ascent beyond the stabilization index
        D0Complex.build(
            s, levels, [GradedMap.zero(zero, unit, 0), doubling], descents, 1,
            require_cofibrations=False,
        )
    with pytest.raises(ValueError):
        D0Complex.build(s, [unit, unit, unit], good, descents, 1)
    with pytest.raises(ValueError):
        D0Complex.build(s, levels, good[:1], descents, 1)
    with pytest.raises(ValueError):
        # descent target must be the tensored lower level
        D0Complex.build(
            s, levels, good,
            [GradedMap.zero(unit, unit, 0), GradedMap.zero(unit, unit, 0)], 1,
        )

    tower = D0Complex.build(s, levels, good, descents, 1)
    w = tower.ascent_witness(1)
    lam = tower.lambda_map(1)
    for n, (r, comp, proj) in w.items():
        assert r @ lam.block(n) == Matrix.identity(ZZ, lam.source.rank(n))
        assert proj @ comp == Matrix.identity(ZZ, comp.cols)
    with pytest.raises(IndexError):
        tower.lambda_map(2)
    with pytest.raises(IndexError):
        tower.alpha_map(0)


def test_square_violation_rejected():
    rng = random.Random(3)
    lad = random_reduced_ladder(rng, ZZ)
    c = lad.complex
    # perturb one descent so the commuting square breaks
    bad = list(c.descents)
    a = bad[1]
    n = a.source.degrees()[0]
    block = a.block(n)
    bumped = Matrix.from_rows(
        ZZ,
        [
            [block[i, j] + (1 if (i == 0 and j == 0) else 0) for j in range(block.cols)]
            for i in range(block.rows)
        ],
    )
    blocks = {m: a.block(m) for m in a.source.degrees()}
    blocks[n] = bumped
    bad[1] = GradedMap.build(a.source, a.target, 0, blocks)
    with pytest.raises(ValueError):
        D0Complex.build(c.bimodule, c.levels, c.ascents, bad, c.stabilization)


def test_d0_direct_sum_structure():
    s = Bimodule(ZZ, 1)
    g1 = probe("g_m", 1, 3, s)
    g2 = probe("g_m", 2, 3, s)
    both = d0_direct_sum(g1, g2)
    assert [c.total_rank for c in both.levels] == [0, 1, 2, 2]
    assert both.stabilization == 2
    cm = classify(both, 2)
    assert cm.in_bn and not cm.in_an
    with pytest.raises(ShapeMismatch):
        d0_direct_sum(g1, probe("g_m", 1, 2, s))
    with pytest.raises(ShapeMismatch):
        d0_direct_sum(g1, probe("g_m", 1, 3, Bimodule(QQ, 1)))


def test_kernel_complex_matches_construction():
    for seed, ring in [(0, ZZ), (1, ZZ), (2, QQ), (3, Zmod(5)), (4, ZZ)]:
        rng = random.Random(seed)
        lad = random_reduced_ladder(rng, ring)
        c = lad.complex
        for m in (1, 2, 3):
            ker = kernel_complex(c, m)
            # the kernel of the descent is the fresh piece plus the level below
            reference = direct_sum(lad.fresh[m - 1], c.level(m - 1)).complex
            for n in set(ker.complex.degrees()) | set(reference.degrees()):
                assert ker.complex.rank(n) == reference.rank(n)
            assert same_homology(ker.complex, reference)
        for m in (1, 2):
            lam = kernel_lambda(c, m)
            folded = cone(lam).complex
            want = is_acyclic(lad.fresh[m]) and is_acyclic(c.level(m - 1))
            assert is_acyclic(folded) == want


def test_classify_oracle_and_nesting():
    for seed in range(8):
        rng = random.Random(seed)
        ring = [ZZ, ZZ, QQ, Zmod(2)][seed % 4]
        lad = random_reduced_ladder(rng, ring)
        c, flags = lad.complex, lad.fresh_acyclic
        for n in range(4):
            cm = classify(c, n)
            want_bn = all(flags) if n < 3 else True
            assert cm.in_bn == want_bn
            assert cm.in_an == (want_bn and bn_oracle(flags, n))
            assert (not cm.in_an) or cm.in_bn
            assert cm.reduced
            for i, k in cm.ascent_cone_contractions:
                assert (k is not None) == is_acyclic(cone(c.lambda_map(i)).complex)


def test_bn_local_oracle_and_witnesses():
    for seed in range(6):
        rng = random.Random(100 + seed)
        lad = random_reduced_ladder(rng, ZZ)
        c, flags = lad.complex, lad.fresh_acyclic
        for n in (0, 1, 2, 3):
            rep = check_bn_local(c, n)
            assert rep.holds == bn_oracle(flags, n)
            assert rep.kernel_route == rep.holds
            for i, k in rep.contractions:
                assert (k is not None) == is_acyclic(c.level(i))
            if not rep.holds:
                assert rep.failing_level is not None
                assert not is_acyclic(c.level(rep.failing_level))


def test_bn_local_moore_level_fails():
    rng = random.Random(17)
    moore = two_term(ZZ, 2)
    acy = two_term(ZZ, 1)
    lad = random_reduced_ladder(rng, ZZ, fresh_complexes=[moore, acy, acy])
    rep = check_bn_local(lad.complex, 2)
    assert not rep.holds
    assert rep.failing_level == 1
    assert dict(rep.contractions)[1] is None
    assert find_null_homotopy(GradedMap.identity(lad.complex.level(1))) is None


def test_an_local_frozen_failure():
    rng = random.Random(23)
    acy = two_term(ZZ, 1)
    lad = random_reduced_ladder(rng, ZZ, fresh_complexes=[acy, unit_complex(ZZ), acy])
    c = lad.complex
    assert is_acyclic(kernel_complex(c, 1).complex)
    assert homology_at(kernel_complex(c, 2).complex, 0).betti == 1
    rep = check_an_local(c, 1, "inclusive")
    assert not rep.holds and not rep.square_holds
    assert rep.failing_index == 1
    assert rep.witness_homology
    # the strict range at n = 1 is empty, so the verdict is vacuous
    assert check_an_local(c, 1, "strict").holds
    assert not check_an_local(c, 2, "strict").holds
    with pytest.raises(ValueError):
        check_an_local(c, 1, "open")
    with pytest.raises(ValueError):
        check_an_local(c, 3, "inclusive")
    for bound in ("strict", "inclusive"):
        with pytest.raises(ValueError, match="range bound -1 must be nonnegative"):
            check_an_local(c, -1, bound)


def test_an_local_computes_each_kernel_cone_homology_once(monkeypatch):
    """The failing cone's witness is read off the homology table that
    decides its verdict, so each kernel cone has its homology computed
    once, whether through homology or through is_acyclic."""
    rng = random.Random(23)
    acy = two_term(ZZ, 1)
    c = random_reduced_ladder(rng, ZZ, fresh_complexes=[acy, unit_complex(ZZ), acy]).complex
    calls = []
    for name in ("homology", "is_acyclic"):
        original = getattr(ladder, name)

        def counted(x, original=original):
            calls.append(x)
            return original(x)

        monkeypatch.setattr(ladder, name, counted)
    rep = check_an_local(c, 2, "inclusive")
    assert rep.failing_index == 1 and rep.witness_homology
    cones = [cone(kernel_lambda(c, m)).complex for m in (1, 2)]
    assert [calls.count(k) for k in cones] == [1, 1]


def test_an_local_criteria_agree_on_fuzz():
    for seed in range(8):
        rng = random.Random(200 + seed)
        ring = [ZZ, QQ, Zmod(3), ZZ][seed % 4]
        lad = random_reduced_ladder(rng, ring)
        c, flags = lad.complex, lad.fresh_acyclic
        for n in (1, 2):
            inc = check_an_local(c, n, "inclusive")
            assert inc.holds == an_oracle(flags, range(1, n + 1))
            assert inc.square_holds == inc.holds
            st = check_an_local(c, n, "strict")
            assert st.holds == an_oracle(flags, range(1, n))
            assert st.square_holds == st.holds
            for m, kernel_ok, square_ok in inc.checked:
                assert kernel_ok == square_ok
                assert is_acyclic(exact_square_total(c, m)) == square_ok


def test_non_reduced_inputs_rejected():
    s = Bimodule(ZZ, 1)
    g1 = probe("g_m", 1, 3, s)
    with pytest.raises(ValueError):
        check_bn_local(g1, 1)
    with pytest.raises(ValueError):
        check_an_local(g1, 1)
    with pytest.raises(ValueError):
        hom_complex(probe("g_m", 2, 3, s), g1)


def test_hom_complex_unit_probe_identifies_kernel():
    s = Bimodule(ZZ, 1)
    for seed in range(5):
        rng = random.Random(300 + seed)
        lad = random_reduced_ladder(rng, ZZ)
        c = lad.complex
        for m in (1, 2, 3):
            hc = hom_complex(probe("g_m", m, 3, s), c)
            assert (hc.probe_kind, hc.probe_index) == ("g_m", m)
            assert hc.to_kernel is not None and hc.from_kernel is not None
            assert hc.to_kernel @ hc.from_kernel == GradedMap.identity(hc.kernel.complex)
            assert hc.from_kernel @ hc.to_kernel == GradedMap.identity(hc.complex)
            assert same_homology(hc.complex, hc.kernel.complex)


def test_hom_complex_zero_kernel_gives_zero():
    rng = random.Random(31)
    zero = ChainComplex.zero_complex(ZZ)
    acy = two_term(ZZ, 1)
    lad = random_reduced_ladder(rng, ZZ, fresh_complexes=[zero, acy, acy])
    hc = hom_complex(probe("g_m", 1, 3, Bimodule(ZZ, 1)), lad.complex)
    assert hc.complex.total_rank == 0
    assert hc.kernel.complex.total_rank == 0


def test_hom_complex_capped_probe_ses():
    s = Bimodule(ZZ, 1)
    for seed in range(5):
        rng = random.Random(400 + seed)
        lad = random_reduced_ladder(rng, ZZ)
        c = lad.complex
        for m in (1, 2):
            hc = hom_complex(probe("g_m_cone", m, 3, s), c)
            assert (hc.probe_kind, hc.probe_index) == ("g_m_cone", m)
            assert hc.ses is not None
            assert hc.connecting_matches_ascent
            sub = hc.ses.sub
            quot = hc.ses.quotient
            for n in hc.complex.degrees():
                assert hc.complex.rank(n) == sub.rank(n) + quot.rank(n)
            # the subobject carries the higher kernel shifted one degree down
            for n in sub.degrees():
                assert sub.rank(n) == hc.sub_kernel.complex.rank(n + 1)


def test_hom_complex_shape_guards():
    s = Bimodule(ZZ, 1)
    rng = random.Random(41)
    lad = random_reduced_ladder(rng, ZZ)
    with pytest.raises(ShapeMismatch):
        hom_complex(probe("g_m", 1, 2, s), lad.complex)
    with pytest.raises(ShapeMismatch):
        hom_complex(probe("g_m", 1, 3, Bimodule(QQ, 1)), lad.complex)


def test_morphism_space_matches_chain_map_count():
    s = Bimodule(ZZ, 1)
    moore = two_term(ZZ, 2)
    ct = constant_tower(moore, 3, s)
    ms = morphism_space(ct, ct)
    # tower maps between constant towers with zero descents are plain
    # chain self-maps of the level, applied at every level at once
    a, system = leibniz_system(moore, moore, 0)
    active = list(system.sizes)
    assert active
    assert ms.dimension == kernel_basis(a).cols
    for f in ms.basis:
        assert f.component(1) == f.component(2) == f.component(3)
    ident = [GradedMap.identity(ct.level(i)) for i in range(4)]
    one = D0Morphism.build(ct, ct, ident)
    assert d0_compose(one, one).components == one.components


def test_morphism_space_respects_descents():
    rng = random.Random(51)
    lad_d = random_reduced_ladder(rng, ZZ, n_levels=2, degree_span=1)
    lad_c = random_reduced_ladder(rng, ZZ, n_levels=2, acyclic_levels={1, 2}, degree_span=1)
    ms = morphism_space(lad_d.complex, lad_c.complex)
    for f in ms.basis:
        D0Morphism.build(f.source, f.target, f.components)
    z = d0_zero_morphism(lad_d.complex, lad_c.complex)
    assert all(f.is_zero() for f in z.components)


def test_factor_through_acyclic_fuzz():
    s = Bimodule(ZZ, 1)
    moore = two_term(ZZ, 2)
    for seed in range(6):
        rng = random.Random(500 + seed)
        lad_d = random_reduced_ladder(rng, ZZ, n_levels=2, acyclic_levels={1, 2}, degree_span=1)
        lad_c = random_reduced_ladder(rng, ZZ, n_levels=2, acyclic_levels={1, 2}, degree_span=1)
        d = d0_direct_sum(lad_d.complex, constant_tower(moore, 2, s))
        c = lad_c.complex
        assert classify(d, 1).in_bn
        ms = morphism_space(d, c)
        f = ms.basis[seed % ms.dimension] if ms.dimension else d0_zero_morphism(d, c)
        fac = factor_through_acyclic(f, 1)
        assert len(fac.contractions) == 3
        assert all(k is not None for k in fac.contractions)
        for i in range(3):
            assert fac.right.component(i) @ fac.left.component(i) == f.component(i)
        # the middle tower passes full structural validation again
        D0Complex.build(
            fac.mid.bimodule, fac.mid.levels, fac.mid.ascents, fac.mid.descents,
            fac.mid.stabilization,
        )


def test_factor_probe_cycle_and_zero():
    s = Bimodule(ZZ, 1)
    rng = random.Random(61)
    lad_c = random_reduced_ladder(rng, ZZ, n_levels=2, acyclic_levels={1, 2}, degree_span=1)
    c = lad_c.complex
    g2 = probe("g_m", 2, 2, s)
    ms = morphism_space(g2, c)
    assert ms.dimension > 0
    fac = factor_through_acyclic(ms.basis[0], 2)
    for i in range(3):
        assert fac.right.component(i) @ fac.left.component(i) == ms.basis[0].component(i)
    z = d0_zero_morphism(g2, c)
    fac0 = factor_through_acyclic(z, 2)
    for i in range(3):
        assert fac0.right.component(i) @ fac0.left.component(i) == z.component(i)

    moore = two_term(ZZ, 2)
    bad_source = constant_tower(moore, 2, s)
    with pytest.raises(ValueError):
        # constant tower on a non-contractible complex is not constant
        # up to homotopy from level zero on
        factor_through_acyclic(d0_zero_morphism(bad_source, c), 0)
    bad_target = d0_direct_sum(lad_c.complex, constant_tower(moore, 2, s))
    with pytest.raises(ValueError):
        factor_through_acyclic(d0_zero_morphism(g2, bad_target), 2)


def test_bn_verdict_invariant_under_cylinder():
    for seed in range(4):
        rng = random.Random(700 + seed)
        lad = random_reduced_ladder(rng, ZZ)
        c = lad.complex
        base = check_bn_local(c, 2)
        for i in (1, 2):
            swapped = replace_level_with_cylinder(c, i)
            assert not is_reduced(swapped)
            rep = check_bn_local(swapped, 2, require_reduced=False)
            assert rep.holds == base.holds
            with pytest.raises(ValueError):
                check_bn_local(swapped, 2)
        # replacing the top level touches no surjectivity target
        top = replace_level_with_cylinder(c, 3)
        assert is_reduced(top)
        assert check_bn_local(top, 2).holds == base.holds
