"""Tests for complexes, graded maps, homology, homotopies, and the
standard constructions.

The homology oracle is the generator itself: random complexes are
assembled from atoms with recorded homology and conjugated by
unimodular matrices, so the expected answer is known before the code
under test runs.  The earlier cycle-lattice homology, kept in
snf_oracle, must agree with the current one degree by degree.
"""

import random
from fractions import Fraction

import pytest

import compose_oracle
import snf_oracle
from chainbench.exact_linalg import Matrix, QQ, ShapeMismatch, ZZ, Zmod
from chainbench.chains import (
    ChainComplex,
    GradedMap,
    HomologySummary,
    cone,
    cylinder,
    direct_sum,
    find_contraction,
    find_null_homotopy,
    homology,
    homology_at,
    is_acyclic,
    is_contractible,
    is_homology_equivalence,
    pushout_along_cofibration,
    pushout_factor,
    rotate_ses,
    same_homology,
    shift_unsigned,
    suspend,
    validate_ses,
    witness_left_compose,
    witness_right_compose,
)
from chainbench.fuzz import (
    invariant_factors_of_cyclics,
    random_chain_map,
    random_cofibration,
    random_complex,
    random_extension,
    random_graded_map,
    random_null_homotopic,
    random_unimodular,
)


def mk(ring, data):
    return Matrix.from_rows(ring, data)


def two_term(ring, mult, top=1):
    """ring^1 in degree `top` mapping by `mult` onto degree `top - 1`."""
    return ChainComplex.build(
        ring, {top: 1, top - 1: 1}, {top: mk(ring, [[mult]])}
    )


# ---------------------------------------------------------------------------
# Construction and validation


def test_build_rejects_nonsquaring_boundary():
    with pytest.raises(ValueError):
        ChainComplex.build(
            ZZ, {0: 1, 1: 1, 2: 1},
            {1: mk(ZZ, [[1]]), 2: mk(ZZ, [[1]])},
        )


def test_build_rejects_bad_shapes():
    with pytest.raises(ShapeMismatch):
        ChainComplex.build(ZZ, {0: 2, 1: 1}, {1: mk(ZZ, [[1]])})
    with pytest.raises(ShapeMismatch):
        ChainComplex.build(ZZ, {0: 1, 1: 1}, {1: mk(QQ, [[1]])})


def test_rank_and_diff_synthesis():
    c = two_term(ZZ, 2)
    assert c.rank(5) == 0
    assert c.diff(5).shape == (0, 0)
    assert c.diff(2).shape == (1, 0)
    assert c.diff(0).shape == (0, 1)
    assert c.degrees() == (0, 1)
    assert c.total_rank == 2
    assert c.min_degree == 0 and c.max_degree == 1


def test_graded_map_build_and_block_synthesis():
    c = two_term(ZZ, 2)
    f = GradedMap.identity(c)
    assert f.block(0) == Matrix.identity(ZZ, 1)
    assert f.block(7).shape == (0, 0)
    z = GradedMap.zero(c, c, 3)
    assert z.is_zero()
    with pytest.raises(ShapeMismatch):
        GradedMap.build(c, c, 0, {0: mk(ZZ, [[1, 2]])})


def test_leibniz_product_rule():
    rng = random.Random(5)
    for _ in range(20):
        a = random_complex(rng, ZZ).complex
        b = random_complex(rng, ZZ).complex
        c = random_complex(rng, ZZ).complex
        dg_f = rng.choice([-1, 0, 1])
        dg_g = rng.choice([-1, 0, 1])
        f = random_graded_map(rng, a, b, dg_f)
        g = random_graded_map(rng, b, c, dg_g)
        sign = 1 if dg_g % 2 == 0 else -1
        lhs = (g @ f).leibniz()
        rhs = g.leibniz() @ f + (g @ f.leibniz()).scale(sign)
        assert lhs == rhs


def test_compose_requires_matching_middle():
    c = two_term(ZZ, 2)
    d = two_term(ZZ, 3)
    with pytest.raises(ShapeMismatch):
        GradedMap.identity(c) @ GradedMap.identity(d)


# ---------------------------------------------------------------------------
# Homology


def test_homology_frozen_two_term():
    h = homology(two_term(ZZ, 2))
    assert (h[0].betti, h[0].torsion) == (0, (2,))
    assert (h[1].betti, h[1].torsion) == (0, ())
    h = homology(two_term(ZZ, 0))
    assert (h[0].betti, h[1].betti) == (1, 1)
    assert homology_at(two_term(QQ, 2), 0).is_trivial()
    assert homology_at(two_term(QQ, 0), 0).betti == 1


def test_homology_frozen_diag():
    c = ChainComplex.build(
        ZZ, {0: 2, 1: 2}, {1: mk(ZZ, [[2, 0], [0, 3]])}
    )
    h = homology(c)
    assert (h[0].betti, h[0].torsion) == (0, (6,))
    assert h[1].is_trivial()


def test_homology_frozen_three_term():
    c = ChainComplex.build(
        ZZ, {0: 1, 1: 2, 2: 1},
        {1: mk(ZZ, [[0, 1]]), 2: mk(ZZ, [[2], [0]])},
    )
    h = homology(c)
    assert h[0].is_trivial()
    assert (h[1].betti, h[1].torsion) == (0, (2,))
    assert h[2].is_trivial()


def test_homology_frozen_mod4():
    c = two_term(Zmod(4), 2)
    h = homology(c)
    assert h[0].torsion == (2,) and h[0].betti == 0
    assert h[1].torsion == (2,)
    assert homology_at(two_term(Zmod(5), 2), 0).is_trivial()
    assert homology_at(two_term(Zmod(5), 5), 0).betti == 1


def test_homology_matches_generator_expectation():
    rng = random.Random(20260818)
    rings = [ZZ, ZZ, QQ, Zmod(4), Zmod(5), Zmod(6)]
    for i in range(60):
        ring = rings[i % len(rings)]
        sample = random_complex(rng, ring)
        got = homology(sample.complex)
        for n, summary in got.items():
            want = sample.expected.get(n, HomologySummary(0, (), summary.modulus))
            assert (summary.betti, summary.torsion) == (want.betti, want.torsion), (
                ring, n, sample.complex
            )
        for n, want in sample.expected.items():
            if n not in got:
                assert want.is_trivial()


def _check_against_cycle_lattice_oracle(c):
    got = homology(c)
    assert list(got) == list(c.degrees())
    lo, hi = (c.min_degree, c.max_degree) if c.ranks else (0, 0)
    for n in range(lo - 1, hi + 2):
        want = snf_oracle.homology_at(c, n)
        assert homology_at(c, n) == want, (n, c)
        if n in got:
            assert got[n] == want, (n, c)
    return got


def test_homology_matches_cycle_lattice_oracle():
    rng = random.Random(20261019)
    rings = (ZZ, QQ, Zmod(5))
    for i in range(210):
        ring = rings[i % len(rings)]
        sample = random_complex(
            rng, ring, max_atoms=rng.choice((4, 8)), force_acyclic=(i % 7 == 0)
        )
        got = _check_against_cycle_lattice_oracle(sample.complex)
        for n in set(got) | set(sample.expected):
            have = got.get(n, HomologySummary(0, ()))
            want = sample.expected.get(n, HomologySummary(0, ()))
            assert (have.betti, have.torsion) == (want.betti, want.torsion), (ring, n)


def test_composite_homology_matches_lattice_oracle():
    """Over composite Z/m, homology and homology_at diagonalize in Z/m
    itself with exact_linalg.cycle_quotient_mod; the congruence-lattice
    route over Z kept in snf_oracle must give the same summaries degree
    by degree."""
    rng = random.Random(20261024)
    rings = (Zmod(4), Zmod(6), Zmod(12))
    torsion_seen = 0
    for i in range(120):
        ring = rings[i % len(rings)]
        sample = random_complex(
            rng, ring, max_atoms=rng.choice((3, 6)), force_acyclic=(i % 9 == 0)
        )
        got = _check_against_cycle_lattice_oracle(sample.complex)
        torsion_seen += sum(1 for h in got.values() if h.torsion)
    assert torsion_seen > 50


def test_homology_hand_built_cases():
    cases = [
        # A rank-3 degree with no differentials at all.
        (ChainComplex.build(ZZ, {2: 3}, {}), {2: (3, ())}),
        # Z --2--> Z.
        (two_term(ZZ, 2), {0: (0, (2,)), 1: (0, ())}),
        # d_1 has full rank while d_2 carries torsion into its kernel.
        (
            ChainComplex.build(
                ZZ, {0: 1, 1: 2, 2: 1},
                {1: mk(ZZ, [[2, 4]]), 2: mk(ZZ, [[6], [-3]])},
            ),
            {0: (0, (2,)), 1: (0, (3,)), 2: (0, ())},
        ),
        # Degree 0 has neighbours of rank 0 on both sides.
        (
            ChainComplex.build(ZZ, {0: 2, 2: 1, 3: 1}, {3: mk(ZZ, [[4]])}),
            {0: (2, ()), 2: (0, (4,)), 3: (0, ())},
        ),
    ]
    for c, want in cases:
        got = _check_against_cycle_lattice_oracle(c)
        assert {n: (s.betti, s.torsion) for n, s in got.items()} == want
        for ring in (QQ, Zmod(5)):
            moved = ChainComplex.build(
                ring, c.ranks, {n: m.to_ring(ring) for n, m in c.diffs}
            )
            _check_against_cycle_lattice_oracle(moved)


def test_direct_sum_homology_merges():
    rng = random.Random(404)
    for _ in range(15):
        a = random_complex(rng, ZZ)
        b = random_complex(rng, ZZ)
        summed = direct_sum(a.complex, b.complex)
        h = homology(summed.complex)
        for n, summary in h.items():
            ea = a.expected.get(n, HomologySummary(0, ()))
            eb = b.expected.get(n, HomologySummary(0, ()))
            want_betti = ea.betti + eb.betti
            want_torsion = invariant_factors_of_cyclics(list(ea.torsion) + list(eb.torsion))
            assert (summary.betti, summary.torsion) == (want_betti, want_torsion)


def test_direct_sum_structure_maps():
    rng = random.Random(17)
    a = random_complex(rng, ZZ).complex
    b = random_complex(rng, ZZ).complex
    data = direct_sum(a, b)
    inc_a, inc_b = data.inclusions
    pr_a, pr_b = data.projections
    for m in (inc_a, inc_b, pr_a, pr_b):
        assert m.is_chain_map()
    assert pr_a @ inc_a == GradedMap.identity(a)
    assert pr_b @ inc_b == GradedMap.identity(b)
    assert (pr_a @ inc_b).is_zero()
    total = inc_a @ pr_a + inc_b @ pr_b
    assert total == GradedMap.identity(data.complex)


# ---------------------------------------------------------------------------
# Null-homotopies and contractibility


def test_null_homotopy_found_for_boundaries():
    rng = random.Random(88)
    rings = [ZZ, QQ, Zmod(6)]
    for i in range(30):
        ring = rings[i % len(rings)]
        src = random_complex(rng, ring).complex
        tgt = random_complex(rng, ring).complex
        f, _ = random_null_homotopic(rng, src, tgt)
        h = find_null_homotopy(f)
        assert h is not None
        assert h.leibniz() == f


def test_null_homotopy_rejects_noncycles():
    rng = random.Random(6)
    for _ in range(10):
        src = random_complex(rng, ZZ).complex
        tgt = random_complex(rng, ZZ).complex
        g = random_graded_map(rng, src, tgt, 0)
        if g.leibniz().is_zero():
            continue
        with pytest.raises(ValueError):
            find_null_homotopy(g)
        return
    raise AssertionError("never sampled a non-chain map")


def test_identity_not_null_homotopic_with_homology():
    c = two_term(ZZ, 2)
    assert find_null_homotopy(GradedMap.identity(c)) is None
    assert not is_contractible(c)


def test_contractible_iff_acyclic():
    rng = random.Random(909)
    rings = [ZZ, QQ, Zmod(4), Zmod(5), Zmod(6)]
    seen_true = seen_false = 0
    for i in range(40):
        ring = rings[i % len(rings)]
        force = i % 3 == 0
        c = random_complex(rng, ring, force_acyclic=force).complex
        acyclic = is_acyclic(c)
        contractible = is_contractible(c)
        assert acyclic == contractible
        seen_true += acyclic
        seen_false += not acyclic
    assert seen_true > 5 and seen_false > 5
    empty = ChainComplex.zero_complex(ZZ)
    assert is_acyclic(empty) and is_contractible(empty)


def test_contraction_matches_kronecker_oracle():
    """The degree-by-degree contraction against the full Kronecker solve."""
    rng = random.Random(2024)
    rings = [ZZ, QQ, Zmod(4), Zmod(5), Zmod(6)]
    found = missing = 0
    for i in range(110):
        ring = rings[i % len(rings)]
        c = random_complex(rng, ring, force_acyclic=i % 2 == 0).complex
        k = find_contraction(c)
        oracle = find_null_homotopy(GradedMap.identity(c))
        assert (k is None) == (oracle is None)
        if k is not None:
            assert k.degree == 1
            assert k.leibniz() == GradedMap.identity(c)
            found += 1
        else:
            missing += 1
    assert found >= 55 and missing > 10


def _contraction_cases():
    """Seeded contractible complexes, complexes with homology, and sums
    of a complex with a copy shifted clear of it, so that a degree of
    rank 0 lies between them; over Q the boundaries carry denominators."""
    rng = random.Random(2525)
    rings = [ZZ, QQ, Zmod(4), Zmod(5), Zmod(6)]
    for i in range(60):
        ring = rings[i % len(rings)]
        c = random_complex(rng, ring, max_atoms=5, force_acyclic=i % 3 != 0).complex
        if ring == QQ:
            c = ChainComplex.build(ring, c.ranks, {n: d.scale(Fraction(1, 3)) for n, d in c.diffs})
        yield c
        if c.ranks:
            gap = c.max_degree - c.min_degree + 2
            yield direct_sum(c, shift_unsigned(c, gap)).complex


def test_contraction_matches_the_two_product_route():
    """find_contraction's right-hand side [1 | k_(n-1)] @ [1 ; -d_n]
    against compose_oracle.find_contraction, which subtracted
    k_(n-1) @ d_n from a fresh identity, by repr, None included."""
    found = missing = gaps = 0
    for c in _contraction_cases():
        k = find_contraction(c)
        assert repr(k) == repr(compose_oracle.find_contraction(c))
        found += k is not None
        missing += k is None
        gaps += any(c.rank(n) == 0 for n in range(c.min_degree or 0, c.max_degree or 0))
    assert found >= 80 and missing >= 30 and gaps >= 60


def test_contraction_hand_built_cases():
    empty = ChainComplex.zero_complex(ZZ)
    k = find_contraction(empty)
    assert k is not None and k.degree == 1 and k.is_zero()
    assert k.leibniz() == GradedMap.identity(empty)

    # Degree 2 has rank 0 between two contractible pieces, so k_1 == 0
    # feeds degree 3; the same gap with Z in degree 3 is not contractible.
    gap = ChainComplex.build(
        ZZ, {0: 1, 1: 1, 3: 1, 4: 1}, {1: mk(ZZ, [[-1]]), 4: mk(ZZ, [[1]])}
    )
    k = find_contraction(gap)
    assert k is not None and k.leibniz() == GradedMap.identity(gap)
    assert k.blocks == ((0, mk(ZZ, [[-1]])), (3, mk(ZZ, [[1]])))
    stuck = ChainComplex.build(ZZ, {0: 1, 1: 1, 3: 1}, {1: mk(ZZ, [[1]])})
    assert find_contraction(stuck) is None

    mod4 = two_term(Zmod(4), 2)
    assert find_contraction(mod4) is None
    assert find_null_homotopy(GradedMap.identity(mod4)) is None

    # Z --[1 1]^T--> Z^2 --[1 -1]--> Z over degrees 2, 1, 0: the degree-1
    # right-hand side 1 - k_0 d_1 is nonzero and depends on k_0.
    chain = ChainComplex.build(
        ZZ, {0: 1, 1: 2, 2: 1}, {1: mk(ZZ, [[1, -1]]), 2: mk(ZZ, [[1], [1]])}
    )
    k = find_contraction(chain)
    assert k is not None and k.leibniz() == GradedMap.identity(chain)
    assert k.block(0) != Matrix.zero(ZZ, 2, 1)
    assert k.block(1) != Matrix.zero(ZZ, 1, 2)
    assert find_null_homotopy(GradedMap.identity(chain)) is not None


def test_contraction_avoids_kronecker_system(monkeypatch):
    import chainbench.chains as chains

    def refuse(*args, **kwargs):
        raise AssertionError("find_contraction reached the Kronecker solver")

    monkeypatch.setattr(chains, "leibniz_system", refuse)
    monkeypatch.setattr(chains, "find_null_homotopy", refuse)
    rng = random.Random(31)
    for ring in (ZZ, QQ, Zmod(6)):
        c = random_complex(rng, ring, force_acyclic=True).complex
        k = find_contraction(c)
        assert k is not None and k.leibniz() == GradedMap.identity(c)
    assert find_contraction(two_term(ZZ, 3)) is None


def test_leibniz_bound_counts_the_assembled_size(monkeypatch):
    """leibniz_system counts the rows and columns of its system from the
    ranks before assembling it; the counts are those of the assembled
    matrix, so exactly the systems over the bound are refused."""
    import chainbench.chains as chains

    rng = random.Random(20261019)
    for ring in (ZZ, QQ, Zmod(4)):
        for _ in range(12):
            src = random_complex(rng, ring).complex
            tgt = random_complex(rng, ring).complex
            degree = rng.randint(-1, 2)
            a, _ = chains.leibniz_system(src, tgt, degree)
            monkeypatch.setattr(chains, "_MAX_LEIBNIZ_ENTRIES", a.rows * a.cols)
            assert chains.leibniz_system(src, tgt, degree)[0] == a
            if a.rows * a.cols:
                monkeypatch.setattr(chains, "_MAX_LEIBNIZ_ENTRIES", a.rows * a.cols - 1)
                with pytest.raises(ValueError, match=f"{a.rows} rows and {a.cols} columns"):
                    chains.leibniz_system(src, tgt, degree)
            monkeypatch.undo()


def test_witness_composition_rules():
    rng = random.Random(3)
    for _ in range(15):
        a = random_complex(rng, ZZ).complex
        b = random_complex(rng, ZZ).complex
        c = random_complex(rng, ZZ).complex
        f, hw = random_null_homotopic(rng, a, b)
        post = random_chain_map(rng, b, c, rng.choice([-1, 0, 1]))
        w = witness_left_compose(post, hw)
        assert w.leibniz() == post @ f
        pre = random_chain_map(rng, c, a, rng.choice([-1, 0, 1]))
        w2 = witness_right_compose(hw, pre)
        assert w2.leibniz() == f @ pre


# ---------------------------------------------------------------------------
# Suspension and shift


def test_suspend_round_trip_and_homology():
    rng = random.Random(77)
    sample = random_complex(rng, ZZ)
    c = sample.complex
    up = suspend(c, 1)
    assert suspend(up, -1) == c
    for n in c.degrees():
        a = homology_at(c, n)
        b = homology_at(up, n + 1)
        assert (a.betti, a.torsion) == (b.betti, b.torsion)
    plain = shift_unsigned(c, 2)
    plain.validate()
    for n in c.degrees():
        a = homology_at(c, n)
        b = homology_at(plain, n + 2)
        assert (a.betti, a.torsion) == (b.betti, b.torsion)


# ---------------------------------------------------------------------------
# Cones and cylinders


def test_cone_of_identity_frozen_contraction():
    c = ChainComplex.build(ZZ, {0: 1}, {})
    data = cone(GradedMap.identity(c))
    assert data.complex.rank(1) == 1 and data.complex.rank(0) == 1
    assert data.complex.diff(1) == mk(ZZ, [[-1]])
    k = find_contraction(data.complex)
    assert k is not None
    assert k.blocks == ((0, mk(ZZ, [[-1]])),)


def test_cone_detects_homology_equivalence():
    rng = random.Random(515)
    agree_true = agree_false = 0
    for i in range(30):
        ring = QQ if i % 3 == 0 else ZZ
        src = random_complex(rng, ring).complex
        tgt = random_complex(rng, ring).complex
        f = random_chain_map(rng, src, tgt)
        via_cone = is_acyclic(cone(f).complex)
        direct = is_homology_equivalence(f)
        assert via_cone == direct
        agree_true += direct
        agree_false += not direct
    assert agree_false > 5


def test_homology_equivalence_positive_cases():
    rng = random.Random(606)
    c = random_complex(rng, ZZ).complex
    assert is_homology_equivalence(GradedMap.identity(c))
    cyl = cylinder(GradedMap.identity(c))
    assert is_homology_equivalence(cyl.proj)
    assert is_homology_equivalence(cyl.incl_source)
    assert is_homology_equivalence(cyl.incl_target)


def test_homology_equivalence_negative_case():
    a = ChainComplex.build(ZZ, {0: 1}, {})
    double = GradedMap.build(a, a, 0, {0: mk(ZZ, [[2]])})
    assert not is_homology_equivalence(double)
    assert not is_acyclic(cone(double).complex)
    with pytest.raises(ValueError):
        is_homology_equivalence(GradedMap.identity(two_term(Zmod(6), 2)))


def test_cylinder_structure():
    rng = random.Random(718)
    for i in range(10):
        ring = [ZZ, QQ, Zmod(6)][i % 3]
        src = random_complex(rng, ring).complex
        tgt = random_complex(rng, ring).complex
        f = (
            random_chain_map(rng, src, tgt)
            if ring.kind != "Zmod"
            else random_null_homotopic(rng, src, tgt)[0]
        )
        cyl = cylinder(f)
        assert cyl.proj @ cyl.incl_target == GradedMap.identity(tgt)
        assert cyl.proj @ cyl.incl_source == f
        assert cyl.quotient.target == cone(f).complex
        assert (cyl.quotient @ cyl.incl_source).is_zero()
        ses = validate_ses(cyl.incl_source, cyl.quotient)
        assert ses.middle == cyl.complex
        if ring.kind != "Zmod":
            assert is_homology_equivalence(cyl.proj)


# ---------------------------------------------------------------------------
# Pushouts


def test_pushout_identities_and_factorization():
    rng = random.Random(2718)
    for i in range(12):
        ring = [ZZ, QQ][i % 2]
        a = random_complex(rng, ring).complex
        cq = random_complex(rng, ring).complex
        z = random_complex(rng, ring).complex
        f = random_cofibration(rng, a, cq)
        g = random_chain_map(rng, a, z)
        data = pushout_along_cofibration(f, g)
        assert data.from_target @ f == data.from_other @ g
        h = pushout_factor(data, data.from_other, data.from_target)
        assert h == GradedMap.identity(data.complex)
        e = random_chain_map(rng, data.complex, random_complex(rng, ring).complex)
        h2 = pushout_factor(data, e @ data.from_other, e @ data.from_target)
        assert h2 == e


def test_pushout_along_identity_gives_target():
    rng = random.Random(31)
    a = random_complex(rng, ZZ).complex
    z = random_complex(rng, ZZ).complex
    g = random_chain_map(rng, a, z)
    data = pushout_along_cofibration(GradedMap.identity(a), g)
    assert data.complex == z
    assert data.from_other == GradedMap.identity(z)
    assert data.from_target == g


def test_pushout_rejects_nonsplit_injection():
    a = ChainComplex.build(ZZ, {0: 1}, {})
    b = ChainComplex.build(ZZ, {0: 1}, {})
    double = GradedMap.build(a, b, 0, {0: mk(ZZ, [[2]])})
    with pytest.raises(ValueError):
        pushout_along_cofibration(double, GradedMap.identity(a))


# ---------------------------------------------------------------------------
# Short exact sequences


def test_validate_ses_identities():
    rng = random.Random(141)
    for i in range(12):
        ring = [ZZ, QQ, Zmod(6)][i % 3]
        x = random_complex(rng, ring).complex
        z = random_complex(rng, ring).complex
        ext = random_extension(rng, x, z)
        ses = validate_ses(ext.incl, ext.proj)
        y = ses.middle
        assert (ses.proj @ ses.incl).is_zero()
        assert ses.proj @ ses.section == GradedMap.identity(z)
        assert ses.retraction @ ses.incl == GradedMap.identity(x)
        assert ses.incl @ ses.retraction + ses.section @ ses.proj == GradedMap.identity(y)
        assert (ses.retraction @ ses.section).is_zero()
        assert same_homology(y, direct_sum(x, z).complex)


def test_validate_ses_rejects_inexact():
    x = ChainComplex.zero_complex(ZZ)
    y = two_term(ZZ, 0)
    incl = GradedMap.zero(x, y, 0)
    proj = GradedMap.zero(y, x, 0)
    with pytest.raises(ValueError):
        validate_ses(incl, proj)


def test_rotate_ses_properties():
    rng = random.Random(272)
    for i in range(8):
        ring = [ZZ, QQ][i % 2]
        x = random_complex(rng, ring).complex
        z = random_complex(rng, ring).complex
        ext = random_extension(rng, x, z)
        ses = validate_ses(ext.incl, ext.proj)
        rot = rotate_ses(ses)
        assert rot.connecting.is_chain_map()
        assert rot.ses.sub == suspend(z, -1)
        assert rot.ses.quotient == ses.middle
        assert is_acyclic(rot.padding)
        assert same_homology(rot.ses.middle, x)
        rot2 = rotate_ses(rot.ses)
        assert rot2.ses.sub == suspend(ses.middle, -1)


def test_cylinder_checks_its_input_once(monkeypatch):
    """A cylinder makes 2 leibniz calls: its input check and the check of
    its deformation homotopy; a cone makes 1, its input check.  The
    structure maps built from the checked input are not checked again."""
    c = ChainComplex.build(ZZ, {0: 1, 1: 1}, {1: Matrix.from_rows(ZZ, [[2]])})
    f = GradedMap.identity(c)
    calls = []
    original = GradedMap.leibniz

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(GradedMap, "leibniz", counted)
    cylinder(f)
    assert len(calls) == 2
    calls.clear()
    cone(f)
    assert len(calls) == 1
    bad = GradedMap.build(c, c, 0, {0: Matrix.from_rows(ZZ, [[1]])})
    with pytest.raises(ValueError, match="cylinder input"):
        cylinder(bad)
    with pytest.raises(ValueError, match="cone input"):
        cone(bad)
