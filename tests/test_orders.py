"""Order, annihilator, class, and rigidity checks for integer complexes."""

import random
from math import lcm

import pytest

import leibniz_oracle
from chainbench import orders
from chainbench.chains import (
    ChainComplex,
    GradedMap,
    cylinder,
    direct_sum,
    homology,
    is_contractible,
)
from chainbench.diagrams import Bimodule, tensor_with_bimodule
from chainbench.exact_linalg import QQ, ZZ, Matrix, ShapeMismatch, inverse
from chainbench.fuzz import random_complex, random_reduced_ladder, random_unimodular
from chainbench.ladder import D0Complex, constant_tower, morphism_space
from chainbench.ladder import test_object as probe
from chainbench.orders import (
    annihilator_exponent,
    classify_order_class,
    hom_vanishing_F_to_G,
    homology_order,
    rational_acyclicity,
)


def two_term(k: int) -> ChainComplex:
    """One generator in degrees 1 and 0 with multiplication by k between."""
    return ChainComplex.build(ZZ, {0: 1, 1: 1}, {1: Matrix.from_rows(ZZ, [[k]])})


def torsion_complex(rng: random.Random, atoms) -> ChainComplex:
    """Direct sum of two-term atoms (n, t) with H_n = Z/t, scrambled.

    The order of the total homology is the product of the t values and
    its exponent is their least common multiple, both by construction;
    the final unimodular change of basis in every degree hides the
    block structure without moving homology.
    """
    ranks = {}
    entries = []
    for n, t in atoms:
        i_top = ranks.get(n + 1, 0)
        ranks[n + 1] = i_top + 1
        i_bot = ranks.get(n, 0)
        ranks[n] = i_bot + 1
        entries.append((n + 1, i_bot, i_top, t))
    diffs = {}
    for m in ranks:
        rows, cols = ranks.get(m - 1, 0), ranks[m]
        if rows and cols:
            diffs[m] = [[0] * cols for _ in range(rows)]
    for m, i, j, t in entries:
        diffs[m][i][j] = t
    plain = ChainComplex.build(
        ZZ, ranks, {m: Matrix.from_rows(ZZ, grid) for m, grid in diffs.items()}
    )
    basis = {n: random_unimodular(rng, ZZ, r) for n, r in plain.ranks}
    mixed = {}
    for n, _ in plain.ranks:
        d = plain.diff(n) @ inverse(basis[n])
        if (n - 1) in basis:
            d = basis[n - 1] @ d
        mixed[n] = d
    return ChainComplex.build(ZZ, dict(plain.ranks), mixed)


def random_atoms(rng: random.Random):
    return [
        (rng.randint(0, 2), rng.choice([2, 3, 4, 5, 6, 8, 9]))
        for _ in range(rng.randint(1, 4))
    ]


def delayed(t: D0Complex) -> D0Complex:
    """Push every level of a tower one step up, starting with two zeros."""
    bim = t.bimodule
    zero = ChainComplex.zero_complex(bim.base)
    levels = [zero] + [t.level(i) for i in range(t.top_index + 1)]
    ascents = [GradedMap.zero(zero, zero, 0)] + list(t.ascents)
    descents = [GradedMap.zero(levels[1], tensor_with_bimodule(levels[0], bim), 0)]
    descents.extend(t.descents)
    stab = min(t.stabilization + 1, len(levels) - 1)
    return D0Complex.build(bim, levels, ascents, descents, stab)


def test_homology_order_frozen_examples():
    assert homology_order(two_term(2)) == homology_order(two_term(2))
    report = homology_order(two_term(2))
    assert report.finite and report.order == 2
    assert homology_order(two_term(1)).order == 1
    assert homology_order(ChainComplex.zero_complex(ZZ)).order == 1
    assert homology_order(two_term(6)).order == 6
    free = ChainComplex.build(ZZ, {0: 1}, {})
    assert homology_order(free) == type(report)(False, None)
    rational = ChainComplex.build(QQ, {0: 1}, {})
    with pytest.raises(ValueError):
        homology_order(rational)


def test_homology_order_matches_construction_on_fuzz():
    for seed in range(25):
        rng = random.Random(1000 + seed)
        made = random_complex(rng, ZZ)
        report = homology_order(made.complex)
        assert report.finite == all(s.betti == 0 for s in made.expected.values())
        if report.finite:
            order = 1
            for s in made.expected.values():
                for t in s.torsion:
                    order *= t
            assert report.order == order


def test_order_multiplicative_under_direct_sum():
    for seed in range(10):
        rng = random.Random(2000 + seed)
        a = torsion_complex(rng, random_atoms(rng))
        b = torsion_complex(rng, random_atoms(rng))
        left = homology_order(a)
        right = homology_order(b)
        both = homology_order(direct_sum(a, b).complex)
        assert both.finite
        assert both.order == left.order * right.order
    free = ChainComplex.build(ZZ, {0: 1}, {})
    mixed = homology_order(direct_sum(free, two_term(3)).complex)
    assert mixed.finite is False and mixed.order is None


def test_annihilator_frozen_examples():
    report = annihilator_exponent(two_term(2))
    assert report.exponent == 2
    assert report.witness.block(0) == Matrix.from_rows(ZZ, [[1]])
    doubled = GradedMap.identity(two_term(2)).scale(2)
    assert report.witness.leibniz() == doubled

    assert annihilator_exponent(two_term(1)).exponent == 1
    assert annihilator_exponent(ChainComplex.zero_complex(ZZ)).exponent == 1

    free = ChainComplex.build(ZZ, {0: 1}, {})
    missing = annihilator_exponent(free)
    assert missing.exponent is None and missing.witness is None


def test_annihilator_for_a_two_step_diagonal():
    # Any homotopy H with dH = N id must in particular solve the degree-0
    # equation against diag(2, 4), which is invertible over the rationals,
    # so H is forced to be N times diag(1/2, 1/4) and is integral exactly
    # when 4 divides N.  The one solve, for the homology exponent, must
    # succeed at 4 itself.
    c = ChainComplex.build(ZZ, {0: 2, 1: 2}, {1: Matrix.from_rows(ZZ, [[2, 0], [0, 4]])})
    exponent = 1
    for s in homology(c).values():
        for t in s.torsion:
            exponent = lcm(exponent, t)
    assert exponent == 4
    report = annihilator_exponent(c)
    assert report.exponent % exponent == 0
    assert (exponent * exponent) % report.exponent == 0
    assert report.exponent == 4
    assert report.witness.leibniz() == GradedMap.identity(c).scale(4)


def test_annihilator_sandwich_and_contractibility_fuzz():
    for seed in range(12):
        rng = random.Random(3000 + seed)
        atoms = random_atoms(rng)
        c = torsion_complex(rng, atoms)
        exponent = lcm(*[t for _, t in atoms])
        report = annihilator_exponent(c)
        assert report.exponent % exponent == 0
        assert (exponent * exponent) % report.exponent == 0
        assert report.witness.leibniz() == GradedMap.identity(c).scale(report.exponent)
        assert (report.exponent == 1) == is_contractible(c)
    for seed in range(8):
        rng = random.Random(3100 + seed)
        made = random_complex(rng, ZZ, force_acyclic=True)
        assert annihilator_exponent(made.complex).exponent == 1
        assert is_contractible(made.complex)


def test_annihilator_matches_divisor_sweep_oracle():
    # The retained oracle sweeps the divisors of the squared exponent
    # with one solve each; the library solves once, for the exponent.
    cases = [
        two_term(1),
        two_term(2),
        two_term(12),
        ChainComplex.zero_complex(ZZ),
        ChainComplex.build(ZZ, {0: 1}, {}),
        ChainComplex.build(ZZ, {0: 2, 1: 2}, {1: Matrix.from_rows(ZZ, [[2, 0], [0, 4]])}),
    ]
    for seed in range(12):
        rng = random.Random(2000 + seed)
        cases.append(torsion_complex(rng, random_atoms(rng)))
        rng = random.Random(3000 + seed)
        cases.append(torsion_complex(rng, random_atoms(rng)))
    for seed in range(8):
        cases.append(random_complex(random.Random(3100 + seed), ZZ, force_acyclic=True).complex)
    for c in cases:
        assert annihilator_exponent(c) == leibniz_oracle.annihilator_exponent(c)


def test_annihilator_reads_one_homology_table(monkeypatch):
    calls = []
    real = orders.homology

    def counted(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(orders, "homology", counted)
    diagonal = ChainComplex.build(ZZ, {0: 2, 1: 2}, {1: Matrix.from_rows(ZZ, [[2, 0], [0, 4]])})
    free = ChainComplex.build(ZZ, {0: 1}, {})
    cases = (diagonal, free, two_term(6))
    reports = []
    for c in cases:
        calls.clear()
        reports.append(annihilator_exponent(c))
        assert calls == [c]
        calls.clear()
        homology_order(c)
        assert calls == [c]
    monkeypatch.undo()
    for c, report in zip(cases, reports):
        assert report == leibniz_oracle.annihilator_exponent(c)


def test_classify_frozen_examples():
    report = classify_order_class(two_term(2), 2, 3)
    assert report.label == "in_A" and report.finite and report.order == 2
    assert classify_order_class(two_term(2), 3, 2).label == "in_B"
    assert classify_order_class(two_term(3), 2, 3).label == "in_B"
    six = classify_order_class(two_term(6), 2, 3)
    assert six.label == "neither" and six.order == 6
    assert classify_order_class(two_term(1), 2, 3).label == "intersection"
    free = ChainComplex.build(ZZ, {0: 1}, {})
    infinite = classify_order_class(free, 2, 3)
    assert infinite.label == "neither" and infinite.finite is False
    with pytest.raises(ValueError):
        classify_order_class(two_term(2), 3, 3)
    with pytest.raises(ValueError):
        classify_order_class(two_term(2), 4, 3)
    with pytest.raises(ValueError):
        classify_order_class(two_term(2), 2, 1)


def test_classify_prime_power_sides_and_mixed_sums():
    rng = random.Random(41)
    p_side = torsion_complex(rng, [(0, 2), (1, 4), (2, 8)])
    q_side = torsion_complex(rng, [(0, 3), (1, 9)])
    assert classify_order_class(p_side, 2, 3).label == "in_A"
    assert classify_order_class(q_side, 2, 3).label == "in_B"
    mixed = direct_sum(p_side, q_side).complex
    report = classify_order_class(mixed, 2, 3)
    assert report.label == "neither"
    assert report.order == (2 * 4 * 8) * (3 * 9)


def test_classify_invariant_under_cylinder_replacement():
    for seed in range(8):
        rng = random.Random(4200 + seed)
        c = torsion_complex(rng, random_atoms(rng))
        fat = cylinder(GradedMap.identity(c)).complex
        before = classify_order_class(c, 2, 3)
        after = classify_order_class(fat, 2, 3)
        assert before.label == after.label
        assert before.order == after.order


def test_rational_acyclicity_examples_and_cross_check():
    assert rational_acyclicity(two_term(2)) is True
    assert rational_acyclicity(two_term(6)) is True
    assert rational_acyclicity(ChainComplex.build(ZZ, {0: 1}, {})) is False
    with pytest.raises(ValueError):
        rational_acyclicity(ChainComplex.build(QQ, {0: 1}, {}))
    for seed in range(20):
        rng = random.Random(5000 + seed)
        made = random_complex(rng, ZZ)
        assert rational_acyclicity(made.complex) == homology_order(made.complex).finite


def test_hom_vanishing_for_probe_and_random_shapes():
    total_variables = 0
    for seed in range(6):
        rng = random.Random(6000 + seed)
        ladder = random_reduced_ladder(rng, ZZ, n_levels=3, s_rank=rng.choice([1, 2]))
        target = delayed(ladder.complex)
        bim = target.bimodule
        source = probe("g_m", 1, target.top_index, bim)
        report = hom_vanishing_F_to_G(source, target)
        assert report.vanishes and report.dimension == 0
        assert report.constraint_rank == report.variables
        total_variables += report.variables

        base = random_complex(rng, ZZ, max_atoms=2, degree_span=2).complex
        wide = constant_tower(base, target.top_index, bim)
        wide_report = hom_vanishing_F_to_G(wide, target)
        assert wide_report.vanishes and wide_report.dimension == 0
        total_variables += wide_report.variables
    assert total_variables > 0


def test_hom_vanishing_is_about_the_shapes():
    bim = Bimodule(ZZ, 1)
    unit = ChainComplex.build(ZZ, {0: 1}, {})
    tower = constant_tower(unit, 3, bim)
    assert morphism_space(tower, tower).dimension >= 1

    zero_tower = constant_tower(ChainComplex.zero_complex(ZZ), 4, bim)
    target = delayed(probe("g_m", 1, 3, bim))
    report = hom_vanishing_F_to_G(zero_tower, target)
    assert report.vanishes and report.variables == 0 and report.constraint_rank == 0


def test_hom_vanishing_rejects_wrong_shapes():
    rng = random.Random(77)
    ladder = random_reduced_ladder(rng, ZZ, n_levels=3).complex
    bim = ladder.bimodule
    unit = ChainComplex.build(ZZ, {0: 1}, {})
    good_target = delayed(probe("g_m", 1, 3, bim))
    with pytest.raises(ValueError, match="identity ascents"):
        hom_vanishing_F_to_G(delayed(ladder), delayed(ladder))
    with pytest.raises(ValueError, match="zero complex at level 1"):
        hom_vanishing_F_to_G(constant_tower(unit, 4, bim), constant_tower(unit, 4, bim))
    with pytest.raises(ShapeMismatch):
        hom_vanishing_F_to_G(constant_tower(unit, 3, bim), good_target)
    other = Bimodule(ZZ, 2)
    with pytest.raises(ShapeMismatch):
        hom_vanishing_F_to_G(constant_tower(unit, 4, other), good_target)
