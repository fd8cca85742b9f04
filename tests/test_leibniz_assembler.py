"""The block assembler against the retained Kronecker-strip and grid oracles.

leibniz_oracle keeps the earlier assemblers verbatim.  The library now
builds every Leibniz system with chains._BlockSystem and
chains._leibniz_rows; these tests require the assembled matrices, and
everything computed from them, to be identical to the oracles'.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import leibniz_oracle
from chainbench import fuzz
from chainbench.chains import (
    ChainComplex,
    GradedMap,
    _BlockSystem,
    _map_system,
    find_null_homotopy,
    leibniz_system,
)
from chainbench.diagrams import Bimodule
from chainbench.exact_linalg import QQ, ZZ, Matrix, Zmod
from chainbench.fuzz import (
    random_chain_map,
    random_complex,
    random_null_homotopic,
    random_reduced_ladder,
)
from chainbench.ladder import (
    _leibniz_conditions,
    _register_family,
    constant_tower,
    hom_complex,
    morphism_space,
)
from chainbench.ladder import test_object as probe

RINGS = (ZZ, QQ, Zmod(4), Zmod(5))


def _complex_pairs(ring, seed):
    rng = random.Random(seed)
    zero = ChainComplex.zero_complex(ring)
    pairs = [(zero, zero)]
    for _ in range(24):
        src = random_complex(rng, ring, max_atoms=3, degree_span=3).complex
        tgt = random_complex(rng, ring, max_atoms=3, degree_span=3).complex
        pairs.extend([(src, tgt), (src, src)])
    pairs.extend([(zero, pairs[1][1]), (pairs[1][0], zero)])
    return pairs


def test_leibniz_system_matches_kronecker_strips():
    compared = 0
    for ring in RINGS:
        for src, tgt in _complex_pairs(ring, 7100 + RINGS.index(ring)):
            for degree in (-1, 0, 1, 2):
                a, system = leibniz_system(src, tgt, degree)
                old, active, var_size, eq_ns = leibniz_oracle.leibniz_system(src, tgt, degree)
                assert a == old
                assert list(system.sizes) == active
                assert all(p * t == var_size[n] for n, (p, t) in system.sizes.items())
                rows = _map_system(src, tgt, degree - 1)
                assert list(rows.sizes) == eq_ns and rows.total == a.rows
                compared += 1
    assert compared == 4 * 51 * 4


def _ladders(seed_base, count=3):
    for index, ring in enumerate((ZZ, QQ, Zmod(3), Zmod(4))):
        for seed in range(count):
            yield random_reduced_ladder(random.Random(seed_base + 10 * index + seed), ring).complex


def _probes(c):
    """The probes of c's shape, and one general tower, which no probe
    recognition reads."""
    s = c.bimodule
    yield from (probe("g_m", m, 3, s) for m in (1, 2, 3))
    yield from (probe("g_m_cone", m, 3, s) for m in (1, 2))
    yield random_reduced_ladder(random.Random(7900), s.base, s_rank=s.rank).complex


def test_family_boundary_matches_grid_oracle():
    compared = 0
    for c in _ladders(7200):
        ring = c.bimodule.base
        for d in _probes(c):
            qs = {
                nc - l
                for i in range(d.top_index + 1)
                for l in d.level(i).degrees()
                for nc in c.level(i).degrees()
            }
            for q in sorted(qs):
                if q - 1 not in qs:
                    continue
                boundary = _BlockSystem(ring)
                _register_family(boundary, d, c, q)
                _leibniz_conditions(boundary, d, c, q)
                sys_q = leibniz_oracle._BlockSystem(ring)
                _register_family(sys_q, d, c, q)
                sys_p = leibniz_oracle._BlockSystem(ring)
                _register_family(sys_p, d, c, q - 1)
                expected = leibniz_oracle._leibniz_matrix(sys_q, sys_p, d, c, q)
                assert boundary.matrix() == expected
                compared += 1
    assert compared > 100


def test_hom_complex_matches_oracle():
    for c in _ladders(7300, count=2):
        for d in _probes(c):
            assert hom_complex(d, c) == leibniz_oracle.hom_complex(d, c)


def test_morphism_space_matches_oracle():
    towers = list(_ladders(7400, count=2))
    pairs = [(t, t) for t in towers]
    pairs += [(a, b) for a, b in zip(towers, towers[1:]) if a.bimodule == b.bimodule]
    moore = ChainComplex.build(ZZ, {0: 1, 1: 1}, {1: Matrix.from_rows(ZZ, [[2]])})
    const = constant_tower(moore, 3, Bimodule(ZZ, 1))
    pairs.append((const, const))
    for d, c in pairs:
        assert morphism_space(d, c) == leibniz_oracle.morphism_space(d, c)


def test_random_chain_map_matches_oracle():
    seed = 7500
    for ring in (ZZ, QQ, Zmod(5)):
        for src, tgt in _complex_pairs(ring, seed)[:20]:
            for degree in (-1, 0, 1):
                seed += 1
                new_rng, old_rng = random.Random(seed), random.Random(seed)
                got = random_chain_map(new_rng, src, tgt, degree)
                assert got == leibniz_oracle.random_chain_map(old_rng, src, tgt, degree)
                assert new_rng.getstate() == old_rng.getstate()
                assert got.is_chain_map()


def test_random_reduced_ladder_matches_oracle(monkeypatch):
    made = []
    for index, ring in enumerate((ZZ, QQ, Zmod(3))):
        for seed in range(3):
            made.append(random_reduced_ladder(random.Random(7600 + 10 * index + seed), ring))
    monkeypatch.setattr(fuzz, "random_chain_map", leibniz_oracle.random_chain_map)
    again = []
    for index, ring in enumerate((ZZ, QQ, Zmod(3))):
        for seed in range(3):
            again.append(random_reduced_ladder(random.Random(7600 + 10 * index + seed), ring))
    assert made == again


def test_find_null_homotopy_matches_oracle():
    found = missing = 0
    for ring in RINGS:
        rng = random.Random(7700 + RINGS.index(ring))
        for src, tgt in _complex_pairs(ring, 7800 + RINGS.index(ring))[:16]:
            maps = [
                GradedMap.identity(src),
                random_null_homotopic(rng, src, tgt, 0)[0],
                random_null_homotopic(rng, src, tgt, -1)[0],
            ]
            if ring.kind == "Z" or ring.is_field():
                maps.append(random_chain_map(rng, src, tgt, 0))
                maps.append(random_chain_map(rng, src, tgt, 1))
            for f in maps:
                got = find_null_homotopy(f)
                assert got == leibniz_oracle.find_null_homotopy(f)
                found += got is not None
                missing += got is None
    assert found > 100 and missing > 20


# Z and composite Z/m, where find_null_homotopy solves over a ring that
# is not a field; the last modulus is the product of two ten-digit primes.
SOLVE_RINGS = (ZZ, Zmod(4), Zmod(6), Zmod(1000000016000000063))


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 2 ** 32), st.sampled_from(SOLVE_RINGS), st.sampled_from((-1, 0, 1)))
def test_find_null_homotopy_matches_oracle_over_rings(seed, ring, degree):
    """A "yes" from random_null_homotopic and a "no" from the identity of
    a complex with nonzero homology, each compared with the oracle by repr."""
    rng = random.Random(seed)
    src = random_complex(rng, ring, max_atoms=3, degree_span=2).complex
    tgt = random_complex(rng, ring, max_atoms=3, degree_span=2).complex
    yes = random_null_homotopic(rng, src, tgt, degree)[0]
    sample = random_complex(rng, ring, max_atoms=3, degree_span=2)
    while all(h.is_trivial() for h in sample.expected.values()):
        sample = random_complex(rng, ring, max_atoms=3, degree_span=2)
    no = GradedMap.identity(sample.complex)
    for f, answer in ((yes, True), (no, False)):
        got = find_null_homotopy(f)
        assert repr(got) == repr(leibniz_oracle.find_null_homotopy(f)), (ring, f)
        assert (got is not None) == answer, (ring, f)
        if got is not None:
            assert got.leibniz() == f


def test_block_system_stack_and_block_round_trip():
    system = _BlockSystem(ZZ)
    system.unknown("a", 2, 3)
    system.unknown("empty", 0, 4)
    system.unknown("b", 1, 2)
    assert system.total == 8 and not system.has("empty")
    a = Matrix.from_rows(ZZ, [[1, 2, 3], [4, 5, 6]])
    b = Matrix.from_rows(ZZ, [[7, 8]])
    vec = system.stack({"b": Matrix.from_rows(ZZ, [[7], [8]]), "empty": Matrix.zero(ZZ, 0, 1)}, 1)
    assert vec == Matrix.from_rows(ZZ, [[0]] * 6 + [[7], [8]])
    both = system.stack(
        {"a": Matrix.from_rows(ZZ, [[x] for row in a.entries for x in row]), "b": vec.rows_slice(6, 8)}, 1
    )
    assert system.block(both, "a") == a and system.block(both, "b") == b
    assert system.stack({}, 2) == Matrix.zero(ZZ, 8, 2)
    with pytest.raises(AssertionError):
        system.stack({"missing": Matrix.identity(ZZ, 1)}, 1)
    with pytest.raises(AssertionError):
        system.stack({"b": Matrix.zero(ZZ, 2, 2)}, 1)
