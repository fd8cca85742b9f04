"""Each object is checked once: the checks the library no longer repeats.

The ladder builds descent kernels, induced kernel ascents and the
folded square from checked tower maps by exact solves, and does not
check the results again.  Here those results are checked on seeded
reduced towers.  Every public constructor must still reject bad input
with the same exception and message, probe detection must try at most
two candidate probes, and the fuzz verb must report a broken structure
map of the identity cone or of a descent kernel.
"""

import random

import pytest

import construction_oracle
from chainbench import chains, ladder
from chainbench.chains import (
    ChainComplex,
    GradedMap,
    cone,
    cylinder,
    pushout_along_cofibration,
    validate_ses,
)
from chainbench.cli import main
from chainbench.diagrams import Bimodule
from chainbench.exact_linalg import QQ, ZZ, Matrix, Zmod
from chainbench.fuzz import random_kernel_tower, random_reduced_ladder
from chainbench.ladder import (
    D0Complex,
    D0Morphism,
    constant_tower,
    detect_probe,
    exact_square_total,
    kernel_complex,
    kernel_lambda,
)
from chainbench.serialize import (
    InvalidObject,
    dump_d0complex,
    dump_d0morphism,
    load_complex,
    load_d0complex,
    load_d0morphism,
)

RINGS = (ZZ, QQ, Zmod(3))


def _towers():
    for index, ring in enumerate(RINGS):
        for seed in range(3):
            rng = random.Random(9700 + 10 * index + seed)
            yield random_reduced_ladder(rng, ring).complex
            yield random_kernel_tower(rng, ring, s_rank=1 + seed % 2).complex


def test_ladder_constructions_satisfy_the_dropped_post_conditions():
    checked = 0
    for tower in _towers():
        kernels = {m: kernel_complex(tower, m) for m in range(1, tower.top_index + 1)}
        for kd in kernels.values():
            kd.complex.validate()
            assert kd.inclusion.is_chain_map()
        for m in range(1, tower.top_index):
            assert kernel_lambda(tower, m, kernels[m], kernels[m + 1]).is_chain_map()
            assert kernel_lambda(tower, m).is_chain_map()
            exact_square_total(tower, m).validate()
            checked += 1
    assert checked >= 30


def _zero_tower(ring, n_levels):
    zero = ChainComplex.zero_complex(ring)
    maps = [GradedMap.zero(zero, zero, 0)] * n_levels
    return D0Complex.build(Bimodule(ring, 1), [zero] * (n_levels + 1), maps, maps, 0)


def test_detect_probe_tries_at_most_two_probes(monkeypatch):
    cases = []
    for ring in RINGS:
        moore = ChainComplex.build(ring, {0: 1, 1: 1}, {1: Matrix.from_rows(ring, [[2]])})
        for rank in (1, 2):
            s = Bimodule(ring, rank)
            for n in range(1, 5):
                cases += [(ladder.test_object("g_m", m, n, s), ("g_m", m)) for m in range(1, n + 1)]
                cases += [(ladder.test_object("g_m_cone", m, n, s), ("g_m_cone", m)) for m in range(1, n)]
                cases.append((constant_tower(moore, n, s), (None, None)))
                cases.append((_zero_tower(ring, n), (None, None)))
    cases.append((random_reduced_ladder(random.Random(9800), ZZ).complex, (None, None)))
    calls = []
    original = ladder.test_object

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ladder, "test_object", counted)
    for tower, want in cases:
        calls.clear()
        assert detect_probe(tower) == want
        assert len(calls) <= 2, (want, calls)


def _probe_cases():
    """The towers of test_detect_probe_tries_at_most_two_probes."""
    for ring in RINGS:
        moore = ChainComplex.build(ring, {0: 1, 1: 1}, {1: Matrix.from_rows(ring, [[2]])})
        for rank in (1, 2):
            s = Bimodule(ring, rank)
            for n in range(1, 5):
                yield from (ladder.test_object("g_m", m, n, s) for m in range(1, n + 1))
                yield from (ladder.test_object("g_m_cone", m, n, s) for m in range(1, n))
                yield constant_tower(moore, n, s)
                yield _zero_tower(ring, n)
    yield random_reduced_ladder(random.Random(9800), ZZ).complex


@pytest.fixture
def empty_probe_cache():
    ladder._probe.cache_clear()
    yield
    ladder._probe.cache_clear()


def test_detect_probe_builds_each_candidate_once(monkeypatch, empty_probe_cache):
    """Verdicts equal the rebuilding oracle's, and repeated calls on one
    tower, or on an equal copy over an equal bimodule, build each
    candidate once."""
    towers = list(_probe_cases())
    wanted = [construction_oracle.detect_probe(t) for t in towers]
    calls = []
    original = ladder.test_object

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ladder, "test_object", counted)
    for tower, want in zip(towers, wanted):
        ladder._probe.cache_clear()
        calls.clear()
        s = Bimodule(tower.bimodule.base, tower.bimodule.rank)
        twin = D0Complex.build(s, tower.levels, tower.ascents, tower.descents, tower.stabilization)
        for d in (tower, tower, twin, tower):
            assert detect_probe(d) == want
        assert len(calls) == len(set(calls)) <= 2, (want, calls)


def _moore():
    return ChainComplex.build(ZZ, {0: 1, 1: 1}, {1: Matrix.from_rows(ZZ, [[2]])})


def _not_a_chain_map(c):
    return GradedMap.build(c, c, 0, {0: Matrix.from_rows(ZZ, [[1]])})


def _tower_with(ascent=None, descent=None):
    """Two-level tower on the Moore complex with one map replaced."""
    c, s = _moore(), Bimodule(ZZ, 1)
    zero = ChainComplex.zero_complex(ZZ)
    ascents = [GradedMap.zero(zero, c, 0), ascent or GradedMap.identity(c)]
    descents = [GradedMap.zero(c, zero, 0), descent or GradedMap.zero(c, c, 0)]
    return D0Complex.build(s, [zero, c, c], ascents, descents, 1)


def _bad_morphism():
    tower = constant_tower(_moore(), 2, Bimodule(ZZ, 1))
    parts = [GradedMap.zero(tower.level(0), tower.level(0), 0), _not_a_chain_map(tower.level(1))]
    return D0Morphism.build(tower, tower, parts + [GradedMap.identity(tower.level(2))])


def _bad_complex_payload():
    return {
        "ring": "Z",
        "ranks": {"0": "1", "1": "1", "2": "1"},
        "differentials": {"1": [["1"]], "2": [["1"]]},
    }


def _bad_tower_payload():
    payload = dump_d0complex(constant_tower(_moore(), 2, Bimodule(ZZ, 1)))
    payload["ascents"][1] = {"0": [["1"]], "1": [["0"]]}
    return payload


def _bad_morphism_payload():
    tower = constant_tower(_moore(), 2, Bimodule(ZZ, 1))
    payload = dump_d0morphism(D0Morphism.build(tower, tower, [GradedMap.identity(c) for c in tower.levels]))
    payload["components"][1] = {"0": [["1"]]}
    return payload


def _split_injection():
    c = _moore()
    return GradedMap.build(c, c, 0, {0: Matrix.from_rows(ZZ, [[2]]), 1: Matrix.from_rows(ZZ, [[2]])})


REJECTIONS = {
    "cone, not a chain map": (
        lambda: cone(_not_a_chain_map(_moore())),
        ValueError, "cone input does not commute with the boundaries"),
    "cone, wrong degree": (
        lambda: cone(GradedMap.zero(_moore(), _moore(), 1)),
        ValueError, "cone input must have degree 0, got 1"),
    "cylinder, not a chain map": (
        lambda: cylinder(_not_a_chain_map(_moore())),
        ValueError, "cylinder input does not commute with the boundaries"),
    "pushout, bad cofibration": (
        lambda: pushout_along_cofibration(_not_a_chain_map(_moore()), GradedMap.identity(_moore())),
        ValueError, "cofibration does not commute with the boundaries"),
    "pushout, bad attaching map": (
        lambda: pushout_along_cofibration(GradedMap.identity(_moore()), _not_a_chain_map(_moore())),
        ValueError, "attaching map does not commute with the boundaries"),
    "pushout, not split": (
        lambda: pushout_along_cofibration(_split_injection(), GradedMap.identity(_moore())),
        ValueError, "map is not a split injection in degree 0"),
    "validate_ses, bad inclusion": (
        lambda: validate_ses(_not_a_chain_map(_moore()), GradedMap.identity(_moore())),
        ValueError, "sub inclusion does not commute with the boundaries"),
    "validate_ses, bad projection": (
        lambda: validate_ses(GradedMap.identity(_moore()), _not_a_chain_map(_moore())),
        ValueError, "quotient projection does not commute with the boundaries"),
    "validate_ses, not exact": (
        lambda: validate_ses(GradedMap.identity(_moore()), GradedMap.identity(_moore())),
        ValueError, "projection after inclusion is nonzero"),
    "D0Complex.build, bad ascent": (
        lambda: _tower_with(ascent=_not_a_chain_map(_moore())),
        ValueError, "ascent 1 is not a chain map between adjacent levels"),
    "D0Complex.build, bad descent": (
        lambda: _tower_with(descent=_not_a_chain_map(_moore())),
        ValueError, "descent 2 is not a chain map to the tensored lower level"),
    "D0Morphism.build, bad component": (
        _bad_morphism,
        ValueError, "component 1 is not a chain map between the levels"),
    "load_complex": (
        lambda: load_complex(_bad_complex_payload()),
        InvalidObject, "complex: boundary twice is nonzero from degree 2"),
    "load_d0complex": (
        lambda: load_d0complex(_bad_tower_payload()),
        InvalidObject, "d0complex: ascent 1 is not a chain map between adjacent levels"),
    "load_d0morphism": (
        lambda: load_d0morphism(_bad_morphism_payload()),
        InvalidObject, "morphism: component 1 is not a chain map between the levels"),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_public_constructors_reject_bad_input_with_the_same_message(case):
    call, kind, message = REJECTIONS[case]
    with pytest.raises(kind) as err:
        call()
    assert type(err.value) is kind
    assert str(err.value) == message


class _Broken:
    """Stands in for a structure map that is not a chain map."""

    def is_chain_map(self):
        return False


def test_fuzz_verb_reports_a_broken_identity_cone(monkeypatch, capsys):
    original = chains.cone
    def broken_cone(f):
        good = original(f)
        return chains.ConeData(good.complex, _Broken(), good.projection)

    monkeypatch.setattr(chains, "cone", broken_cone)
    assert main(["fuzz", "--seed", "1", "--n", "4"]) == 1
    out = capsys.readouterr().out
    assert "complex instance 0: cone of the identity has a broken structure map" in out


def test_fuzz_verb_reports_a_broken_kernel_ascent(monkeypatch, capsys):
    monkeypatch.setattr(ladder, "kernel_lambda", lambda *args: _Broken())
    assert main(["fuzz", "--seed", "1", "--n", "20", "--ring", "Z/4"]) == 1
    out = capsys.readouterr().out
    assert out.count("a descent kernel map is not a chain map") == 4
