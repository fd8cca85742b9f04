"""The work the library skips, against the routes that did it.

GradedMap.identity hands out identity blocks made once per complex,
and compose returns the other factor when one factor is that shared
identity; tests/compose_oracle.py keeps both as they were before.
_cone_complex builds a cone's complex without its structure maps, and
is_reduced decides reducedness without solving for the sections that
reduction_certificates returns.  _sum_complex builds a direct sum's
complex without its slot maps, direct_sum builds them only when they
are first read, and factor_through_acyclic solves the ascent cones of
its source up to the first that fails, but no level contraction or
descent section.  fuzz._conjugated carries the inverse of each change
of basis along its elementary steps instead of solving for it, and
must leave the same matrices and the same random state as the solving
route.  Hypothesis (derandomized, no example
database) draws the inputs over Z, Q, Z/3, Z/4 and Z/6, and every
result must equal the old route's by repr.  Caching the identity
blocks, or the negated differentials that even-degree graded
differentials and contractions read, must leave a complex's repr, ==
and hash alone and form no reference cycle, and the cone verb must
reject what cone() rejects, with the same message.
"""

import gc
import json
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import compose_oracle
import construction_oracle
from chainbench import chains
from chainbench.chains import ChainComplex, GradedMap, _cone, _cone_complex, _sum_complex, cone, direct_sum, find_contraction
from chainbench.cli import main
from chainbench.exact_linalg import QQ, ZZ, Matrix, Zmod
from chainbench.fuzz import (
    _conjugated,
    random_chain_map,
    random_complex,
    random_extension,
    random_graded_map,
    random_kernel_tower,
    random_matrix,
    random_null_homotopic,
    random_reduced_ladder,
    random_unimodular,
)
from chainbench.diagrams import Bimodule
from chainbench.ladder import D0Complex, D0Morphism, factor_through_acyclic, is_reduced, reduction_certificates
from chainbench.ladder import test_object as probe
from chainbench.serialize import dump_graded_map

PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)

RING_LIST = (ZZ, QQ, Zmod(3), Zmod(4), Zmod(6))
RINGS = st.sampled_from(RING_LIST)
SEEDS = st.integers(0, 2**32 - 1)


def _complex(rng, ring, zero):
    if zero:
        return ChainComplex.zero_complex(ring)
    return random_complex(rng, ring, max_atoms=2, degree_span=2).complex


@st.composite
def compose_cases(draw):
    """Maps f: X -> C, g: C -> Y and h: C -> C of degrees -1 to 1; each
    complex is the zero complex a third of the time."""
    rng = random.Random(draw(SEEDS))
    ring = draw(RINGS)
    x, c, y = (_complex(rng, ring, draw(st.integers(0, 2)) == 0) for _ in range(3))
    degrees = st.integers(-1, 1)
    f = random_graded_map(rng, x, c, draw(degrees))
    g = random_graded_map(rng, c, y, draw(degrees))
    h = random_graded_map(rng, c, c, draw(degrees))
    return f, g, h


@PROPERTY
@given(compose_cases())
def test_composing_with_the_shared_identity_matches_the_oracle(case):
    f, g, h = case
    c = f.target
    ident = GradedMap.identity(c)
    assert repr(ident) == repr(compose_oracle.identity(c))
    assert GradedMap.identity(c).blocks is ident.blocks
    pairs = ((ident, f), (g, ident), (ident, ident), (ident, h), (h, ident), (h, f), (g, h))
    for left, right in pairs:
        assert repr(left @ right) == repr(compose_oracle.compose(left, right))
    assert ident @ f is f and g @ ident is g
    # An identity equal to the shared one, but built apart from it,
    # takes the general route and gives the same map.
    fresh = compose_oracle.identity(c)
    for left, right in ((fresh, f), (g, fresh), (fresh, ident), (ident, fresh)):
        assert repr(left @ right) == repr(compose_oracle.compose(left, right))


def test_caching_identity_blocks_leaves_repr_eq_and_hash_alone():
    for ring in RING_LIST:
        for zero in (True, False):
            c = _complex(random.Random(41), ring, zero)
            twin = ChainComplex.build(ring, c.ranks, c.diffs, validate=False)
            before = (repr(c), hash(c))
            GradedMap.identity(c)
            assert "_identity_blocks" in c.__dict__ and "_identity_blocks" not in twin.__dict__
            assert (repr(c), hash(c)) == before
            assert c == twin and twin == c and hash(twin) == hash(c)
            assert {twin: "found"}[c] == "found"
            assert GradedMap.identity(c) == GradedMap.identity(twin)


def test_cached_identity_blocks_form_no_reference_cycle():
    gc.disable()
    try:
        c = random_complex(random.Random(7), ZZ, max_atoms=2, degree_span=2).complex
        GradedMap.identity(c) @ GradedMap.identity(c)
        ref = weakref.ref(c)
        del c
        assert ref() is None
    finally:
        gc.enable()


def test_caching_negated_differentials_leaves_repr_eq_and_hash_alone():
    for ring in RING_LIST:
        for zero in (True, False):
            c = _complex(random.Random(41), ring, zero)
            twin = ChainComplex.build(ring, c.ranks, c.diffs, validate=False)
            before = (repr(c), hash(c))
            GradedMap.identity(c).leibniz()
            assert "_negated_diffs" in c.__dict__ and "_negated_diffs" not in twin.__dict__
            assert c._negated_diffs == {n: -d for n, d in c.diffs}
            assert (repr(c), hash(c)) == before
            assert c == twin and twin == c and hash(twin) == hash(c)
            assert {twin: "found"}[c] == "found"
            assert GradedMap.identity(c).leibniz() == GradedMap.identity(twin).leibniz()


def test_cached_negated_differentials_form_no_reference_cycle():
    gc.disable()
    try:
        c = random_complex(random.Random(7), ZZ, max_atoms=2, degree_span=2, force_acyclic=True).complex
        find_contraction(c)
        assert "_negated_diffs" in c.__dict__
        ref = weakref.ref(c)
        del c
        assert ref() is None
    finally:
        gc.enable()


@st.composite
def chain_maps(draw):
    """A degree-0 chain map; random_chain_map needs Z or a field, so
    over Z/4 and Z/6 a null-homotopic map stands in for it."""
    rng = random.Random(draw(SEEDS))
    ring = draw(RINGS)
    a, b, c = (_complex(rng, ring, draw(st.integers(0, 3)) == 0) for _ in range(3))
    kind = draw(st.sampled_from(("identity", "sub inclusion", "quotient projection", "null-homotopic", "chain map")))
    if kind == "identity":
        return GradedMap.identity(a)
    if kind in ("sub inclusion", "quotient projection"):
        ext = random_extension(rng, a, b)
        return ext.incl if kind == "sub inclusion" else ext.proj
    if kind == "chain map" and (ring.kind == "Z" or ring.is_field()):
        return random_chain_map(rng, a, c, 0)
    return random_null_homotopic(rng, a, c, 0)[0]


@PROPERTY
@given(chain_maps())
def test_cone_complex_matches_the_cone(f):
    got = repr(_cone_complex(f))
    assert got == repr(_cone(f).complex)
    assert got == repr(construction_oracle.cone(f).complex)


def _with_a_row_scaled(rng, tower, factor):
    """The tower with the first row of one stored descent block scaled
    by factor, or None when no descent stores a block.  This breaks
    the tower's commuting squares, so it is made with the record
    constructor: reducedness reads the descents alone."""
    slots = [(i, n) for i, a in enumerate(tower.descents) for n, _ in a.blocks]
    if not slots:
        return None
    i, n = rng.choice(slots)
    a = tower.descents[i]
    b = a.block(n)
    scaled = Matrix(b.ring, b.rows, b.cols, (tuple(factor * x for x in b.entries[0]),) + b.entries[1:])
    blocks = dict(a.blocks)
    blocks[n] = scaled
    descents = tower.descents[:i] + (GradedMap.build(a.source, a.target, 0, blocks),) + tower.descents[i + 1:]
    return D0Complex(tower.bimodule, tower.levels, tower.ascents, descents, tower.stabilization, tower.witnesses)


@st.composite
def towers(draw):
    """A reduced ladder or a kernel tower, half of the time with one row
    of a descent block scaled by 2 or by 0; returns (tower, whether it
    is reduced)."""
    rng = random.Random(draw(SEEDS))
    ring = draw(RINGS)
    if draw(st.booleans()):
        tower = random_reduced_ladder(rng, ring, n_levels=draw(st.integers(2, 3))).complex
    else:
        tower = random_kernel_tower(rng, ring, s_rank=draw(st.integers(1, 2))).complex
    if draw(st.booleans()):
        factor = draw(st.sampled_from((2, 0)))
        scaled = _with_a_row_scaled(rng, tower, factor)
        if scaled is not None:
            # 2 is a unit over Q and Z/3 and over no other ring drawn.
            return scaled, factor == 2 and ring in (QQ, Zmod(3))
    return tower, True


@PROPERTY
@given(towers())
def test_is_reduced_agrees_with_the_reduction_certificates(case):
    tower, reduced = case
    assert is_reduced(tower) == reduced
    assert (reduction_certificates(tower) is not None) == reduced


@pytest.mark.parametrize("degree", (0, 1))
def test_cone_verb_rejects_what_cone_rejects(tmp_path, capsys, degree):
    c = random_complex(random.Random(3), ZZ, max_atoms=2, degree_span=2).complex
    f = random_graded_map(random.Random(5), c, c, degree)
    assert not f.is_chain_map()
    with pytest.raises(ValueError) as err:
        cone(f)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(dump_graded_map(f)))
    assert main(["cone", str(path)]) == 2
    assert capsys.readouterr().out == f"unusable input: {err.value}\n"


@st.composite
def summands(draw):
    """One to three complexes over one ring, each the zero complex a
    third of the time."""
    rng = random.Random(draw(SEEDS))
    ring = draw(RINGS)
    return [_complex(rng, ring, draw(st.integers(0, 2)) == 0) for _ in range(draw(st.integers(1, 3)))]


@PROPERTY
@given(summands())
def test_sum_complex_matches_the_direct_sum(parts):
    got = repr(_sum_complex(*parts))
    assert got == repr(direct_sum(*parts).complex)
    assert got == repr(construction_oracle.direct_sum(*parts).complex)


@PROPERTY
@given(summands())
def test_direct_sum_builds_its_slot_maps_on_first_read(parts):
    slot, built = chains._slot, []

    def counted(total, layout, j):
        built.append(j)
        return slot(total, layout, j)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chains, "_slot", counted)
        data = direct_sum(*parts)
        assert repr(data.complex) == repr(construction_oracle.direct_sum(*parts).complex)
        assert built == []
        data.inclusions
        assert built == list(range(len(parts)))
        assert repr(data) == repr(construction_oracle.direct_sum(*parts))
        assert built == list(range(len(parts)))


@st.composite
def changes_of_basis(draw):
    """A complex over one of six rings with ranks 0 to 8 in degrees 0,
    1 and 2 and a random d_1, and the seed its change of basis is drawn
    from."""
    ring = draw(st.sampled_from((ZZ, QQ, Zmod(4), Zmod(5), Zmod(6), Zmod(1000000016000000063))))
    ranks = {n: draw(st.integers(0, 8)) for n in range(3)}
    rng = random.Random(draw(SEEDS))
    c = ChainComplex.build(ring, ranks, {1: random_matrix(rng, ring, ranks[0], ranks[1])})
    return c, draw(SEEDS)


@PROPERTY
@given(changes_of_basis())
def test_conjugation_carries_the_inverses_the_solve_found(case):
    c, seed = case
    mine, theirs = random.Random(seed), random.Random(seed)
    assert repr(_conjugated(mine, c)) == repr(construction_oracle._conjugated(theirs, c))
    assert mine.getstate() == theirs.getstate()
    for n in range(9):
        got = random_unimodular(mine, c.ring, n, steps=2 * n)
        assert repr(got) == repr(construction_oracle.random_unimodular(theirs, c.ring, n, steps=2 * n))
        assert mine.getstate() == theirs.getstate()


def test_factoring_solves_only_the_ascent_cones_it_needs(monkeypatch):
    """The first ascent of g_1 (zero into the unit) has a cone with no
    contraction, so factoring at cut 0 stops after that one cone."""
    import chainbench.ladder as ladder

    tower = probe("g_m", 1, 3, Bimodule(ZZ, 1))
    zero = D0Morphism.build(
        tower, tower, [GradedMap.zero(tower.level(i), tower.level(i)) for i in range(4)]
    )
    solved = []

    def counted(c):
        solved.append(c)
        return find_contraction(c)

    def unread(c):
        raise AssertionError("descent sections solved for a factorization")

    monkeypatch.setattr(ladder, "find_contraction", counted)
    monkeypatch.setattr(ladder, "reduction_certificates", unread)
    with pytest.raises(ValueError, match="not constant up to homotopy"):
        factor_through_acyclic(zero, 0)
    assert [repr(c) for c in solved] == [repr(_cone_complex(tower.lambda_map(0)))]
