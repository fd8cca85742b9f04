"""cone, cylinder, pushout_along_cofibration, direct_sum, rotate_ses
and exact_square_total against their oracles, on inputs drawn by
hypothesis.

tests/construction_oracle.py keeps each construction as it was before
the library stopped re-checking its structure maps, so the oracle
still validates the cone and cylinder boundaries and checks every
structure map.  Hypothesis (derandomized, no example database) draws a
ring among Z, Q, Z/3 and Z/4, seeds for the fuzz generators, the kind
of chain map, the number of summands, and the tower and the index of
its exact square, and the library must return a value object equal to
the oracle's, by == and by repr; exact_square_total must also equal,
by repr, the route through the library's direct sum and cones that it
replaced.
"""

import random

from hypothesis import given, settings, strategies as st

import construction_oracle as oracle
from chainbench.chains import (
    ChainComplex,
    GradedMap,
    cone,
    cylinder,
    direct_sum,
    pushout_along_cofibration,
    rotate_ses,
    validate_ses,
)
from chainbench.exact_linalg import QQ, ZZ, Zmod
from chainbench.fuzz import (
    random_chain_map,
    random_complex,
    random_extension,
    random_kernel_tower,
    random_null_homotopic,
    random_reduced_ladder,
)
from chainbench.ladder import exact_square_total

PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)

RINGS = st.sampled_from((ZZ, QQ, Zmod(3), Zmod(4)))
SEEDS = st.integers(0, 2**32 - 1)
MAP_KINDS = st.sampled_from(("identity", "sub inclusion", "quotient projection", "null-homotopic", "chain map"))


def _same(got, want):
    """Equal by == and by repr, which also tells an int from a bool."""
    assert got == want
    assert repr(got) == repr(want)


def _small(rng, ring):
    return random_complex(rng, ring, max_atoms=2, degree_span=2).complex


def _chain_map(rng, kind, a, b, c):
    """A degree-0 chain map of the given kind; over Z/4 a sampled chain
    map is replaced by a null-homotopic one, which exists over every ring."""
    if kind == "identity":
        return GradedMap.identity(a)
    if kind in ("sub inclusion", "quotient projection"):
        ext = random_extension(rng, a, b)
        return ext.incl if kind == "sub inclusion" else ext.proj
    if kind == "chain map" and (a.ring.kind == "Z" or a.ring.is_field()):
        return random_chain_map(rng, a, c, 0)
    return random_null_homotopic(rng, a, c, 0)[0]


@st.composite
def chain_maps(draw):
    rng = random.Random(draw(SEEDS))
    ring = draw(RINGS)
    a, b, c = _small(rng, ring), _small(rng, ring), _small(rng, ring)
    return _chain_map(rng, draw(MAP_KINDS), a, b, c)


@st.composite
def pushout_legs(draw):
    """A split injection f: A -> Y and a chain map g out of A."""
    rng = random.Random(draw(SEEDS))
    ring = draw(RINGS)
    a, b, c = _small(rng, ring), _small(rng, ring), _small(rng, ring)
    f = random_extension(rng, a, b).incl
    kind = draw(st.sampled_from(("identity", "null-homotopic", "chain map")))
    return f, _chain_map(rng, kind, a, b, c)


@PROPERTY
@given(chain_maps())
def test_cone_matches_oracle(f):
    _same(cone(f), oracle.cone(f))


@PROPERTY
@given(chain_maps())
def test_cylinder_matches_oracle(f):
    _same(cylinder(f), oracle.cylinder(f))


@PROPERTY
@given(pushout_legs())
def test_pushout_matches_oracle(legs):
    f, g = legs
    _same(pushout_along_cofibration(f, g), oracle.pushout_along_cofibration(f, g))


@st.composite
def summands(draw):
    """One to three small complexes, with a zero complex among them
    half of the time."""
    rng = random.Random(draw(SEEDS))
    ring = draw(RINGS)
    parts = [_small(rng, ring) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        parts.insert(draw(st.integers(0, len(parts))), ChainComplex.zero_complex(ring))
    return parts


@st.composite
def short_exact_sequences(draw):
    rng = random.Random(draw(SEEDS))
    ring = draw(RINGS)
    ext = random_extension(rng, _small(rng, ring), _small(rng, ring))
    return validate_ses(ext.incl, ext.proj)


@st.composite
def exact_squares(draw):
    """A reduced ladder or a kernel tower of three or four levels, its
    levels spread over one or two degrees, and the index of one of its
    exact squares."""
    rng = random.Random(draw(SEEDS))
    ring = draw(RINGS)
    levels = draw(st.integers(3, 4))
    span = draw(st.integers(1, 2))
    if draw(st.booleans()):
        tower = random_reduced_ladder(rng, ring, n_levels=levels, degree_span=span).complex
    else:
        s_rank = draw(st.integers(1, 2))
        tower = random_kernel_tower(rng, ring, n_levels=levels, s_rank=s_rank, degree_span=span).complex
    return tower, draw(st.integers(1, tower.top_index - 1))


@PROPERTY
@given(summands())
def test_direct_sum_matches_oracle(parts):
    _same(direct_sum(*parts), oracle.direct_sum(*parts))


@PROPERTY
@given(short_exact_sequences())
def test_rotate_ses_matches_oracle(ses):
    _same(rotate_ses(ses), oracle.rotate_ses(ses))


@PROPERTY
@given(exact_squares())
def test_exact_square_total_matches_oracle(square):
    tower, m = square
    _same(exact_square_total(tower, m), oracle.exact_square_total(tower, m))


@PROPERTY
@given(exact_squares())
def test_exact_square_total_matches_the_cone_route(square):
    tower, m = square
    assert repr(exact_square_total(tower, m)) == repr(oracle.exact_square_total_by_cones(tower, m))
