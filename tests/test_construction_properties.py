"""cone, cylinder and pushout_along_cofibration against their oracles,
on inputs drawn by hypothesis.

tests/construction_oracle.py keeps each construction as it was before
the library stopped re-checking its structure maps, so the oracle
still validates the cone and cylinder boundaries and checks every
structure map.  Hypothesis (derandomized, no example database) draws a
ring among Z, Q, Z/3 and Z/4, seeds for the fuzz generators and the
kind of chain map, and the library must return a value object equal to
the oracle's.
"""

import random

from hypothesis import given, settings, strategies as st

import construction_oracle as oracle
from chainbench.chains import GradedMap, cone, cylinder, pushout_along_cofibration
from chainbench.exact_linalg import QQ, ZZ, Zmod
from chainbench.fuzz import random_chain_map, random_complex, random_extension, random_null_homotopic

PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)

RINGS = st.sampled_from((ZZ, QQ, Zmod(3), Zmod(4)))
SEEDS = st.integers(0, 2**32 - 1)
MAP_KINDS = st.sampled_from(("identity", "sub inclusion", "quotient projection", "null-homotopic", "chain map"))


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
    assert cone(f) == oracle.cone(f)


@PROPERTY
@given(chain_maps())
def test_cylinder_matches_oracle(f):
    assert cylinder(f) == oracle.cylinder(f)


@PROPERTY
@given(pushout_legs())
def test_pushout_matches_oracle(legs):
    f, g = legs
    assert pushout_along_cofibration(f, g) == oracle.pushout_along_cofibration(f, g)
