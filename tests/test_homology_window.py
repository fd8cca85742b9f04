"""homology_at(c, n) reads the homology of c's window of degrees n - 1
to n + 1, which holds d_n and d_(n+1) alone.

Over Z and over a field it eliminates only those two differentials,
each once when it is stored: the tests count the invariant_factors and
rank calls chains makes.  Over composite Z/m the unit pivots are
removed from that window, not from the whole complex: the tests record
the complex handed to _without_unit_pivots.  On seeded random complexes
over every kind of ring, homology_at(c, n) equals homology(c)[n] by repr
in every degree of c and one on each side, and a degree outside c has
the ring's trivial summary.
"""

import random

import pytest

from chainbench import chains
from chainbench.chains import HomologySummary, homology, homology_at
from chainbench.exact_linalg import QQ, ZZ, Zmod
from chainbench.fuzz import random_complex


def _complexes(ring, count=12):
    rng = random.Random(f"window {ring}")
    return [random_complex(rng, ring, max_atoms=6, degree_span=4).complex for _ in range(count)]


def _window(c):
    return range(c.min_degree - 1, c.max_degree + 2) if c.ranks else range(-1, 2)


def _counting(monkeypatch, name, calls):
    original = getattr(chains, name)

    def counted(*args):
        calls.append(name)
        return original(*args)

    monkeypatch.setattr(chains, name, counted)


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=str)
def test_homology_at_eliminates_only_the_stored_differentials_of_its_window(ring, monkeypatch):
    calls = []
    _counting(monkeypatch, "invariant_factors", calls)
    _counting(monkeypatch, "matrix_rank", calls)
    checked = 0
    for c in _complexes(ring):
        for n in _window(c):
            calls.clear()
            homology_at(c, n)
            stored = sum(k in c._diff_map for k in (n, n + 1))
            assert len(calls) == stored, (n, c)
            assert set(calls) <= {"invariant_factors" if ring == ZZ else "matrix_rank"}
            checked += stored
    assert checked


@pytest.mark.parametrize("m", [4, 6])
def test_homology_at_removes_unit_pivots_from_its_window_alone(m, monkeypatch):
    handed = []
    original = chains._without_unit_pivots

    def recording(c):
        handed.append(c)
        return original(c)

    monkeypatch.setattr(chains, "_without_unit_pivots", recording)
    smaller = 0
    for c in _complexes(Zmod(m)):
        for n in _window(c):
            handed.clear()
            homology_at(c, n)
            assert len(handed) == 1, (n, c)
            window = handed[0]
            assert set(window.degrees()) <= {n - 1, n, n + 1}, (n, c)
            assert window.diffs == tuple((k, c._diff_map[k]) for k in (n, n + 1) if k in c._diff_map)
            smaller += set(window.degrees()) != set(c.degrees())
    assert smaller


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(5), Zmod(4), Zmod(6)], ids=str)
def test_homology_at_matches_the_whole_table(ring):
    trivial = HomologySummary(0, (), ring.modulus)
    for c in _complexes(ring):
        table = homology(c)
        for n in _window(c):
            want = table[n] if n in table else trivial
            assert repr(homology_at(c, n)) == repr(want), (n, c)
        assert repr(homology_at(c, (c.max_degree or 0) + 5)) == repr(trivial)
