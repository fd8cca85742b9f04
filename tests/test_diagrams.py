"""Tests for bimodule-twisted diagrams, path composites, nilpotency."""

import random

import pytest

import construction_oracle as oracle
from chainbench.exact_linalg import Matrix, QQ, ShapeMismatch, ZZ, Zmod
from chainbench.chains import (
    ChainComplex,
    GradedMap,
    direct_sum,
    find_null_homotopy,
    same_homology,
)
from chainbench import diagrams, serialize
from chainbench.diagrams import (
    _MAX_COMPOSITES,
    Bimodule,
    DComplex,
    DiagramOfBimodules,
    Edge,
    _path_counts,
    collapse_d2_to_d1,
    composable_paths,
    dcomplex_direct_sum,
    identity_bimodule,
    loop_object,
    nilpotency_degree,
    path_composite,
    preset_diagram,
    tensor_bimodules,
    tensor_map_with_bimodule,
    tensor_with_bimodule,
)
from chainbench.fuzz import (
    random_chain_map,
    random_complex,
    random_graded_map,
    random_module_lowering,
    random_null_homotopic,
    random_single_degree_loop,
)


def two_term(ring, mult, top=1):
    return ChainComplex.build(
        ring, {top: 1, top - 1: 1}, {top: Matrix.from_rows(ring, [[mult]])}
    )


def local_power(ring, rows, k):
    """k-th power of a square matrix, computed with plain loops."""
    n = len(rows)
    acc = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
    for _ in range(k):
        nxt = [
            [
                ring.normalize(sum(acc[i][t] * rows[t][j] for t in range(n)))
                for j in range(n)
            ]
            for i in range(n)
        ]
        acc = nxt
    return acc


def nilpotency_index_oracle(ring, rows, cap):
    """Smallest k >= 1 with the k-th power zero, or None up to cap."""
    for k in range(1, cap + 1):
        power = local_power(ring, rows, k)
        if all(v == ring.zero for row in power for v in row):
            return k
    return None


def test_bimodule_validation():
    assert Bimodule(ZZ, 3).twist == (1, 1, 1)
    assert Bimodule(Zmod(5), 2, twist=(6, 1)).twist == (1, 1)
    with pytest.raises(ValueError):
        Bimodule(ZZ, 2, twist=(2, 1))
    with pytest.raises(ValueError):
        Bimodule(QQ, 1, twist=(0,))
    with pytest.raises(ValueError):
        Bimodule(ZZ, 2, twist=(1,))
    with pytest.raises(ValueError):
        Bimodule(ZZ, 0)
    with pytest.raises(ValueError):
        Bimodule(ZZ, -1)
    assert identity_bimodule(QQ).rank == 1
    assert tensor_bimodules(Bimodule(ZZ, 2), Bimodule(ZZ, 3)).rank == 6
    with pytest.raises(ShapeMismatch):
        tensor_bimodules(Bimodule(ZZ, 2), Bimodule(QQ, 2))


def test_tensor_with_bimodule_frozen():
    c = two_term(ZZ, 2)
    t = tensor_with_bimodule(c, Bimodule(ZZ, 3))
    assert t.rank(1) == 3 and t.rank(0) == 3
    assert t.diff(1) == Matrix.from_rows(ZZ, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])


def test_tensor_homology_matches_repeated_sum():
    rng = random.Random(411)
    for ring in (ZZ, QQ, Zmod(4), Zmod(5)):
        for _ in range(8):
            c = random_complex(rng, ring).complex
            t = tensor_with_bimodule(c, Bimodule(ring, 3))
            triple = direct_sum(c, c, c).complex
            assert same_homology(t, triple)


def test_tensor_map_preserves_chain_maps():
    rng = random.Random(412)
    for _ in range(6):
        a = random_complex(rng, ZZ).complex
        b = random_complex(rng, ZZ).complex
        f = random_chain_map(rng, a, b)
        g = tensor_map_with_bimodule(f, Bimodule(ZZ, 2))
        assert g.is_chain_map()
        assert g.source == tensor_with_bimodule(a, Bimodule(ZZ, 2))
        assert g.target == tensor_with_bimodule(b, Bimodule(ZZ, 2))


def test_tensor_with_a_rank_one_bimodule_is_the_identity():
    """C (x) R^1 = C: the library returns its argument, which must equal,
    entry types included, the kron(m, I_1) construction it skips."""
    rng = random.Random(413)
    for ring in (ZZ, QQ, Zmod(4)):
        for _ in range(8):
            a = random_complex(rng, ring).complex
            b = random_complex(rng, ring).complex
            f = random_graded_map(rng, a, b, rng.choice((-1, 0, 1)))
            for rank in (1, 2):
                s = Bimodule(ring, rank)
                got, want = tensor_with_bimodule(a, s), oracle.tensor_with_bimodule(a, s)
                assert got == want and repr(got.diffs) == repr(want.diffs)
                got, want = tensor_map_with_bimodule(f, s), oracle.tensor_map_with_bimodule(f, s)
                assert got == want and repr(got.blocks) == repr(want.blocks)
            one = Bimodule(ring, 1)
            assert tensor_with_bimodule(a, one) is a
            assert tensor_map_with_bimodule(f, one) is f
            for other in (ZZ, QQ, Zmod(4)):
                if other == ring:
                    continue
                for rank in (1, 2):
                    with pytest.raises(ShapeMismatch):
                        tensor_with_bimodule(a, Bimodule(other, rank))
                    with pytest.raises(ShapeMismatch):
                        tensor_map_with_bimodule(f, Bimodule(other, rank))


def test_preset_diagrams():
    d1 = preset_diagram("D1", ZZ, s_rank=2)
    assert [e.name for e in d1.edges] == ["x"]
    assert d1.edge("x").bimodule.rank == 2
    d2 = preset_diagram("D2", QQ, s_rank=1, t_rank=3)
    table = {e.name: (e.source, e.target, e.bimodule.rank) for e in d2.edges}
    assert table == {"alpha": ("a", "b", 1), "beta": ("b", "a", 3)}
    d3 = preset_diagram("D3", ZZ)
    assert [e.name for e in d3.edges] == ["alpha", "beta", "gamma"]
    assert d3.edge("gamma").target == "a"
    d0 = preset_diagram("D0_truncated", ZZ, s_rank=2, levels=3)
    assert [v for v, _ in d0.vertices] == ["0", "1", "2", "3"]
    names = {e.name: (e.source, e.target, e.bimodule.rank) for e in d0.edges}
    assert names["up0"] == ("0", "1", 1)
    assert names["up2"] == ("2", "3", 1)
    assert names["down1"] == ("1", "0", 2)
    assert names["down3"] == ("3", "2", 2)
    assert d0.relations == (
        (("up1", "down2"), ("down1", "up0")),
        (("up2", "down3"), ("down2", "up1")),
    )
    with pytest.raises(ValueError):
        preset_diagram("pentagon", ZZ)
    with pytest.raises(ValueError):
        preset_diagram("D0_truncated", ZZ, levels=0)


def test_diagram_validation_rejects_bad_relations():
    ring = ZZ
    s = Bimodule(ring, 2)
    with pytest.raises(ValueError):
        DiagramOfBimodules(
            (("a", ring), ("b", ring)),
            (Edge("alpha", "a", "b", s), Edge("beta", "b", "a", s)),
            relations=((("alpha",), ("beta",)),),
        )
    with pytest.raises(ValueError):
        DiagramOfBimodules(
            (("v", ring),),
            (Edge("x", "v", "v", s),),
            relations=((("x",), ("x", "x")),),
        )
    with pytest.raises(ValueError):
        DiagramOfBimodules(
            (("v", ring),),
            (Edge("x", "v", "w", s),),
        )
    with pytest.raises(ValueError):
        DiagramOfBimodules(
            (("v", ring), ("w", QQ)),
            (Edge("x", "v", "w", s),),
        )


def test_dcomplex_validation_rejects_non_chain_map():
    ring = ZZ
    c = two_term(ring, 2)
    s = Bimodule(ring, 1)
    diagram = preset_diagram("D1", ring)
    bad = GradedMap.build(
        c,
        tensor_with_bimodule(c, s),
        0,
        {1: Matrix.from_rows(ring, [[1]]), 0: Matrix.from_rows(ring, [[0]])},
    )
    assert not bad.is_chain_map()
    with pytest.raises(ValueError):
        DComplex.build(diagram, {"v": c}, {"x": bad})


def unit_level(ring):
    return ChainComplex.build(ring, {0: 1}, {})


def d0_ladder_realization(ring, down_entries, s_rank=1):
    """D0_truncated realization with rank-1 levels and identity ascents."""
    levels = len(down_entries)
    diagram = preset_diagram("D0_truncated", ring, s_rank=s_rank, levels=levels)
    c = unit_level(ring)
    cs = {str(i): c for i in range(levels + 1)}
    maps = {}
    up_block = Matrix.identity(ring, 1)
    for i in range(levels):
        maps[f"up{i}"] = GradedMap.build(c, c, 0, {0: up_block})
    tensored = tensor_with_bimodule(c, Bimodule(ring, s_rank))
    for i, entry in enumerate(down_entries, start=1):
        block = Matrix.from_rows(ring, [[entry]] * s_rank)
        maps[f"down{i}"] = GradedMap.build(c, tensored, 0, {0: block})
    return DComplex.build(diagram, cs, maps)


def test_dcomplex_relations_checked_on_the_nose():
    obj = d0_ladder_realization(ZZ, [3, 3, 3])
    assert obj.complex_at("2").rank(0) == 1
    with pytest.raises(ValueError):
        d0_ladder_realization(ZZ, [2, 5, 2])


def test_composable_paths_enumeration():
    loop = preset_diagram("D1", ZZ)
    assert composable_paths(loop, 3) == [("x", "x", "x")]
    two = preset_diagram("D2", ZZ)
    assert composable_paths(two, 2) == [("alpha", "beta"), ("beta", "alpha")]
    assert composable_paths(two, 2, start="a") == [("alpha", "beta")]
    three = preset_diagram("D3", ZZ)
    assert len(composable_paths(three, 3)) == 3
    assert composable_paths(two, 0) == [()]


def test_empty_path_is_identity():
    rng = random.Random(421)
    obj = random_single_degree_loop(rng, ZZ)
    unit = path_composite(obj, ())
    assert unit.map == GradedMap.identity(obj.complex_at("v"))
    assert unit.bimodule.rank == 1
    d2 = preset_diagram("D2", ZZ)
    c = unit_level(ZZ)
    f = GradedMap.build(c, c, 0, {0: Matrix.from_rows(ZZ, [[1]])})
    dcx = DComplex.build(d2, {"a": c, "b": c}, {"alpha": f, "beta": f})
    with pytest.raises(ValueError):
        path_composite(dcx, ())
    at_b = path_composite(dcx, (), start="b")
    assert at_b.map == GradedMap.identity(c)


def test_path_composite_matches_matrix_powers():
    rng = random.Random(413)
    for ring in (ZZ, QQ, Zmod(4), Zmod(7)):
        for _ in range(8):
            obj = random_single_degree_loop(rng, ring, s_rank=1, lowering=False)
            f = obj.map_for("x")
            degree = f.source.degrees()[0]
            rows = [list(r) for r in f.block(degree).entries]
            for k in (1, 2, 3):
                comp = path_composite(obj, ["x"] * k)
                expected = local_power(ring, rows, k)
                assert comp.map.block(degree) == Matrix.from_rows(ring, expected)
                assert comp.bimodule.rank == 1


def test_path_composite_rejects_broken_path():
    diagram = preset_diagram("D2", ZZ)
    c = unit_level(ZZ)
    f = GradedMap.build(c, c, 0, {0: Matrix.from_rows(ZZ, [[1]])})
    dcx = DComplex.build(diagram, {"a": c, "b": c}, {"alpha": f, "beta": f})
    with pytest.raises(ValueError):
        path_composite(dcx, ["alpha", "alpha"])


def test_path_composite_caps_the_total_rank(monkeypatch):
    """A loop over a rank-4 bimodule on a rank-1 complex, under a cap
    lowered to 64 so that a missing check stays cheap: the length-3
    composite reaches the cap exactly, the length-4 one would exceed it."""
    assert serialize.MAX_TOTAL_RANK is diagrams.MAX_TOTAL_RANK == 4096
    monkeypatch.setattr(diagrams, "MAX_TOTAL_RANK", 64)
    c = ChainComplex.build(ZZ, {0: 1}, {})
    s = Bimodule(ZZ, 4)
    f = GradedMap.build(c, tensor_with_bimodule(c, s), 0, {0: Matrix.from_rows(ZZ, [[1]] * 4)})
    obj = loop_object(f, s)
    assert path_composite(obj, ["x"] * 3).map.target.total_rank == 64
    with pytest.raises(ValueError, match=r"\['x', 'x', 'x', 'x'\].*256.*64"):
        path_composite(obj, ["x"] * 4)
    with pytest.raises(ValueError, match="path"):
        nilpotency_degree(obj, 5)


def test_path_composite_is_chain_map_and_accumulates_twists():
    rng = random.Random(415)
    for _ in range(5):
        c = random_complex(rng, ZZ).complex
        s = Bimodule(ZZ, 2)
        f = random_chain_map(rng, c, tensor_with_bimodule(c, s))
        obj = loop_object(f, s)
        comp = path_composite(obj, ["x", "x"])
        assert comp.bimodule.rank == 4
        assert comp.map.is_chain_map()
        assert comp.map.target == tensor_with_bimodule(c, comp.bimodule)


def test_nilpotency_frozen_examples():
    plane = ChainComplex.build(ZZ, {0: 2}, {})
    jordan = GradedMap.build(
        plane, plane, 0, {0: Matrix.from_rows(ZZ, [[0, 1], [0, 0]])}
    )
    assert nilpotency_degree(loop_object(jordan, Bimodule(ZZ, 1)), 4) == 1
    zero = GradedMap.zero(plane, plane, 0)
    assert nilpotency_degree(loop_object(zero, Bimodule(ZZ, 1)), 4) == 0
    ident = GradedMap.identity(plane)
    assert nilpotency_degree(loop_object(ident, Bimodule(ZZ, 1)), 4) is None


def two_loop_dcomplex() -> DComplex:
    """One vertex holding Z in degree 0 with two rank-1 identity loops,
    so 2^k paths of length k, none of them null-homotopic."""
    s = Bimodule(ZZ, 1)
    diagram = DiagramOfBimodules((("v", ZZ),), (Edge("x", "v", "v", s), Edge("y", "v", "v", s)))
    c = ChainComplex.build(ZZ, {0: 1}, {})
    return DComplex.build(diagram, {"v": c}, {"x": GradedMap.identity(c), "y": GradedMap.identity(c)})


def test_path_counts_match_the_listed_paths():
    cases = [two_loop_dcomplex().diagram, preset_diagram("D0_truncated", ZZ, s_rank=2, levels=3)]
    cases += [preset_diagram(name, ZZ) for name in ("D1", "D2", "D3")]
    for diagram in cases:
        counts = _path_counts(diagram)
        assert [next(counts) for _ in range(11)] == [len(composable_paths(diagram, k)) for k in range(11)]


def test_nilpotency_search_stops_at_the_composite_cap():
    """The two loops have 2 + 4 + ... + 2^11 = 4094 composites up to
    length 11, so a search to length 11 answers as before and the next
    length is refused before any of its paths is listed."""
    assert _MAX_COMPOSITES == 4096
    x = two_loop_dcomplex()
    assert nilpotency_degree(x, 10) is None
    with pytest.raises(ValueError, match="^8190 composites up to length 12, 4096 of that length, are over the limit of 4096$"):
        nilpotency_degree(x, 11)
    with pytest.raises(ValueError, match="length 12"):
        nilpotency_degree(x, 100)


def test_single_degree_nilpotency_matches_matrix_oracle():
    rng = random.Random(416)
    seen = []
    for ring in (ZZ, QQ, Zmod(4), Zmod(5), Zmod(6)):
        for _ in range(10):
            obj = random_single_degree_loop(rng, ring, s_rank=1, lowering=True)
            f = obj.map_for("x")
            degree = f.source.degrees()[0]
            rank = f.source.rank(degree)
            rows = [list(r) for r in f.block(degree).entries]
            index = nilpotency_index_oracle(ring, rows, rank + 1)
            assert index is not None
            assert nilpotency_degree(obj, rank + 1) == index - 1
            seen.append(index - 1)
    assert max(seen) >= 2 and min(seen) == 0


def test_longer_composites_inherit_witnesses():
    rng = random.Random(417)
    hits = 0
    for _ in range(10):
        s = Bimodule(ZZ, 1)
        c = random_complex(rng, ZZ).complex
        f, _ = random_null_homotopic(rng, c, tensor_with_bimodule(c, s))
        soft = loop_object(f, s)
        spiky = random_single_degree_loop(rng, ZZ, s_rank=1, max_rank=4)
        obj = dcomplex_direct_sum(soft, spiky)
        n = nilpotency_degree(obj, 5)
        if n is None or n == 0:
            continue
        hits += 1
        comp = path_composite(obj, ["x"] * (n + 1))
        witness = find_null_homotopy(comp.map)
        step = tensor_map_with_bimodule(obj.map_for("x"), comp.bimodule)
        longer = path_composite(obj, ["x"] * (n + 2))
        lifted = step @ witness
        assert lifted.leibniz() == longer.map
    assert hits >= 5


def test_direct_sum_nilpotency_is_max():
    rng = random.Random(418)
    for _ in range(12):
        ring = rng.choice([ZZ, QQ, Zmod(5)])
        x = random_single_degree_loop(rng, ring, s_rank=1)
        y = random_single_degree_loop(rng, ring, s_rank=1)
        both = dcomplex_direct_sum(x, y)
        cap = x.complex_at("v").total_rank + y.complex_at("v").total_rank + 1
        dx = nilpotency_degree(x, cap)
        dy = nilpotency_degree(y, cap)
        assert nilpotency_degree(both, cap) == max(dx, dy)


def test_direct_sum_structure():
    rng = random.Random(419)
    x = random_single_degree_loop(rng, ZZ, s_rank=2)
    y = random_single_degree_loop(rng, ZZ, s_rank=2)
    both = dcomplex_direct_sum(x, y)
    v = both.complex_at("v")
    assert v.total_rank == x.complex_at("v").total_rank + y.complex_at("v").total_rank
    with pytest.raises(ShapeMismatch):
        dcomplex_direct_sum(x, random_single_degree_loop(rng, ZZ, s_rank=3))


def make_d2(ring, rank, alpha_block, beta_block, s_rank=1, t_rank=1):
    diagram = preset_diagram("D2", ring, s_rank=s_rank, t_rank=t_rank)
    s, t = diagram.edge("alpha").bimodule, diagram.edge("beta").bimodule
    ca = ChainComplex.build(ring, {0: rank}, {})
    cb = ChainComplex.build(ring, {0: rank}, {})
    alpha = GradedMap.build(ca, tensor_with_bimodule(cb, s), 0, {0: alpha_block})
    beta = GradedMap.build(cb, tensor_with_bimodule(ca, t), 0, {0: beta_block})
    return DComplex.build(diagram, {"a": ca, "b": cb}, {"alpha": alpha, "beta": beta})


def test_collapse_frozen_jordan():
    block = Matrix.from_rows(ZZ, [[0, 1], [0, 0]])
    dcx = make_d2(ZZ, 2, block, block)
    assert nilpotency_degree(dcx, 6) == 1
    collapsed = collapse_d2_to_d1(dcx)
    assert collapsed.map_for("x").block(0).is_zero()
    assert nilpotency_degree(collapsed, 4) == 0
    assert collapsed.diagram.edge("x").bimodule.rank == 1
    round_trip = path_composite(dcx, ("beta", "alpha"))
    assert collapsed.map_for("x") == round_trip.map


def test_collapse_frozen_multiplication():
    alpha = Matrix.from_rows(ZZ, [[2]])
    beta = Matrix.from_rows(ZZ, [[3]])
    dcx = make_d2(ZZ, 1, alpha, beta)
    collapsed = collapse_d2_to_d1(dcx)
    assert collapsed.map_for("x").block(0) == Matrix.from_rows(ZZ, [[6]])
    assert nilpotency_degree(collapsed, 5) is None
    at_a = collapse_d2_to_d1(dcx, base="a")
    assert at_a.map_for("x").block(0) == Matrix.from_rows(ZZ, [[6]])


def test_collapse_degree_bounds():
    rng = random.Random(420)
    for _ in range(10):
        ring = rng.choice([ZZ, QQ, Zmod(5)])
        rank = rng.randrange(2, 5)
        s_rank = rng.choice([1, 2])
        alpha = random_module_lowering(rng, ring, rank, s_rank)
        beta = random_module_lowering(rng, ring, rank, 1)
        dcx = make_d2(ring, rank, alpha, beta, s_rank=s_rank, t_rank=1)
        n2 = nilpotency_degree(dcx, 2 * rank + 2)
        assert n2 is not None
        collapsed = collapse_d2_to_d1(dcx)
        assert collapsed.diagram.edge("x").bimodule.rank == s_rank
        n1 = nilpotency_degree(collapsed, rank + 1)
        assert n1 is not None
        assert n1 <= n2
        assert n1 + 1 <= (n2 + 2) // 2
        assert n2 <= 2 * n1 + 2


LONG = "n" * 10**6
QUOTED = "'" + "n" * 40 + "'"


def _loop_on_long_edge(f):
    """Realize a one-vertex diagram whose loop is named LONG by f."""
    diagram = DiagramOfBimodules((("v", ZZ),), (Edge(LONG, "v", "v", Bimodule(ZZ, 1)),))
    return DComplex.build(diagram, {"v": f.source}, {LONG: f})


def _not_a_chain_map():
    c = two_term(ZZ, 2)
    return GradedMap.build(c, c, 0, {1: Matrix.from_rows(ZZ, [[1]]), 0: Matrix.from_rows(ZZ, [[0]])})


LONG_NAME_SITES = {
    "unknown preset diagram": lambda: preset_diagram(LONG, ZZ),
    "touches unknown vertex": lambda: DiagramOfBimodules(
        (("v", ZZ),), (Edge("x", LONG, "v", Bimodule(ZZ, 1)),)
    ),
    "mixes rings": lambda: DiagramOfBimodules(
        (("v", ZZ), ("w", QQ)), (Edge(LONG, "v", "w", Bimodule(ZZ, 1)),)
    ),
    "path breaks at edge": lambda: DiagramOfBimodules(
        (("a", ZZ), ("b", ZZ)),
        (Edge("x", "a", "b", Bimodule(ZZ, 1)), Edge(LONG, "a", "b", Bimodule(ZZ, 1))),
        relations=((("x", LONG), ("x",)),),
    ),
    "relation path names unknown edge": lambda: DiagramOfBimodules(
        (("v", ZZ),), (Edge("x", "v", "v", Bimodule(ZZ, 1)),), relations=(((LONG,), ("x",)),)
    ),
    "is not a chain map": lambda: _loop_on_long_edge(_not_a_chain_map()),
    "has the wrong source or target": lambda: _loop_on_long_edge(
        GradedMap.zero(two_term(ZZ, 2), unit_level(ZZ))
    ),
}


@pytest.mark.parametrize("site", sorted(LONG_NAME_SITES))
def test_diagram_messages_quote_at_most_40_characters_of_a_name(site):
    with pytest.raises(ValueError) as err:
        LONG_NAME_SITES[site]()
    message = str(err.value)
    assert site in message and QUOTED in message, message[:200]
    assert len(message) < 200, message[:200]
