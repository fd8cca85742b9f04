"""Round trips and failure diagnostics for the JSON formats."""

import json
import random
from fractions import Fraction

import pytest

from chainbench.chains import ChainComplex, GradedMap
from chainbench.diagrams import Bimodule, DComplex, preset_diagram
from chainbench.exact_linalg import QQ, ZZ, Matrix, Zmod
from chainbench.fuzz import random_complex, random_kernel_tower, random_reduced_ladder
from chainbench.ladder import D0Morphism, constant_tower
from chainbench.ladder import test_object as probe
from chainbench.serialize import (
    MAX_ENTRY_DIGITS,
    MAX_TOTAL_RANK,
    FormatError,
    InvalidObject,
    detect_kind,
    dump_complex,
    dump_d0complex,
    dump_d0morphism,
    dump_dcomplex,
    dump_diagram,
    dump_graded_map,
    dump_scenario,
    dumps,
    load_any,
    load_bimodule,
    load_complex,
    load_d0complex,
    load_d0morphism,
    load_dcomplex,
    load_diagram,
    load_graded_map,
    load_int,
    load_ring,
    load_scenario,
    loads,
)

RINGS = [ZZ, QQ, Zmod(6)]


def moore(k: int) -> ChainComplex:
    return ChainComplex.build(ZZ, {0: 1, 1: 1}, {1: Matrix.from_rows(ZZ, [[k]])})


def test_complex_round_trip_over_every_ring():
    for ring in RINGS:
        for seed in range(6):
            rng = random.Random(100 + seed)
            c = random_complex(rng, ring).complex
            again = load_complex(loads(dumps(dump_complex(c))))
            assert again == c


def test_integers_and_fractions_survive_as_strings():
    big = 10**30 + 7
    c = ChainComplex.build(
        ZZ, {0: 1, 1: 1}, {1: Matrix.from_rows(ZZ, [[big]])}
    )
    text = dumps(dump_complex(c))
    assert str(big) in text
    assert load_complex(loads(text)) == c

    q = ChainComplex.build(
        QQ, {0: 1, 1: 1}, {1: Matrix.from_rows(QQ, [[Fraction(-3, 7)]])}
    )
    payload = dump_complex(q)
    assert payload["differentials"]["1"][0][0] == "-3/7"
    assert load_complex(payload) == q


def test_complex_loader_diagnostics():
    with pytest.raises(FormatError, match="missing field 'ranks'"):
        load_complex({"ring": "Z", "differentials": {}})
    with pytest.raises(FormatError, match="ring"):
        load_complex({"ring": "Z/1", "ranks": {}, "differentials": {}})
    with pytest.raises(FormatError, match="expected 2 rows"):
        load_complex(
            {"ring": "Z", "ranks": {"0": "2", "1": "1"}, "differentials": {"1": [["1"]]}}
        )
    with pytest.raises(FormatError, match="row 1: expected 1 entries"):
        load_complex(
            {
                "ring": "Z",
                "ranks": {"0": "2", "1": "1"},
                "differentials": {"1": [["1"], ["1", "2"]]},
            }
        )
    with pytest.raises(FormatError, match="column 0"):
        load_complex(
            {"ring": "Z", "ranks": {"0": "1", "1": "1"}, "differentials": {"1": [["x"]]}}
        )
    bad = {
        "ring": "Z",
        "ranks": {"0": "1", "1": "1", "2": "1"},
        "differentials": {"1": [["1"]], "2": [["1"]]},
    }
    with pytest.raises(InvalidObject, match="boundary twice"):
        load_complex(bad)


def test_oversized_declarations_are_format_errors():
    over = str(MAX_TOTAL_RANK + 1)
    with pytest.raises(FormatError, match="total rank .* exceeds the limit"):
        load_complex({"ring": "Z", "ranks": {"0": "100000000000"}, "differentials": {}})
    half = str(MAX_TOTAL_RANK // 2 + 1)
    with pytest.raises(FormatError, match="ranks: total rank"):
        load_complex({"ring": "Q", "ranks": {"0": half, "1": half}, "differentials": {}})
    at_cap = load_complex({"ring": "Z", "ranks": {"0": str(MAX_TOTAL_RANK)}, "differentials": {}})
    assert at_cap.total_rank == MAX_TOTAL_RANK
    with pytest.raises(FormatError, match="bimodule rank"):
        load_bimodule({"ring": "Z", "rank": over})
    with pytest.raises(FormatError, match=r"edges\[0\]\.rank"):
        load_diagram(
            {"vertices": [["v", "Z"]], "edges": [{"name": "x", "source": "v", "target": "v", "rank": over}]}
        )
    with pytest.raises(FormatError, match="s_rank"):
        load_diagram({"name": "D1", "s_rank": over})
    tower = dump_d0complex(probe("g_m", 1, 2, Bimodule(ZZ, 1)))
    tower["level_count"] = over
    with pytest.raises(FormatError, match="level count"):
        load_d0complex(tower)
    wide = dump_d0complex(constant_tower(moore(1), 2, Bimodule(ZZ, 1)))
    wide["bimodule"]["rank"] = str(MAX_TOTAL_RANK // 2 + 1)
    with pytest.raises(FormatError, match="tensored total rank"):
        load_d0complex(wide)


def test_graded_map_round_trip_and_chain_flag():
    f = GradedMap.identity(moore(2)).scale(2)
    again = load_graded_map(loads(dumps(dump_graded_map(f))))
    assert again == f
    assert again.leibniz().is_zero()
    skew = GradedMap.build(
        moore(2), moore(2), 0, {0: Matrix.from_rows(ZZ, [[1]])}
    )
    assert load_graded_map(dump_graded_map(skew)) == skew


def test_diagram_presets_and_explicit_form():
    named = load_diagram({"name": "D2", "ring": "Z", "s_rank": "2"})
    assert named == preset_diagram("D2", ZZ, s_rank=2)
    truncated = preset_diagram("D0_truncated", ZZ, s_rank=2, levels=3)
    assert load_diagram(loads(dumps(dump_diagram(truncated)))) == truncated
    with pytest.raises(FormatError, match="unknown preset"):
        load_diagram({"name": "D9", "ring": "Z"})
    with pytest.raises(FormatError, match="rank"):
        load_diagram(
            {
                "vertices": [["v", "Z"]],
                "edges": [{"name": "x", "source": "v", "target": "v", "rank": "0"}],
            }
        )


def jordan_dcomplex() -> DComplex:
    diagram = preset_diagram("D1", ZZ)
    c = ChainComplex.build(ZZ, {0: 2}, {})
    edge = GradedMap.build(c, c, 0, {0: Matrix.from_rows(ZZ, [[0, 1], [0, 0]])})
    return DComplex.build(diagram, {"v": c}, {"x": edge})


def test_dcomplex_round_trip_and_validation():
    x = jordan_dcomplex()
    assert load_dcomplex(loads(dumps(dump_dcomplex(x)))) == x
    payload = dump_dcomplex(x)
    del payload["complexes"]["v"]
    with pytest.raises(FormatError, match="missing vertex"):
        load_dcomplex(payload)


def test_d0complex_round_trip_and_level_count_check():
    rng = random.Random(7)
    for tower in (
        probe("g_m", 2, 3, Bimodule(ZZ, 1)),
        probe("g_m_cone", 1, 3, Bimodule(ZZ, 2)),
        random_reduced_ladder(rng, ZZ, n_levels=3).complex,
        random_kernel_tower(rng, ZZ, n_levels=3).complex,
    ):
        again = load_d0complex(loads(dumps(dump_d0complex(tower))))
        assert again == tower
    payload = dump_d0complex(probe("g_m", 1, 2, Bimodule(ZZ, 1)))
    payload["level_count"] = "7"
    with pytest.raises(FormatError, match="level_count"):
        load_d0complex(payload)


def test_d0complex_axiom_breakage_is_invalid_not_malformed():
    tower = constant_tower(moore(1), 2, Bimodule(ZZ, 1))
    payload = dump_d0complex(tower)
    payload["ascents"][1] = {"0": [["1"]], "1": [["0"]]}
    with pytest.raises(InvalidObject, match="chain map"):
        load_d0complex(payload)


def test_morphism_and_scenario_round_trips():
    bim = Bimodule(ZZ, 1)
    tower = constant_tower(moore(1), 2, bim)
    ident = D0Morphism.build(
        tower, tower, [GradedMap.identity(tower.level(i)) for i in range(3)]
    )
    assert load_d0morphism(loads(dumps(dump_d0morphism(ident)))) == ident

    rng = random.Random(3)
    a = random_reduced_ladder(rng, ZZ, n_levels=3, acyclic_levels=(1, 2, 3)).complex
    b = random_kernel_tower(rng, ZZ, n_levels=3).complex
    probe_back, target_back = load_scenario(loads(dumps(dump_scenario(a, b))))
    assert probe_back == a and target_back == b


def test_detect_kind_and_load_any():
    bim = Bimodule(ZZ, 1)
    samples = {
        "complex": dump_complex(moore(2)),
        "map": dump_graded_map(GradedMap.identity(moore(2))),
        "dcomplex": dump_dcomplex(jordan_dcomplex()),
        "d0complex": dump_d0complex(probe("g_m", 1, 2, bim)),
        "morphism": dump_d0morphism(
            D0Morphism.build(
                constant_tower(moore(1), 1, bim),
                constant_tower(moore(1), 1, bim),
                [GradedMap.identity(constant_tower(moore(1), 1, bim).level(i)) for i in range(2)],
            )
        ),
        "scenario": dump_scenario(probe("g_m", 1, 2, bim), probe("g_m", 1, 2, bim)),
    }
    for kind, payload in samples.items():
        assert detect_kind(payload) == kind
        got_kind, _ = load_any(loads(dumps(payload)))
        assert got_kind == kind
    with pytest.raises(FormatError, match="marker"):
        detect_kind({"nonsense": "1"})


def test_text_layer_diagnostics_and_determinism():
    with pytest.raises(FormatError, match="line 1"):
        loads("{broken")
    with pytest.raises(FormatError, match="top level"):
        loads("[1, 2]")
    payload = dump_complex(moore(2))
    assert dumps(payload) == dumps(json.loads(dumps(payload)))


def test_integers_are_spelled_in_ascii_digits_only():
    """str.isdigit and the regex class \\d accept every Unicode decimal
    digit, and int() reads most of them; the format allows 0-9 only."""
    for digit in ("\u00b2", "\u0663", "\uff13"):
        with pytest.raises(FormatError, match=r"complex.ranks\[0\]: expected an integer"):
            load_complex({"ring": "Z", "ranks": {"0": digit}, "differentials": {}})
        with pytest.raises(FormatError, match=r"complex.ranks key"):
            load_complex({"ring": "Z", "ranks": {digit: "1"}, "differentials": {}})
        for entry in (digit, f"1/{digit}", f"{digit}/2"):
            payload = {"ring": "Q", "ranks": {"0": "1", "1": "1"}, "differentials": {"1": [[entry]]}}
            with pytest.raises(FormatError, match=r"complex.differentials\[1\] row 0 column 0"):
                load_complex(payload)


def test_rational_entries_are_integers_or_p_over_q():
    """The documented grammar only: no decimals or exponents, whose value
    ("1e999999999") can be far larger than the text that spells it."""
    def entry(text):
        payload = {"ring": "Q", "ranks": {"0": "1", "1": "1"}, "differentials": {"1": [[text]]}}
        return load_complex(payload).diff(1).entries[0][0]

    assert entry(" -6/4 ") == Fraction(-3, 2) and type(entry("5")) is Fraction
    assert entry("+0/7") == 0
    for bad in ("1.5", "1e999999999", "1/-2", "1/0", "1/00", "", "/2", "1/2/3"):
        with pytest.raises(FormatError, match=r"complex.differentials\[1\] row 0 column 0"):
            entry(bad)
    with pytest.raises(FormatError, match=f"exceed the limit of {MAX_ENTRY_DIGITS}"):
        entry("1/" + "9" * (MAX_ENTRY_DIGITS + 1))
    assert entry("1/" + "9" * MAX_ENTRY_DIGITS).denominator == 10**MAX_ENTRY_DIGITS - 1


def test_numbers_are_padded_with_ascii_whitespace_only():
    """str.strip() and the regex class \\s strip Unicode whitespace too;
    the format allows ASCII spaces, tabs and line breaks only."""
    def entry(text):
        payload = {"ring": "Q", "ranks": {"0": "1", "1": "1"}, "differentials": {"1": [[text]]}}
        return load_complex(payload).diff(1).entries[0][0]

    padded = load_complex({"ring": "Z", "ranks": {"0": " \t2\n"}, "differentials": {}})
    assert padded.rank(0) == 2
    assert entry(" 3/4\t") == Fraction(3, 4)
    for space in ("　", " ", " ", "\u0085"):
        with pytest.raises(FormatError, match=r"complex.ranks\[0\]: expected an integer"):
            load_complex({"ring": "Z", "ranks": {"0": f"{space}1{space}"}, "differentials": {}})
        with pytest.raises(FormatError, match=r"complex.differentials\[1\] row 0 column 0"):
            entry(f" 3/4{space}")


# A value this long must never come back whole in a message.
HUGE = 10**6


def _message(call, *args) -> str:
    with pytest.raises(FormatError) as err:
        call(*args)
    return str(err.value)


def test_load_int_quotes_at_most_40_characters_of_a_bad_value():
    assert _message(load_int, "abc", "here") == "here: expected an integer in decimal notation, got 'abc'"
    got = _message(load_int, "x" * HUGE, "here")
    assert got == "here: expected an integer in decimal notation, got '" + "x" * 39
    got = _message(load_int, list(range(200000)), "here")
    assert got == "here: expected an integer in decimal notation, got " + repr(list(range(15)))[:40]


def test_entries_quote_at_most_40_characters_of_a_bad_value():
    for ring, value in (("Z", "x" * HUGE), ("Q", "x" * HUGE), ("Q", [["1"]] * HUGE), ("Z/4", {"k": "v" * HUGE})):
        got = _message(
            load_complex, {"ring": ring, "ranks": {"0": "1", "1": "1"}, "differentials": {"1": [[value]]}}
        )
        assert got.startswith("complex.differentials[1] row 0 column 0: expected an integer")
        assert len(got) < 200, got[:200]
    assert _message(load_complex, {"ring": "Q", "ranks": {"0": "1", "1": "1"}, "differentials": {"1": [["1/x"]]}}) == (
        "complex.differentials[1] row 0 column 0: expected an integer or 'p/q' string, got '1/x'"
    )


def test_unknown_ring_quotes_at_most_40_characters():
    assert _message(load_ring, "R", "ring") == "ring: unknown ring 'R', expected Z, Q, or Z/<m>"
    got = _message(load_ring, "R" * HUGE, "ring")
    assert got == "ring: unknown ring '" + "R" * 40 + "', expected Z, Q, or Z/<m>"


def test_object_keys_are_quoted_at_most_40_characters():
    long_key = "k" * HUGE
    for field in ("ranks", "differentials"):
        payload = {"ring": "Z", "ranks": {}, "differentials": {}}
        payload[field] = {long_key: "1"}
        got = _message(load_complex, payload)
        assert got.startswith(f"complex.{field} key '" + "k" * 40 + "': expected an integer")
        assert len(got) < 200, got[:200]
    c = ChainComplex.build(ZZ, {0: 1}, {})
    got = _message(load_graded_map, {"source": dump_complex(c), "target": dump_complex(c), "degree": "0", "blocks": {long_key: []}})
    assert got.startswith("map.blocks key '" + "k" * 40 + "': expected an integer")
    assert len(got) < 200, got[:200]
    # A key that reads as a number after its ASCII padding is named by its first 40 characters.
    padded = " " * HUGE + "1"
    got = _message(load_complex, {"ring": "Z", "ranks": {"0": "1", padded: "-1"}, "differentials": {}})
    assert got == "complex.ranks[" + " " * 40 + "]: rank must be nonnegative"
    got = _message(load_complex, {"ring": "Z", "ranks": {"0": "1", "1": "1"}, "differentials": {padded: [["x"]]}})
    assert got.startswith("complex.differentials[" + " " * 40 + "] row 0 column 0")
    assert len(got) < 200, got[:200]


def test_a_key_named_twice_is_a_format_error_quoting_at_most_40_characters():
    got = _message(loads, '{"ring": "Z", "ranks": {"0": "1", "0": "2"}, "differentials": {}}')
    assert got == "payload: duplicate key '0'"
    # Equal values do not make a repeated key unambiguous, at any depth.
    long_key = "k" * HUGE
    got = _message(loads, '{"ring": "Z", "%s": 1, "%s": 1}' % (long_key, long_key))
    assert got == "payload: duplicate key '" + "k" * 40 + "'"
    got = _message(loads, '{"a": [{"b": {"c": 1, "c": 1}}]}')
    assert got == "payload: duplicate key 'c'"
    assert loads('{"ring": "Z", "ranks": {"0": "1", "1": "2"}, "differentials": {}}')["ranks"] == {"0": "1", "1": "2"}


def test_vertex_and_edge_names_are_quoted_at_most_40_characters():
    name = "n" * HUGE
    got = _message(
        load_diagram,
        {"vertices": [["v", "Z"]], "edges": [{"name": "e", "source": "v", "target": name, "rank": "1"}]},
    )
    assert got == "diagram.edges[0]: unknown target vertex '" + "n" * 40 + "'"
    unit = {"ring": "Z", "ranks": {"0": "1"}, "differentials": {}}
    diagram = {"vertices": [[name, "Z"]], "edges": []}
    got = _message(load_dcomplex, {"diagram": diagram, "complexes": {}, "edge_maps": {}})
    assert got == "dcomplex.complexes: missing vertex '" + "n" * 40 + "'"
    got = _message(load_dcomplex, {"diagram": diagram, "complexes": {name: {"ring": "Z"}}, "edge_maps": {}})
    assert got == "dcomplex.complexes[" + "n" * 40 + "]: missing field 'ranks'"
    diagram = {"vertices": [["v", "Z"]], "edges": [{"name": name, "source": "v", "target": "v", "rank": "1"}]}
    got = _message(load_dcomplex, {"diagram": diagram, "complexes": {"v": unit}, "edge_maps": {}})
    assert got == "dcomplex.edge_maps: missing edge '" + "n" * 40 + "'"
    got = _message(load_dcomplex, {"diagram": diagram, "complexes": {"v": unit}, "edge_maps": {name: []}})
    assert got == "dcomplex.edge_maps[" + "n" * 40 + "]: expected an object of degree-indexed blocks"


def test_diagram_relations_that_are_not_a_list_are_format_errors():
    explicit = dump_diagram(preset_diagram("D1", ZZ))
    for bad in (5, {"a": 1}, "x"):
        explicit["relations"] = bad
        with pytest.raises(FormatError, match=r"^diagram\.relations: expected a list$"):
            load_diagram(explicit)
