"""JSON formats for complexes, maps, diagram realizations, and towers.

Every integer is written as a decimal string so large entries survive
readers that parse numbers into floats; rationals are written "p/q".
Loading distinguishes two failure modes: FormatError means the file
cannot be read as the declared shape and carries the JSON path of the
first offending field, while InvalidObject means the shapes were fine
but the encoded object breaks a defining identity (a boundary that
does not square to zero, an edge map that is not a chain map).

Declared sizes are capped at MAX_TOTAL_RANK (defined in chains; the
diagrams module also caps path composites with it): the total rank of one
complex, of a complex after tensoring with a bimodule, a bimodule or
edge rank, and a tower's level count.  Exact elimination on total
rank r costs about r^2 memory and r^3 time, and a file can declare a
rank far beyond what it spells out entry by entry, so anything above
the cap is a FormatError rather than a computation that never ends.
Likewise every integer of a payload, JSON numbers included, may spell
out at most MAX_ENTRY_DIGITS decimal digits; a rational counts its
numerator and denominator apart.  A ring modulus lies between 2 and
exact_linalg.MAX_MODULUS (2**64).  An object that names one key twice
is a FormatError, since JSON leaves open which of its values is meant.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import TYPE_CHECKING

from .chains import MAX_TOTAL_RANK, ChainComplex, GradedMap
from .exact_linalg import MAX_MODULUS, QQ, ZZ, Matrix, Ring, Zmod

# The diagram and tower loaders import their modules when called, so a
# payload that holds only a complex or a map loads neither.
if TYPE_CHECKING:
    from .diagrams import Bimodule, DComplex, DiagramOfBimodules
    from .ladder import D0Complex, D0Morphism


# Decimal digits allowed in one integer of a payload (an entry, or the
# numerator or denominator of a rational entry, a rank, a degree).
# CPython refuses to convert more than 4300 digits with a message that
# names no place in the file, and builds without that limit would
# convert any length, in time quadratic in it.
MAX_ENTRY_DIGITS = 4000
_DIGITS_BOUND = 10 ** MAX_ENTRY_DIGITS
_MODULUS_DIGITS = len(str(MAX_MODULUS))

# Padding allowed around a number written as a string: the ASCII
# whitespace that \s matches under re.ASCII, and nothing else.
_ASCII_SPACE = " \t\n\r\x0b\x0c"

# A rational entry: an integer, or p/q with an unsigned denominator.
_RATIONAL = re.compile(r"\s*(?P<num>[+-]?[0-9]+)(?:/(?P<den>[0-9]+))?\s*", re.ASCII)


class FormatError(ValueError):
    """The payload does not match the expected shape at some JSON path."""


class InvalidObject(ValueError):
    """Well-shaped data encoding an object that breaks its own axioms."""


def _check_size(value: int, where: str, what: str) -> None:
    if value > MAX_TOTAL_RANK:
        raise FormatError(f"{where}: {what} {value} exceeds the limit of {MAX_TOTAL_RANK}")


def _valid(where: str, build, *args):
    """build(*args), with a broken defining identity (any ValueError of
    the constructor) raised as InvalidObject at where."""
    try:
        return build(*args)
    except ValueError as err:
        raise InvalidObject(f"{where}: {err}") from err


def _tensor_target(c: ChainComplex, s: Bimodule, where: str) -> ChainComplex:
    from .diagrams import tensor_with_bimodule

    _check_size(c.total_rank * s.rank, where, "tensored total rank")
    return tensor_with_bimodule(c, s)


# ---------------------------------------------------------------------------
# Scalars


def dump_ring(ring: Ring) -> str:
    if ring.kind == "Zmod":
        return f"Z/{ring.modulus}"
    return ring.kind


def load_ring(value, where: str) -> Ring:
    if not isinstance(value, str):
        raise FormatError(f"{where}: expected a ring name string")
    if value == "Z":
        return ZZ
    if value == "Q":
        return QQ
    if value.startswith("Z/"):
        # The digit count is checked before int() reads the digits.
        tail = value[2:]
        if not (tail.isascii() and tail.isdigit()):
            raise FormatError(f"{where}: modulus in {value[:40]!r} must be an integer >= 2")
        if len(tail) > _MODULUS_DIGITS or int(tail) > MAX_MODULUS:
            raise FormatError(f"{where}: a modulus of {len(tail)} digits exceeds the limit of 2**64")
        if int(tail) < 2:
            raise FormatError(f"{where}: modulus in {value!r} must be an integer >= 2")
        return Zmod(int(tail))
    raise FormatError(f"{where}: unknown ring {value[:40]!r}, expected Z, Q, or Z/<m>")


def _check_digits(digits: int, where: str) -> None:
    if digits > MAX_ENTRY_DIGITS:
        raise FormatError(f"{where}: {digits} digits exceed the limit of {MAX_ENTRY_DIGITS}")


def _parse_json_int(text: str):
    """parse_int for json.loads: a bare JSON integer past the digit cap
    stays its digit string, which load_int refuses with its place."""
    if len(text.lstrip("-")) > MAX_ENTRY_DIGITS:
        return text
    return int(text)


def load_int(value, where: str) -> int:
    if isinstance(value, bool):
        raise FormatError(f"{where}: expected an integer, got a boolean")
    if isinstance(value, int):
        if abs(value) >= _DIGITS_BOUND:
            raise FormatError(f"{where}: integer exceeds the limit of {MAX_ENTRY_DIGITS} digits")
        return value
    if isinstance(value, str):
        text = value.strip(_ASCII_SPACE)
        sign_free = text[1:] if text[:1] in "+-" else text
        if sign_free.isascii() and sign_free.isdigit():
            _check_digits(len(sign_free), where)
            return int(text)
    raise FormatError(f"{where}: expected an integer in decimal notation, got {value!r:.40}")


def _dump_entry(x) -> str:
    return str(x)


def _load_entry(value, ring: Ring, where: str):
    if ring.kind != "Q":
        return load_int(value, where)
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(load_int(value, where))
    match = _RATIONAL.fullmatch(value) if isinstance(value, str) else None
    if match is None or match["den"] and not match["den"].strip("0"):
        raise FormatError(f"{where}: expected an integer or 'p/q' string, got {value!r:.40}")
    num = load_int(match["num"], where)
    return Fraction(num, load_int(match["den"], where)) if match["den"] else Fraction(num)


# ---------------------------------------------------------------------------
# Matrices and block families


def dump_matrix(m: Matrix) -> list:
    return [[_dump_entry(x) for x in row] for row in m.entries]


def load_matrix(value, ring: Ring, rows: int, cols: int, where: str) -> Matrix:
    if not isinstance(value, list):
        raise FormatError(f"{where}: expected a list of rows")
    if len(value) != rows:
        raise FormatError(f"{where}: expected {rows} rows, got {len(value)}")
    data = []
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise FormatError(f"{where} row {i}: expected a list of entries")
        if len(row) != cols:
            raise FormatError(f"{where} row {i}: expected {cols} entries, got {len(row)}")
        data.append(
            [_load_entry(x, ring, f"{where} row {i} column {j}") for j, x in enumerate(row)]
        )
    if rows == 0:
        return Matrix.zero(ring, 0, cols)
    return Matrix.from_rows(ring, data)


def _expect_object(value, where: str, keys: tuple) -> dict:
    if not isinstance(value, dict):
        raise FormatError(f"{where}: expected a JSON object")
    for key in keys:
        if key not in value:
            raise FormatError(f"{where}: missing field {key!r}")
    return value


def dump_blocks(f: GradedMap) -> dict:
    return {str(n): dump_matrix(m) for n, m in f.blocks}


def load_blocks(value, source: ChainComplex, target: ChainComplex, degree: int, where: str) -> GradedMap:
    if not isinstance(value, dict):
        raise FormatError(f"{where}: expected an object of degree-indexed blocks")
    blocks = {}
    for key, mat in value.items():
        n = load_int(key, f"{where} key {key[:40]!r}")
        blocks[n] = load_matrix(
            mat, source.ring, target.rank(n + degree), source.rank(n), f"{where}[{key[:40]}]"
        )
    try:
        return GradedMap.build(source, target, degree, blocks)
    except ValueError as err:
        raise FormatError(f"{where}: {err}") from err


# ---------------------------------------------------------------------------
# Chain complexes


def dump_complex(c: ChainComplex) -> dict:
    return {
        "ring": dump_ring(c.ring),
        "ranks": {str(n): str(r) for n, r in c.ranks},
        "differentials": {str(n): dump_matrix(m) for n, m in c.diffs},
    }


def load_complex(value, where: str = "complex") -> ChainComplex:
    obj = _expect_object(value, where, ("ring", "ranks", "differentials"))
    ring = load_ring(obj["ring"], f"{where}.ring")
    if not isinstance(obj["ranks"], dict):
        raise FormatError(f"{where}.ranks: expected an object")
    ranks = {}
    for key, val in obj["ranks"].items():
        n = load_int(key, f"{where}.ranks key {key[:40]!r}")
        r = load_int(val, f"{where}.ranks[{key[:40]}]")
        if r < 0:
            raise FormatError(f"{where}.ranks[{key[:40]}]: rank must be nonnegative")
        ranks[n] = r
    _check_size(sum(ranks.values()), f"{where}.ranks", "total rank")
    if not isinstance(obj["differentials"], dict):
        raise FormatError(f"{where}.differentials: expected an object")
    diffs = {}
    for key, val in obj["differentials"].items():
        n = load_int(key, f"{where}.differentials key {key[:40]!r}")
        diffs[n] = load_matrix(
            val, ring, ranks.get(n - 1, 0), ranks.get(n, 0), f"{where}.differentials[{key[:40]}]"
        )
    return _valid(where, ChainComplex.build, ring, ranks, diffs)


# ---------------------------------------------------------------------------
# Standalone graded maps


def dump_graded_map(f: GradedMap) -> dict:
    return {
        "source": dump_complex(f.source),
        "target": dump_complex(f.target),
        "degree": str(f.degree),
        "blocks": dump_blocks(f),
    }


def load_graded_map(value, where: str = "map") -> GradedMap:
    obj = _expect_object(value, where, ("source", "target", "degree", "blocks"))
    source = load_complex(obj["source"], f"{where}.source")
    target = load_complex(obj["target"], f"{where}.target")
    degree = load_int(obj["degree"], f"{where}.degree")
    return load_blocks(obj["blocks"], source, target, degree, f"{where}.blocks")


# ---------------------------------------------------------------------------
# Diagram realizations


def dump_diagram(d: DiagramOfBimodules) -> dict:
    return {
        "vertices": [[name, dump_ring(ring)] for name, ring in d.vertices],
        "edges": [
            {
                "name": e.name,
                "source": e.source,
                "target": e.target,
                "rank": str(e.bimodule.rank),
            }
            for e in d.edges
        ],
        "relations": [[list(left), list(right)] for left, right in d.relations],
    }


def load_diagram(value, where: str = "diagram") -> DiagramOfBimodules:
    from .diagrams import Bimodule, DiagramOfBimodules, Edge, preset_diagram

    if not isinstance(value, dict):
        raise FormatError(f"{where}: expected a JSON object")
    if "name" in value:
        name = value["name"]
        if not isinstance(name, str):
            raise FormatError(f"{where}.name: expected a string")
        ring = load_ring(value.get("ring", "Z"), f"{where}.ring")
        params = {}
        for key in ("s_rank", "t_rank", "u_rank", "levels"):
            if key in value:
                params[key] = load_int(value[key], f"{where}.{key}")
                _check_size(params[key], f"{where}.{key}", key)
        try:
            return preset_diagram(name, ring, **params)
        except ValueError as err:
            raise FormatError(f"{where}: {err}") from err
    obj = _expect_object(value, where, ("vertices", "edges"))
    if not isinstance(obj["vertices"], list):
        raise FormatError(f"{where}.vertices: expected a list")
    vertices = []
    for i, pair in enumerate(obj["vertices"]):
        if not (isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str)):
            raise FormatError(f"{where}.vertices[{i}]: expected [name, ring]")
        vertices.append((pair[0], load_ring(pair[1], f"{where}.vertices[{i}]")))
    rings = dict(vertices)
    if not isinstance(obj["edges"], list):
        raise FormatError(f"{where}.edges: expected a list")
    edges = []
    for i, entry in enumerate(obj["edges"]):
        espec = _expect_object(entry, f"{where}.edges[{i}]", ("name", "source", "target", "rank"))
        for key in ("name", "source", "target"):
            if not isinstance(espec[key], str):
                raise FormatError(f"{where}.edges[{i}].{key}: expected a string")
        if espec["target"] not in rings:
            raise FormatError(f"{where}.edges[{i}]: unknown target vertex {espec['target'][:40]!r}")
        rank = load_int(espec["rank"], f"{where}.edges[{i}].rank")
        if rank < 1:
            raise FormatError(f"{where}.edges[{i}].rank: bimodule rank must be positive")
        _check_size(rank, f"{where}.edges[{i}].rank", "bimodule rank")
        edges.append(
            Edge(espec["name"], espec["source"], espec["target"], Bimodule(rings[espec["target"]], rank))
        )
    if not isinstance(obj.get("relations", []), list):
        raise FormatError(f"{where}.relations: expected a list")
    relations = []
    for i, pair in enumerate(obj.get("relations", [])):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise FormatError(f"{where}.relations[{i}]: expected [path, path]")
        left, right = pair
        for side in (left, right):
            if not (isinstance(side, list) and all(isinstance(x, str) for x in side)):
                raise FormatError(f"{where}.relations[{i}]: paths are lists of edge names")
        relations.append((tuple(left), tuple(right)))
    try:
        return DiagramOfBimodules(tuple(vertices), tuple(edges), tuple(relations))
    except ValueError as err:
        raise FormatError(f"{where}: {err}") from err


def dump_dcomplex(x: DComplex) -> dict:
    return {
        "diagram": dump_diagram(x.diagram),
        "complexes": {name: dump_complex(c) for name, c in x.vertex_complexes},
        "edge_maps": {name: dump_blocks(f) for name, f in x.edge_maps},
    }


def load_dcomplex(value, where: str = "dcomplex") -> DComplex:
    from .diagrams import DComplex

    obj = _expect_object(value, where, ("diagram", "complexes", "edge_maps"))
    diagram = load_diagram(obj["diagram"], f"{where}.diagram")
    if not isinstance(obj["complexes"], dict):
        raise FormatError(f"{where}.complexes: expected an object")
    complexes = {}
    for name, _ in diagram.vertices:
        if name not in obj["complexes"]:
            raise FormatError(f"{where}.complexes: missing vertex {name[:40]!r}")
        complexes[name] = load_complex(obj["complexes"][name], f"{where}.complexes[{name[:40]}]")
    if not isinstance(obj["edge_maps"], dict):
        raise FormatError(f"{where}.edge_maps: expected an object")
    maps = {}
    for e in diagram.edges:
        if e.name not in obj["edge_maps"]:
            raise FormatError(f"{where}.edge_maps: missing edge {e.name[:40]!r}")
        target = _tensor_target(
            complexes[e.target], e.bimodule, f"{where}.edge_maps[{e.name[:40]}]"
        )
        maps[e.name] = load_blocks(
            obj["edge_maps"][e.name],
            complexes[e.source],
            target,
            0,
            f"{where}.edge_maps[{e.name[:40]}]",
        )
    return _valid(where, DComplex.build, diagram, complexes, maps)


# ---------------------------------------------------------------------------
# Towers


def dump_bimodule(s: Bimodule) -> dict:
    return {"ring": dump_ring(s.base), "rank": str(s.rank)}


def load_bimodule(value, where: str = "bimodule") -> Bimodule:
    from .diagrams import Bimodule

    obj = _expect_object(value, where, ("ring", "rank"))
    ring = load_ring(obj["ring"], f"{where}.ring")
    rank = load_int(obj["rank"], f"{where}.rank")
    if rank < 1:
        raise FormatError(f"{where}.rank: bimodule rank must be positive")
    _check_size(rank, f"{where}.rank", "bimodule rank")
    return Bimodule(ring, rank)


def dump_d0complex(d: D0Complex) -> dict:
    return {
        "bimodule": dump_bimodule(d.bimodule),
        "level_count": str(d.top_index + 1),
        "stabilization": str(d.stabilization),
        "levels": [dump_complex(d.level(i)) for i in range(d.top_index + 1)],
        "ascents": [dump_blocks(f) for f in d.ascents],
        "descents": [dump_blocks(f) for f in d.descents],
    }


def load_d0complex(value, where: str = "d0complex") -> D0Complex:
    from .ladder import D0Complex

    obj = _expect_object(
        value, where, ("bimodule", "level_count", "stabilization", "levels", "ascents", "descents")
    )
    bim = load_bimodule(obj["bimodule"], f"{where}.bimodule")
    count = load_int(obj["level_count"], f"{where}.level_count")
    _check_size(count, f"{where}.level_count", "level count")
    if not isinstance(obj["levels"], list):
        raise FormatError(f"{where}.levels: expected a list")
    if count != len(obj["levels"]):
        raise FormatError(
            f"{where}.level_count: says {count} but {len(obj['levels'])} levels are present"
        )
    levels = [load_complex(item, f"{where}.levels[{i}]") for i, item in enumerate(obj["levels"])]
    top = len(levels) - 1
    for key, want in (("ascents", max(top, 0)), ("descents", max(top, 0))):
        if not isinstance(obj[key], list) or len(obj[key]) != want:
            raise FormatError(f"{where}.{key}: expected a list of {want} block families")
    ascents = [
        load_blocks(item, levels[i], levels[i + 1], 0, f"{where}.ascents[{i}]")
        for i, item in enumerate(obj["ascents"])
    ]
    descents = [
        load_blocks(
            item,
            levels[i + 1],
            _tensor_target(levels[i], bim, f"{where}.descents[{i}]"),
            0,
            f"{where}.descents[{i}]",
        )
        for i, item in enumerate(obj["descents"])
    ]
    stab = load_int(obj["stabilization"], f"{where}.stabilization")
    return _valid(where, D0Complex.build, bim, levels, ascents, descents, stab)


def dump_d0morphism(f: D0Morphism) -> dict:
    return {
        "source": dump_d0complex(f.source),
        "target": dump_d0complex(f.target),
        "components": [dump_blocks(g) for g in f.components],
    }


def load_d0morphism(value, where: str = "morphism") -> D0Morphism:
    from .ladder import D0Morphism

    obj = _expect_object(value, where, ("source", "target", "components"))
    source = load_d0complex(obj["source"], f"{where}.source")
    target = load_d0complex(obj["target"], f"{where}.target")
    want = source.top_index + 1
    if not isinstance(obj["components"], list) or len(obj["components"]) != want:
        raise FormatError(f"{where}.components: expected a list of {want} block families")
    components = [
        load_blocks(item, source.level(i), target.level(i), 0, f"{where}.components[{i}]")
        for i, item in enumerate(obj["components"])
    ]
    return _valid(where, D0Morphism.build, source, target, components)


def dump_scenario(probe: D0Complex, target: D0Complex) -> dict:
    return {"probe": dump_d0complex(probe), "target": dump_d0complex(target)}


def load_scenario(value, where: str = "scenario") -> tuple:
    obj = _expect_object(value, where, ("probe", "target"))
    probe = load_d0complex(obj["probe"], f"{where}.probe")
    target = load_d0complex(obj["target"], f"{where}.target")
    return probe, target


# ---------------------------------------------------------------------------
# Kind detection and text round trips

_KINDS = (
    ("differentials", "complex", load_complex),
    ("blocks", "map", load_graded_map),
    ("diagram", "dcomplex", load_dcomplex),
    ("ascents", "d0complex", load_d0complex),
    ("components", "morphism", load_d0morphism),
    ("probe", "scenario", load_scenario),
)


def detect_kind(value) -> str:
    """Name the payload shape by its marker field."""
    if not isinstance(value, dict):
        raise FormatError("payload: expected a JSON object")
    for marker, kind, _ in _KINDS:
        if marker in value:
            return kind
    raise FormatError(
        "payload: no marker field found; expected one of "
        + ", ".join(marker for marker, _, _ in _KINDS)
    )


def load_any(value) -> tuple:
    """(kind, object) for a payload of any supported shape."""
    kind = detect_kind(value)
    for marker, name, loader in _KINDS:
        if name == kind:
            return kind, loader(value, kind)
    raise AssertionError("detect_kind returned an unknown kind")


def dumps(payload: dict) -> str:
    """Canonical text form: sorted keys, two-space indent, newline end."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _unique_keys(pairs) -> dict:
    """object_pairs_hook for json.loads: an object that names one key
    twice is ambiguous, so it is refused rather than read as its last."""
    value = dict(pairs)
    if len(value) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise FormatError(f"payload: duplicate key {key[:40]!r}")
            seen.add(key)
    return value


def loads(text: str) -> dict:
    try:
        value = json.loads(text, parse_int=_parse_json_int, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as err:
        raise FormatError(f"payload: invalid JSON at line {err.lineno} column {err.colno}: {err.msg}") from err
    except RecursionError as err:
        raise FormatError("payload nests too deeply") from err
    if not isinstance(value, dict):
        raise FormatError("payload: expected a JSON object at top level")
    return value
