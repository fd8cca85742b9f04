"""Batch verification commands over serialized complexes and towers.

Each verb loads UTF-8 JSON files in the formats of the serialize
module, runs one check, and reports on standard output.  Reports are
deterministic, and ``--json`` switches to a machine-readable object
whose integers are decimal strings.

A verb handler returns (ok, lines, report) and never picks an exit
code.  main alone maps the outcome to one: 0 ("pass") when the
property holds or the computation succeeded, 1 ("fail") when it
failed and the report carries a witness, 2 ("error") when the input
could not be used.  Every such input error is an OSError or a
ValueError, and its class names the line prefix: InvalidObject is
"invalid input", FormatError and OSError are "input error", any other
ValueError is "unusable input".  An AssertionError, a library
self-check that failed, exits 1 as "internal invariant violated".  A
command line that does not parse exits 2 from argparse, before any
verb runs.

Each verb handler imports the library calls it runs, so one invocation
loads only the modules of its own verb: a verb on a complex loads
exact_linalg, chains and serialize (and orders for order, annihilator
and q-acyclic), never the diagram, tower or splitting layers.
"""

from __future__ import annotations

import argparse
import json

from .exact_linalg import Ring
from .serialize import FormatError, InvalidObject, dump_ring, load_ring, loads


def _read_payload(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as err:
            raise FormatError(f"{path}: payload: not UTF-8 text ({err.reason})") from err
    try:
        return loads(text)
    except FormatError as err:
        raise FormatError(f"{path}: {err}") from err


def _emit(args, code: int, verdict: str, lines, report: dict) -> int:
    if args.json:
        body = {"verb": args.verb, "exit": str(code), "verdict": verdict}
        body.update(report)
        print(json.dumps(body, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


def _format_homology(ring: Ring, s) -> str:
    parts = []
    if ring.kind == "Q":
        if s.betti:
            parts.append("Q" if s.betti == 1 else f"Q^{s.betti}")
    elif ring.kind == "Zmod":
        if s.betti:
            name = f"Z/{ring.modulus}"
            parts.append(name if s.betti == 1 else f"({name})^{s.betti}")
        parts.extend(f"Z/{t}" for t in s.torsion)
    else:
        if s.betti:
            parts.append("Z" if s.betti == 1 else f"Z^{s.betti}")
        parts.extend(f"Z/{t}" for t in s.torsion)
    return " + ".join(parts) if parts else "0"


def _nontrivial(table) -> list:
    return [(n, s) for n, s in sorted(table.items()) if not s.is_trivial()]


def _homology_lines(ring: Ring, pairs) -> list:
    return [f"H_{n} = {_format_homology(ring, s)}" for n, s in pairs]


def _homology_payload(ring: Ring, pairs) -> dict:
    return {
        str(n): {
            "betti": str(s.betti),
            "torsion": [str(t) for t in s.torsion],
            "display": _format_homology(ring, s),
        }
        for n, s in pairs
    }


def _free_degrees(c) -> str:
    from .chains import homology

    return ", ".join(str(n) for n, s in sorted(homology(c).items()) if s.betti)


def _seeded_map(args, degree: int) -> tuple:
    """The splittings of the scenario file and a seeded map of the given
    degree from its total complex to its kernel."""
    import random

    from .fuzz import random_graded_map
    from .serialize import load_scenario
    from .splittings import derive_splittings

    probe, target = load_scenario(_read_payload(args.file))
    s = derive_splittings(probe, target)
    rng = random.Random(args.seed)
    return s, random_graded_map(rng, s.total.complex, s.kernel, degree, bound=2)


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# Verb handlers.  Each returns (ok, lines, report): whether the property
# holds, the text report, and the fields of the --json report.


def _cmd_verify(args) -> tuple:
    from .serialize import load_any

    payload = _read_payload(args.file)
    try:
        kind, value = load_any(payload)
    except InvalidObject as err:
        return False, [f"invalid: {err}"], {"message": str(err)}
    lines = []
    report = {"kind": kind}
    if kind == "complex":
        lines.append(
            f"valid complex over {dump_ring(value.ring)}; ranks {value.describe()}"
        )
        report["ranks"] = {str(n): str(r) for n, r in value.ranks}
    elif kind == "map":
        chain = value.leibniz().is_zero()
        lines.append(f"valid graded map of degree {value.degree}")
        lines.append(f"chain map: {_yes(chain)}")
        report["degree"] = str(value.degree)
        report["chain_map"] = _yes(chain)
    elif kind == "dcomplex":
        lines.append(
            f"valid diagram realization with {len(value.diagram.vertices)} vertices"
            f" and {len(value.diagram.edges)} edges"
        )
        report["vertices"] = str(len(value.diagram.vertices))
        report["edges"] = str(len(value.diagram.edges))
    elif kind == "d0complex":
        lines.append(
            f"valid tower with {value.top_index + 1} levels,"
            f" stabilization index {value.stabilization}"
        )
        report["levels"] = str(value.top_index + 1)
        report["stabilization"] = str(value.stabilization)
    elif kind == "morphism":
        lines.append(
            f"valid tower morphism across {value.source.top_index + 1} levels"
        )
        report["levels"] = str(value.source.top_index + 1)
    else:
        probe, target = value
        lines.append(
            f"valid splitting scenario: probe with {probe.top_index + 1} levels,"
            f" target with {target.top_index + 1} levels"
        )
        report["probe_levels"] = str(probe.top_index + 1)
        report["target_levels"] = str(target.top_index + 1)
    return True, lines, report


def _cmd_homology(args) -> tuple:
    from .chains import homology
    from .serialize import load_complex

    c = load_complex(_read_payload(args.file))
    nontrivial = _nontrivial(homology(c))
    report = {"ring": dump_ring(c.ring), "homology": _homology_payload(c.ring, nontrivial)}
    return True, _homology_lines(c.ring, nontrivial) or ["acyclic"], report


def _cmd_homotopy(args) -> tuple:
    from .chains import find_null_homotopy
    from .serialize import dump_blocks, load_graded_map

    f = load_graded_map(_read_payload(args.file))
    witness = find_null_homotopy(f)
    if witness is None:
        return False, ["null-homotopic: no"], {"null_homotopic": "no"}
    degrees = ", ".join(str(n) for n, _ in witness.blocks) or "none"
    lines = ["null-homotopic: yes", f"witness blocks in degrees: {degrees}"]
    return True, lines, {"null_homotopic": "yes", "witness": dump_blocks(witness)}


def _cmd_cone(args) -> tuple:
    from .chains import _cone_complex, _require_chain_map, homology
    from .serialize import load_graded_map

    f = load_graded_map(_read_payload(args.file))
    # The verb reads only the cone's complex, so its structure maps are
    # not built; the check is the one cone() makes.
    _require_chain_map(f, degree=0, what="cone input")
    folded = _cone_complex(f)
    nontrivial = _nontrivial(homology(folded))
    report = {
        "ring": dump_ring(folded.ring),
        "cone_ranks": {str(n): str(r) for n, r in folded.ranks},
        "homology": _homology_payload(folded.ring, nontrivial),
    }
    if not nontrivial:
        return True, ["cone is acyclic; the map is a homology equivalence"], report
    lines = ["cone has nonzero homology; the map is not a homology equivalence"]
    return False, lines + _homology_lines(folded.ring, nontrivial), report


def _cmd_nilpotency(args) -> tuple:
    from .diagrams import nilpotency_degree
    from .serialize import load_dcomplex

    x = load_dcomplex(_read_payload(args.file))
    n = nilpotency_degree(x, args.max_n)
    if n is None:
        lines = [f"no degree found with composites up to length {args.max_n + 1}"]
        return False, lines, {"max_n": str(args.max_n)}
    return True, [f"degree {n}"], {"degree": str(n)}


def _cmd_classify(args) -> tuple:
    from .ladder import classify
    from .serialize import load_d0complex

    d = load_d0complex(_read_payload(args.file))
    n = args.n if args.n is not None else d.top_index
    result = classify(d, n)
    lines = [
        f"cut index {result.n}",
        f"constant up to homotopy from the cut: {_yes(result.in_bn)}",
        f"cut level contractible as well: {_yes(result.in_an)}",
        f"reduced descents: {_yes(result.reduced)}",
    ]
    report = {
        "n": str(result.n),
        "in_bn": _yes(result.in_bn),
        "in_an": _yes(result.in_an),
        "reduced": _yes(result.reduced),
    }
    return True, lines, report


def _cmd_bn_local(args) -> tuple:
    from .chains import homology
    from .ladder import check_bn_local
    from .serialize import load_d0complex

    d = load_d0complex(_read_payload(args.file))
    n = args.n if args.n is not None else d.top_index
    rep = check_bn_local(d, n)
    report = {"n": str(n)}
    if rep.kernel_route is not None:
        report["kernel_route"] = _yes(rep.kernel_route)
    if rep.holds:
        return True, [f"levels 0..{n} are all contractible"], report
    failing = rep.failing_level
    ring = d.bimodule.base
    witness = _nontrivial(homology(d.level(failing)))
    report["failing_level"] = str(failing)
    report["witness_homology"] = _homology_payload(ring, witness)
    lines = [f"level {failing} is not contractible"]
    return False, lines + _homology_lines(ring, witness), report


def _cmd_an_local(args) -> tuple:
    from .ladder import check_an_local
    from .serialize import load_d0complex

    d = load_d0complex(_read_payload(args.file))
    if args.n is not None:
        n = args.n
    else:
        n = d.top_index - 1 if args.bound == "inclusive" else d.top_index
        if n < 0:
            raise ValueError(f"a tower with {d.top_index + 1} level has no inclusive range; use --bound strict")
    rep = check_an_local(d, n, args.bound)
    report = {"n": str(n), "bound": rep.bound, "square_route": _yes(rep.square_holds)}
    if rep.holds:
        lines = [
            f"kernel ascents are equivalences through the {rep.bound} range at n = {n}",
            f"exact-square route agrees: {_yes(rep.square_holds)}",
        ]
        return True, lines, report
    ring = d.bimodule.base
    witness = rep.witness_homology or ()
    report["failing_m"] = str(rep.failing_index)
    report["cone_homology"] = _homology_payload(ring, witness)
    lines = [f"fails at m = {rep.failing_index}", "cone homology:"]
    return False, lines + _homology_lines(ring, witness), report


def _cmd_factor(args) -> tuple:
    from .ladder import factor_through_acyclic
    from .serialize import load_d0morphism

    f = load_d0morphism(_read_payload(args.file))
    data = factor_through_acyclic(f, args.n)
    lines = [
        f"factored through a tower with {data.mid.top_index + 1} levels",
        "every middle level is contractible (witnessed)",
        "composite reproduces the map exactly",
    ]
    return True, lines, {"mid_levels": str(data.mid.top_index + 1), "composite_exact": "yes"}


def _cmd_tp_check(args) -> tuple:
    from .serialize import load_scenario
    from .splittings import derive_splittings, t_differential_holds, t_operator

    probe, target = load_scenario(_read_payload(args.file))
    s = derive_splittings(probe, target)
    lines = []
    results = {}
    ok = True
    room = s.top_index - 2
    for p in range(min(args.max_n, room) + 1):
        holds = t_differential_holds(s, p)
        vanishes = t_operator(s, p).map.is_zero()
        ok = ok and holds
        state = "holds" if holds else "FAILS"
        tail = "operator vanishes" if vanishes else "operator is nonzero"
        lines.append(f"p = {p}: differential relation {state}; {tail}")
        results[str(p)] = {"relation": "pass" if holds else "fail", "vanishes": _yes(vanishes)}
    if args.max_n > room:
        lines.append(
            f"p > {room} not expressible on a tower with {s.top_index + 1} levels"
        )
    return ok, lines, {"relations": results, "expressible_max": str(room)}


def _cmd_delta_check(args) -> tuple:
    from .splittings import delta_differential

    s, f = _seeded_map(args, args.n)
    once = delta_differential(s, f)
    ok = delta_differential(s, once).is_zero()
    lines = [
        f"seeded map of degree {args.n} (seed {args.seed})",
        f"twisted differential applied twice vanishes: {_yes(ok)}",
        f"single application {'is zero' if once.is_zero() else 'is nonzero'}",
    ]
    return ok, lines, {"degree": str(args.n), "seed": str(args.seed), "square_zero": _yes(ok)}


def _cmd_invert(args) -> tuple:
    from .splittings import delta_differential, invert_homotopy

    s, raw = _seeded_map(args, args.n + 1)
    cycle = delta_differential(s, raw)
    # Raises unless the twisted differential of the preimage is the cycle.
    invert_homotopy(s, s.total, cycle)
    zero = cycle.is_zero()
    lines = [
        f"seeded cycle of degree {args.n} (seed {args.seed})" + (" is zero" if zero else ""),
        "inversion reproduces the cycle exactly",
    ]
    return True, lines, {"degree": str(args.n), "seed": str(args.seed), "cycle_zero": _yes(zero)}


def _cmd_order(args) -> tuple:
    from .orders import homology_order
    from .serialize import load_complex

    c = load_complex(_read_payload(args.file))
    rep = homology_order(c)
    if rep.finite:
        return True, [f"order = {rep.order}"], {"finite": "yes", "order": str(rep.order)}
    lines = ["homology is infinite; no finite order", f"free part in degrees: {_free_degrees(c)}"]
    return False, lines, {"finite": "no"}


def _cmd_annihilator(args) -> tuple:
    from .orders import annihilator_exponent
    from .serialize import dump_blocks, load_complex

    c = load_complex(_read_payload(args.file))
    rep = annihilator_exponent(c)
    if rep.exponent is None:
        return False, ["no finite exponent; homology is infinite"], {"exponent": "none"}
    lines = [f"exponent = {rep.exponent}", "witness solves dH = exponent times the identity"]
    return True, lines, {"exponent": str(rep.exponent), "witness": dump_blocks(rep.witness)}


def _cmd_q_acyclic(args) -> tuple:
    from .orders import rational_acyclicity
    from .serialize import load_complex

    c = load_complex(_read_payload(args.file))
    if rational_acyclicity(c):
        return True, ["rationally acyclic: yes"], {"acyclic": "yes"}
    lines = ["rationally acyclic: no", f"free homology in degrees: {_free_degrees(c)}"]
    return False, lines, {"acyclic": "no"}


def _divisibility_ok(diagonal, field) -> bool:
    if field and any(x != 0 and x != 1 for x in diagonal):
        return False
    for a, b in zip(diagonal, diagonal[1:]):
        if a == 0:
            if b != 0:
                return False
        elif b % a != 0:
            return False
    return True


def _cmd_fuzz(args) -> tuple:
    import random

    from .chains import GradedMap, cone, homology, is_contractible
    from .exact_linalg import ZZ, Matrix, smith_normal_form
    from .fuzz import random_complex, random_reduced_ladder
    from .ladder import check_an_local, check_bn_local, kernel_complex, kernel_lambda

    ring = load_ring(args.ring, "--ring")
    rng = random.Random(args.seed)
    count = args.n
    failures = []

    smith_ring = ring if ring.is_field() or ring.kind == "Z" else ZZ  # smith_normal_form rejects composite Z/m
    for i in range(count):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        m = Matrix.from_rows(
            smith_ring, [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        ) if rows else Matrix.zero(smith_ring, 0, cols)
        snf = smith_normal_form(m)
        if snf.p @ m @ snf.q != snf.d:
            failures.append(f"smith instance {i}: factorization mismatch")
        if snf.p @ snf.pinv != Matrix.identity(smith_ring, rows) or snf.q @ snf.qinv != Matrix.identity(smith_ring, cols):
            failures.append(f"smith instance {i}: recorded inverses are wrong")
        if not _divisibility_ok(snf.diagonal, smith_ring.is_field()):
            failures.append(f"smith instance {i}: diagonal divisibility broken")

    n_complexes = max(1, count // 2)
    for i in range(n_complexes):
        made = random_complex(rng, ring)
        c = made.complex
        c.validate()
        if homology(c) != made.expected:
            failures.append(f"complex instance {i}: homology differs from construction")
        cn = cone(GradedMap.identity(c))
        if not cn.inclusion.is_chain_map() or not cn.projection.leibniz().is_zero():
            failures.append(f"complex instance {i}: cone of the identity has a broken structure map")
        if not is_contractible(cn.complex):
            failures.append(f"complex instance {i}: cone of the identity not contractible")

    n_towers = max(1, count // 5)
    for i in range(n_towers):
        made = random_reduced_ladder(rng, ring, n_levels=3)
        tower, fresh = made.complex, made.fresh_acyclic
        rep = check_bn_local(tower, tower.top_index)
        direct = all(
            is_contractible(tower.level(j)) for j in range(tower.top_index + 1)
        )
        if rep.holds != direct:
            failures.append(f"tower instance {i}: locality verdict disagrees with levels")
        kernels = [kernel_complex(tower, m) for m in range(1, tower.top_index + 1)]
        induced = [kernel_lambda(tower, m, kernels[m - 1], kernels[m]) for m in range(1, tower.top_index)]
        if not all(k.inclusion.is_chain_map() for k in kernels) or not all(f.is_chain_map() for f in induced):
            failures.append(f"tower instance {i}: a descent kernel map is not a chain map")
            continue
        # Ascent m is an equivalence iff fresh piece m + 1 and all levels below m are acyclic.
        an = check_an_local(tower, tower.top_index - 1, "inclusive")
        for m, kernel_ok, square_ok in an.checked:
            if not kernel_ok == square_ok == (fresh[m] and all(fresh[: m - 1])):
                failures.append(f"tower instance {i}: kernel and square verdicts at index {m} disagree with the fresh pieces")

    lines = [
        f"smith contract: {count} instances",
        f"complex invariants: {n_complexes} instances over {dump_ring(ring)}",
        f"tower locality agreement: {n_towers} instances",
    ]
    lines.extend(failures)
    lines.append("all invariants held" if not failures else f"{len(failures)} failures")
    report = {
        "seed": str(args.seed),
        "ring": dump_ring(ring),
        "instances": {
            "smith": str(count),
            "complexes": str(n_complexes),
            "towers": str(n_towers),
        },
        "failures": failures,
    }
    return not failures, lines, report


# ---------------------------------------------------------------------------
# Parser

# Largest value of a count option (fuzz --n, --max-n).  The nilpotency
# search takes time quadratic in --max-n even on a rank-1 loop, about a
# second at this bound and half a minute at ten times it.
MAX_COUNT = 100


def _seed(value: str) -> int:
    got = int(value)
    if not 0 <= got < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return got


def _count(value: str) -> int:
    got = int(value)
    if not 0 <= got <= MAX_COUNT:
        raise argparse.ArgumentTypeError(f"count must be between 0 and {MAX_COUNT}")
    return got


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainbench",
        description="Exact checks on serialized chain complexes and towers.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    def add(name, handler, help_text, needs_file=True):
        p = sub.add_parser(name, help=help_text)
        if needs_file:
            p.add_argument("file", help="UTF-8 JSON input file")
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.set_defaults(handler=handler)
        return p

    add("verify", _cmd_verify, "validate a serialized object of any supported kind")
    add("homology", _cmd_homology, "homology of a complex, one line per degree")

    add("homotopy", _cmd_homotopy, "solve for a null-homotopy of a chain map")
    add("cone", _cmd_cone, "mapping cone homology; passes when acyclic")

    p = add("nilpotency", _cmd_nilpotency, "least degree with long composites bounding")
    p.add_argument("--max-n", type=_count, default=6, help="largest degree to try")

    p = add("classify", _cmd_classify, "tower membership verdicts at a cut index")
    p.add_argument("--n", type=int, default=None, help="cut index (default: top level)")

    p = add("bn-local", _cmd_bn_local, "contractibility of all levels through a cut")
    p.add_argument("--n", type=int, default=None, help="cut index (default: top level)")

    p = add("an-local", _cmd_an_local, "kernel-ascent equivalences over a range")
    p.add_argument("--n", type=int, default=None, help="range bound (default: largest legal)")
    p.add_argument(
        "--bound", choices=("strict", "inclusive"), default="inclusive",
        help="whether the bound index itself is checked",
    )

    p = add("factor", _cmd_factor, "factor a tower morphism through a contractible tower")
    p.add_argument("--n", type=int, required=True, help="cut index for the factorization")

    p = add("tp-check", _cmd_tp_check, "contraction-operator differential relations")
    p.add_argument("--max-n", type=_count, default=4, help="largest operator index to check")

    p = add("delta-check", _cmd_delta_check, "twisted differential squares to zero")
    p.add_argument("--seed", type=_seed, default=0, help="seed for the probe map")
    p.add_argument("--n", type=int, default=0, help="degree of the probe map")

    p = add("invert", _cmd_invert, "invert the twisted differential on a seeded cycle")
    p.add_argument("--seed", type=_seed, default=0, help="seed for the probe map")
    p.add_argument("--n", type=int, default=0, help="degree of the seeded cycle")

    add("order", _cmd_order, "order of the total homology of an integer complex")
    add("annihilator", _cmd_annihilator, "least multiple of the identity that bounds")
    add("q-acyclic", _cmd_q_acyclic, "acyclicity after tensoring with the rationals")

    p = add("fuzz", _cmd_fuzz, "randomized invariant suite", needs_file=False)
    p.add_argument("--seed", type=_seed, default=0, help="seed for all instances")
    p.add_argument("--n", type=_count, default=20, help="instance count")
    p.add_argument("--ring", default="Z", help="coefficients: Z, Q, or Z/<m>")

    return parser


def _error_prefix(err: Exception) -> str:
    if isinstance(err, InvalidObject):
        return "invalid input"
    if isinstance(err, (FormatError, OSError)):
        return "input error"
    return "unusable input"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ok, lines, report = args.handler(args)
    except (OSError, ValueError) as err:
        code, verdict = 2, "error"
        lines, report = [f"{_error_prefix(err)}: {err}"], {"message": str(err)}
    except AssertionError as err:
        code, verdict = 1, "fail"
        lines, report = [f"internal invariant violated: {err}"], {"message": str(err)}
    else:
        code, verdict = (0, "pass") if ok else (1, "fail")
    return _emit(args, code, verdict, lines, report)


if __name__ == "__main__":
    raise SystemExit(main())
