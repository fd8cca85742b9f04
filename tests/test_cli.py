"""End-to-end checks of the command-line verbs and exit codes."""

import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import chainbench
from chainbench.chains import ChainComplex, GradedMap
from chainbench.cli import MAX_COUNT, main
from chainbench.diagrams import Bimodule, DComplex, loop_object, preset_diagram, tensor_with_bimodule
from chainbench.exact_linalg import QQ, ZZ, Matrix, Zmod
from chainbench.fuzz import random_kernel_tower, random_reduced_ladder
from chainbench.ladder import D0Morphism, check_an_local, constant_tower
from chainbench.ladder import test_object as probe
from chainbench.serialize import (
    dump_complex,
    dump_d0complex,
    dump_d0morphism,
    dump_dcomplex,
    dump_graded_map,
    dump_scenario,
    dumps,
)
from chainbench.serialize import MAX_ENTRY_DIGITS
from test_diagrams import two_loop_dcomplex


def moore(k: int) -> ChainComplex:
    return ChainComplex.build(ZZ, {0: 1, 1: 1}, {1: Matrix.from_rows(ZZ, [[k]])})


def jordan_dcomplex() -> DComplex:
    diagram = preset_diagram("D1", ZZ)
    c = ChainComplex.build(ZZ, {0: 2}, {})
    edge = GradedMap.build(c, c, 0, {0: Matrix.from_rows(ZZ, [[0, 1], [0, 0]])})
    return DComplex.build(diagram, {"v": c}, {"x": edge})


def write(tmp_path, name: str, payload: dict) -> str:
    path = tmp_path / name
    path.write_text(dumps(payload), encoding="utf-8")
    return str(path)


def run_child(*argv, timeout=60, **kwargs) -> subprocess.CompletedProcess:
    """Run `python -m chainbench argv` in a child process with a timeout,
    60 s by default, so that a regression to a hang fails the test
    instead of the suite."""
    return run_python("-m", "chainbench", *argv, timeout=timeout, **kwargs)


def run_python(*argv, timeout=60, **kwargs) -> subprocess.CompletedProcess:
    """Run `python argv` in a child process that imports this chainbench."""
    src = str(Path(chainbench.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
        **kwargs,
    )


def test_verbs_start_without_dataclasses_or_inspect(tmp_path):
    """A verb's child process pays for every module it imports, so the
    value classes are built without dataclasses, which pulls in
    inspect."""
    complex_path = write(tmp_path, "moore2.json", dump_complex(moore(2)))
    diagram_path = write(tmp_path, "jordan.json", dump_dcomplex(jordan_dcomplex()))
    tower_path = write(tmp_path, "tower.json", dump_d0complex(probe("g_m", 1, 2, Bimodule(ZZ, 1))))
    script = (
        "import sys\n"
        "from chainbench.cli import main\n"
        "a, b, c = sys.argv[1:]\n"
        "codes = [main(['homology', a]), main(['nilpotency', b]), main(['verify', c])]\n"
        "loaded = [name for name in ('dataclasses', 'inspect') if name in sys.modules]\n"
        "print('codes', codes, 'loaded', loaded, 'ladder', 'chainbench.ladder' in sys.modules)\n"
    )
    done = run_python("-c", script, complex_path, diagram_path, tower_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "codes [0, 0, 0] loaded [] ladder True"


def test_homology_moore_example(tmp_path, capsys):
    path = write(tmp_path, "moore2.json", dump_complex(moore(2)))
    assert main(["homology", path]) == 0
    assert capsys.readouterr().out == "H_0 = Z/2\n"


def test_homology_acyclic_line(tmp_path, capsys):
    path = write(tmp_path, "unit.json", dump_complex(moore(1)))
    assert main(["homology", path]) == 0
    assert capsys.readouterr().out == "acyclic\n"


def test_nilpotency_jordan_example(tmp_path, capsys):
    path = write(tmp_path, "d1-jordan.json", dump_dcomplex(jordan_dcomplex()))
    assert main(["nilpotency", path, "--max-n", "4"]) == 0
    assert capsys.readouterr().out == "degree 1\n"


def test_verify_kinds_and_error_codes(tmp_path, capsys):
    good = write(tmp_path, "c.json", dump_complex(moore(2)))
    assert main(["verify", good]) == 0
    assert "valid complex over Z" in capsys.readouterr().out

    tower = write(tmp_path, "t.json", dump_d0complex(probe("g_m", 1, 2, Bimodule(ZZ, 1))))
    assert main(["verify", tower]) == 0
    assert "valid tower with 3 levels" in capsys.readouterr().out

    broken = {
        "ring": "Z",
        "ranks": {"0": "1", "1": "1", "2": "1"},
        "differentials": {"1": [["1"]], "2": [["1"]]},
    }
    bad = write(tmp_path, "bad.json", broken)
    assert main(["verify", bad]) == 1
    assert "invalid" in capsys.readouterr().out

    assert main(["verify", write(tmp_path, "junk.json", {"nonsense": "1"})]) == 2
    capsys.readouterr()
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{oops", encoding="utf-8")
    assert main(["verify", str(garbage)]) == 2
    assert "line 1" in capsys.readouterr().out
    assert main(["verify", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_homotopy_verb(tmp_path, capsys):
    doubled = GradedMap.identity(moore(2)).scale(2)
    path = write(tmp_path, "double.json", dump_graded_map(doubled))
    assert main(["homotopy", path]) == 0
    assert "null-homotopic: yes" in capsys.readouterr().out

    unit = ChainComplex.build(ZZ, {0: 1}, {})
    stuck = write(tmp_path, "stuck.json", dump_graded_map(GradedMap.identity(unit)))
    assert main(["homotopy", stuck]) == 1
    assert "null-homotopic: no" in capsys.readouterr().out


def test_cone_verb(tmp_path, capsys):
    equivalence = write(
        tmp_path, "id.json", dump_graded_map(GradedMap.identity(moore(2)))
    )
    assert main(["cone", equivalence]) == 0
    assert "homology equivalence" in capsys.readouterr().out

    unit = ChainComplex.build(ZZ, {0: 1}, {})
    zero = write(tmp_path, "zero.json", dump_graded_map(GradedMap.zero(unit, unit)))
    assert main(["cone", zero]) == 1
    out = capsys.readouterr().out
    assert "not a homology equivalence" in out and "H_" in out


def test_order_family_verbs(tmp_path, capsys):
    moore_path = write(tmp_path, "m2.json", dump_complex(moore(2)))
    free_path = write(tmp_path, "free.json", dump_complex(ChainComplex.build(ZZ, {0: 1}, {})))

    assert main(["order", moore_path]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "order = 2"
    assert main(["order", free_path]) == 1
    assert "no finite order" in capsys.readouterr().out

    assert main(["annihilator", moore_path]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "exponent = 2"
    assert main(["annihilator", free_path]) == 1
    capsys.readouterr()

    assert main(["q-acyclic", moore_path]) == 0
    capsys.readouterr()
    assert main(["q-acyclic", free_path]) == 1
    capsys.readouterr()

    rational = write(tmp_path, "q.json", dump_complex(ChainComplex.build(QQ, {0: 1}, {})))
    assert main(["order", rational]) == 2
    assert "integer complexes only" in capsys.readouterr().out


def test_classify_verb(tmp_path, capsys):
    bim = Bimodule(ZZ, 1)
    path = write(tmp_path, "const.json", dump_d0complex(constant_tower(moore(1), 2, bim)))
    assert main(["classify", path, "--n", "0"]) == 0
    out = capsys.readouterr().out
    assert "constant up to homotopy from the cut: yes" in out
    assert "reduced descents: no" in out


def test_bn_local_verb(tmp_path, capsys):
    acyclic = ChainComplex.build(ZZ, {0: 1, 1: 1}, {1: Matrix.from_rows(ZZ, [[1]])})
    rng = random.Random(2)
    good_tower = random_kernel_tower(
        rng, ZZ, n_levels=2, twist=False, scramble=False, kernel=acyclic
    ).complex
    good = write(tmp_path, "good.json", dump_d0complex(good_tower))
    assert main(["bn-local", good]) == 0
    assert "all contractible" in capsys.readouterr().out

    stuck_tower = random_kernel_tower(
        rng, ZZ, n_levels=2, twist=False, scramble=False, kernel=moore(2)
    ).complex
    stuck = write(tmp_path, "stuck.json", dump_d0complex(stuck_tower))
    assert main(["bn-local", stuck, "--n", "1"]) == 1
    out = capsys.readouterr().out
    assert "level 1 is not contractible" in out and "H_0 = Z/2" in out


def test_an_local_matches_library_verdict(tmp_path, capsys):
    for seed, acyclic in ((5, {1, 2, 3}), (9, ())):
        rng = random.Random(seed)
        tower = random_reduced_ladder(rng, ZZ, n_levels=3, acyclic_levels=acyclic).complex
        rep = check_an_local(tower, 2, "inclusive")
        path = write(tmp_path, f"ladder{seed}.json", dump_d0complex(tower))
        code = main(["an-local", path, "--n", "2", "--bound", "inclusive"])
        assert code == (0 if rep.holds else 1)
        out = capsys.readouterr().out
        if rep.holds:
            assert "exact-square route agrees" in out
        else:
            assert f"fails at m = {rep.failing_index}" in out
            assert "cone homology:" in out
    assert rep.holds is False


def test_factor_verb(tmp_path, capsys):
    bim = Bimodule(ZZ, 1)
    tower = constant_tower(moore(1), 2, bim)
    zero = D0Morphism.build(
        tower,
        tower,
        [GradedMap.zero(tower.level(i), tower.level(i)) for i in range(3)],
    )
    path = write(tmp_path, "f.json", dump_d0morphism(zero))
    assert main(["factor", path, "--n", "0"]) == 0
    assert "composite reproduces the map exactly" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["factor", path])
    assert exc.value.code == 2
    capsys.readouterr()


def scenario_file(tmp_path, seed: int = 0) -> str:
    rng = random.Random(seed)
    target = random_kernel_tower(rng, ZZ, n_levels=3, twist=True, scramble=True).complex
    probe_tower = random_reduced_ladder(
        rng, ZZ, n_levels=3, s_rank=1, acyclic_levels={1, 2, 3}, scramble=True
    ).complex
    return write(tmp_path, f"scenario{seed}.json", dump_scenario(probe_tower, target))


def test_splitting_verbs(tmp_path, capsys):
    path = scenario_file(tmp_path)
    assert main(["tp-check", path, "--max-n", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("differential relation holds") == 2
    assert "p > 1 not expressible" in out

    assert main(["delta-check", path, "--seed", "3"]) == 0
    assert "applied twice vanishes: yes" in capsys.readouterr().out

    assert main(["invert", path, "--seed", "1"]) == 0
    assert "reproduces the cycle exactly" in capsys.readouterr().out

    assert main(["verify", path]) == 0
    assert "splitting scenario" in capsys.readouterr().out


def test_json_reports_round_trip(tmp_path, capsys):
    moore_path = write(tmp_path, "m.json", dump_complex(moore(2)))
    assert main(["homology", moore_path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verb"] == "homology"
    assert report["exit"] == "0"
    assert report["verdict"] == "pass"
    assert report["homology"]["0"]["torsion"] == ["2"]
    assert isinstance(report["homology"]["0"]["betti"], str)

    unit = ChainComplex.build(ZZ, {0: 1}, {})
    zero = write(tmp_path, "z.json", dump_graded_map(GradedMap.zero(unit, unit)))
    assert main(["cone", zero, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "fail" and report["exit"] == "1"

    free = write(tmp_path, "free.json", dump_complex(ChainComplex.build(ZZ, {0: 1}, {})))
    assert main(["order", free, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "fail" and report["finite"] == "no"


def test_fuzz_verb_deterministic(capsys):
    assert main(["fuzz", "--seed", "5", "--n", "6"]) == 0
    first = capsys.readouterr().out
    assert "all invariants held" in first
    assert main(["fuzz", "--seed", "5", "--n", "6"]) == 0
    assert capsys.readouterr().out == first

    assert main(["fuzz", "--seed", "2", "--n", "5", "--ring", "Z/4"]) == 0
    capsys.readouterr()
    assert main(["fuzz", "--ring", "Z/1"]) == 2
    capsys.readouterr()


def test_fuzz_checks_the_square_route_against_the_fresh_pieces(monkeypatch, capsys):
    """The tower section runs check_an_local on each ladder; flipping
    every square verdict makes it disagree with the kernel route and
    the fresh pieces, which is reported as a failure per index."""
    import chainbench.ladder as ladder
    from chainbench.chains import is_acyclic

    assert main(["fuzz", "--seed", "0", "--n", "5", "--json"]) == 0
    passing = capsys.readouterr().out
    square = ladder.exact_square_total
    acyclic, cyclic = ChainComplex.zero_complex(ZZ), ChainComplex.build(ZZ, {0: 1}, {})

    def flipped(c, m):
        return cyclic if is_acyclic(square(c, m)) else acyclic

    monkeypatch.setattr(ladder, "exact_square_total", flipped)
    assert main(["fuzz", "--seed", "0", "--n", "5", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "fail"
    assert report["failures"] == [
        "tower instance 0: kernel and square verdicts at index 1 disagree with the fresh pieces",
        "tower instance 0: kernel and square verdicts at index 2 disagree with the fresh pieces",
    ]
    monkeypatch.undo()
    assert main(["fuzz", "--seed", "0", "--n", "5", "--json"]) == 0
    assert capsys.readouterr().out == passing


def test_oversized_complex_exits_2_in_a_subprocess(tmp_path):
    """A declared rank far past the cap must be refused, not computed.

    Run as a child process with a timeout, so that a regression fails
    this test instead of hanging the suite.
    """
    path = tmp_path / "huge.json"
    path.write_text(
        '{"kind":"complex","ring":"Z","ranks":{"0":"100000000000"},"differentials":{}}',
        encoding="utf-8",
    )
    done = run_child("homology", str(path))
    assert done.returncode == 2
    assert "exceeds the limit" in done.stdout
    assert "Traceback" not in done.stderr


def test_deeply_nested_payload_exits_2_in_a_subprocess(tmp_path):
    """JSON nested past the parser's recursion limit is a format error
    with a message, not a RecursionError traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000, encoding="utf-8")
    done = run_child("homology", str(path))
    assert done.returncode == 2
    assert "nests too deeply" in done.stdout
    assert "Traceback" not in done.stderr


def test_payload_that_is_not_utf8_exits_2_naming_the_file_in_a_subprocess(tmp_path):
    """Bytes that do not decode as UTF-8 are a format error naming the
    file, like invalid JSON, not a bare ValueError from the codec."""
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe\x00")
    done = run_child("homology", str(path))
    assert done.returncode == 2
    assert done.stdout == f"input error: {path}: payload: not UTF-8 text (invalid start byte)\n"
    assert "Traceback" not in done.stderr
    done = run_child("verify", str(path), "--json")
    assert done.returncode == 2
    assert json.loads(done.stdout)["message"] == f"{path}: payload: not UTF-8 text (invalid start byte)"


def test_payload_naming_a_key_twice_exits_2_in_a_subprocess(tmp_path):
    """A repeated key is ambiguous: verify refuses it, naming the key,
    instead of reading the last value."""
    path = tmp_path / "twice.json"
    path.write_text('{"ring": "Z", "ranks": {"0": "1", "0": "2"}, "differentials": {}}', encoding="utf-8")
    done = run_child("verify", str(path))
    assert done.returncode == 2
    assert done.stdout == f"input error: {path}: payload: duplicate key '0'\n"
    assert "Traceback" not in done.stderr


def test_homology_of_a_large_free_degree_finishes_in_a_subprocess(tmp_path):
    """A complex of rank 4096 with no differentials has H_0 = Z^4096.

    Such a degree costs no elimination at all; the timeout turns a
    regression to a cubic Smith form into a failure, not a hang.
    """
    path = tmp_path / "free.json"
    path.write_text(
        '{"kind":"complex","ring":"Z","ranks":{"0":"4096"},"differentials":{}}',
        encoding="utf-8",
    )
    done = run_child("homology", "--json", str(path))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["homology"]["0"]["betti"] == "4096"


def test_nilpotency_composite_over_the_cap_exits_2_in_a_subprocess(tmp_path):
    """A loop over a rank-64 bimodule on a rank-1 complex, with a map
    that is not nilpotent: the length-3 composite would have total rank
    64^3, so the search must stop with exit 2 and a message."""
    c = ChainComplex.build(ZZ, {0: 1}, {})
    s = Bimodule(ZZ, 64)
    f = GradedMap.build(
        c, tensor_with_bimodule(c, s), 0, {0: Matrix.from_rows(ZZ, [[1]] * 64)}
    )
    path = write(tmp_path, "loop64.json", dump_dcomplex(loop_object(f, s)))
    # Without the cap the child would build a 262144 x 4096 matrix; the
    # address-space limit turns that into a failure instead of a host
    # running out of memory.
    limit = (1 << 30, 1 << 30)
    done = run_child(
        "nilpotency", path, "--max-n", "100", "--json",
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit),
    )
    assert done.returncode == 2
    report = json.loads(done.stdout)
    assert report["verdict"] == "error"
    assert "over the limit of 4096" in report["message"]
    assert "Traceback" not in done.stderr


def test_nilpotency_over_the_composite_cap_exits_2_in_a_subprocess(tmp_path):
    """Two rank-1 identity loops on one vertex have 2^k paths of length
    k: with --max-n 100 the search must refuse length 12, whose paths
    would take the composites past 4096, with exit 2 and a message.
    The address-space limit keeps a regression that lists every path
    from taking the host's memory."""
    path = write(tmp_path, "two_loops.json", dump_dcomplex(two_loop_dcomplex()))
    limit = (1 << 30, 1 << 30)
    done = run_child(
        "nilpotency", path, "--max-n", "100", "--json", timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit),
    )
    assert done.returncode == 2, done.stderr
    report = json.loads(done.stdout)
    assert report["verdict"] == "error"
    assert "composites up to length 12, 4096 of that length" in report["message"]
    assert "over the limit of 4096" in report["message"]
    assert "Traceback" not in done.stderr


def test_homotopy_over_the_leibniz_bound_exits_2_in_a_subprocess(tmp_path):
    """A map between complexes of total rank 64 and 128, far inside
    MAX_TOTAL_RANK, whose Leibniz system would be 4096 x 4096: the
    homotopy search must refuse it, naming the size, before assembling
    it.  The address-space limit keeps a regression from taking the
    host's memory."""
    src = ChainComplex.build(ZZ, {0: 64}, {})
    tgt = ChainComplex.build(ZZ, {0: 64, 1: 64}, {1: Matrix.identity(ZZ, 64)})
    f = GradedMap.build(src, tgt, 0, {0: Matrix.identity(ZZ, 64)})
    path = write(tmp_path, "pair64.json", dump_graded_map(f))
    limit = (1 << 30, 1 << 30)
    done = run_child(
        "homotopy", path, "--json", timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit),
    )
    assert done.returncode == 2, done.stderr
    report = json.loads(done.stdout)
    assert report["verdict"] == "error"
    assert "4096 rows and 4096 columns" in report["message"]
    assert "Traceback" not in done.stderr


def test_count_options_out_of_range_exit_2(tmp_path, capsys):
    """Negative or oversized counts are usage errors, never a verdict."""
    jordan = write(tmp_path, "jordan.json", dump_dcomplex(jordan_dcomplex()))
    scenario = scenario_file(tmp_path)
    commands = [
        ["fuzz", "--n"],
        ["nilpotency", jordan, "--max-n"],
        ["tp-check", scenario, "--max-n"],
    ]
    for command in commands:
        for bad in ("-3", "-1", str(MAX_COUNT + 1), "10000000000", "two"):
            with pytest.raises(SystemExit) as exc:
                main(command + [bad, "--json"])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "error: argument" in captured.err
            if bad != "two":
                assert f"between 0 and {MAX_COUNT}" in captured.err
    assert main(["nilpotency", jordan, "--max-n", str(MAX_COUNT)]) == 0
    assert main(["nilpotency", jordan, "--max-n", "0"]) == 1
    assert main(["tp-check", scenario, "--max-n", str(MAX_COUNT)]) == 0
    assert main(["fuzz", "--n", "0"]) == 0
    capsys.readouterr()


def test_unknown_verb_rejected_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_short_differential_row_exits_2_naming_the_row(tmp_path, capsys):
    path = write(tmp_path, "short.json", {"ring": "Z", "ranks": {"0": "1", "1": "2"}, "differentials": {"1": [["2"]]}})
    assert main(["homology", path]) == 2
    assert "complex.differentials[1] row 0" in "".join(capsys.readouterr())
    assert main(["homology", path, "--json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["exit"] == "2" and "complex.differentials[1] row 0" in report["message"]


def test_fractional_entry_over_z_exits_2(tmp_path, capsys):
    path = write(tmp_path, "frac.json", {"ring": "Z", "ranks": {"0": "1", "1": "1"}, "differentials": {"1": [["1.5"]]}})
    assert main(["homology", path]) == 2
    assert "'1.5'" in "".join(capsys.readouterr())


def test_cone_and_homotopy_of_a_non_chain_map_exit_2(tmp_path, capsys):
    m2 = dump_complex(moore(2))
    path = write(tmp_path, "bad.json", {"blocks": {"0": [["1"]]}, "degree": "0", "source": m2, "target": m2})
    for verb in ("cone", "homotopy"):
        assert main([verb, path]) == 2
        assert "unusable input" in "".join(capsys.readouterr())


def test_homology_json_over_z4_reports_torsion(tmp_path, capsys):
    path = write(tmp_path, "z4.json", {"ring": "Z/4", "ranks": {"0": "1", "1": "1"}, "differentials": {"1": [["2"]]}})
    assert main(["homology", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ring"] == "Z/4"
    for n in ("0", "1"):
        assert report["homology"][n]["torsion"] == ["2"]


def test_entry_with_too_many_digits_exits_2_in_a_subprocess(tmp_path):
    """A 5000-digit entry is refused with its place in the file, before
    Python's own integer conversion limit (or, without one, a quadratic
    conversion) is reached."""
    path = write(
        tmp_path,
        "long.json",
        {"ring": "Z", "ranks": {"0": "1", "1": "1"}, "differentials": {"1": [["7" * 5000]]}},
    )
    done = run_child("homology", path)
    assert done.returncode == 2
    assert "complex.differentials[1] row 0 column 0" in done.stdout
    assert f"exceed the limit of {MAX_ENTRY_DIGITS}" in done.stdout
    assert "Traceback" not in done.stderr


def test_digit_cap_covers_rationals_and_json_numbers(tmp_path, capsys):
    long = "3" * (MAX_ENTRY_DIGITS + 1)
    ok = "3" * MAX_ENTRY_DIGITS
    rational = {"ring": "Q", "ranks": {"0": "1", "1": "1"}, "differentials": {"1": [[f"1/{long}"]]}}
    assert main(["homology", write(tmp_path, "q.json", rational)]) == 2
    assert "complex.differentials[1] row 0 column 0" in capsys.readouterr().out
    rational["differentials"]["1"] = [[f"-{ok}/{ok[1:]}7"]]
    assert main(["homology", write(tmp_path, "q-ok.json", rational)]) == 0
    capsys.readouterr()
    path = tmp_path / "number.json"
    numbers = [
        ('{"0": 1, "1": 1}', "[[-" + long + "]]", "complex.differentials[1] row 0 column 0"),
        ('{"0": 1, "1": ' + long + "}", '[["0"]]', "complex.ranks[1]"),
    ]
    for ranks, block, place in numbers:
        path.write_text('{"ring": "Z", "ranks": ' + ranks + ', "differentials": {"1": ' + block + "}}", encoding="utf-8")
        assert main(["homology", str(path)]) == 2
        assert f"{place}: {MAX_ENTRY_DIGITS + 1} digits exceed the limit of {MAX_ENTRY_DIGITS}" in capsys.readouterr().out


def test_blocks_of_the_wrong_shape_exit_2_naming_the_block(tmp_path, capsys):
    unit = moore(1)
    tower = constant_tower(unit, 2, Bimodule(ZZ, 1))
    identity = D0Morphism.build(tower, tower, [GradedMap.identity(tower.level(i)) for i in range(3)])
    wide_map = dump_graded_map(GradedMap.identity(unit))
    wide_map["blocks"]["0"] = [["1", "0"]]
    wide_component = dump_d0morphism(identity)
    wide_component["components"][1]["0"] = [["1", "0"]]
    cases = [
        (["homotopy"], wide_map, "map.blocks[0] row 0: expected 1 entries, got 2"),
        (["factor", "--n", "0"], wide_component, "morphism.components[1][0] row 0: expected 1 entries, got 2"),
    ]
    for verb, payload, place in cases:
        path = write(tmp_path, "wrong.json", payload)
        assert main([verb[0], path, *verb[1:], "--json"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "error" and place in report["message"]


def test_tower_level_of_the_wrong_rank_exits_2_naming_the_place(tmp_path, capsys):
    tower = dump_d0complex(constant_tower(moore(1), 2, Bimodule(ZZ, 1)))
    short = json.loads(json.dumps(tower))
    short["levels"][1]["ranks"]["0"] = "2"
    grown = json.loads(json.dumps(tower))
    grown["levels"][2] = dump_complex(
        ChainComplex.build(ZZ, {0: 2, 1: 2}, {1: Matrix.identity(ZZ, 2)})
    )
    cases = [
        (short, "d0complex.levels[1].differentials[1]: expected 2 rows, got 1"),
        (grown, "d0complex.ascents[1][0]: expected 2 rows, got 1"),
    ]
    for payload, place in cases:
        path = write(tmp_path, "tower.json", payload)
        assert main(["bn-local", path]) == 2
        assert place in capsys.readouterr().out
        assert main(["verify", path]) == 2
        assert place in capsys.readouterr().out


def test_moduli_above_the_cap_exit_2(tmp_path, capsys):
    """A prime modulus above 2**64 is refused before any primality test
    runs, by its digit count: a file and a --ring flag alike."""
    huge = "Z/1000000000000000000000000000057"
    path = write(tmp_path, "huge.json", {"ring": huge, "ranks": {"0": "1", "1": "1"}, "differentials": {"1": [["2"]]}})
    assert main(["homology", path]) == 2
    assert "exceeds the limit of 2**64" in capsys.readouterr().out
    assert main(["fuzz", "--ring", huge, "--n", "1"]) == 2
    assert "--ring" in capsys.readouterr().out
    assert main(["fuzz", "--ring", "Z/" + "9" * 5000, "--n", "1", "--json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "error" and "5000 digits" in report["message"]
    assert main(["fuzz", "--ring", f"Z/{2 ** 64 + 1}", "--n", "1"]) == 2
    capsys.readouterr()


def test_homology_over_a_product_of_two_large_primes(tmp_path, capsys):
    """Z/m with m the product of two ten-digit primes: homology answers
    without factoring m."""
    p, q = 1000000007, 1000000009
    payload = {"ring": f"Z/{p * q}", "ranks": {"0": "2", "1": "2"}, "differentials": {"1": [[str(p), "0"], ["0", str(q)]]}}
    path = write(tmp_path, "pq.json", payload)
    assert main(["homology", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    for n in ("0", "1"):
        assert report["homology"][n]["torsion"] == [str(p * q)]


def test_an_local_rejects_a_negative_range_bound(tmp_path, capsys):
    """Like bn-local and classify with a negative cut index, an-local with
    a negative range bound exits 2 instead of passing vacuously."""
    tower = random_reduced_ladder(random.Random(5), ZZ, n_levels=3).complex
    path = write(tmp_path, "ladder.json", dump_d0complex(tower))
    for bound in ("inclusive", "strict"):
        assert main(["an-local", path, "--n", "-7", "--bound", bound, "--json"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "error"
        assert "range bound -7 must be nonnegative" in report["message"]


def test_an_local_on_a_one_level_tower_names_the_strict_bound_in_a_subprocess(tmp_path):
    """A one-level tower has no inclusive range of ascents.  Without --n,
    an-local exits 2 with the level count and --bound strict in its
    message, not with a range bound of -1 that was never passed; on the
    same file --bound strict, bn-local and classify exit 0."""
    tower = random_reduced_ladder(random.Random(5), ZZ, n_levels=0).complex
    assert tower.top_index == 0
    path = write(tmp_path, "one.json", dump_d0complex(tower))
    done = run_child("an-local", path)
    assert done.returncode == 2
    assert done.stdout == "unusable input: a tower with 1 level has no inclusive range; use --bound strict\n"
    assert "Traceback" not in done.stderr
    done = run_child("an-local", path, "--json")
    assert done.returncode == 2
    report = json.loads(done.stdout)
    assert report["verdict"] == "error"
    assert report["message"] == "a tower with 1 level has no inclusive range; use --bound strict"
    for argv in (["an-local", path, "--bound", "strict"], ["bn-local", path], ["classify", path]):
        done = run_child(*argv)
        assert done.returncode == 0, (argv, done.stdout, done.stderr)


def test_fuzz_builds_its_smith_instances_over_the_ring(monkeypatch, capsys):
    """Over Q and a prime field the Smith instances take smith_normal_form's
    field branch; over composite Z/m, which it rejects, they stay over Z."""
    import chainbench.exact_linalg as exact_linalg

    seen = []
    smith = exact_linalg.smith_normal_form

    def recording(a):
        seen.append(str(a.ring))
        return smith(a)

    monkeypatch.setattr(exact_linalg, "smith_normal_form", recording)
    for ring, want in (("Q", "Q"), ("Z/5", "Z/5"), ("Z/4", "Z"), ("Z", "Z")):
        seen.clear()
        assert main(["fuzz", "--seed", "0", "--n", "20", "--ring", ring, "--json"]) == 0, ring
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "pass" and report["instances"]["smith"] == "20"
        assert seen[:20] == [want] * 20, ring


def test_fuzz_over_a_product_of_two_large_primes_finishes_in_a_subprocess():
    """The generator's expected homology pairs cyclic orders by gcd and
    lcm, so it never factors m = 1000000007 * 1000000009."""
    done = run_child("fuzz", "--ring", "Z/1000000016000000063", "--n", "2", "--seed", "0", "--json")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["verdict"] == "pass"


def test_non_ascii_digit_exits_2_naming_the_place_in_a_subprocess(tmp_path):
    """A superscript two passes str.isdigit but not int(); it must be a
    FormatError that names the rank, not a bare ValueError."""
    path = write(tmp_path, "rank.json", {"ring": "Z", "ranks": {"0": "\u00b2"}, "differentials": {}})
    done = run_child("homology", path, "--json")
    assert done.returncode == 2
    report = json.loads(done.stdout)
    assert report["verdict"] == "error"
    assert "complex.ranks[0]: expected an integer in decimal notation" in report["message"]
    assert "Traceback" not in done.stderr


def test_unicode_padded_numbers_exit_2_naming_the_place_in_a_subprocess(tmp_path):
    """An ideographic space around a rank or a rational entry is not
    ASCII padding; it must be a FormatError that names the place."""
    cases = (
        ({"ring": "Z", "ranks": {"0": "　1　"}, "differentials": {}},
         "complex.ranks[0]: expected an integer in decimal notation"),
        ({"ring": "Q", "ranks": {"0": "1", "1": "1"}, "differentials": {"1": [[" 3/4　"]]}},
         "complex.differentials[1] row 0 column 0: expected an integer or 'p/q' string"),
    )
    for i, (payload, place) in enumerate(cases):
        done = run_child("homology", write(tmp_path, f"padded{i}.json", payload), "--json")
        assert done.returncode == 2
        report = json.loads(done.stdout)
        assert report["verdict"] == "error"
        assert place in report["message"]
        assert "Traceback" not in done.stderr


# Runs one verb through cli.main in a fresh interpreter, then prints its
# exit code and the chainbench modules the interpreter has loaded.
_IMPORT_PROBE = """
import contextlib, io, json, sys
from chainbench import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("chainbench."))]))
"""


def test_each_verb_loads_only_its_own_modules(tmp_path):
    """Verbs on a complex never import the diagram, tower, splitting or
    fuzz layers, and orders only for the verbs that use it."""
    complex_path = write(tmp_path, "moore.json", dump_complex(moore(2)))
    loop_path = write(tmp_path, "loop.json", dump_dcomplex(jordan_dcomplex()))
    layers = {"ladder", "diagrams", "splittings", "fuzz"}
    cases = [
        ("homology", complex_path, layers | {"orders"}),
        ("verify", complex_path, layers | {"orders"}),
        ("order", complex_path, layers),
        ("q-acyclic", complex_path, layers),
        ("nilpotency", loop_path, {"ladder"}),
    ]
    env = dict(os.environ)
    src = str(Path(chainbench.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for verb, path, absent in cases:
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, verb, path, "--json"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 0, done.stderr
        code, loaded = json.loads(done.stdout)
        assert code == 0, verb
        assert "chainbench.chains" in loaded
        assert not {f"chainbench.{name}" for name in absent} & set(loaded), (verb, loaded)


def test_huge_entry_exits_2_with_one_short_line_in_a_subprocess(tmp_path):
    """A 1 MB string entry is named by its place and quoted short."""
    path = tmp_path / "entry.json"
    path.write_text(
        json.dumps({"ring": "Z", "ranks": {"0": "1", "1": "1"}, "differentials": {"1": [["x" * 10**6]]}}),
        encoding="utf-8",
    )
    done = run_child("homology", str(path))
    assert done.returncode == 2
    assert done.stdout.count("\n") == 1 and len(done.stdout) < 1024, len(done.stdout)
    assert "complex.differentials[1] row 0 column 0" in done.stdout
    assert "Traceback" not in done.stderr


def _jordan_payload() -> dict:
    return json.loads(dumps(dump_dcomplex(jordan_dcomplex())))


def test_unknown_relation_edge_exits_2_in_a_subprocess(tmp_path):
    payload = _jordan_payload()
    payload["diagram"]["relations"] = [[["nope"], ["x"]]]
    done = run_child("nilpotency", write(tmp_path, "nope.json", payload))
    assert done.returncode == 2, done.stderr
    assert "relation path names unknown edge 'nope'" in done.stdout
    assert "Traceback" not in done.stderr


def test_relations_that_are_not_a_list_exit_2_in_a_subprocess(tmp_path):
    payload = _jordan_payload()
    for bad in (5, {"a": 1}):
        payload["diagram"]["relations"] = bad
        done = run_child("nilpotency", write(tmp_path, "relations.json", payload))
        assert done.returncode == 2, done.stderr
        assert done.stdout == "input error: dcomplex.diagram.relations: expected a list\n"
        assert "Traceback" not in done.stderr


def test_huge_edge_source_exits_2_with_one_short_line_in_a_subprocess(tmp_path):
    payload = _jordan_payload()
    payload["diagram"]["edges"][0]["source"] = "n" * 10**6
    done = run_child("nilpotency", write(tmp_path, "source.json", payload))
    assert done.returncode == 2
    assert done.stdout.count("\n") == 1 and len(done.stdout) < 1024, len(done.stdout)
    assert "touches unknown vertex '" + "n" * 40 + "'" in done.stdout
    assert "Traceback" not in done.stderr


def test_tower_over_a_product_of_two_large_primes_in_a_subprocess(tmp_path):
    """Splittings of this tower take kernels and solves over composite
    Z/m with 60-bit entries, on levels of total ranks up to 61."""
    ring = Zmod(1000000016000000063)
    tower = random_reduced_ladder(
        random.Random(4), ring, n_levels=5, acyclic_levels={1, 2, 3, 4}, degree_span=2
    ).complex
    assert [level.total_rank for level in tower.levels] == [0, 2, 6, 14, 30, 61]
    path = write(tmp_path, "big-modulus.json", dump_d0complex(tower))
    done = run_child("verify", path, timeout=30)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == "valid tower with 6 levels, stabilization index 5\n"
    done = run_child("bn-local", path, timeout=30)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "level 5 is not contractible" in done.stdout
