"""Tests of the benchmark itself: its checkers can fail, its counts repeat.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def first(ops, name_prefix, pred=lambda op: True):
    return next(op for op in ops if op.name.startswith(name_prefix) and pred(op))


def test_homology_checker_rejects_changed_torsion():
    from chainbench.chains import HomologySummary

    ops = workloads.build("homology", SEED)
    op = first(ops, "homology[", lambda op: any(t for _, t in op.expect.values()))
    table = op.call()
    assert op.verify(table)
    n = next(n for n, (_, torsion) in op.expect.items() if torsion)
    s = table[n]
    changed = (s.torsion[0] + 1,) + tuple(s.torsion[1:])
    assert not op.verify({**table, n: HomologySummary(s.betti, changed, s.modulus)})


def test_smith_checker_rejects_changed_diagonal():
    from chainbench.exact_linalg import Matrix

    op = first(workloads.build("homology", SEED), "smith[10]")
    snf = op.call()
    assert op.verify(snf)
    rows = [list(r) for r in snf.d.entries]
    rows[0][0] += 1
    bad = type(snf)(Matrix.from_rows(snf.d.ring, rows), snf.p, snf.q, snf.pinv, snf.qinv)
    assert not op.verify(bad)


def test_contraction_checker_rejects_changed_entry():
    from chainbench.chains import GradedMap
    from chainbench.exact_linalg import Matrix

    ops = workloads.build("contraction", SEED)
    op = first(ops, "find_contraction[Z]", lambda op: op.bucket == 4)
    k = op.call()
    assert op.verify(k)
    n, m = k.blocks[0]
    rows = [list(r) for r in m.entries]
    rows[0][0] += 1
    blocks = {**dict(k.blocks), n: Matrix.from_rows(m.ring, rows)}
    assert not op.verify(GradedMap.build(k.source, k.target, k.degree, blocks))


def test_annihilator_checker_rejects_witness_of_wrong_multiple():
    from chainbench.orders import AnnihilatorReport

    op = first(workloads.build("contraction", SEED), "annihilator_exponent")
    report = op.call()
    assert op.verify(report)
    assert not op.verify(AnnihilatorReport(report.exponent, report.witness.scale(2)))


def test_towers_checker_rejects_flipped_locality_verdict():
    op = first(workloads.build("towers", SEED), "check_bn_local")
    report = op.call()
    assert op.verify(report)
    assert not op.check(report, not op.expect)


def test_cli_checker_rejects_flipped_expected_verdict(tmp_path):
    ops = workloads.build("cli", SEED, str(tmp_path))
    for op in ops[:3]:
        result = workloads.cli_in_process(op.argv)
        assert op.verify(result)
        flipped = {**op.expect, "verdict": "fail" if op.expect["verdict"] == "pass" else "pass"}
        assert not op.check(result, flipped)


def test_a_raising_operation_counts_as_failed():
    def boom():
        raise ValueError("broken")

    op = workloads.Op("boom", boom, lambda result, expect: True)
    lat, failed, _ = run.one_cycle([op, op])
    assert failed == 2 and len(lat) == 2


def test_latencies_are_measured_against_nearby_probes():
    lat = [2.0, 4.0, 6.0, 8.0]
    probes = [1.0, 1.0, 2.0, 2.0]
    assert run.in_probe_units(lat, probes, window=0) == [2.0, 4.0, 3.0, 4.0]
    assert run.in_probe_units(lat, probes, window=1) == [2.0, 4.0, 3.0, 4.0]
    assert run.in_probe_units(lat, probes, window=3) == [4 / 3, 8 / 3, 4.0, 16 / 3]


def test_probe_is_a_fixed_computation():
    from fractions import Fraction

    a = [[Fraction(x) for x in row] for row in run._PROBE_ROWS]
    det = Fraction(1)
    for k in range(len(a)):
        p = next(i for i in range(k, len(a)) if a[i][k])
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    assert det != 0 and run.probe() == det


def test_checks_are_not_traced():
    from chainbench.exact_linalg import ZZ, Matrix

    def check(result, _expect):
        return (Matrix.identity(ZZ, 3) @ result) == result

    op = workloads.Op("identity", lambda: Matrix.identity(ZZ, 3), check)
    _, (lat, failed, wall), tracer = run.traced_cycle([op])
    assert failed == 0
    metrics = tracer.summary(wall)
    assert [span[0] for span in tracer.spans] == ["exact_linalg.Matrix.identity"]
    assert metrics["exact_linalg.matrix_new.calls"][0] == 1
    assert 0 < tracer.paused_s < wall


def manifest_names(key):
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}


def cheap(ops):
    return [op for op in ops if (op.bucket or 0) <= 8 and "[40]" not in op.name][:12]


def test_untraced_result_holds_every_end_to_end_metric():
    ops = cheap(workloads.build("towers", SEED))
    metrics, attempted, failed, _ = run.end_to_end("towers", ops, 0.0, 1.0)
    assert set(metrics) == manifest_names("end_to_end")
    assert failed == 0 and attempted >= run.MIN_OPS


@pytest.mark.parametrize("workload", ["homology", "contraction", "towers"])
def test_traced_result_holds_every_per_layer_metric(workload):
    ops = cheap(workloads.build(workload, SEED))
    metrics, _, failed, _ = run.per_layer(workload, SEED, ops, 0.0)
    assert set(metrics) == manifest_names("per_layer")
    assert failed == 0


# A short traced pass in a fresh interpreter: the operations of one
# workload cycle that are cheap enough for a test, then every count metric.
COUNTS_SCRIPT = """
import json, sys, tempfile
sys.path[:0] = [{src!r}, {bench!r}]
import run, workloads
workload = {workload!r}
with tempfile.TemporaryDirectory(dir={bench!r}) as tmp:
    ops = workloads.build(workload, {seed}, tmp)
    ops = [op for op in ops if (op.bucket or 0) <= 8 and "[40]" not in op.name][:24]
    _, (lat, failed, wall), tracer = run.traced_cycle(
        ops, run.in_process if workload == "cli" else None
    )
metrics = tracer.summary(wall)
print(json.dumps({{k: v for k, (v, unit) in metrics.items() if unit != "s" and not k.endswith("share")}}))
"""


def traced_counts(workload, hash_seed):
    code = COUNTS_SCRIPT.format(
        src=str(ROOT / "src"), bench=str(BENCH), workload=workload, seed=SEED
    )
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly_across_processes(workload):
    a = traced_counts(workload, 1)
    b = traced_counts(workload, 2)
    assert a == b
    assert a["exact_linalg.matrix_new.calls"] > 0 and a["exact_linalg.normalize.calls"] > 0


def test_exits_without_a_result_when_the_library_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", ".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
