"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q bench/test_bench.py

The smoke runs take about four minutes on two cores.
"""

import contextlib
import copy
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
import toridyn.cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = toridyn.cli.main(list(argv))  # looked up per call: tracing patches it
    return code, out.getvalue()


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run_reports_every_metric(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.fixture(scope="module")
def golden():
    return checks.load_golden()


def _op(code, out):
    return {"rc": code, "out": out, "error": None}


def test_corrupted_golden_value_fails_the_op(golden):
    argv = ("classify", "--example", "mult_2_3", "--format", "json")
    op = _op(*cli(*argv))
    assert checks.Checker("examples", golden).check(argv, op) is None
    bad = copy.deepcopy(golden)
    bad["examples"]["classify"]["mult_2_3"]["lefschetz"] += 1
    assert "lefschetz" in checks.Checker("examples", bad).check(argv, op)


def test_corrupted_golden_cell_fails_the_sweep_op(golden):
    argv = workloads.sweep_argv("sweep-d2", 7)
    op = _op(*cli(*argv))
    assert checks.Checker("sweep-d2", golden).check(argv, op) is None
    bad = copy.deepcopy(golden)
    gold = bad["sweep-d2"]
    gold["cells"].append("no / no / has-unity / finite")
    gold["index"][0] = len(gold["cells"]) - 1
    assert "golden" in checks.Checker("sweep-d2", bad).check(argv, op)


def test_inconclusive_golden_accepts_a_decisive_verdict_only_with_the_chain(golden):
    argv = ("classify", "--example", "e4_auto", "--format", "json")
    code, out = cli(*argv)
    doc = json.loads(out)
    assert doc["amplified"] == "inconclusive"
    checker = checks.Checker("examples", golden)
    assert checker.check(argv, _op(code, json.dumps({**doc, "amplified": "no"}))) is None
    # e4_auto is unity-free, so "no" breaks nothing but "yes" with
    # unity_free false would break amplified => unity-free
    broken = {**doc, "amplified": "yes", "unity_free": False}
    assert checker.check(argv, _op(code, json.dumps(broken))) is not None


def test_witness_and_enclosures_are_verified_not_compared(golden):
    argv = ("classify", "--example", "gtz_diag", "--format", "json")
    code, out = cli(*argv)
    doc = json.loads(out)
    assert doc["polarized"] == "yes"
    checker = checks.Checker("examples", golden)
    # another ample witness and tighter enclosures are right too
    _, tight = cli("degrees", "--example", "gtz_diag", "--format", "json",
                   "--precision", workloads.TIGHT_PRECISION)
    other = {**doc, "polarized_witness": [str(2 * int(x)) for x in doc["polarized_witness"]],
             "dynamical_degrees": json.loads(tight)["dynamical_degrees"]}
    assert checker.check(argv, _op(code, json.dumps(other))) is None
    negated = {**doc, "polarized_witness": [str(-int(x)) for x in doc["polarized_witness"]]}
    assert "not ample" in checker.check(argv, _op(code, json.dumps(negated)))
    wrong_q = {**doc, "polarized_q": doc["polarized_q"] + 1}
    assert "|det M|" in checker.check(argv, _op(code, json.dumps(wrong_q)))
    lo, hi = doc["dynamical_degrees"][1]
    wide = {**doc, "dynamical_degrees": [doc["dynamical_degrees"][0],
                                         [str(Fraction(lo) - Fraction(1, 10**6)), hi],
                                         doc["dynamical_degrees"][2]]}
    assert "wide" in checker.check(argv, _op(code, json.dumps(wide)))


def test_nonzero_exit_fails_the_op(golden):
    argv = workloads.sweep_argv("sweep-d2", 7)
    assert "exit code 1" in checks.Checker("sweep-d2", golden).check(
        argv, {"rc": 1, "out": "", "error": "boom"})


def test_wrappers_leave_cli_stdout_unchanged():
    commands = [
        ("classify", "--example", "gtz_diag", "--format", "json"),
        ("classify", "--example", "shear"),
        ("degrees", "--example", "salem_surface", "--format", "json"),
        workloads.sweep_argv("sweep-d2", 11),
        ("torsion", "--example", "mult_2_1", "--level", "3", "--format", "json"),
        ("fixed-points", "--example", "mult_2_3", "--format", "json"),
        ("quotient", "--example", "shear", "--sublattice", "first_factor"),
        ("orbit", "--example", "gtz_diag", "--sublattice", "diagonal"),
    ]
    plain = [cli(*argv) for argv in commands]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [cli(*argv) for argv in commands]
    finally:
        tracer.uninstall()
    assert traced == plain
    reduced = tracer.reduce()
    assert reduced["absent"] == []
    assert reduced["calls"]["cli.main"] == len(commands)
    assert reduced["calls"]["matlin.det"] > 0
    assert reduced["counts"]["dynamics.torsion_dynamics.nodes"] == 3 ** 4
    assert [cli(*argv) for argv in commands] == plain


def test_times_are_scaled_to_the_reference_speed():
    import run
    from reference import REFERENCE_S
    op = {"i": 0, "dt": 0.2, "failure": None}
    slow = {"ops": [op], "setup_s": 0.4, "reference_s": [2 * REFERENCE_S] * 3,
            "peak_rss_mb": 50.0}
    metrics = run.end_to_end([op], [slow], [])
    scale = 0.5 ** run.ELASTICITY  # the machine ran at half the reference speed
    assert metrics["op_ms.geomean"][0] == pytest.approx(200.0 * scale)
    assert metrics["ops_per_s"][0] == pytest.approx(5.0 / scale)
    assert metrics["setup_s"][0] == pytest.approx(0.4 * scale)
    assert metrics["peak_rss_mb"][0] == 50.0


def test_op_geomean_takes_each_ops_median_over_the_passes():
    import run
    from reference import REFERENCE_S
    times = {0: [0.2, 0.2, 0.9], 1: [1.0, 1.0, 1.0], 2: [0.1]}
    ops = [{"i": i, "dt": t, "failure": None} for i, ts in times.items() for t in ts]
    worker = {"ops": ops, "setup_s": 0.4, "reference_s": [REFERENCE_S],
              "peak_rss_mb": 50.0}
    # per-op medians 0.2, 1.0 and 0.1 s
    assert run.end_to_end(ops, [worker], [])["op_ms.geomean"][0] == pytest.approx(
        0.02 ** (1 / 3) * 1e3)
