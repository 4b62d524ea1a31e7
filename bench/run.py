"""toridyn benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload sweep-d2 --seed 0 --seconds 20 --trace 0

The load is one closed loop on one thread: each op is one in-process call
to `toridyn.cli.main(argv)` in a worker interpreter (bench/worker.py), and
the next op starts when the previous one has returned.  A run repeats the
workload's fixed op list, one fresh interpreter per pass, while the next
pass should end within `--seconds`.  Every op's output is checked after
the workers have exited.

With --trace 0 the result holds the end-to-end metrics; with --trace 1 the
layers are wrapped from outside (bench/spans.py) and the result holds the
per-layer metrics.  The line before the result is a run record: machine,
seeds, sample counts and the workload's own named figures.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
import workloads
from reference import REFERENCE_S
from spans import CACHED, SPAN_NAMES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_LIMIT_S = 170        # a run must end within 180 s
SETUP_SAMPLES = 5        # setup_s is the median of this many interpreters
# How far op times follow the reference kernel's: the slope of log op time
# on log kernel time, with the two interleaved for 12 minutes on each kind
# of op (0.47 to 0.86, median 0.6).  Scaling by the full speed (1) over-
# corrected in the host's fast phases, where the small kernel sped up
# about twice as much as the ops.
ELASTICITY = 0.6


class BenchError(Exception):
    """The run could not be measured; no result is printed."""


def run_worker(spec, deadline):
    """Run one worker interpreter to completion and return its result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run exceeded its time limit")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")],
            input=json.dumps({"root": str(ROOT), **spec}),
            capture_output=True, text=True, timeout=remaining, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the run's time limit") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload, seconds, trace, deadline):
    """Passes over the op list, each in a fresh worker, while the next pass
    should end within `seconds` (at least one); then workers that only set
    up, so that setup_s is a median of SETUP_SAMPLES."""
    base = {"workload": workload, "trace": trace}
    workers = []
    start = time.monotonic()
    while True:
        pass_start = time.monotonic()
        workers.append(run_worker(base, deadline))
        now = time.monotonic()
        if now - start + (now - pass_start) > seconds:
            break
    probes = [run_worker({**base, "setup_only": True}, deadline)
              for _ in range(SETUP_SAMPLES - len(workers))]
    return workers, probes


def speed(workers):
    """The machine's speed during the run, relative to the reference: the
    reference kernel's nominal time over its median time in the run."""
    return REFERENCE_S / statistics.median(t for w in workers for t in w["reference_s"])


def replay(workload, traced, deadline):
    """Re-run a traced run's first pass untraced, in a fresh interpreter.
    Returns the overhead ratio (traced over untraced op time) and the
    traced ops whose stdout differs from the untraced one."""
    plain = run_worker({"workload": workload, "trace": False}, deadline)
    mismatched = [a for a, b in zip(traced["ops"], plain["ops"]) if a["out"] != b["out"]]
    return (sum(op["dt"] for op in traced["ops"])
            / sum(op["dt"] for op in plain["ops"])), mismatched


def machine_block(workload, seed):
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": platform.python_version(), "sympy": version("sympy"),
            "mpmath": version("mpmath"), "numpy": version("numpy"),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "loadavg": list(os.getloadavg()), "commit": commit,
            "workload": workload, "seed": seed}


def named_figures(workload, ops, workers):
    """The workload's own figures, by the names the benchmark doc uses."""
    passed = [op for op in ops if not op["failure"]]
    times = [op["dt"] for op in ops]
    fig = {"ops": len(ops), "passes": len(workers),
           "failed_ratio": 1 - len(passed) / len(ops),
           "wall_s": statistics.median(sum(op["dt"] for op in w["ops"])
                                       for w in workers)}
    if workload in workloads.SWEEPS:
        fig["samples_per_s"] = len(passed) / sum(times)
        fig["sample_ms.p50"] = statistics.median(times) * 1e3
        if len(times) >= 100:
            fig["sample_ms.p90"] = statistics.quantiles(times, n=10)[-1] * 1e3
        fig["sample_seeds"] = [_seed_of(ops[0]), _seed_of(ops[-1])]
        return fig
    if workload == "examples":
        fig["report_ms.p50"] = statistics.median(times) * 1e3
        return fig
    torsion = [op for op in passed if op["argv"][0] == "torsion"]
    fixed = [op for op in passed if op["argv"][0] == "fixed-points"]
    if torsion:
        fig["torsion_nodes_per_s"] = (sum(json.loads(op["out"])["node_count"]
                                          for op in torsion)
                                      / sum(op["dt"] for op in torsion))
    if fixed:
        fig["fixed_points_per_s"] = (sum(json.loads(op["out"])["count"]
                                         for op in fixed)
                                     / sum(op["dt"] for op in fixed))
    return fig


def _seed_of(op):
    return int(op["argv"][op["argv"].index("--seed") + 1])


def end_to_end(ops, workers, probes):
    """The BENCHMARK.json metrics.  Times are scaled to the reference speed
    by the run's `speed` to the power ELASTICITY, which cancels most of the
    machine's slow and fast phases; the unscaled figures are in the run
    record."""
    scale = speed(workers + probes) ** ELASTICITY
    passed = sum(not op["failure"] for op in ops)
    times = [op["dt"] * scale for op in ops]
    # The geometric mean over the op list of each op's median over the
    # passes.  It weighs every op alike, as a median does, but it averages
    # their noise: on examples the 14 op times form two clusters of 7, and
    # a median there is set by the one op on either side of the gap.
    per_op = {}
    for op, t in zip(ops, times):
        per_op.setdefault(op["i"], []).append(t)
    setups = [w["setup_s"] * scale for w in workers + probes]
    return {"setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (passed / sum(times), "1/s"),
            "op_ms.geomean": (statistics.geometric_mean(
                map(statistics.median, per_op.values())) * 1e3, "ms"),
            "peak_rss_mb": (statistics.median(w["peak_rss_mb"] for w in workers), "MiB")}


def per_layer(ops, workers, overhead):
    def ratio(a, b):
        return a / b if b else 0.0

    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    counts, caches, root_s = {}, {}, 0.0
    for w in workers:
        t = w["trace"]
        for name in SPAN_NAMES:
            calls[name] += t["calls"][name]
            self_s[name] += t["self_s"][name]
        for key, value in t["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for key, (hits, misses) in t["caches"].items():
            old = caches.get(key, (0, 0))
            caches[key] = (old[0] + hits, old[1] + misses)
        root_s += t["root_s"]
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    for _, _, key in CACHED:
        hits, misses = caches.get(key, (0, 0))
        out[key] = (ratio(hits, hits + misses), "1")
    out["scenarios.random_endo.accept_ratio"] = (
        ratio(calls["scenarios.random_endo"], calls["scenarios.cm_matrix_endo"]), "1")
    for name in ("classify.amplified", "classify.polarized"):
        out[f"{name}.decided_ratio"] = (ratio(counts[f"{name}.decided"], calls[name]), "1")
    out["dynamics.torsion_dynamics.nodes"] = (counts["dynamics.torsion_dynamics.nodes"], "count")
    out["dynamics.fixed_points.points"] = (counts["dynamics.fixed_points.points"], "count")
    out["trace.root_coverage"] = (ratio(root_s, sum(op["dt"] for op in ops)), "1")
    out["trace.overhead_ratio"] = (overhead, "1")
    out["bench.failed_ratio"] = (ratio(sum(bool(op["failure"]) for op in ops), len(ops)), "1")
    return out


def run(args):
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "toridyn" / "__init__.py").is_file():
        raise BenchError(f"no toridyn sources under {ROOT / 'src'}")
    record = {"machine": machine_block(args.workload, args.seed),
              "seconds": args.seconds, "trace": args.trace}
    trace = args.trace == 1
    workers, probes = measure(args.workload, args.seconds, trace, deadline)
    all_ops = workloads.build_ops(args.workload)
    ops = []
    for w in workers:
        for op in w["ops"]:
            op["argv"] = all_ops[op["i"]]
            ops.append(op)
    if not ops:
        raise BenchError("the run made no op")
    mismatched, overhead = [], 0.0
    if trace:
        overhead, mismatched = replay(args.workload, workers[0], deadline)
        record["absent"] = workers[0]["trace"]["absent"]

    sys.path.insert(0, str(ROOT / "src"))
    checker = checks.Checker(args.workload, checks.load_golden())
    for op in ops:
        op["failure"] = checker.check(op["argv"], op)
    for op in mismatched:
        op["failure"] = op["failure"] or "traced stdout differs from the untraced replay"
    failures = [f"op {op['i']} {' '.join(op['argv'])}: {op['failure']}"
                for op in ops if op["failure"]]
    record["figures"] = named_figures(args.workload, ops, workers)
    record["setup_samples"] = [w["setup_s"] for w in workers + probes]
    record["speed"] = speed(workers + probes)
    record["failures"] = failures[:20]
    metrics = (per_layer(ops, workers, overhead) if trace
               else end_to_end(ops, workers, probes))
    result = {"correct": not failures, "attempted": len(ops), "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps({"record": record}))
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True,
                        help="recorded in the run record; the op lists are fixed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
