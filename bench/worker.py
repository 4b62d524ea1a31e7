"""One fresh interpreter of a benchmark run.

Reads a JSON spec on stdin, times `import toridyn` plus building the op
list (the set-up), then runs ops as a closed loop on one thread: each op is
one in-process call to `toridyn.cli.main(argv)` with stdout captured, and
the next op starts when the previous one has returned.  Prints one JSON
object as the last line of its stdout.

After set-up and after each op the worker also has a fixed reference
kernel timed, for at least a tenth of the op's time, so that the parent
can scale its timings to a reference machine speed.  The kernel runs in an
interpreter of its own (bench/reference.py), one at a time with the ops
and on the same CPU.

Spec keys: root (checkout root), workload, trace (wrap the layers),
setup_only.
"""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from spans import Tracer

SETUP_REFERENCE_REPS = 9


def pin_to_one_cpu():
    """Keep this worker, and the reference interpreter it starts, on one
    CPU, so that the reference is timed on the CPU the ops ran on.  Where
    the affinity cannot be set, both are left to the scheduler."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


class Reference:
    """The reference kernel's interpreter, asked for timings on demand."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("reference.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def times(self, min_reps, min_s=0.0):
        self.proc.stdin.write(f"{min_reps} {min_s!r}\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def run_op(main, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an op that crashes is a failed op, not a crashed run
            code = None
            error = traceback.format_exc(limit=-3)
    elapsed = time.perf_counter() - start
    return {"dt": elapsed, "rc": code, "out": out.getvalue(),
            "error": error or (err.getvalue() or None)}


def main():
    spec = json.loads(sys.stdin.read())
    pin_to_one_cpu()
    src = Path(spec["root"]) / "src"
    start = time.perf_counter()
    sys.path.insert(0, str(src))
    import toridyn.cli
    ops = workloads.build_ops(spec["workload"])
    setup_s = time.perf_counter() - start
    if not Path(toridyn.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"toridyn imported from {toridyn.__file__}, not from {src}")
    reference = Reference()
    try:
        result = {"setup_s": setup_s, "ops": [], "trace": None,
                  "reference_s": reference.times(SETUP_REFERENCE_REPS)}
        if not spec.get("setup_only"):
            tracer = Tracer() if spec["trace"] else None
            if tracer is not None:
                tracer.install()
            for index, argv in enumerate(ops):
                if tracer is not None:
                    tracer.op = index
                record = run_op(toridyn.cli.main, argv)
                record["i"] = index
                result["ops"].append(record)
                result["reference_s"] += reference.times(1, record["dt"] / 10)
            if tracer is not None:
                result["trace"] = tracer.reduce()
                tracer.uninstall()
    finally:
        reference.close()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
