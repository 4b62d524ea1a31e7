"""Record bench/golden.json from the program at the current commit.

    python3 bench/make_golden.py

Every workload is recorded (sweep-d2 takes several minutes) and the file
is written fresh, so its single `commit` field names the commit that
produced all of it.  The golden values are the program's own outputs:
commit them only from a commit whose outputs are trusted, and never from
a change that claims a speed-up.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import workloads
from checks import GOLDEN
from worker import run_op

ROOT = Path(__file__).resolve().parent.parent


def record(name):
    import toridyn.cli
    docs = []
    for argv in workloads.build_ops(name):
        op = run_op(toridyn.cli.main, argv)
        if op["rc"] != 0:
            raise SystemExit(f"{' '.join(argv)} exited {op['rc']}: {op['error']}")
        docs.append((argv, json.loads(op["out"])))
    if name in workloads.SWEEPS:
        # build_ops lists the seeds base, base+1, ...: position = seed - base
        cells = [next(iter(doc["cells"])) for _, doc in docs]
        table = sorted(set(cells))
        return {"base": workloads.SWEEPS[name]["base"], "cells": table,
                "index": [table.index(c) for c in cells]}
    if name == "examples":
        out = {"classify": {}, "degrees": {}}
        for argv, doc in docs:
            out[argv[0]][argv[argv.index("--example") + 1]] = doc
        return out
    out = {}
    for argv, doc in docs:
        if argv[0] == "fixed-points":
            doc = {"kind": doc["kind"], "count": doc["count"], "iterate": doc["iterate"]}
        out[" ".join(argv)] = doc
    return out


def main():
    sys.path.insert(0, str(ROOT / "src"))
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    golden = {"commit": commit}
    for name in workloads.NAMES:
        start = time.perf_counter()
        golden[name] = record(name)
        print(f"{name}: recorded in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    GOLDEN.write_text(json.dumps(golden, sort_keys=True, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
