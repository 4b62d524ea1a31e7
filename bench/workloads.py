"""The four benchmark workloads as lists of CLI argument vectors.

This module imports nothing from toridyn: the worker times the import of
toridyn together with `build_ops` as the run's set-up.
"""

SWEEP_ORDER = "gaussian"

# Each sweep op is one sample, and a run takes the seeds base ..
# base+samples-1 whatever the run seed.  Windows of other seeds differed by
# up to 15% in samples/s on sweep-d2 (they held 2 to 10 of the costly
# polarized samples in 200) and by 24% on sweep-d3 (five samples of 0.15
# to 6 s each), more than any bound allows.  sweep-d2's seeds are the first
# 200 of acceptance criterion 08's sweep.
SWEEPS = {
    "sweep-d2": {"dim": 2, "iterate": 4, "height": 3, "base": 7, "samples": 200},
    "sweep-d3": {"dim": 3, "iterate": 2, "height": 2, "base": 0, "samples": 5},
}

EXAMPLES = ("mult_2_1", "mult_2_3", "gtz_diag", "shear", "salem_surface",
            "mult_by_i", "e4_auto")
TIGHT_PRECISION = "1/1" + "0" * 30

DYNAMICS = (
    ("torsion", "--example", "gtz_diag", "--level", "31", "--format", "json"),
    ("torsion", "--example", "mult_by_i", "--level", "997", "--format", "json"),
    ("fixed-points", "--example", "gtz_diag", "--iterate", "3",
     "--format", "json"),
    ("orbit", "--example", "gtz_diag", "--sublattice", "diagonal",
     "--format", "json"),
)

NAMES = tuple(SWEEPS) + ("examples", "dynamics")


def sweep_argv(name, sample_seed):
    w = SWEEPS[name]
    return ("sweep", "--count", "1", "--dim", str(w["dim"]),
            "--iterate", str(w["iterate"]), "--height", str(w["height"]),
            "--order", SWEEP_ORDER, "--seed", str(sample_seed),
            "--format", "json")


def examples_ops():
    ops = [("classify", "--example", e, "--format", "json") for e in EXAMPLES]
    ops += [("degrees", "--example", e, "--format", "json",
             "--precision", TIGHT_PRECISION) for e in EXAMPLES]
    return ops


def build_ops(name):
    """The fixed op list of a workload; a run repeats it, one fresh
    interpreter per pass.  The run seed does not change it."""
    if name in SWEEPS:
        w = SWEEPS[name]
        return [sweep_argv(name, w["base"] + i) for i in range(w["samples"])]
    if name == "examples":
        return examples_ops()
    if name == "dynamics":
        return list(DYNAMICS)
    raise ValueError(f"unknown workload {name!r}")
