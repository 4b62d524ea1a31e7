"""Outside-in tracing: wrap public toridyn functions and methods from the
benchmark's own code, record one span per call, and reduce the spans to
per-layer call counts and self times when the run ends.

A wrapped name is replaced in its defining module (or class) and in every
loaded `toridyn` module that imported it by name, so calls through
`from .x import f` are traced too.  Nothing under `src/` changes.
"""

import functools
import sys
import time

# (module, attribute path, recorded name).  A dotted attribute path is a
# method looked up on the class.
TARGETS = (
    ("matlin", "RationalMatrix.det", "matlin.det"),
    ("matlin", "RationalMatrix.__pow__", "matlin.pow"),
    ("matlin", "RationalMatrix.kernel_basis", "matlin.kernel_basis"),
    ("matlin", "RationalMatrix.solve_exact", "matlin.solve_exact"),
    ("matlin", "RationalMatrix.rref", "matlin.rref"),
    ("matlin", "charpoly", "matlin.charpoly"),
    ("matlin", "exterior_power", "matlin.exterior_power"),
    ("matlin", "smith_form", "matlin.smith_form"),
    ("matlin", "saturate", "matlin.saturate"),
    ("exactnum", "root_magnitudes", "exactnum.root_magnitudes"),
    ("exactnum", "gaussian_root_magnitudes", "exactnum.gaussian_root_magnitudes"),
    ("exactnum", "cyclotomic_root_count", "exactnum.cyclotomic_root_count"),
    ("exactnum", "unit_circle_root_count", "exactnum.unit_circle_root_count"),
    ("exactnum", "polynomial_class", "exactnum.polynomial_class"),
    ("torus", "make_torus", "torus.make_torus"),
    ("torus", "neron_severi", "torus.neron_severi"),
    ("torus", "is_ample", "torus.is_ample"),
    ("torus", "canonical_ample_class", "torus.canonical_ample_class"),
    ("endo", "make_endo", "endo.make_endo"),
    ("endo", "eigen_data", "endo.eigen_data"),
    ("endo", "analytic_charpoly", "endo.analytic_charpoly"),
    ("endo", "iterate", "endo.iterate"),
    ("endo", "unity_free", "endo.unity_free"),
    ("endo", "fixed_subtorus", "endo.fixed_subtorus"),
    ("classify", "full_report", "classify.full_report"),
    ("classify", "verify_iterates", "classify.verify_iterates"),
    ("classify", "amplified", "classify.amplified"),
    ("classify", "polarized", "classify.polarized"),
    ("classify", "ns_action", "classify.ns_action"),
    ("classify", "finite_order", "classify.finite_order"),
    ("classify", "dynamical_degrees", "classify.dynamical_degrees"),
    ("classify", "h1_magnitudes", "classify.h1_magnitudes"),
    ("classify", "serre_test", "classify.serre_test"),
    ("dynamics", "torsion_dynamics", "dynamics.torsion_dynamics"),
    ("dynamics", "fixed_points", "dynamics.fixed_points"),
    ("dynamics", "lefschetz_number", "dynamics.lefschetz_number"),
    ("dynamics", "subtorus_orbit", "dynamics.subtorus_orbit"),
    ("scenarios", "random_endo", "scenarios.random_endo"),
    ("scenarios", "cm_matrix_endo", "scenarios.cm_matrix_endo"),
    ("scenarios", "named_examples", "scenarios.named_examples"),
    ("cli", "main", "cli.main"),
)

SPAN_NAMES = tuple(t[2] for t in TARGETS)

# lru_cache'd functions whose public cache_info() gives a hit ratio
CACHED = (("endo", "eigen_data", "endo.eigen_data.hit_ratio"),
          ("torus", "neron_severi", "torus.neron_severi.hit_ratio"))

ROOT = "cli.main"


# Counters read from results: span name -> (counter name, value of a result)
COUNTERS = {
    "classify.amplified": ("classify.amplified.decided",
                           lambda verdict: verdict.verdict != "inconclusive"),
    "classify.polarized": ("classify.polarized.decided",
                           lambda verdict: verdict.verdict != "inconclusive"),
    "dynamics.torsion_dynamics": ("dynamics.torsion_dynamics.nodes",
                                  lambda graph: graph.node_count),
    "dynamics.fixed_points": ("dynamics.fixed_points.points",
                              lambda fps: fps.count() or 0),
}


class Tracer:
    """Records (name, start_ns, end_ns, parent index, op id) per wrapped
    call in memory; `reduce` turns them into per-name totals."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self.counts = {key: 0 for key, _ in COUNTERS.values()}
        self.absent = []
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counter, value = COUNTERS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if counter is not None:
                self.counts[counter] += value(result)
            return result

        return traced

    def install(self):
        """Wrap every target that exists; record the missing ones."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "toridyn" or n.startswith("toridyn.")]
        for module_name, path, name in TARGETS:
            module = sys.modules.get("toridyn." + module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = (owner.__dict__.get(attr) if isinstance(owner, type)
                        else getattr(owner, attr, None))
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def reduce(self):
        """Per-name call counts and self times, root span total, counters
        and cache hit ratios, as plain numbers."""
        spans = [s for s in self.spans if s is not None]
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_ns = dict.fromkeys(SPAN_NAMES, 0)
        root_ns = 0
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, parent, _ = span
            calls[name] += 1
            self_ns[name] += end - start - child_ns[index]
            if parent < 0 and name == ROOT:
                root_ns += end - start
        caches = {}
        for module_name, attr, key in CACHED:
            info = _cache_info(getattr(sys.modules.get("toridyn." + module_name),
                                       attr, None))
            caches[key] = [info.hits, info.misses] if info else [0, 0]
        return {"calls": calls,
                "self_s": {k: v / 1e9 for k, v in self_ns.items()},
                "root_s": root_ns / 1e9,
                "counts": dict(self.counts),
                "caches": caches,
                "absent": list(self.absent)}


def _cache_info(fn):
    """cache_info() of the lru_cache under any wrappers, or None."""
    while fn is not None and not hasattr(fn, "cache_info"):
        fn = getattr(fn, "__wrapped__", None)
    return fn.cache_info() if fn is not None else None
