"""The public names of the toridyn package, and the names that the
benchmark's tracer looks up in it."""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import toridyn

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

PUBLIC_NAMES = [
    "AmplifiedVerdict", "CMOrder", "CertifiedMagnitudeMultiset",
    "ClassificationReport", "ComplexStructureError", "ComplexTorus",
    "DEFAULT_PRECISION", "DegreeData", "DomainError", "EigenData",
    "FixedPointSet", "IntPolynomial", "InvarianceViolation",
    "InvariantViolation", "MagnitudeEntry", "NeronSeveriSpace",
    "NotHolomorphicError", "NotSubtorusError", "NotSurjectiveError",
    "ParseError", "PolarizedVerdict", "RationalMatrix", "ResourceError",
    "Scenario", "SmithDecomposition", "Sublattice", "Subtorus", "ToridynError",
    "TorsionOrbitGraph", "TorusEndomorphism", "amplified", "analytic_charpoly",
    "canonical_ample_class", "chain_violations", "charpoly", "cm_matrix_endo",
    "cm_power_torus", "cyclotomic_poly", "cyclotomic_root_count",
    "dynamical_degrees", "eigen_data", "eigen_split", "eisenstein_order",
    "elliptic_curve", "exterior_basis", "exterior_power", "finite_order",
    "fixed_points", "fixed_subtorus", "form_to_ns_vector", "full_report",
    "gauss_poly_conj", "gauss_poly_mul", "gaussian_order", "get_example",
    "h1_magnitudes", "is_ample", "iterate", "lefschetz_number",
    "make_endo", "make_subtorus", "make_torus", "minimal_unity_iterate",
    "named_examples", "neron_severi", "ns_action", "ns_charpoly",
    "ns_vector_to_form", "order_by_name", "periodic_count",
    "polarization_q_candidate", "polarized", "polynomial_class", "product",
    "quadratic_order", "random_endo", "restrict_and_quotient",
    "root_magnitudes", "saturate", "serre_test", "smith_form",
    "subtorus_orbit", "torsion_dynamics", "unit_circle_root_count",
    "unity_free", "verify_iterates",
]


def test_public_names_are_pinned():
    # submodules are left out: which of them are attributes of the package
    # depends on what the process imported before
    names = sorted(n for n in dir(toridyn) if not n.startswith("_")
                   and not isinstance(getattr(toridyn, n), ModuleType))
    assert names == PUBLIC_NAMES


# span targets of bench/spans.py that name functions since deleted from
# toridyn; their per-layer metrics read 0 until the benchmark drops them
STALE_SPAN_TARGETS = {("exactnum", "gaussian_root_magnitudes"),
                      ("matlin", "RationalMatrix.rref"),
                      ("matlin", "RationalMatrix.solve_exact"),
                      ("matlin", "RationalMatrix.kernel_basis")}


def test_bench_span_targets_resolve():
    # a renamed or deleted function would orphan its per-layer metric in
    # silence; the targets are read from the source, bench/ is not imported
    tree = ast.parse(SPANS.read_text())
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"])
    unresolved = set()
    for module, path, _ in targets:
        owner = importlib.import_module("toridyn." + module)
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if owner is None:
            unresolved.add((module, path))
    assert len(targets) > len(STALE_SPAN_TARGETS)
    assert unresolved <= STALE_SPAN_TARGETS
