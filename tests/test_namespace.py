"""The public names of the toridyn package, the names that the
benchmark's tracer looks up in it, and the texts and tests that the
mutant list of tests/mutants.py names."""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import toridyn

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"
MUTANTS = ROOT / "tests" / "mutants.py"

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


def _assigned_literal(path: Path, name: str):
    """The literal value assigned to `name` at the top level of a source
    file, read without importing it."""
    tree = ast.parse(path.read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name])


def test_bench_span_targets_resolve():
    # a renamed or deleted function would orphan its per-layer metric in
    # silence; the targets are read from the source, bench/ is not imported
    targets = _assigned_literal(SPANS, "TARGETS")
    unresolved = set()
    for module, path, _ in targets:
        owner = importlib.import_module("toridyn." + module)
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if owner is None:
            unresolved.add((module, path))
    assert len(targets) > len(STALE_SPAN_TARGETS)
    assert unresolved <= STALE_SPAN_TARGETS


def test_mutant_list_is_not_stale():
    # a mutant whose old text moved, or whose test was renamed, shows only
    # when tests/mutants.py is run; its texts and test ids are checked here
    mutants = _assigned_literal(MUTANTS, "MUTANTS")
    assert mutants
    for path, old, new, test in mutants:
        assert old != new
        assert (ROOT / path).read_text().count(old) == 1, (path, old)
        test_file, test_name = test.split("::")
        tree = ast.parse((ROOT / test_file).read_text())
        names = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert test_name.split("[")[0] in names, test
