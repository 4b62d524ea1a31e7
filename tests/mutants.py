"""A committed mutant list: each entry breaks one deciding line of src/
and names the test that must then fail.

Every test is first run on an unmutated temporary copy of src/ and
tests/, where it must pass.  Then each mutant is applied to a fresh
temporary copy, never to the working tree, and its test is run there with
`pytest -q -x -p no:cacheprovider <test id>`.  A mutant whose test still
passes survives.  Run from anywhere, with the test extra installed:

    python3 tests/mutants.py

The exit code is 0 when every mutant is killed and 1 otherwise (a
survivor, an old text that does not occur exactly once, a test that does
not pass on the unmutated copy, or a test run that ends in an error
rather than a failure).  pytest does not collect this file, so it is not
part of the tier-1 suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file, old text, new text, test id that must fail)
MUTANTS = [
    # the Graeffe step loses its sign: h1(x)^2 instead of h1(x) h1(-x)
    ("src/toridyn/classify.py",
     "IntPolynomial((-1) ** j * c for j, c in enumerate(h1.coeffs))",
     "IntPolynomial(c for j, c in enumerate(h1.coeffs))",
     "tests/test_classify.py::test_serre_test_reads_no_magnitudes"),
    # some, instead of all, roots of g of modulus q
    ("src/toridyn/classify.py",
     "_modulus_root_count(g, Fraction(q)) == g.degree",
     "_modulus_root_count(g, Fraction(q)) >= 1",
     "tests/test_classify.py::test_serre_rejects_moduli_that_differ_on_e3"),
    # a q <= 0 is not rejected before the count
    ("src/toridyn/classify.py",
     "return q > 0 and _modulus_root_count",
     "return _modulus_root_count",
     "tests/test_classify.py::test_serre_rejects_a_q_that_is_not_positive"),
    # the sign of B flipped in the frame P^-1 M P = [[A, -B], [B, A]]
    ("src/toridyn/endo.py",
     "return d * dm, y[:len(idx)], y[len(idx):]",
     "return d * dm, y[:len(idx)], [[-x for x in row] for row in y[len(idx):]]",
     "tests/test_endo.py::test_analytic_charpoly_multiplication_by_i"),
    # tau_k = tau_(k-1) + tau, that is k tau, instead of M tau_(k-1) + tau
    ("src/toridyn/endo.py",
     "tuple(_quotient(row[size] % q, q) for row in power)",
     "tuple(_quotient(k * int(q * t) % q, q) for t in f.tau)",
     "tests/test_endo.py::test_iterate_matrix_power"),
    # the modulus count dropped from the snap rule of root magnitudes
    ("src/toridyn/exactnum.py",
     "held.count(r) != on_modulus[r] for r in candidates",
     "False for r in candidates",
     "tests/test_exactnum.py::test_rational_roots_are_exact_points"),
    # -E instead of -2E in the hyperbolic witness
    ("src/toridyn/classify.py",
     "form = ((fwd.transpose() * e * fwd - e * 2) * scale",
     "form = ((fwd.transpose() * e * fwd - e) * scale",
     "tests/test_classify.py::test_amplified_hyperbolic_witness[quadratic(-2)-2-1-6]"),
    # the factor degrees searched only below d: an irreducible charpoly is
    # lost, and with it the torsion order bound, which then never closes
    ("src/toridyn/dynamics.py",
     "for j in range(1, d + 1):",
     "for j in range(1, d):",
     "tests/test_dynamics.py::test_factor_degrees_on_fixed_matrices[irreducible-quadratic]"),
    # ker M counted as the kernel of a nonzero root in F_p
    ("src/toridyn/dynamics.py",
     "kernel // (base * prod(",
     "kernel // (prod(",
     "tests/test_dynamics.py::test_factor_degrees_on_fixed_matrices[zero-plus-quadratic]"),
    # Phi_2 tested by the root 1 instead of -1: after Phi_1, x + 1 is lost
    ("src/toridyn/exactnum.py",
     "remaining(3 - 2 * n) == 0",
     "remaining(1) == 0",
     "tests/test_exactnum.py::test_cyclotomic_root_count_on_fixed_polynomials[x+1-times-x-2]"),
    # the half-power split one past ceil(n/2): the traces stay right, but
    # an even n builds one matrix power too many
    ("src/toridyn/matlin.py",
     "n, h = len(a), (len(a) + 1) // 2",
     "n, h = len(a), (len(a) + 2) // 2",
     "tests/test_matlin.py::test_trace_powers_builds_half_the_powers[4]"),
    # the Smith column swap skips the V rows of the grid: U A V = D fails
    ("src/toridyn/matlin.py",
     "for row in grid:\n            row[t], row[j] = row[j], row[t]",
     "for row in grid[:rows]:\n            row[t], row[j] = row[j], row[t]",
     "tests/test_matlin.py::test_smith_form_decomposition"),
    # the Smith pivot is the last, not the first, entry of least |value|:
    # the form stays valid, but V, and so each coset transversal, moves
    ("src/toridyn/matlin.py",
     "abs(x) < least",
     "abs(x) <= least",
     "tests/test_cli.py::test_coset_family_transversals_are_pinned"),
    # x - 3 stripped instead of x - 2: p(2) stays 0, and every Phi_n is built
    ("src/toridyn/exactnum.py",
     "_strip_root(remaining, 2)",
     "_strip_root(remaining, 3)",
     "tests/test_exactnum.py::test_a_root_at_2_builds_no_cyclotomic"),
    # h1 = Gamma conj(Gamma) read on the power sums without its factor 2
    ("src/toridyn/endo.py",
     "p != 2 * re for p",
     "p != re for p",
     "tests/test_endo.py::test_h1_is_analytic_times_conjugate"),
    # the NS slice one stride too long: p_(k+1), p_(2k+2), ... for p_k, p_2k
    ("src/toridyn/classify.py",
     "gamma_sums[:n * n * k + 1:k]",
     "gamma_sums[:n * n * k + 1:k + 1]",
     "tests/test_classify.py::test_ns_charpoly_is_the_charpoly_of_the_ns_action"),
    # x^n + 1 for x^n - 1 in the Phi_n recursion: every value is wrong
    ("src/toridyn/exactnum.py",
     "(x**n - 1) // math.prod(",
     "(x**n + 1) // math.prod(",
     "tests/test_exactnum.py::test_cyclotomic_value_is_the_value_of_the_polynomial"),
    # a power takes the square at bit i when bit i or i + 1 of k is set
    ("src/toridyn/dynamics.py",
     "if k >> i & 1]",
     "if k >> i & 3]",
     "tests/test_dynamics.py::test_factor_degrees_on_fixed_matrices[irreducible-quintic]"),
    # eigen_data caches nothing: each call rebuilds its EigenData
    ("src/toridyn/endo.py",
     "@lru_cache(maxsize=512)\ndef eigen_data",
     "@lru_cache(maxsize=0)\ndef eigen_data",
     "tests/test_classify.py::test_k_is_normalised_in_the_caches"),
    # a scalar factor is taken as an int only when it is one: a Fraction
    # reaches the polynomial product again
    ("src/toridyn/exactnum.py",
     "if not isinstance(other, IntPolynomial):",
     "if isinstance(other, int):",
     "tests/test_exactnum.py::test_polynomial_refuses_a_factor_that_is_not_an_integer[factor0]"),
    # h1 = Gamma conj(Gamma) checked on the iterate sequences up to p_d
    # only, which no slice of k > 1 stays inside
    ("src/toridyn/classify.py",
     "_check_conjugate_sums(h1_sums, gamma_sums)",
     "_check_conjugate_sums(h1_sums[:h1.degree + 1], gamma_sums)",
     "tests/test_classify.py::test_a_corrupted_gamma_sequence_fails_the_identity"),
    # every M taken as semisimple, as if each h1 were squarefree
    ("src/toridyn/classify.py",
     "if all(mult == 1 for _, mult in h1.squarefree_decomposition()):",
     "if True:",
     "tests/test_classify.py::test_is_semisimple_on_fixed_blocks[jordan-gaussian]"),
    # the polarized Horner step without its c E term: the form stays 0
    ("src/toridyn/classify.py",
     "[[x + sign * c * y for x, y in zip(row, e_row)]",
     "[[x for x, y in zip(row, e_row)]",
     "tests/test_classify.py::test_polarized_gtz_q5"),
    # the integer kernel keeps a quotient that is not exact
    ("src/toridyn/exactnum.py",
     "if inexact:",
     "if False:",
     "tests/test_exactnum.py::test_integer_newton_kernels_are_the_pair_kernels_on_real_input"),
]


def run_pytest(test: str, edit=None) -> subprocess.CompletedProcess:
    """`pytest -q -x` on `test` in a temporary copy of src/ and tests/,
    with edit = (file, old text, new text) applied to the copy."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        if edit is not None:
            path, old, new = edit
            (copy / path).write_text((ROOT / path).read_text().replace(old, new))
        paths = [str(copy / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join(p for p in paths if p))
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test],
            cwd=copy, env=env, capture_output=True, text=True)


def run(path: str, old: str, new: str, test: str, baseline: dict) -> str:
    """'killed', 'survived' or an error, for one mutant.  `baseline` maps
    each test id already run unmutated to its pytest result."""
    count = (ROOT / path).read_text().count(old)
    if count != 1:
        return f"error: the old text occurs {count} times in {path}"
    if test not in baseline:
        baseline[test] = run_pytest(test)
    if baseline[test].returncode != 0:
        # a test that fails unmutated would report a false kill
        result = baseline[test]
        return (f"error: the test exited {result.returncode} on the unmutated copy"
                f"\n{result.stdout}{result.stderr}")
    result = run_pytest(test, (path, old, new))
    # pytest exits 1 when a test failed; other codes mean it could not run
    if result.returncode == 0:
        return "survived"
    if result.returncode == 1:
        return "killed"
    return f"error: pytest exited {result.returncode}\n{result.stdout}{result.stderr}"


def main() -> int:
    baseline = {}
    bad = 0
    for index, (path, old, new, test) in enumerate(MUTANTS):
        outcome = run(path, old, new, test, baseline)
        bad += outcome != "killed"
        print(f"[{index}] {path}: {outcome} by {test}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
