"""Acceptance suite: one test per release criterion.

Each criterion is exercised end to end against independently computed
oracle values (sympy root isolation, brute-force orbit graphs, Smith-form
counting formulas)."""

import itertools
import math
import random
import time
from fractions import Fraction

import sympy

from toridyn import (RationalMatrix, amplified, dynamical_degrees, eigen_split,
                     exterior_power, finite_order, fixed_subtorus, full_report,
                     h1_magnitudes, is_ample, lefschetz_number, make_subtorus,
                     make_endo, ns_action, polarized, smith_form, subtorus_orbit,
                     torsion_dynamics, unity_free)
from toridyn.cli import main as cli_main
from toridyn.scenarios import (cm_matrix_endo, cm_power_torus, eisenstein_order,
                               gaussian_order, get_example, random_endo)


def ns_eigenvalues(f):
    a = ns_action(f)
    m = sympy.Matrix([[sympy.Rational(str(x)) for x in row] for row in a.entries])
    out = []
    for val, mult in m.eigenvals().items():
        out.extend([sympy.nsimplify(val)] * mult)
    return sorted(out, key=lambda v: float(v))


def test_criterion_01_product_2_3_classification():
    start = time.monotonic()
    f = get_example("mult_2_3").endo
    assert ns_eigenvalues(f) == [4, 6, 6, 9]
    report = full_report(f)
    verdict = amplified(f)
    assert report.amplified == "yes" and verdict.path == "ns-no-unit-eigenvalue"
    assert report.polarized == "no"
    assert report.unity_free and report.u_f == 0
    assert report.finite_order is None
    assert time.monotonic() - start < 1.0


def test_criterion_02_e4_automorphism():
    start = time.monotonic()
    f = get_example("e4_auto").endo
    free, u = unity_free(f)
    assert free and u == 0
    degrees = dynamical_degrees(f)
    # lambda_1 = lambda_2, certified by the exact reciprocal-factor argument
    assert 1 in degrees.equal_consecutive_pairs
    assert 1 in degrees.exact_equalities
    # oracle: alpha^2 with alpha the largest real root of the analytic
    # charpoly x^4 - 3x^3 - 4x^2 - 3x + 1
    # real roots come first in CRootOf ordering: 1/alpha at 0, alpha at 1
    alpha = sympy.CRootOf(sympy.Poly([1, -3, -4, -3, 1], sympy.Symbol("x")), 1)
    oracle = float(alpha.evalf(30)) ** 2
    lo, hi = degrees.intervals[1]
    assert abs((float(lo) + float(hi)) / 2 - oracle) < 1e-3
    assert abs(f.degree_matrix_det) == 1
    assert degrees.intervals[-1] == (1, 1)
    assert time.monotonic() - start < 5.0


def test_criterion_03_product_2_1():
    f = get_example("mult_2_1").endo
    report = full_report(f)
    assert not report.unity_free and report.u_f == 1
    assert report.amplified == "no"
    fs = fixed_subtorus(f)
    assert fs is not None
    k, sub = fs
    assert k == 1 and sub.rank == 2
    degrees = dynamical_degrees(f)
    assert degrees.intervals == ((Fraction(1), Fraction(1)),
                                 (Fraction(4), Fraction(4)),
                                 (Fraction(4), Fraction(4)))
    # documented discrepancy flag: equal consecutive degrees on a map that
    # is not unity-free are reported as computed, with a note
    assert any("non-unity-free" in note for note in report.notes)


def test_criterion_04_gtz_polarized_and_escaping_diagonal():
    scenario = get_example("gtz_diag")
    f = scenario.endo
    verdict = polarized(f)
    assert verdict.verdict == "yes" and verdict.q == 5
    assert is_ample(f.torus, verdict.witness)
    # exact eigenvector identity f* omega = 5 omega
    image = exterior_power(f.m.transpose(), 2).apply(verdict.witness)
    assert image == tuple(5 * Fraction(x) for x in verdict.witness)
    diag = make_subtorus(f.torus, RationalMatrix.from_columns(
        scenario.sublattices["diagonal"]))
    orbit_verdict, _ = subtorus_orbit(f, diag, bound=64)
    assert orbit_verdict == "escaping"


def test_criterion_05_serre_magnitude_test():
    ee = cm_power_torus(gaussian_order(), 2)
    doubling = cm_matrix_endo(ee, gaussian_order(),
                              [[(2, 0), (0, 0)], [(0, 0), (2, 0)]])
    mags = h1_magnitudes(doubling)
    assert all(e.lower**2 <= 4 <= e.upper**2 for e in mags.entries)
    assert all(e.upper - e.lower <= Fraction(1, 10**9) for e in mags.entries)
    mixed = get_example("mult_2_3").endo
    mags = h1_magnitudes(mixed)
    assert all(e.upper - e.lower <= Fraction(1, 10**9) for e in mags.entries)
    # q = 6 fails: certified magnitudes 2 and 3 each exclude sqrt(6)
    assert any(not (e.lower**2 <= 6 <= e.upper**2) for e in mags.entries)
    report = full_report(mixed)
    assert not report.serre_consistent


def test_criterion_06_eigen_split_suite():
    start = time.monotonic()
    g = gaussian_order()
    ee = cm_power_torus(g, 2)
    first = make_subtorus(ee, [[1, 0], [0, 1], [0, 0], [0, 0]])
    rng = random.Random(60601)
    checked = 0
    while checked < 200:
        # block upper-triangular matrices over the order leave the first
        # factor invariant
        entries = [[(rng.randint(-4, 4), rng.randint(-4, 4)),
                    (rng.randint(-4, 4), rng.randint(-4, 4))],
                   [(0, 0),
                    (rng.randint(-4, 4), rng.randint(-4, 4))]]
        f = cm_matrix_endo(ee, g, entries)
        gamma, delta, quot = eigen_split(f, first)  # raises on any failure
        from toridyn import gauss_poly_mul
        assert gauss_poly_mul(delta, quot) == gamma
        checked += 1
    assert time.monotonic() - start < 30.0


def test_criterion_07_fixed_subtorus_iff_not_unity_free():
    orders = (gaussian_order(), eisenstein_order())
    count = 0
    for order in orders:
        for n in (1, 2):
            for seed in range(125):
                f = random_endo(n, order, 2, seed=seed)
                free, _ = unity_free(f)
                fs = fixed_subtorus(f)
                assert (fs is None) == free
                if fs is not None:
                    assert fs[1].rank >= 2
                count += 1
    assert count == 500


def test_criterion_08_sweep_500_dim2(capsys):
    start = time.monotonic()
    code = cli_main(["sweep", "--count", "500", "--dim", "2", "--seed", "7",
                     "--iterate", "4", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    import json
    doc = json.loads(out)
    assert doc["violations"] == []
    assert sum(doc["cells"].values()) == 500
    assert time.monotonic() - start < 120.0


def test_criterion_09_fixed_node_counts_vs_smith_formula():
    g = gaussian_order()
    rng_seed = 0
    checked = 0
    while checked < 100:
        f = random_endo(1, g, 3, seed=rng_seed)
        rng_seed += 1
        m_minus_i = f.m - RationalMatrix.identity(f.torus.rank)
        if m_minus_i.det() == 0:
            continue
        invariants = smith_form(m_minus_i).invariant_factors
        for m in (2, 3, 4, 5):
            graph = torsion_dynamics(f, m)
            expected = 1
            for d in invariants:
                expected *= math.gcd(abs(d), m)
            assert graph.fixed_node_count() == expected
        checked += 1


def test_criterion_10_lefschetz_alternating_trace_identity():
    g = gaussian_order()
    for seed in range(100):
        n = 1 + seed % 2
        f = random_endo(n, g, 4, seed=seed)
        d = f.torus.rank
        alternating = 1 + sum((-1) ** k * exterior_power(f.m.transpose(), k).trace()
                              for k in range(1, d + 1))
        assert lefschetz_number(f) == alternating


def test_criterion_11_sweep_50_dim3(capsys):
    start = time.monotonic()
    code = cli_main(["sweep", "--count", "50", "--dim", "3", "--iterate", "2",
                     "--height", "2", "--seed", "0", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    import json
    doc = json.loads(out)
    assert doc["violations"] == []
    assert sum(doc["cells"].values()) == 50
    assert time.monotonic() - start < 60.0
