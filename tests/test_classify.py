"""Classification layer: NS actions, finite order, dynamical degrees,
polarized/amplified verdicts, Serre test, full reports and chains."""

import hashlib
import json
import random
from fractions import Fraction
from math import gcd, lcm, nextafter

import mpmath
import sympy
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toridyn import (DomainError, InvariantViolation, NotSurjectiveError, RationalMatrix,
                     amplified, canonical_ample_class, chain_violations,
                     charpoly, cm_matrix_endo, cm_power_torus,
                     dynamical_degrees, eigen_data, exterior_power,
                     finite_order, fixed_subtorus, full_report, is_ample,
                     iterate, make_endo, make_subtorus,
                     neron_severi, ns_action, ns_charpoly, order_by_name,
                     periodic_count, polarization_q_candidate, polarized,
                     random_endo, serre_test, subtorus_orbit,
                     unit_circle_root_count, unity_free, verify_iterates)
from toridyn import classify, endo, exactnum
from toridyn.classify import (AmplifiedVerdict, PolarizedVerdict, _integer_nth_root,
                              _log_enclosure)
from toridyn.scenarios import get_example, named_examples

from conftest import (ORDER_UNITS, block_unit_endo, ns_basis_reference, sympy_kernel,
                      sympy_solve)


def ns_eigenvalue_multiset(f):
    a = ns_action(f)
    m = sympy.Matrix([[sympy.Rational(str(x)) for x in row] for row in a.entries])
    out = []
    for val, mult in m.eigenvals().items():
        out.extend([sympy.nsimplify(val)] * mult)
    return sorted(out, key=lambda v: float(v))


# -- NS action

def test_ns_action_mult_2_3():
    # [2] x [3] on E x E: f* on NS has eigenvalues 4, 6, 6, 9
    f = get_example("mult_2_3").endo
    assert ns_eigenvalue_multiset(f) == [4, 6, 6, 9]


def test_ns_action_multiplication_scalar(e_torus):
    f = make_endo(e_torus, [[3, 0], [0, 3]])
    a = ns_action(f)
    assert a.entries == ((Fraction(9),),)


def test_ns_action_requires_surjective(e_torus):
    with pytest.raises(NotSurjectiveError):
        ns_action(make_endo(e_torus, [[0, 0], [0, 0]]))


@pytest.mark.parametrize("call", [
    finite_order, dynamical_degrees, amplified, polarized, full_report,
    fixed_subtorus, lambda f: verify_iterates(f, 2), lambda f: periodic_count(f, 2),
    lambda f: subtorus_orbit(f, make_subtorus(f.torus, [[1, 0], [0, 1], [0, 0], [0, 0]])),
], ids=["finite_order", "dynamical_degrees", "amplified", "polarized", "full_report",
        "fixed_subtorus", "verify_iterates", "periodic_count", "subtorus_orbit"])
def test_singular_map_is_refused(ee_torus, call):
    # E x E with M = diag(2, 0) over Z[i]: det M = 0
    f = make_endo(ee_torus, [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    with pytest.raises(NotSurjectiveError):
        call(f)


@given(st.sampled_from([("gaussian", 1), ("gaussian", 2), ("gaussian", 3),
                        ("eisenstein", 1), ("eisenstein", 2),
                        ("quadratic(-2)", 1), ("quadratic(-2)", 2)]),
       st.integers(1, 3), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_ns_action_matches_solving_the_basis(case, height, seed):
    order, n = case
    f = random_endo(n, order_by_name(order), height, seed)
    basis = ns_basis_reference(f.torus)
    oracle = sympy_solve(basis, exterior_power(f.m.transpose(), 2) * basis)
    assert ns_action(f) == oracle


@given(st.sampled_from([("gaussian", 1), ("gaussian", 2), ("gaussian", 3),
                        ("eisenstein", 1), ("eisenstein", 2), ("eisenstein", 3),
                        ("quadratic(-2)", 1), ("quadratic(-2)", 2), ("quadratic(-2)", 3)]),
       st.integers(1, 6), st.integers(1, 2), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_ns_charpoly_is_the_charpoly_of_the_ns_action(case, k, height, seed):
    # the charpoly of (f^*)^k read off the power sums of Gamma equals the
    # one of the k-th power of the rho x rho action, both in ns_charpoly
    # and at the k-th slice of the sequence verify_iterates builds
    order, n = case
    f = random_endo(n, order_by_name(order), height, seed)
    oracle = charpoly(ns_action(f) ** k)
    assert ns_charpoly(f, k).coeffs == tuple(getattr(oracle, "coeffs", oracle))
    if k > 1:
        assert verify_iterates_data(f, k)["_ns_charpoly_of", k].coeffs == oracle.coeffs


# -- finite order

def test_finite_order_multiplication_by_i():
    f = get_example("mult_by_i").endo
    assert finite_order(f) == 4


def test_finite_order_with_torsion_translation(e_torus):
    f = make_endo(e_torus, [[-1, 0], [0, -1]], tau=[Fraction(1, 3), 0])
    # f^2 = translation by (I + (-I)) tau = 0: order 2 already
    assert finite_order(f) == 2
    g = make_endo(e_torus, [[1, 0], [0, 1]], tau=[Fraction(1, 3), 0])
    assert finite_order(g) == 3


def test_finite_order_none_for_expanding(e_torus):
    assert finite_order(make_endo(e_torus, [[2, 0], [0, 2]])) is None


def test_finite_order_unipotent_rejected():
    # charpoly (x-1)^4 is Kronecker but M is not of finite order
    from toridyn import make_torus
    t = get_example("shear").endo.torus
    f = get_example("shear").endo
    assert finite_order(f) is None


# -- dynamical degrees

def test_degrees_multiplication(e_torus):
    f = make_endo(e_torus, [[3, 0], [0, 3]])
    d = dynamical_degrees(f)
    assert d.intervals[0] == (1, 1)
    assert d.intervals[1] == (9, 9)  # lambda_1 = deg = 9, exact


def test_degrees_product_map():
    # [2] x [3]: lambda_0..2 = 1, 36/4 = 9? No: lambda_1 = 9 (=3^2), lambda_2 = 36
    f = get_example("mult_2_3").endo
    d = dynamical_degrees(f)
    assert d.intervals[0] == (1, 1)
    assert d.intervals[2] == (36, 36)
    lo, hi = d.intervals[1]
    assert lo <= 9 <= hi and hi - lo < Fraction(1, 10**6)


def test_degrees_log_concavity():
    # lambda_{j-1} lambda_{j+1} <= lambda_j^2 up to interval slack
    f = get_example("salem_surface").endo
    d = dynamical_degrees(f)
    for j in range(1, len(d.intervals) - 1):
        lo_prev, _ = d.intervals[j - 1]
        _, hi_next = d.intervals[j + 1]
        _, hi_j = d.intervals[j]
        assert lo_prev * d.intervals[j + 1][0] <= hi_j * hi_j


def test_degrees_top_is_topological_degree():
    f = get_example("gtz_diag").endo
    d = dynamical_degrees(f)
    assert d.intervals[-1] == (abs(f.degree_matrix_det), abs(f.degree_matrix_det))


@pytest.mark.parametrize("name, pairs", [
    ("mult_2_1", (1,)), ("mult_2_3", ()), ("gtz_diag", ()), ("shear", (0, 1)),
    ("salem_surface", ()), ("mult_by_i", (0,)), ("e4_auto", (1, 2))])
@pytest.mark.parametrize("precision", [Fraction(1, 10**9), Fraction(100)])
def test_degree_equalities_are_the_exact_ones(name, pairs, precision):
    # lambda_j = lambda_{j+1} exactly when the (2j+1)-th largest magnitude
    # is 1; salem_surface's lambda_1 = lambda_2 would need a magnitude 1
    d = dynamical_degrees(get_example(name).endo, precision)
    assert d.equal_consecutive_pairs == d.exact_equalities == pairs


@pytest.mark.parametrize("precision", [Fraction(0), Fraction(-1, 10)])
def test_degrees_reject_nonpositive_precision(precision):
    # gtz_diag has n = 2
    with pytest.raises(DomainError):
        dynamical_degrees(get_example("gtz_diag").endo, precision)


def test_entropy_positive_for_expanding(e_torus):
    f = make_endo(e_torus, [[2, 0], [0, 2]])
    d = dynamical_degrees(f)
    lo, hi = d.entropy
    import math
    assert lo <= math.log(4) <= hi and lo > 0


@pytest.mark.parametrize("name, top", [("mult_2_3", 36), ("gtz_diag", 25)])
def test_entropy_is_log_of_the_largest_degree(name, top):
    # topological entropy is log max_j lambda_j, here log lambda_2 = log |det M|,
    # not log lambda_1 (log 9 and log 5)
    import math
    lo, hi = dynamical_degrees(get_example(name).endo).entropy
    assert lo <= math.log(top) <= hi


def test_entropy_zero_for_automorphism():
    d = dynamical_degrees(get_example("mult_by_i").endo)
    lo, hi = d.entropy
    assert lo <= 0 <= hi


def _contains_log(bounds, x):
    """a <= log x <= b against mpmath at 60 digits, with no slack."""
    a, b = bounds
    with mpmath.workdps(60):
        value = mpmath.log(mpmath.mpf(x.numerator) / x.denominator)
        return mpmath.mpf(a) <= value <= mpmath.mpf(b)


@pytest.mark.parametrize("precision", [None, Fraction(1, 10**30)])
@pytest.mark.parametrize("name", sorted(named_examples()))
def test_entropy_bounds_contain_the_log_exactly(name, precision):
    args = () if precision is None else (precision,)
    d = dynamical_degrees(get_example(name).endo, *args)
    lo = max(lo for lo, _ in d.intervals)
    hi = max(hi for _, hi in d.intervals)
    assert _contains_log(d.entropy, lo) and _contains_log(d.entropy, hi)


@pytest.mark.parametrize("x", [
    Fraction(1), Fraction(2), Fraction(1, 2), Fraction(2, 3), Fraction(4, 3),
    Fraction(25), Fraction(16, 15), Fraction(2**80, 2**80 - 1),
    Fraction(10**30 + 1, 10**30), Fraction(10**30 - 1, 10**30),
    Fraction(1, 10**300), Fraction(10**4402 + 7)])
def test_log_enclosure_is_outward_and_one_float_step_wide(x):
    a, b = _log_enclosure(x)
    assert _contains_log((a, b), x)
    assert b <= nextafter(a, float("inf"))
    assert (a, b) == (0.0, 0.0) if x == 1 else a < b


def test_k_is_normalised_in_the_caches():
    f = get_example("gtz_diag").endo
    assert eigen_data(f, 1) is eigen_data(f) is eigen_data(f, k=1)
    assert ns_charpoly(f, 1) is ns_charpoly(f) is ns_charpoly(f, k=1)
    assert eigen_data(f, 2) is eigen_data(f, k=2)


# -- polarization candidate and Serre test

def test_q_candidate():
    # [2] x [1] has det 4 and n = 2, so the pinned candidate is q = 2
    assert polarization_q_candidate(get_example("mult_2_1").endo) == 2
    assert polarization_q_candidate(get_example("gtz_diag").endo) == 5


def test_q_candidate_scalar(e_torus):
    assert polarization_q_candidate(make_endo(e_torus, [[2, 0], [0, 2]])) == 4


@pytest.mark.parametrize("n,lo,hi", [(2, 62, 64), (3, 54, 56), (4, 62, 64)])
def test_integer_nth_root_beyond_float_range(n, lo, hi):
    rng = random.Random(n)
    for _ in range(200):
        q = rng.randrange(2**lo, 2**hi)
        assert _integer_nth_root(q**n, n) == q
        assert _integer_nth_root(q**n + 1, n) is None
        assert _integer_nth_root(q**n - 1, n) is None


def test_integer_nth_root_of_huge_values():
    assert _integer_nth_root(10**400, 2) == 10**200
    assert _integer_nth_root(10**400, 4) == 10**100
    assert _integer_nth_root(10**400, 3) is None
    assert _integer_nth_root(1, 5) == 1
    assert _integer_nth_root(0, 2) is None


def test_serre_accepts_multiplication(e_torus):
    f = make_endo(e_torus, [[2, 0], [0, 2]])
    assert serre_test(f, 4)
    assert not serre_test(f, 5)


def test_serre_rejects_mult_2_3():
    f = get_example("mult_2_3").endo
    assert not serre_test(f, 6)


def test_serre_test_reads_no_magnitudes(monkeypatch):
    # the Serre test is an integer root count: no root magnitude is
    # enclosed, so no precision enters it
    def no_magnitudes(*args):
        raise AssertionError("a root magnitude was enclosed")

    for module, name in ((classify, "root_magnitudes"), (exactnum, "root_magnitudes"),
                         (exactnum, "_disk_magnitudes")):
        monkeypatch.setattr(module, name, no_magnitudes)
    assert [serre_test(get_example(name).endo, q) for name, q in
            (("mult_2_1", 2), ("mult_2_3", 6), ("gtz_diag", 5))] == [False, False, True]


def test_serre_rejects_moduli_that_differ_on_e3():
    # M = diag(1 + i, 1, 2) on E^3: det M = 8 = 2^3, so q = 2, but the
    # squared moduli are 2, 1 and 4; one of them equal to q is not enough
    order = order_by_name("gaussian")
    f = cm_matrix_endo(cm_power_torus(order, 3), order,
                       [[(1, 1), (0, 0), (0, 0)], [(0, 0), (1, 0), (0, 0)],
                        [(0, 0), (0, 0), (2, 0)]])
    assert polarization_q_candidate(f) == 2
    assert not serre_test(f, 2)


def test_serre_rejects_a_q_that_is_not_positive():
    f = get_example("gtz_diag").endo
    assert serre_test(f, 5)
    assert not serre_test(f, -5)
    assert not serre_test(f, 0)


def moduli_squared_are(h1, q):
    """Every root of h1 has |root|^2 = q: mpmath.polyroots at 60 digits
    on each irreducible factor from sympy."""
    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(h1.coeffs)), x)
    with mpmath.workdps(60):
        for factor, _ in poly.factor_list()[1]:
            roots = mpmath.polyroots([int(c) for c in factor.all_coeffs()],
                                     maxsteps=500, extraprec=300)
            if any(abs(abs(r) ** 2 - q) > mpmath.mpf(10) ** -40 for r in roots):
                return False
    return True


@given(st.sampled_from([("gaussian", 1), ("gaussian", 2), ("gaussian", 3),
                        ("eisenstein", 1), ("quadratic(-2)", 1)]),
       st.integers(1, 2), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_serre_test_agrees_with_numerical_roots(case, height, seed):
    # the first seed from `seed` on whose map |det M| = q^n, among the next
    # 1,000; most dim-2 and dim-3 maps have no q candidate
    name, n = case
    order = order_by_name(name)
    for seed in range(seed, seed + 1000):
        if (q := polarization_q_candidate(f := random_endo(n, order, height, seed))):
            break
    assume(q is not None)
    assert serre_test(f, q) == moduli_squared_are(eigen_data(f).h1_charpoly, q), \
        f"random_endo({n}, {name}, {height}, {seed}), q = {q}"


# -- amplified

def test_amplified_mult_2_3_path_a():
    v = amplified(get_example("mult_2_3").endo)
    assert v.verdict == "yes" and v.path == "ns-no-unit-eigenvalue"


def test_amplified_no_for_unity_factor():
    v = amplified(get_example("mult_2_1").endo)
    assert v.verdict == "no" and v.path == "not-unity-free"


def assert_amplified_witness(f, witness):
    """The witness is ample and lies in (f^* - 1) NS: it is the wedge image
    (Lambda^2 M^T - 1) of some rational combination of the NS basis."""
    assert is_ample(f.torus, witness)
    e2 = exterior_power(f.m.transpose(), 2)
    shifted = (e2 - RationalMatrix.identity(e2.rows)) * ns_basis_reference(f.torus)
    sympy_solve(shifted, RationalMatrix([[x] for x in witness]))


def assert_polarized_witness(f, v):
    """f^* omega = q omega exactly, and omega is a primitive ample class."""
    assert all(type(x) is int for x in v.witness)
    assert is_ample(f.torus, v.witness)
    image = exterior_power(f.m.transpose(), 2).apply(v.witness)
    assert image == tuple(v.q * x for x in v.witness)


def test_amplified_surface_path():
    # unity-free with 1 an eigenvalue of f^* on NS, and no H^1 root on the
    # unit circle: the witness comes from the hyperbolic construction
    f = get_example("salem_surface").endo
    v = amplified(f)
    assert v.verdict == "yes" and v.path == "hyperbolic-witness"
    assert_amplified_witness(f, v.witness)


def test_amplified_no_for_unit_circle_root():
    # e4_auto is unity-free, but its Salem charpoly has 4 roots on the unit
    # circle, so no class of the form f^*w - w is ample
    f = get_example("e4_auto").endo
    assert unit_circle_root_count(eigen_data(f).h1_charpoly) == 4
    v = amplified(f)
    assert v.verdict == "no" and v.path == "unit-circle-eigenvalue"


@pytest.mark.parametrize("order,n,height,seed", [
    ("quadratic(-2)", 2, 1, 6), ("eisenstein", 3, 1, 30)])
def test_amplified_hyperbolic_witness(order, n, height, seed):
    f = random_endo(n, order_by_name(order), height, seed)
    v = amplified(f)
    assert v.verdict == "yes" and v.path == "hyperbolic-witness"
    assert_amplified_witness(f, v.witness)


@given(st.sampled_from(["gaussian", "eisenstein", "quadratic(-2)"]),
       st.integers(1, 2), st.integers(1, 2), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_amplified_exactly_when_no_unit_circle_root(order, n, height, seed):
    f = random_endo(n, order_by_name(order), height, seed)
    v = amplified(f)
    circle = unit_circle_root_count(eigen_data(f).h1_charpoly)
    assert (v.verdict == "yes") == (circle == 0)
    assert v.verdict == "no" or v.path == "ns-no-unit-eigenvalue" or v.witness
    if v.witness is not None:
        assert_amplified_witness(f, v.witness)
    p = polarized(f)
    assert p.verdict in ("yes", "no")
    if p.verdict == "yes":
        assert_polarized_witness(f, p)


def test_amplified_witness_is_ample_when_given():
    f = get_example("mult_2_3").endo
    v = amplified(f)
    if v.witness is not None:
        assert is_ample(f.torus, v.witness)


# -- polarized

def test_polarized_gtz_q5():
    f = get_example("gtz_diag").endo
    v = polarized(f)
    assert v.verdict == "yes" and v.q == 5
    assert_polarized_witness(f, v)


def test_polarized_no_for_mult_2_3():
    # q = 6 fails the Serre test; the exact steps alone say no
    f = get_example("mult_2_3").endo
    v = polarized(f)
    assert v.verdict == "no" and v.q == 6
    assert not serre_test(f, 6)


def test_polarized_yes_for_scalar(e_torus):
    v = polarized(make_endo(e_torus, [[3, 0], [0, 3]]))
    assert v.verdict == "yes" and v.q == 9


def moduli_all_sqrt(m, q):
    """Every root of the charpoly of M has |root|^2 = q (sympy, 40 digits)."""
    x = sympy.Symbol("x")
    factors = sympy.Poly(m.charpoly(x).as_expr(), x).factor_list()[1]
    return all(abs(abs(r) ** 2 - q) < 1e-25 for fac, _ in factors
               for r in sympy.Poly(fac, x).nroots(n=40, maxsteps=200))


@given(st.integers(1, 2), st.integers(1, 2), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_polarized_exactly_when_semisimple_with_moduli_sqrt_q(n, height, seed):
    # NS holds every Hermitian form on these tori, so f is polarized exactly
    # when M is diagonalizable with every |eigenvalue| = sqrt(q)
    f = random_endo(n, order_by_name("gaussian"), height, seed)
    q = polarization_q_candidate(f)
    m = sympy.Matrix(f.m.to_integer())
    expected = q is not None and moduli_all_sqrt(m, q) and m.is_diagonalizable()
    assert (polarized(f).verdict == "yes") == expected


def test_polarized_yes_for_negative_scalar_iterate():
    # the square of this Eisenstein sample is -5 I, which pulls every class
    # back to 25 times itself
    g = iterate(random_endo(2, order_by_name("eisenstein"), 2, 38), 2)
    assert g.m == RationalMatrix.identity(g.torus.rank) * -5
    v = polarized(g)
    assert v.verdict == "yes" and v.q == 25
    assert_polarized_witness(g, v)


@st.composite
def polarizable_candidates(draw):
    """Random dim-1 and dim-2 maps, and block permutations times units
    and scalars, which are polarized when the scalars have equal norm."""
    name = draw(st.sampled_from(sorted(ORDER_UNITS)))
    order = order_by_name(name)
    if draw(st.booleans()):
        return random_endo(draw(st.integers(1, 2)), order, draw(st.integers(1, 2)),
                           draw(st.integers(0, 10**6)))
    scalar = st.sampled_from([(2, 0), (1, 2), (2, 1), (-2, 1), (3, 0)])
    unit = st.sampled_from(ORDER_UNITS[name])
    return block_unit_endo(order, draw(st.booleans()), (draw(scalar), draw(scalar)),
                           (draw(unit), draw(unit)))


VERDICT_FIELDS = ("serre_consistent", "amplified", "amplified_path", "unity_free",
                  "finite_order", "polarized", "polarized_q", "polarized_witness",
                  "h1_poly_class", "lefschetz")


@given(polarizable_candidates())
@settings(max_examples=30, deadline=None)
def test_polarized_does_not_depend_on_precision(f):
    # every yes/no field rests on an integer count; precision sets only
    # the width of the degree intervals
    coarse = full_report(f, Fraction(1, 10))
    polarized.cache_clear()
    amplified.cache_clear()
    wide = full_report(f, Fraction(10))
    polarized.cache_clear()
    amplified.cache_clear()
    fine = full_report(f)
    assert ([getattr(coarse, name) for name in VERDICT_FIELDS]
            == [getattr(wide, name) for name in VERDICT_FIELDS]
            == [getattr(fine, name) for name in VERDICT_FIELDS])
    if fine.polarized == "yes":
        # a consequence of the exact verdict
        assert serre_test(f, fine.polarized_q)


def projection_witness_reference(f):
    """polarized's projection step as a linear solve in NS coordinates, for
    semisimple M with q = polarization_q_candidate(f): L_can = K x +
    (A - q) y with K a kernel basis of A - q, A = ns_action(f).  Returns the
    primitive integer vector on the ray of K x when that class is ample,
    else None (also when q is not an eigenvalue of A)."""
    q = polarization_q_candidate(f)
    ns = neron_severi(f.torus)
    shifted = ns_action(f) - RationalMatrix.identity(ns.rho) * q
    eigen = sympy_kernel(shifted)
    if not eigen:
        return None
    kernel = RationalMatrix.from_columns(eigen)
    split = RationalMatrix([k + a for k, a in zip(kernel.entries, shifted.entries)])
    basis = ns_basis_reference(f.torus)
    target = sympy_solve(basis, RationalMatrix([[c] for c in canonical_ample_class(f.torus)]))
    x = sympy_solve(split, target).column(0)
    omega = [Fraction(c) for c in basis.apply(kernel.apply(x[:kernel.cols]))]
    if not is_ample(f.torus, omega):
        return None
    scale = lcm(*(c.denominator for c in omega))
    ints = [int(c * scale) for c in omega]
    return tuple(c // gcd(*ints) for c in ints)


@given(polarizable_candidates())
@settings(max_examples=40, deadline=None)
def test_polarized_witness_matches_the_projection_reference(f):
    v = polarized(f)
    if v.q is not None and v.reason != "M is not semisimple":
        assert v.witness == projection_witness_reference(f)


def _diagonal_endo(order_name, n, values):
    order = order_by_name(order_name)
    rows = [[values[i] if i == j else (0, 0) for j in range(n)] for i in range(n)]
    return cm_matrix_endo(cm_power_torus(order, n), order, rows)


@pytest.mark.parametrize("order, values, q, psi_degree, head", [
    # Gaussian diag(5, 3+4i, 4+3i, -3+4i): rho = 16, every |mu|^2 = 25
    ("gaussian", [(5, 0), (3, 4), (4, 3), (-3, 4)], 25, 12, (-1, 0, 0, 0)),
    # Eisenstein diag(2+w, 1-w, 2+w, 1-w): rho = 64, every |mu|^2 = 3
    ("eisenstein", [(2, 1), (1, -1), (2, 1), (1, -1)], 3, 2, (-1, 0, -2, 0)),
])
def test_polarized_witness_with_a_long_psi(order, values, q, psi_degree, head):
    # psi = radical(chi_NS) / (x - q) has degree psi_degree
    f = _diagonal_endo(order, 4, values)
    assert classify._radical(ns_charpoly(f)).degree - 1 == psi_degree
    witness = projection_witness_reference(f)
    assert witness[:4] == head
    assert polarized(f) == PolarizedVerdict("yes", q=q, witness=witness)
    assert_polarized_witness(f, polarized(f))


def test_polarized_no_for_non_semisimple(ee_torus):
    # 2 + N with N nilpotent on E x E: every |eigenvalue| is sqrt(4), so
    # q = 4 passes the Serre test, but a polarized map is semisimple
    f = make_endo(ee_torus, [[2, 0, 1, 0], [0, 2, 0, 1], [0, 0, 2, 0], [0, 0, 0, 2]])
    assert serre_test(f, 4)
    v = polarized(f)
    assert v.verdict == "no" and v.q == 4 and v.reason == "M is not semisimple"


# -- reports and chains

def test_full_report_mult_2_3():
    r = full_report(get_example("mult_2_3").endo)
    assert r.surjective and r.isogeny
    assert r.finite_order is None
    assert r.unity_free and r.u_f == 0
    assert r.amplified == "yes" and r.polarized == "no"
    assert chain_violations(r.polarized, r.amplified, r.unity_free, r.finite_order) == []


def test_full_report_notes_on_unity_factor():
    r = full_report(get_example("mult_2_1").endo)
    assert not r.unity_free and r.amplified == "no"
    assert r.polarized != "yes"


def test_report_to_dict_deterministic():
    f = get_example("salem_surface").endo
    import json
    a = json.dumps(full_report(f).to_dict(), sort_keys=True)
    b = json.dumps(full_report(f).to_dict(), sort_keys=True)
    assert a == b


def test_report_to_text_smoke():
    text = full_report(get_example("gtz_diag").endo).to_text()
    assert "polarized" in text and "unity-free" in text.replace("_", "-")


def test_verify_chain_examples():
    for name in ("mult_2_1", "mult_2_3", "gtz_diag", "salem_surface", "mult_by_i"):
        r = full_report(get_example(name).endo)
        assert chain_violations(r.polarized, r.amplified, r.unity_free, r.finite_order) == []


def test_verify_iterates_polarized_powers():
    f = get_example("gtz_diag").endo
    assert verify_iterates(f, 3) == []
    assert polarized(iterate(f, 2)).q == 25


def test_verify_iterates_unity_factor_stable():
    assert verify_iterates(get_example("mult_2_1").endo, 3) == []


@pytest.mark.parametrize("name", ["mult_by_i", "e4_auto", "shear", "mult_2_3",
                                  "gtz_diag", "salem_surface"])
def test_difference_determinant_is_the_iterate_charpoly_at_one(name):
    # det(M^m - M^n) = det(M)^n det(M^(m-n) - I), and det(M^j - I) is the
    # H^1 charpoly of f^j at 1 because M has even size
    f = get_example(name).endo
    det = f.degree_matrix_det
    for j in range(1, 6):
        h1_at_one = eigen_data(iterate(f, j)).h1_charpoly(1)
        for n in range(6 - j):
            assert (f.m ** (n + j) - f.m ** n).det() == det ** n * h1_at_one


def test_difference_set_violations_of_a_forced_amplified_verdict(monkeypatch):
    # no amplified map reaches the difference-set check (amplified implies
    # unity-free, so det(M^j - I) != 0); forcing "yes" on M = i, M^4 = I,
    # pins which pairs (m, n) it reports
    monkeypatch.setattr(classify, "amplified",
                        lambda f: AmplifiedVerdict("yes", "forced"))
    f = get_example("mult_by_i").endo
    assert verify_iterates(f, 8) == [
        "difference set infinite for m=4, n=0",
        "difference set infinite for m=5, n=1",
        "difference set infinite for m=6, n=2",
        "difference set infinite for m=7, n=3",
        "difference set infinite for m=8, n=0",
        "difference set infinite for m=8, n=4",
    ]


def composed_iterates_reference(f, kmax):
    """verify_iterates as a loop that builds every iterate f^k and decides
    unity-free, amplified and polarized on it."""
    violations = []
    base_free, _ = unity_free(f)
    base_amp = amplified(f)
    base_pol = polarized(f)
    h1_at_one = []
    for k in range(1, kmax + 1):
        g = iterate(f, k)
        free_k, _ = unity_free(g)
        h1_at_one.append(eigen_data(g).h1_charpoly(1))
        if free_k != base_free:
            violations.append(f"unity-free changed at iterate {k}")
        if base_amp.verdict == "yes" and amplified(g).verdict != "yes":
            violations.append(f"amplified lost at iterate {k}")
        if base_pol.verdict == "yes":
            pol_k = polarized(g)
            if pol_k.verdict != "yes" or pol_k.q != base_pol.q**k:
                violations.append(f"polarized(q^k) lost at iterate {k}")
    if base_amp.verdict == "yes":
        for m_idx in range(1, kmax + 1):
            for n_idx in range(m_idx):
                if h1_at_one[m_idx - n_idx - 1] == 0:
                    violations.append(
                        f"difference set infinite for m={m_idx}, n={n_idx}")
    return violations


def verify_iterates_data(f, kmax):
    """{(helper, k): value} for the eigen data (_eigen_data_of) and the NS
    charpoly (_ns_charpoly_of) of each f^k that verify_iterates(f, kmax)
    reads, with amplified forced to yes so that it reads the NS charpoly
    at every k."""
    seen = {}

    def recording(name):
        helper = getattr(classify, name)

        def call(*args):
            seen[name, args[-1]] = value = helper(*args)
            return value
        return call

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classify, "amplified", lambda g: AmplifiedVerdict("yes", "forced"))
        for name in ("_eigen_data_of", "_ns_charpoly_of"):
            patch.setattr(classify, name, recording(name))
        verify_iterates(f, kmax)
    return seen


@pytest.mark.parametrize("name", ["gtz_diag", "salem_surface", "e4_auto", "mult_2_1"])
def test_verify_iterates_takes_each_newton_step_once(monkeypatch, name):
    # with f's own verdicts known, as in a sweep, verify_iterates(f, 4)
    # builds the power sums of h1 to 4 d and of Gamma to 4 max(d, n^2),
    # each once; the independent checks on f^k build f^k's own
    f = get_example(name).endo
    unity_free(f), amplified(f), polarized(f)
    base = eigen_data(f)
    d, n = base.h1_charpoly.degree, len(base.analytic) - 1
    steps = []

    def counting(kernel):
        def call(coeffs, count, step=1):
            if tuple(coeffs) in (base.h1_charpoly.coeffs, base.analytic):
                steps.append((kernel.__name__, count * step))
            return kernel(coeffs, count, step)
        return call

    for module in (classify, endo):
        for kernel in (exactnum._int_power_sums, exactnum._power_sums):
            monkeypatch.setattr(module, kernel.__name__, counting(kernel))
    verify_iterates(f, 4)
    assert sorted(steps) == [("_int_power_sums", 4 * d), ("_power_sums", 4 * max(d, n * n))]


def test_a_corrupted_gamma_sequence_fails_the_identity(monkeypatch):
    # p_m(h1) = 2 Re p_m(Gamma) is checked on the two sequences; p_6 is
    # read at k = 2 and 3
    f = get_example("gtz_diag").endo
    unity_free(f), amplified(f), polarized(f)

    def corrupted(coeffs, count, step=1):
        sums = exactnum._power_sums(coeffs, count, step)
        re, im = sums[6]
        sums[6] = (re + 1, im)
        return sums

    monkeypatch.setattr(classify, "_power_sums", corrupted)
    with pytest.raises(InvariantViolation, match="analytic x conjugate"):
        verify_iterates(f, 4)


@pytest.mark.parametrize("denominator", [2, 3, 5, 6])
@pytest.mark.parametrize("n, seed", [(1, 3), (2, 11)])
def test_verify_iterates_matches_the_composed_iterates(denominator, n, seed):
    base = random_endo(n, order_by_name("gaussian"), 2, seed)
    tau = [Fraction(i + 1, denominator) for i in range(base.torus.rank)]
    f = make_endo(base.torus, base.m, tau)
    assert verify_iterates(f, 6) == composed_iterates_reference(f, 6)


@pytest.mark.parametrize("name", ["mult_by_i", "mult_2_1", "gtz_diag", "shear",
                                  "salem_surface", "mult_2_3"])
def test_verify_iterates_matches_the_composed_iterates_on_examples(name):
    f = get_example(name).endo
    assert verify_iterates(f, 6) == composed_iterates_reference(f, 6)


@given(st.sampled_from(["gaussian", "eisenstein", "quadratic(-2)"]),
       st.integers(1, 3), st.integers(1, 6), st.integers(0, 10**6),
       st.lists(st.fractions(-3, 3, max_denominator=6), min_size=12, max_size=12))
@settings(max_examples=30, deadline=None)
def test_iterate_data_is_derived_from_f(order, n, k, seed, tau):
    # the charpolys of f^k have the k-th powers of f's roots, and f^k acts
    # on NS as the k-th power of f's action
    base = random_endo(n, order_by_name(order), 2, seed)
    f = make_endo(base.torus, base.m, tau[:base.torus.rank])
    g = iterate(f, k)
    derived = eigen_data(f, k)
    assert derived == eigen_data(g)
    assert derived.analytic == eigen_data(g).analytic
    assert ns_action(f) ** k == ns_action(g)
    # verify_iterates(f, k) reads the same data of every f^j off one sequence
    seen = verify_iterates_data(f, k)
    for j in range(2, k + 1):
        data = eigen_data(iterate(f, j))
        assert seen["_eigen_data_of", j] == data
        assert seen["_eigen_data_of", j].analytic == data.analytic


PINNED_VERDICT_CASES = [("gaussian", 1, 3), ("gaussian", 2, 3), ("gaussian", 3, 2),
                        ("eisenstein", 1, 2), ("eisenstein", 2, 1),
                        ("quadratic(-2)", 1, 2), ("quadratic(-2)", 2, 1),
                        ("quadratic(-5)", 1, 2)]


def pinned_verdict_maps():
    for order, n, height in PINNED_VERDICT_CASES:
        for seed in range(20):
            yield random_endo(n, order_by_name(order), height, seed)
    for name in sorted(named_examples()):
        yield get_example(name).endo


def test_amplified_and_polarized_verdicts_are_pinned():
    # recorded when NS was the kernel of Lambda^2(J^T) - I with a primitive
    # integer basis; verdicts, witnesses and the spectrum of f^* on NS do
    # not depend on the basis of NS
    rows = []
    for f in pinned_verdict_maps():
        amp, pol = amplified(f), polarized(f)
        poly = charpoly(ns_action(f))  # an IntPolynomial when A is integral
        rows.append([[amp.verdict, amp.path, amp.witness],
                     [pol.verdict, pol.q, pol.witness, pol.reason],
                     [str(c) for c in getattr(poly, "coeffs", poly)]])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "c7f99f5f9bce5069ce7dc6d8b812e1f3de25524be5894c3505c5998eb3e4be04"
