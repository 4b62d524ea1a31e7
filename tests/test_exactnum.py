"""Exact number-theory layer: polynomials, cyclotomics, unit-circle
counts, certified magnitudes."""

import inspect
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toridyn import (DEFAULT_PRECISION, DomainError, IntPolynomial, InvariantViolation,
                     cyclotomic_poly, cyclotomic_root_count, eigen_data,
                     gaussian_order, named_examples, polynomial_class,
                     root_magnitudes, unit_circle_root_count)
from toridyn import exactnum

small_polys = st.lists(st.integers(-9, 9), min_size=2, max_size=7).filter(
    lambda cs: cs[-1] != 0)


# -- IntPolynomial basics

def test_polynomial_normalization_strips_leading_zeros():
    assert IntPolynomial([1, 2, 0, 0]).degree == 1
    assert IntPolynomial([]).is_zero()
    assert IntPolynomial([0]).is_zero()


@pytest.mark.parametrize("coeffs", [[Fraction(1, 2), 1], [2.7, 1], [1, 0, Fraction(-7, 3)],
                                    [float("nan"), 1], [float("inf")], [None], ["3", 1]])
def test_polynomial_refuses_a_coefficient_that_is_not_an_integer(coeffs):
    # int() used to truncate these: [1/2, 1] became x and [2.7, 1] became
    # x + 2, and every public function then answered for that polynomial
    with pytest.raises(DomainError, match="not an integer"):
        IntPolynomial(coeffs)


def test_polynomial_accepts_integral_values_of_any_type():
    p = IntPolynomial([Fraction(4, 2), 3.0, True])
    assert p == IntPolynomial([2, 3, 1]) and all(type(c) is int for c in p.coeffs)


@pytest.mark.parametrize("factor", [Fraction(1, 2), 2.7, Fraction(-7, 3), float("nan"),
                                    float("inf"), None, "3"])
def test_polynomial_refuses_a_factor_that_is_not_an_integer(factor):
    # such a factor used to reach is_zero() and raise AttributeError
    with pytest.raises(DomainError, match="not an integer"):
        IntPolynomial([1, 1]) * factor
    with pytest.raises(DomainError, match="not an integer"):
        factor * IntPolynomial([1, 1])


@pytest.mark.parametrize("factor", [Fraction(2), 2.0, 2, Fraction(4, 2)])
def test_polynomial_multiplies_integral_factors_of_any_type_as_ints(factor):
    for p in (IntPolynomial([1, 1]) * factor, factor * IntPolynomial([1, 1])):
        assert p == IntPolynomial([2, 2]) and all(type(c) is int for c in p.coeffs)


def test_polynomial_arithmetic_matches_sympy():
    p = IntPolynomial([1, -3, 2])
    q = IntPolynomial([5, 0, 0, 1])
    x = sympy.symbols("x")
    sp = lambda r: sympy.Poly(sum(c * x**i for i, c in enumerate(r.coeffs)), x)
    assert sp(p * q) == sp(p) * sp(q)
    assert sp(p + q) == sp(p) + sp(q)
    assert sp(p - q) == sp(p) - sp(q)


def test_try_divide_exact_and_inexact():
    p = IntPolynomial([-1, 0, 1])  # (x-1)(x+1)
    assert p.try_divide(IntPolynomial([-1, 1])) == IntPolynomial([1, 1])
    assert p.try_divide(IntPolynomial([2, 1])) is None
    # the quotient of x^2 + 1 by 2x + 1 has the leading coefficient 1/2
    assert IntPolynomial([1, 0, 1]).try_divide(IntPolynomial([1, 2])) is None


def test_reversal_and_reciprocal():
    p = IntPolynomial([1, -3, -4, -3, 1])
    assert p.is_reciprocal()
    assert p.reversal() == p
    assert not IntPolynomial([2, 3, 1]).is_reciprocal()


def test_squarefree_decomposition_reconstructs():
    p = IntPolynomial([-1, 1]) * IntPolynomial([-1, 1]) * IntPolynomial([2, 1])
    parts = p.squarefree_decomposition()
    acc = IntPolynomial([1])
    for f, m in parts:
        for _ in range(m):
            acc = acc * f
    # reconstruction up to the content of p
    assert acc == p or acc * p.content() == p


@given(small_polys, small_polys)
@settings(max_examples=50, deadline=None)
def test_gcd_divides_both(a, b):
    p, q = IntPolynomial(a), IntPolynomial(b)
    g = p.gcd(q)
    assert p.try_divide(g) is not None or p.primitive().try_divide(g.primitive()) is not None
    assert q.try_divide(g) is not None or q.primitive().try_divide(g.primitive()) is not None


# -- Newton's identities

@given(st.lists(st.integers(-30, 30), max_size=6), st.integers(0, 12),
       st.integers(2, 6), st.integers(1, 10))
@settings(max_examples=100, deadline=None)
def test_integer_newton_kernels_are_the_pair_kernels_on_real_input(lower, count, j, delta):
    coeffs = (*lower, 1)
    sums = exactnum._int_power_sums(coeffs, count)
    pairs = exactnum._power_sums([(c, 0) for c in coeffs], count)
    assert pairs == [(p, 0) for p in sums]
    full = exactnum._int_power_sums(coeffs, len(lower))
    assert exactnum._int_from_power_sums(full) == list(coeffs)
    assert exactnum._from_power_sums([(p, 0) for p in full]) == [(c, 0) for c in coeffs]
    # p_j moved by a delta that j does not divide moves b_j off the integers
    if j <= len(lower) and delta % j:
        full[j] += delta
        with pytest.raises(InvariantViolation, match="not exact"):
            exactnum._int_from_power_sums(full)
        with pytest.raises(InvariantViolation, match="not exact"):
            exactnum._from_power_sums([(p, 0) for p in full])


# -- cyclotomics

@pytest.mark.parametrize("n,expected", [
    (1, [-1, 1]),
    (2, [1, 1]),
    (4, [1, 0, 1]),
    (3, [1, 1, 1]),
    (6, [1, -1, 1]),
    (12, [1, 0, -1, 0, 1]),
])
def test_cyclotomic_poly_small(n, expected):
    assert cyclotomic_poly(n) == IntPolynomial(expected)


@given(st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_cyclotomic_degree_is_totient(n):
    assert cyclotomic_poly(n).degree == sympy.totient(n)


def test_prime_factors_match_sympy_up_to_5000():
    for n in range(1, 5001):
        assert exactnum._prime_factors(n) == sympy.factorint(n), n


@pytest.mark.parametrize("n", [10007 * 10009, 999983 * 1000003, 2**20 * 999983,
                               3**12 * 5**7, 2**40])
def test_prime_factors_of_semiprimes_and_prime_powers_match_sympy(n):
    assert exactnum._prime_factors(n) == sympy.factorint(n)


@pytest.mark.parametrize("n", range(1, 17))
def test_cyclotomic_indices_are_every_totient_at_most_n(n):
    # phi(k) >= sqrt(k / 2), so no k past 2 n^2 has phi(k) <= n
    bound = 2 * n * n + 2
    indices = exactnum._cyclotomic_indices(n)
    assert indices == tuple(k for k in range(1, bound + 1) if sympy.totient(k) <= n)
    assert all(sympy.totient(k) > n for k in range(bound + 1, 2 * bound))


def test_cyclotomic_root_count():
    p = cyclotomic_poly(4) * cyclotomic_poly(4) * IntPolynomial([-2, 1])
    count, factors = cyclotomic_root_count(p)
    assert count == 4
    assert (4, 2) in factors


def test_cyclotomic_value_is_the_value_of_the_polynomial():
    for n in range(1, 601):
        assert exactnum._cyclotomic_value(n, 2) == cyclotomic_poly(n)(2), n
    for x in (3, 31, 997, 10**9 + 7):
        for n in range(1, 61):
            assert exactnum._cyclotomic_value(n, x) == cyclotomic_poly(n)(x), (n, x)


def power(p: IntPolynomial, k: int) -> IntPolynomial:
    return math.prod([p] * k, start=IntPolynomial([1]))


X = sympy.Symbol("x")
SMALL_CYCLOTOMICS = {tuple(sympy.Poly(sympy.cyclotomic_poly(n, X), X).all_coeffs()): n
                     for n in range(1, 2 * 16 * 16 + 3) if sympy.totient(n) <= 16}


def cyclotomic_factors_by_sympy(p: IntPolynomial):
    """(count, [(n, multiplicity)]) from sympy's factorisation of p."""
    _, parts = sympy.factor_list(sympy.Poly(list(reversed(p.coeffs)), X))
    keys = [(tuple(f.all_coeffs()), m) for f, m in parts]
    found = sorted((SMALL_CYCLOTOMICS[k], m) for k, m in keys if k in SMALL_CYCLOTOMICS)
    return sum(sympy.totient(n) * m for n, m in found), found


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_cyclotomic_root_count_matches_sympy(seed):
    # products of Phi_n (phi(n) <= 16, up to cube) with random factors and
    # the edge factors x, x - 1, x + 1 and x - 2, and sometimes (x - 2)^k
    # for k up to 6: with x - 2, p(2) = 0 until the factor is divided out
    rng = random.Random(seed)
    n_choices = sorted(SMALL_CYCLOTOMICS.values())
    p = IntPolynomial([rng.choice([1, -1]) * rng.randint(1, 6)])  # the content
    for _ in range(rng.randint(0, 3)):
        p = p * power(cyclotomic_poly(rng.choice(n_choices)), rng.randint(1, 3))
    for _ in range(rng.randint(0, 2)):
        p = p * IntPolynomial([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
                              + [rng.choice([1, 2, 3])])
    for edge in rng.sample([[0, 1], [-1, 1], [1, 1], [-2, 1]], rng.randint(0, 4)):
        p = p * power(IntPolynomial(edge), rng.randint(1, 2))
    if rng.random() < 0.25:
        p = p * power(IntPolynomial([-2, 1]), rng.randint(1, 6))
    assume(p.degree <= 40)
    assert cyclotomic_root_count(p) == cyclotomic_factors_by_sympy(p), seed


@pytest.mark.parametrize("p, expected", [
    # Phi_1 and Phi_2 are found by the roots 1 and -1, not by a screen at 2
    pytest.param(IntPolynomial([1, 1]) * IntPolynomial([-2, 1]), (1, [(2, 1)]),
                 id="x+1-times-x-2"),
    pytest.param(power(IntPolynomial([-1, 1]), 2) * power(IntPolynomial([1, 1]), 3)
                 * IntPolynomial([0, 3]), (5, [(1, 2), (2, 3)]), id="roots-1-and-minus-1"),
    pytest.param(IntPolynomial([1, 1]) * cyclotomic_poly(6) * IntPolynomial([5, 0, 1]),
                 (3, [(2, 1), (6, 1)]), id="phi2-phi6-and-x2+5"),
    # the factors x - 2 are divided out before the screen at 2
    pytest.param(power(IntPolynomial([-2, 1]), 5) * power(cyclotomic_poly(10), 2)
                 * cyclotomic_poly(3) * IntPolynomial([1, 1]),
                 (11, [(2, 1), (3, 1), (10, 2)]), id="x-2-to-the-5-phi2-phi3-phi10"),
])
def test_cyclotomic_root_count_on_fixed_polynomials(p, expected):
    assert cyclotomic_factors_by_sympy(p) == expected
    assert cyclotomic_root_count(p) == expected


def test_sweep_builds_only_the_cyclotomics_it_screens_in():
    # Phi_n is built only when its screen at 2 passes, not for every n with
    # phi(n) <= 6; the count repeats exactly in a fresh process
    code = ("import toridyn.cli; from toridyn import exactnum; "
            "toridyn.cli.main(['sweep', '--count', '1', '--dim', '3', "
            "'--iterate', '2', '--seed', '0']); "
            "print(exactnum.cyclotomic_poly.cache_info().currsize, "
            "len(exactnum._cyclotomic_indices(6)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    built, indices = map(int, out.stdout.split("\n")[-2].split())
    assert built < indices


def test_a_root_at_2_builds_no_cyclotomic():
    # (x - 2)^16 is 0 at 2, which every Phi_n(2) divides; it is divided out
    # before the screen, so no Phi_n is built in a fresh process
    code = ("import math; from toridyn import exactnum; "
            "p = exactnum.IntPolynomial([math.comb(16, k) * (-2) ** (16 - k) "
            "for k in range(17)]); "
            "print(exactnum.cyclotomic_root_count(p), "
            "exactnum.cyclotomic_poly.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout == "(0, []) 0\n"


# -- unit circle counts

@pytest.mark.parametrize("coeffs,expected", [
    ([1, -3, -4, -3, 1], 2),   # Salem quartic
    ([1, 0, 1], 2),            # x^2 + 1
    ([-2, 1], 0),              # x - 2
    ([1, -3, 1], 0),           # reciprocal, both roots real off circle
    ([1, 1, 1, 1, 1], 4),      # Phi_5
])
def test_unit_circle_root_count(coeffs, expected):
    assert unit_circle_root_count(IntPolynomial(coeffs)) == expected


# -- integer Sturm counts

@st.composite
def squarefree_with_endpoints(draw):
    """A squarefree integer polynomial of degree 1..8 with some rational
    roots, and endpoints drawn from its rational roots, other rationals
    and None (for -oo or +oo)."""
    roots = draw(st.lists(st.fractions(-4, 4, max_denominator=5), max_size=3,
                          unique=True))
    p = IntPolynomial(draw(st.lists(st.integers(-9, 9), min_size=1, max_size=6)))
    for r in roots:
        p = p * IntPolynomial([-r.numerator, r.denominator])
    assume(1 <= p.degree <= 8 and p.gcd(p.derivative()).degree == 0)
    point = st.one_of(st.sampled_from(roots) if roots else st.nothing(),
                      st.fractions(-6, 6, max_denominator=7))
    lo, hi = sorted([draw(point), draw(point)])
    return p, draw(st.sampled_from([lo, None])), draw(st.sampled_from([hi, None]))


@given(squarefree_with_endpoints())
@settings(max_examples=150, deadline=None)
def test_real_root_count_matches_sympy(case):
    p, lo, hi = case
    poly = sympy.Poly(list(reversed(p.coeffs)), sympy.Symbol("x"))
    # sympy counts the closed interval [lo, hi]; ours is (lo, hi]
    expected = poly.count_roots(lo, hi) - (lo is not None and p(lo) == 0)
    assert exactnum._real_root_count(p, lo, hi) == expected


def test_import_does_not_load_sympy():
    code = "import sys, toridyn; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


def test_runtime_does_not_load_mpmath():
    # mpmath is a test dependency only: neither the package, a full report,
    # tight dynamical degrees nor roots beyond float range import it
    code = ("import sys, toridyn, toridyn.cli; from fractions import Fraction; "
            "print('mpmath' in sys.modules); "
            "toridyn.full_report(toridyn.get_example('e4_auto').endo); "
            "print('mpmath' in sys.modules); "
            "toridyn.dynamical_degrees(toridyn.get_example('gtz_diag').endo, "
            "Fraction(1, 10**30)); print('mpmath' in sys.modules); "
            "toridyn.root_magnitudes(toridyn.IntPolynomial([10**310, 1, 0, 1])); "
            "print('mpmath' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.split() == ["False"] * 4


def test_runtime_does_not_load_dataclasses():
    # the records build no code at import, so neither dataclasses nor the
    # inspect module it pulls in are loaded by the package, the CLI or a query
    code = ("import sys, toridyn, toridyn.cli; "
            "toridyn.cli.main(['classify', '--example', 'mult_2_3']); "
            "print('dataclasses' in sys.modules, 'inspect' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert "amplified" in out.stdout
    assert out.stdout.split()[-2:] == ["False", "False"]


# -- certified magnitudes

def test_salem_quartic_magnitudes():
    p = IntPolynomial([1, -3, -4, -3, 1])
    mags = root_magnitudes(p)
    entries = sorted(mags.entries, key=lambda e: e.lower)
    assert [e.multiplicity for e in entries] == [1, 2, 1]
    assert entries[1].lower == entries[1].upper == 1
    alpha = entries[2]
    assert alpha.upper - alpha.lower <= Fraction(1, 10**9)
    # alpha = 4.1301599497208... is the only root in [4, 5], where p rises
    # from p(4) = -11 to p(5) = 136, so the sign change brackets it exactly
    assert alpha.lower >= 4 and alpha.upper <= 5
    assert p(alpha.lower) <= 0 <= p(alpha.upper)


def test_rational_roots_are_exact_points():
    mags = root_magnitudes(IntPolynomial([2, 3, 1]))
    assert {(e.lower, e.upper) for e in mags.entries} == {(1, 1), (2, 2)}
    # complex pair -1 +/- i sqrt(3): |root|^2 = c/a = 4 gives the point 2
    mags = root_magnitudes(IntPolynomial([4, 2, 1]))
    assert [(e.lower, e.upper, e.multiplicity) for e in mags.entries] == [(2, 2, 2)]
    # a rational |root| is k/|a_d|, also for irreducible factors of degree
    # >= 3 and for leading coefficients other than 1
    cases = [([16, 0, 1, 0, 1], DEFAULT_PRECISION, (2, 2, 4)),
             ([1, 0, 4], DEFAULT_PRECISION, (Fraction(1, 2), Fraction(1, 2), 2)),
             ([1, 0, 10**6], Fraction(1, 1000), (Fraction(1, 1000), Fraction(1, 1000), 2))]
    for coeffs, precision, entry in cases:
        mags = root_magnitudes(IntPolynomial(coeffs), precision)
        assert [(e.lower, e.upper, e.multiplicity) for e in mags.entries] == [entry]
    # |root| = sqrt(2)/1000 is irrational, but an interval 1/1000 wide holds
    # many candidates k/10^6: the grid is refined until none is held
    mags = root_magnitudes(IntPolynomial([-2, 0, 10**6]), Fraction(1, 1000))
    assert sum(e.multiplicity for e in mags.entries) == 2
    for e in mags.entries:
        assert e.lower < e.upper and e.lower**2 * 10**6 < 2 < e.upper**2 * 10**6
    # (x - 2)(x - 10^10) + 1 has a root about 1e-10 above 2: the interval
    # that holds the candidate 2 at precision 1/10 must not snap to it
    p = IntPolynomial([2 * 10**10 + 1, -(10**10 + 2), 1])
    near = min(root_magnitudes(p, Fraction(1, 10)).entries, key=lambda e: e.lower)
    assert 2 < near.lower and near.upper - near.lower <= Fraction(1, 10)
    assert p(near.lower) >= 0 >= p(near.upper)  # p falls through the root


def test_magnitude_of_cyclotomic_products_is_exact_one():
    p = cyclotomic_poly(5) * cyclotomic_poly(8)
    mags = root_magnitudes(p)
    assert len(mags.entries) == 1
    e = mags.entries[0]
    assert e.lower == e.upper == 1 and e.multiplicity == 8


def test_magnitudes_respect_multiplicity():
    p = IntPolynomial([-2, 1]) * IntPolynomial([-2, 1]) * IntPolynomial([0, 1])
    mags = root_magnitudes(p)
    assert sum(e.multiplicity for e in mags.entries) == 3
    assert any(e.lower == 0 and e.multiplicity == 1 for e in mags.entries)
    assert any(e.lower == 2 and e.multiplicity == 2 for e in mags.entries)


@given(st.lists(st.integers(-6, 6), min_size=2, max_size=5).filter(
    lambda cs: cs[-1] != 0))
@settings(max_examples=25, deadline=None)
def test_magnitude_product_encloses_constant_over_lead(cs):
    p = IntPolynomial(cs)
    if p[0] == 0 or p.degree < 1:
        return
    mags = root_magnitudes(p, Fraction(1, 10**6))
    lo = hi = Fraction(1)
    for e in mags.entries:
        lo *= e.lower**e.multiplicity
        hi *= e.upper**e.multiplicity
    target = Fraction(abs(p[0]), abs(p[p.degree]))
    assert lo <= target <= hi


def test_magnitude_errors():
    with pytest.raises(DomainError):
        root_magnitudes(IntPolynomial([]))
    with pytest.raises(DomainError):
        root_magnitudes(IntPolynomial([1, 1]), Fraction(0))


def test_magnitudes_of_gaussian_diagonal_h1():
    # H^1 charpoly of diag(1+2i, 2+i): every root has modulus sqrt(5)
    h1 = IntPolynomial([5, -2, 1]) * IntPolynomial([5, -4, 1])
    mags = root_magnitudes(h1)
    assert sum(e.multiplicity for e in mags.entries) == 4
    for e in mags.entries:
        assert e.lower**2 <= 5 <= e.upper**2
        assert e.upper - e.lower <= Fraction(1, 10**9)


def oracle_moduli(coeffs):
    """|root| with multiplicity: mpmath.polyroots at 60 digits on each
    squarefree factor from sympy."""
    poly = sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"))
    moduli = []
    for factor, mult in poly.sqf_list()[1]:
        if factor.degree() >= 1:
            roots = mpmath.polyroots([int(c) for c in factor.all_coeffs()],
                                     maxsteps=500, extraprec=300)
            moduli += [abs(r) for r in roots] * mult
    return moduli


def encloses(mags, moduli):
    """Each modulus is matched to its own interval slot (greedy by upper
    end, which finds a matching whenever one exists)."""
    slack = mpmath.mpf(10) ** -40
    slots = sorted((mpmath.mpf(e.upper.numerator) / e.upper.denominator,
                    mpmath.mpf(e.lower.numerator) / e.lower.denominator)
                   for e in mags.entries for _ in range(e.multiplicity))
    for m in sorted(moduli):
        hit = next((i for i, (hi, lo) in enumerate(slots)
                    if lo - slack <= m <= hi + slack), None)
        if hit is None:
            return False
        del slots[hit]
    return not slots


@given(st.lists(st.integers(-9, 9), min_size=4, max_size=9).filter(
    lambda cs: cs[-1] != 0))
@settings(max_examples=40, deadline=None)
def test_certified_magnitudes_contain_oracle_moduli(cs):
    p = IntPolynomial(cs)
    mags = root_magnitudes(p)
    with mpmath.workdps(60):
        assert encloses(mags, oracle_moduli(cs))
    assert all(e.upper - e.lower <= mags.precision for e in mags.entries)
    exact_ones = sum(e.multiplicity for e in mags.entries if e.lower == e.upper == 1)
    assert exact_ones == unit_circle_root_count(p)


@pytest.mark.parametrize("a,precision,floats_overlap", [
    (100, Fraction(1, 10**30), False),
    (10**4, Fraction(1, 10**9), True),
])
def test_mignotte_close_roots_escalate(monkeypatch, a, precision, floats_overlap):
    # x^5 - 2(ax - 1)^2 is irreducible (Eisenstein at 2) and has two roots
    # about 2.8 a^-3.5 apart near 1/a.  At a = 100 the float disks are
    # disjoint but too wide for 1e-30; at a = 10^4 they overlap, so the
    # first refined round starts from the Newton polygon seeds.
    p = IntPolynomial([-2, 4 * a, -2 * a * a, 0, 0, 1])
    rounds = []
    real = exactnum._weierstrass

    def counting(coeffs, centres, k):
        rounds.append(centres == exactnum._newton_seeds(coeffs, k))
        return real(coeffs, centres, k)

    monkeypatch.setattr(exactnum, "_weierstrass", counting)
    mags = root_magnitudes(p, precision)
    # round 0 certifies the float proposals; round 1 is the first refined one
    assert len(rounds) > 1 and rounds[0] is False and rounds[1] is floats_overlap
    assert sum(e.multiplicity for e in mags.entries) == 5
    assert all(e.upper - e.lower <= precision for e in mags.entries)
    with mpmath.workdps(60):
        assert encloses(mags, oracle_moduli(p.coeffs))


def test_magnitudes_beyond_float_range():
    # x^3 + x + 10^310: the float proposals overflow, so the Weierstrass
    # steps start from the Newton polygon seeds.
    # Every |root| is 10^(310/3) up to a relative 10^-200.
    p = IntPolynomial([10**310, 1, 0, 1])
    mags = root_magnitudes(p)
    assert sum(e.multiplicity for e in mags.entries) == 3
    with mpmath.workdps(400):
        target = mpmath.cbrt(mpmath.mpf(10) ** 310)
        for e in mags.entries:
            assert e.upper - e.lower <= mags.precision
            assert mpmath.mpf(e.lower.numerator) / e.lower.denominator <= target
            assert target <= mpmath.mpf(e.upper.numerator) / e.upper.denominator


def aberth_sweeps(coeffs):
    """(proposals, sweeps) of exactnum._float_roots, the sweeps counted by
    a trace on the line that starts each one."""
    code = exactnum._float_roots.__code__
    lines, start = inspect.getsourcelines(exactnum._float_roots)
    head = start + next(i for i, line in enumerate(lines) if "moved = False" in line)
    sweeps = 0

    def tracer(frame, event, arg):
        nonlocal sweeps
        if frame.f_code is not code:
            return None
        sweeps += event == "line" and frame.f_lineno == head
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        zs = exactnum._float_roots(coeffs)
    finally:
        sys.settrace(previous)
    return zs, sweeps


def _named_h1_factors():
    return {factor.coeffs for sc in named_examples().values()
            for factor, _ in eigen_data(sc.endo).h1_charpoly.squarefree_decomposition()}


# (x - 1)(x - 2) and x^2 - 3x + 1 are among them
@pytest.mark.parametrize("coeffs", sorted(_named_h1_factors() | {(2, -3, 1), (1, -3, 1)}),
                         ids=str)
def test_float_proposals_converge_in_a_few_sweeps_from_the_centroid(coeffs):
    # started around the root centroid, the Aberth sweeps find the real and
    # reciprocal roots of these factors in at most 8 sweeps (4 or 5 each);
    # started on |z| = |a_0 / a_d|^(1/d) around 0 they took 28 to 33
    zs, sweeps = aberth_sweeps(list(coeffs))
    assert sweeps <= 8
    with mpmath.workdps(60):
        roots = mpmath.polyroots(list(reversed(coeffs)), maxsteps=200, extraprec=100)
        for r in roots:
            z = min(zs, key=lambda z: abs(z - complex(r)))
            assert abs(mpmath.mpc(z) - r) <= mpmath.mpf(2) ** -40 * abs(r)
        assert len({min(range(len(zs)), key=lambda i: abs(zs[i] - complex(r)))
                    for r in roots}) == len(zs)


# -- polynomial classification

POLYNOMIAL_CLASS_CASES = [
    ([1, 0, 1], "cyclotomic-product"),
    ([1, -3, -4, -3, 1], "salem"),
    ([1, -3, 1], "off-circle-reciprocal"),
    ([-2, 1], "other"),
    ([2, 0, 0, 1], "other"),
    ([1, 0, -1, 0, 1], "cyclotomic-product"),  # Phi_12
    ([-1, 0, 1], "cyclotomic-product"),        # Phi_1 * Phi_2
]


@pytest.mark.parametrize("coeffs,expected", POLYNOMIAL_CLASS_CASES)
def test_polynomial_class(coeffs, expected):
    assert polynomial_class(IntPolynomial(coeffs)) == expected


def test_polynomial_class_reads_kronecker_off_the_unit_circle_count(monkeypatch):
    # a monic integer polynomial with p(0) != 0 and every root on the unit
    # circle has only roots of unity as roots (Kronecker 1857), so the
    # exact unit-circle count decides 'cyclotomic-product' with no
    # cyclotomic trial division
    from toridyn.classify import _radical
    from toridyn.endo import eigen_data
    from toridyn.scenarios import named_examples

    cases = [(IntPolynomial(c), expected) for c, expected in POLYNOMIAL_CLASS_CASES]
    radicals = [_radical(eigen_data(sc.endo).h1_charpoly)
                for sc in named_examples().values()]
    expected = [polynomial_class(p) for p in radicals]

    def no_trial_division(p):
        raise AssertionError("cyclotomic trial division was run")

    monkeypatch.setattr(exactnum, "cyclotomic_root_count", no_trial_division)
    assert [polynomial_class(p) for p, _ in cases] == [e for _, e in cases]
    assert [polynomial_class(p) for p in radicals] == expected
    assert "cyclotomic-product" in expected


@pytest.mark.parametrize("name", ["e4_auto", "mult_2_1", "mult_by_i", "shear"])
def test_unit_circle_count_of_the_radical_is_computed_once(name):
    # the certified magnitudes count the unit-circle roots of the radical
    # of h1 for the candidate modulus 1, and polynomial_class reuses it
    from toridyn.classify import _radical
    from toridyn.endo import eigen_data
    from toridyn.scenarios import get_example

    h1 = eigen_data(get_example(name).endo).h1_charpoly
    unit_circle_root_count.cache_clear()
    for factor, _ in h1.squarefree_decomposition():
        exactnum._disk_magnitudes(factor, DEFAULT_PRECISION)
    computed = unit_circle_root_count.cache_info().misses
    polynomial_class(_radical(h1))
    assert unit_circle_root_count.cache_info().misses == computed >= 1


def test_serialize_round_trip():
    p = IntPolynomial([5, -2, 1])
    assert p.serialize() == ["5", "-2", "1"]
    assert IntPolynomial(int(c) for c in p.serialize()) == p
