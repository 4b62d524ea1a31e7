"""Exact scalars and univariate polynomials.

Integer polynomials with exact arithmetic, Gaussian rationals, cyclotomic
factor extraction, Kronecker/Salem classification, and certified rational
enclosures of root magnitudes.  Root-of-unity and unit-circle detection
never consult floating point.  For magnitudes, floats (then mpmath at
rising precision) only propose roots; each proposal set is certified in
exact Gaussian-integer arithmetic by pairwise-disjoint inclusion disks
(Braess-Hadeler 1973; Carstensen 1991), each holding exactly one root.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import mpmath
import sympy as _sp

from .errors import DomainError

_X = _sp.Symbol("x")

#: Default certification width for root magnitudes.
DEFAULT_PRECISION = Fraction(1, 10**9)


# ---------------------------------------------------------------------------
# Integer polynomials


class IntPolynomial:
    """Dense univariate polynomial, coefficients ascending from the constant
    term.  Immutable.  Arithmetic is exact and stays in the integers:
    division is integer long division, accepted only when the quotient is
    integral (pseudo-remainders in gcd always are)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- structure

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"

    def __call__(self, value):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    # -- arithmetic

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial([self[i] + other[i] for i in range(n)])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial([self[i] - other[i] for i in range(n)])

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return IntPolynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def _int_divmod(self, other: "IntPolynomial"):
        """Long division in integers: (quotient, remainder) coefficient
        lists, or None as soon as a quotient coefficient is not an integer
        (the quotient over Q is then not integral)."""
        if other.is_zero():
            raise DomainError("division by the zero polynomial")
        d = other.degree
        div = other.coeffs
        rem = list(self.coeffs)
        quo = [0] * max(len(rem) - d, 1)
        for k in range(len(rem) - 1 - d, -1, -1):
            q, r = divmod(rem[k + d], div[-1])
            if r:
                return None
            if q:
                quo[k] = q
                for i in range(d + 1):
                    rem[k + i] -= q * div[i]
        return quo, rem[:d]

    def try_divide(self, other: "IntPolynomial"):
        """Exact quotient as an IntPolynomial, or None when the division
        leaves a remainder or a non-integer coefficient."""
        result = self._int_divmod(other)
        if result is None or any(result[1]):
            return None
        return IntPolynomial(result[0])

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive(self) -> "IntPolynomial":
        c = self.content()
        if c == 0:
            return self
        sign = -1 if self.coeffs[-1] < 0 else 1
        return IntPolynomial([x // (sign * c) for x in self.coeffs])

    def gcd(self, other: "IntPolynomial") -> "IntPolynomial":
        """Primitive gcd over Q (normalised with positive leading
        coefficient)."""
        a, b = self.primitive(), other.primitive()
        while not b.is_zero():
            # the pseudo-remainder keeps every quotient coefficient integral
            _, rem = (a * b.coeffs[-1] ** (max(a.degree - b.degree, 0) + 1))._int_divmod(b)
            a, b = b, IntPolynomial(rem).primitive()
        return a.primitive()

    def reversal(self) -> "IntPolynomial":
        """x^deg * p(1/x)."""
        return IntPolynomial(list(reversed(self.coeffs)))

    def is_reciprocal(self) -> bool:
        """p equals +/- its reversal."""
        rev = self.reversal()
        return self == rev or self == -rev

    def squarefree_decomposition(self):
        """Yun's algorithm on the primitive part: list of (factor, mult)."""
        p = self.primitive()
        if p.degree < 1:
            return []
        out = []
        dp = p.derivative()
        a = p.gcd(dp)
        b = p.try_divide(a)
        c = dp.try_divide(a)
        i = 1
        while b.degree >= 1:
            d = c - b.derivative()
            g = b.gcd(d)
            if g.degree >= 1:
                out.append((g, i))
            b2 = b.try_divide(g)
            c = d.try_divide(g)
            b = b2
            i += 1
        return out

    def to_sympy(self):
        return _sp.Poly(list(reversed(self.coeffs)), _X, domain="ZZ")

    def serialize(self):
        """Ascending coefficient list as decimal strings."""
        return [str(c) for c in self.coeffs]


# ---------------------------------------------------------------------------
# Gaussian rationals


@dataclass(frozen=True)
class GaussianRational:
    """Element of Q(i) with exact field arithmetic."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(Fraction(value), Fraction(0))

    def __add__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.of(other) - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.of(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return self * GaussianRational(other.re / n, -other.im / n)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}i)"


# ---------------------------------------------------------------------------
# Certified magnitudes


@dataclass(frozen=True)
class MagnitudeEntry:
    lower: Fraction
    upper: Fraction
    multiplicity: int

    def is_exact(self) -> bool:
        return self.lower == self.upper

    def contains(self, value) -> bool:
        return self.lower <= value <= self.upper


@dataclass(frozen=True)
class CertifiedMagnitudeMultiset:
    """Certified rational enclosures of the magnitudes of all roots of a
    polynomial, with exact multiplicities."""

    entries: tuple
    precision: Fraction

    def total_multiplicity(self) -> int:
        return sum(e.multiplicity for e in self.entries)

    def sorted_descending(self):
        """Entries expanded to one item per root, sorted by interval
        midpoint descending.  Safe for top-k products because equal true
        values yield equal products regardless of which entry is picked."""
        expanded = []
        for e in self.entries:
            expanded.extend([e] * e.multiplicity)
        expanded.sort(key=lambda e: e.lower + e.upper, reverse=True)
        return expanded


# ---------------------------------------------------------------------------
# Cyclotomic machinery


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial, monic of degree phi(n)."""
    if n < 1:
        raise DomainError("cyclotomic index must be >= 1")
    # x^n - 1 divided by the cyclotomics of the proper divisors
    p = IntPolynomial([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            p = p.try_divide(cyclotomic_poly(d))
    return p


def _euler_phi(n: int) -> int:
    result = n
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _cyclotomic_indices(max_degree: int):
    """All n with phi(n) <= max_degree; phi(n) >= sqrt(n/2) bounds the
    search."""
    bound = 2 * max_degree * max_degree + 2
    return [n for n in range(1, bound + 1) if _euler_phi(n) <= max_degree]


def cyclotomic_root_count(p: IntPolynomial):
    """Number of roots of p (with multiplicity) that are roots of unity,
    together with the list of (n, multiplicity) cyclotomic factors."""
    if p.is_zero():
        raise DomainError("zero polynomial has no root-of-unity count")
    remaining = p.primitive()
    count = 0
    factors = []
    for n in _cyclotomic_indices(p.degree):
        phi_n = cyclotomic_poly(n)
        if phi_n.degree > remaining.degree:
            continue
        mult = 0
        while True:
            quo = remaining.try_divide(phi_n)
            if quo is None:
                break
            remaining = quo
            mult += 1
        if mult:
            count += mult * phi_n.degree
            factors.append((n, mult))
    return count, factors


def is_kronecker(p: IntPolynomial) -> bool:
    """True iff every root of p lies on the unit circle; decided exactly as
    p being a product of cyclotomic polynomials."""
    if not p.is_monic():
        raise DomainError("Kronecker test requires a monic polynomial")
    count, _ = cyclotomic_root_count(p)
    return count == p.degree


# ---------------------------------------------------------------------------
# Unit-circle root counting (exact, for roots that need not be cyclotomic)


def _strip_root(p: IntPolynomial, r: int):
    """Divide out (x - r) while it divides; return (quotient, multiplicity)."""
    lin = IntPolynomial([-r, 1])
    mult = 0
    while p.degree >= 1 and p(r) == 0:
        p = p.try_divide(lin)
        mult += 1
    return p, mult


def _trace_polynomial(p: IntPolynomial) -> IntPolynomial:
    """For palindromic p of even degree 2m, the unique t of degree m with
    p(x) = x^m * t(x + 1/x)."""
    m = p.degree // 2
    # basis polys b_k(y) with x^k + x^-k = b_k(x + 1/x)
    basis = [IntPolynomial([2]), IntPolynomial([0, 1])]
    for k in range(2, m + 1):
        basis.append(IntPolynomial([0, 1]) * basis[k - 1] - basis[k - 2])
    t = IntPolynomial([p[m]])
    for k in range(1, m + 1):
        t = t + p[m + k] * basis[k]
    return t


def _sturm_count(p: IntPolynomial, lo, hi) -> int:
    """Number of real roots of squarefree p in the closed interval
    [lo, hi] (exact Sturm via sympy)."""
    return p.to_sympy().count_roots(_sp.Rational(lo), _sp.Rational(hi))


def unit_circle_root_count(p: IntPolynomial) -> int:
    """Exact count (with multiplicity) of roots of p on the unit circle.

    Unit-circle roots of a real polynomial are closed under z -> 1/z, so
    they live in gcd(p, reversal(p)); after stripping x = +/-1 the rest is
    palindromic of even degree and reduces to counting real roots of the
    trace polynomial in (-2, 2)."""
    if p.is_zero():
        raise DomainError("zero polynomial")
    total = 0
    for factor, mult in p.squarefree_decomposition():
        if factor.degree < 1:
            continue
        r = factor.gcd(factor.reversal())
        r, m1 = _strip_root(r, 1)
        r, m2 = _strip_root(r, -1)
        circle = m1 + m2
        if r.degree >= 2:
            t = _trace_polynomial(r)
            circle += 2 * _sturm_count(t, -2, 2)
        total += circle * mult
    return total


# ---------------------------------------------------------------------------
# Certified root magnitudes


def _exact_sqrt(m2: Fraction):
    """sqrt(m2) when it is rational, else None."""
    if m2 < 0:
        return None
    num, den = isqrt(m2.numerator), isqrt(m2.denominator)
    if num * num == m2.numerator and den * den == m2.denominator:
        return Fraction(num, den)
    return None


def _exact_magnitude(q: IntPolynomial):
    """The common |root| of an irreducible linear factor, or of a quadratic
    with a complex root pair (|root|^2 = c/a), when it is rational."""
    if q.degree == 1:
        return abs(Fraction(q[0], q[1]))
    if q.degree == 2 and q[1] * q[1] < 4 * q[0] * q[2]:
        return _exact_sqrt(Fraction(q[0], q[2]))
    return None


def _float_roots(coeffs):
    """Root proposals for an integer polynomial (ascending coefficients,
    nonzero constant term) from the Aberth-Ehrlich iteration in complex
    floats; None when floats overflow or the iteration breaks down."""
    d = len(coeffs) - 1
    try:
        monic = [c / coeffs[-1] for c in reversed(coeffs)]
        radius = abs(monic[-1]) ** (1 / d)
        zs = [radius * cmath.exp(1j * (2 * math.pi * j / d + 0.4)) for j in range(d)]
        for _ in range(100):
            moved = False
            for i, z in enumerate(zs):
                p = dp = 0j
                for c in monic:
                    dp = dp * z + p
                    p = p * z + c
                if p == 0:
                    continue
                ratio = p / dp
                pull = sum(1 / (z - u) for j, u in enumerate(zs) if j != i)
                step = ratio / (1 - ratio * pull)
                zs[i] = z - step
                moved = moved or abs(step) > 2**-50 * abs(z)
            if not moved:
                break
    except (OverflowError, ZeroDivisionError):
        return None
    return zs if all(cmath.isfinite(z) for z in zs) else None


def _mp_roots(coeffs, dps, seeds):
    """Root proposals from mpmath's Durand-Kerner iteration at dps digits,
    started from seeds when given; None when it does not converge."""
    try:
        with mpmath.workdps(dps):
            return mpmath.polyroots(coeffs[::-1], maxsteps=4 * dps,
                                    extraprec=dps, roots_init=seeds)
    except mpmath.mp.NoConvergence:
        return None


def _scaled(v, k: int) -> int:
    """round(v * 2^k), exactly, for a float or an mpmath mpf."""
    if isinstance(v, float):
        m, e = math.frexp(v)
        man, exp = int(m * 2**53), e - 53
    else:
        sign, man, exp, _ = v._mpf_
        man = -man if sign else man
    shift = exp + k
    return man << shift if shift >= 0 else (man + (1 << (-shift - 1))) >> -shift


def _centres(zs, k: int, bits: int):
    """Dyadic Gaussian centres round(z 2^k) for proposals good to about
    `bits` bits, made conjugate-symmetric as the roots of a real polynomial
    are: imaginary parts below 2^(-bits/2) become 0, and when the two
    half-planes hold equally many proposals the lower ones are replaced by
    the conjugates of the upper ones."""
    pts = [(_scaled(z.real, k), _scaled(z.imag, k)) for z in zs]
    tol = 1 << max(k - bits // 2, 0)
    upper = [(x, y) for x, y in pts if y > tol]
    real = [(x, 0) for x, y in pts if -tol <= y <= tol]
    if 2 * len(upper) + len(real) != len(pts):
        return pts
    return real + upper + [(x, -y) for x, y in upper]


def _inclusion_radii(coeffs, centres, k: int):
    """Integer R_i with R_i / 2^k >= d |p(z_i)| / |a_d prod_{j != i} (z_i - z_j)|
    for the centres z_i = (x_i + i y_i) / 2^k of a polynomial p of degree d
    (ascending integer coefficients), or None when two centres coincide or
    two of the disks |z - z_i| <= R_i / 2^k meet.

    Every root of p lies in the union of these disks, and a connected
    component of m disks holds exactly m roots (Braess-Hadeler 1973;
    Carstensen 1991, LAA 157), so pairwise-disjoint disks hold exactly one
    root each.  All arithmetic is over the Gaussian integers."""
    d = len(coeffs) - 1
    lead = coeffs[-1]
    radii = []
    for i, (x, y) in enumerate(centres):
        pr, pi = lead, 0  # 2^(kd) p(z_i) by Horner
        for j in range(d - 1, -1, -1):
            pr, pi = pr * x - pi * y + (coeffs[j] << (k * (d - j))), pr * y + pi * x
        qr, qi = lead, 0  # 2^(k(d-1)) a_d prod_{j != i} (z_i - z_j)
        for j, (u, v) in enumerate(centres):
            if j != i:
                qr, qi = qr * (x - u) - qi * (y - v), qr * (y - v) + qi * (x - u)
        norm = qr * qr + qi * qi
        if norm == 0:
            return None
        radii.append(isqrt(-(-d * d * (pr * pr + pi * pi) // norm)) + 1)
    for i, (x, y) in enumerate(centres):
        for j in range(i):
            u, v = centres[j]
            if (x - u) ** 2 + (y - v) ** 2 <= (radii[i] + radii[j]) ** 2:
                return None
    return radii


def _disk_magnitudes(q: IntPolynomial, precision: Fraction):
    """Certified |root| intervals for an irreducible integer polynomial of
    degree >= 2.

    Float proposals, then mpmath ones at doubling precision, are rounded to
    dyadic centres and certified by exact inclusion disks.  A round is
    accepted when the disks are disjoint, every interval that excludes 1 is
    at most `precision` wide, and as many intervals contain 1 as the exact
    count of unit-circle roots; those intervals snap to the point [1, 1]."""
    coeffs = q.coeffs
    # intervals are rounded outward to the grid 2^-scale
    scale = (precision.denominator // precision.numerator).bit_length() + 8
    zs, bits, dps = _float_roots(coeffs), 53, 0
    on_circle = None
    while True:
        radii = None
        if zs is not None:
            k = max(bits, scale)
            centres = _centres(zs, k, bits)
            radii = _inclusion_radii(coeffs, centres, k)
        if radii is not None:
            one, shift = 1 << scale, k - scale
            boxed = []
            for (x, y), r in zip(centres, radii):
                c = isqrt(x * x + y * y)  # |root| is within r of |z|
                boxed.append((max(c - r, 0) >> shift, -(-(c + r + 1) >> shift)))
            meets = sum(lo <= one <= hi for lo, hi in boxed)
            if meets and on_circle is None:
                on_circle = unit_circle_root_count(q)
            if meets != (on_circle or 0):
                scale = k  # a root off the circle is too close to 1 for the grid
            elif all(Fraction(hi - lo, one) <= precision
                     for lo, hi in boxed if not lo <= one <= hi):
                return [MagnitudeEntry(Fraction(1), Fraction(1), 1) if lo <= one <= hi
                        else MagnitudeEntry(Fraction(lo, one), Fraction(hi, one), 1)
                        for lo, hi in boxed]
        if dps > 5000:  # pragma: no cover - safety valve
            raise DomainError("root magnitude refinement failed to converge")
        # disjoint disks mean the proposals are good seeds for the next round
        seeds = None if radii is None else [mpmath.mpc(z) for z in zs]
        dps = max(2 * dps, 15 + 3 * scale // 10)
        zs, bits = _mp_roots(coeffs, dps, seeds), int(3.32 * dps)


def _magnitude_intervals(factor: IntPolynomial, precision: Fraction):
    """Certified |root| intervals for a squarefree integer polynomial with
    nonzero constant term.

    The polynomial is factored over Q first: a linear factor, or a complex
    quadratic pair whose |root|^2 = c/a is a rational square, gives an exact
    point; every other irreducible factor goes through the inclusion-disk
    certificate."""
    entries = []
    _, factors = factor.to_sympy().factor_list()
    for fac, _mult in factors:
        q = IntPolynomial([int(c) for c in reversed(fac.all_coeffs())])
        exact = _exact_magnitude(q)
        if exact is not None:
            entries.append(MagnitudeEntry(exact, exact, q.degree))
        else:
            entries.extend(_disk_magnitudes(q, precision))
    return entries


def root_magnitudes(p: IntPolynomial, precision=DEFAULT_PRECISION) -> CertifiedMagnitudeMultiset:
    """Certified enclosures of all root magnitudes of p with exact
    multiplicities; each interval has width <= precision.  Cached: the
    classification layer asks for the same charpoly repeatedly."""
    return _root_magnitudes_cached(p, Fraction(precision))


@lru_cache(maxsize=1024)
def _root_magnitudes_cached(p: IntPolynomial, precision: Fraction) -> CertifiedMagnitudeMultiset:
    if p.is_zero():
        raise DomainError("zero polynomial has no roots to enclose")
    if precision <= 0:
        raise DomainError("precision must be positive")
    entries = []
    # roots at zero
    k = 0
    while p[k] == 0 and k <= p.degree:
        k += 1
    if k:
        entries.append(MagnitudeEntry(Fraction(0), Fraction(0), k))
        p = IntPolynomial(p.coeffs[k:])
    for factor, mult in p.squarefree_decomposition():
        if factor.degree < 1:
            continue
        # exact magnitude 1 for the cyclotomic part without any numerics
        remaining = factor
        cyc_degree = 0
        for n in _cyclotomic_indices(factor.degree):
            phi_n = cyclotomic_poly(n)
            # phi_n | remaining forces phi_n(2) | remaining(2)
            if phi_n.degree > remaining.degree or remaining(2) % phi_n(2):
                continue
            quo = remaining.try_divide(phi_n)
            if quo is not None:
                remaining = quo
                cyc_degree += phi_n.degree
        if cyc_degree:
            entries.append(MagnitudeEntry(Fraction(1), Fraction(1), cyc_degree * mult))
        if remaining.degree >= 1:
            for e in _magnitude_intervals(remaining, precision):
                entries.append(MagnitudeEntry(e.lower, e.upper, e.multiplicity * mult))
    # merge identical intervals
    merged = {}
    for e in entries:
        key = (e.lower, e.upper)
        merged[key] = merged.get(key, 0) + e.multiplicity
    out = tuple(MagnitudeEntry(lo, hi, m) for (lo, hi), m in sorted(merged.items()))
    return CertifiedMagnitudeMultiset(out, precision)


# ---------------------------------------------------------------------------
# Polynomial classification


def polynomial_class(p: IntPolynomial) -> str:
    """One of 'cyclotomic-product', 'salem', 'off-circle-reciprocal',
    'other'.

    Salem here requires at least one unit-circle conjugate pair, so a
    degree-2 reciprocal polynomial with real roots is off-circle-reciprocal.
    """
    if p.is_zero() or p[0] == 0:
        raise DomainError("classification requires a nonzero constant term")
    if not p.is_monic():
        raise DomainError("classification requires a monic polynomial")
    if is_kronecker(p):
        return "cyclotomic-product"
    reciprocal = p.is_reciprocal()
    circle = unit_circle_root_count(p)
    if reciprocal:
        # multiplicity-aware real root counts off the circle
        above_one = 0
        in_unit = 0
        for factor, mult in p.squarefree_decomposition():
            if factor.degree < 1:
                continue
            above_one += mult * _count_real_roots_above(factor, Fraction(1))
            in_unit += mult * _count_real_roots_between(factor, Fraction(0), Fraction(1))
        if (above_one == 1 and in_unit == 1 and circle == p.degree - 2
                and circle >= 2):
            return "salem"
        if circle == 0:
            return "off-circle-reciprocal"
    return "other"


def _cauchy_bound(p: IntPolynomial) -> int:
    lead = abs(p.coeffs[-1])
    return 1 + max(abs(c) for c in p.coeffs) // lead + 1


def _count_real_roots_above(p: IntPolynomial, threshold: Fraction) -> int:
    """Real roots of squarefree p strictly above threshold."""
    lin = IntPolynomial([-threshold.numerator, threshold.denominator])
    if p(threshold) == 0:
        p = p.try_divide(lin) or p
    return _sturm_count(p, threshold, _cauchy_bound(p))


def _count_real_roots_between(p: IntPolynomial, lo: Fraction, hi: Fraction) -> int:
    """Real roots in the open interval (lo, hi) of squarefree p."""
    count = _sturm_count(p, lo, hi)
    if p(lo) == 0:
        count -= 1
    if p(hi) == 0:
        count -= 1
    return count
