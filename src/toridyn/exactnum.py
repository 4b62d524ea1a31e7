"""Exact scalars and univariate polynomials.

Integer polynomials with exact arithmetic, polynomials over the Gaussian
integers, Newton's identities between the coefficients of a polynomial
and the power sums of its roots (the route to every characteristic
polynomial: in ints for integer polynomials, in (re, im) pairs over the
Gaussian integers), cyclotomic factor extraction, Kronecker/Salem
classification, and certified rational enclosures of root magnitudes.
Root-of-unity and unit-circle detection never consult floating point;
real roots are counted by integer Sturm sequences.  For magnitudes,
floats only propose roots, which Weierstrass steps on Gaussian-integer
centres refine; each proposal set is certified in exact Gaussian-integer
arithmetic by pairwise-disjoint inclusion disks (Braess-Hadeler 1973;
Carstensen 1991), each holding exactly one root.  A rational |root| of an
integer polynomial is k/|a_d| for an integer k; an interval becomes the
exact point k/|a_d| only when the intervals holding that point number
exactly the roots of that modulus, counted exactly.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter, deque
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from operator import mul

from ._record import Record
from .errors import DomainError, InvariantViolation, ResourceError

#: Default certification width for root magnitudes.
DEFAULT_PRECISION = Fraction(1, 10**9)


# ---------------------------------------------------------------------------
# Integer polynomials


class IntPolynomial:
    """Dense univariate polynomial, coefficients ascending from the constant
    term.  Immutable.  Arithmetic is exact and stays in the integers:
    division is integer long division, accepted only when the quotient is
    integral (pseudo-remainders in gcd always are).  A coefficient that is
    not an integer, such as Fraction(1, 2) or 2.7, raises DomainError."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [c if type(c) is int else _integer(c) for c in coeffs]
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
        """Yun's algorithm on the primitive part: tuple of (factor, mult).
        Memoized: the classification layer decomposes the same H^1
        charpoly for the radical, the unit-circle count, the magnitudes and
        the polynomial class."""
        return _squarefree_decomposition(self)

    def serialize(self):
        """Ascending coefficient list as decimal strings."""
        return [str(c) for c in self.coeffs]


def _integer(value) -> int:
    """value as an int; DomainError unless it equals one."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):  # None, nan, infinity
        pass
    raise DomainError(f"polynomial coefficient {value!r} is not an integer")


@lru_cache(maxsize=1024)
def _squarefree_decomposition(p: IntPolynomial):
    p = p.primitive()
    if p.degree < 1:
        return ()
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
    return tuple(out)


# ---------------------------------------------------------------------------
# Polynomials over the Gaussian integers, as ascending (re, im) pairs


def gauss_poly_mul(p, q):
    """Product of polynomials with ascending Gaussian-integer (re, im)
    coefficients."""
    out = [[0, 0] for _ in range(len(p) + len(q) - 1)]
    for i, (a, b) in enumerate(p):
        for j, (c, d) in enumerate(q):
            out[i + j][0] += a * c - b * d
            out[i + j][1] += a * d + b * c
    return tuple(map(tuple, out))


def gauss_poly_conj(p):
    return tuple((re, -im) for re, im in p)


def _power_sums(coeffs, count: int, step: int = 1):
    """Power sums p_0, p_step, ..., p_(count step), as (re, im) pairs, of
    the roots of the monic polynomial with ascending Gaussian-integer
    coefficients `coeffs`, by Newton's identities p_m = -(m c_m +
    sum_(0<i<m) c_i p_(m-i)) for x^n + c_1 x^(n-1) + ... + c_n, with c_m = 0
    past n.  Only the last n sums are kept from step to step."""
    n = len(coeffs) - 1
    c, last, out = coeffs[-2::-1], deque(maxlen=n), [(n, 0)]  # last: p_(m-1), ...
    for m in range(1, count * step + 1):
        re, im = c[m - 1] if m <= n else (0, 0)
        re, im = m * re, m * im
        for (a, b), (x, y) in zip(c, last):
            re += a * x - b * y
            im += a * y + b * x
        last.appendleft((-re, -im))
        if m % step == 0:
            out.append((-re, -im))
    return out


def _from_power_sums(p):
    """Ascending (re, im) coefficients of the monic polynomial of degree
    len(p) - 1 whose roots have the power sums p_1, p_2, ... over Z[i]
    (p_0 is not read): b_j = -(p_j + sum_(0<i<j) b_i p_(j-i)) / j for
    x^n + b_1 x^(n-1) + ...  The roots are algebraic integers, so every
    division is exact."""
    out = [(1, 0)]
    for j in range(1, len(p)):
        re, im = p[j]
        for i in range(1, j):
            a, b = out[i]
            x, y = p[j - i]
            re += a * x - b * y
            im += a * y + b * x
        if re % j or im % j:
            raise InvariantViolation("power-sum division is not exact")
        out.append((-re // j, -im // j))
    return out[::-1]


def _int_power_sums(coeffs, count: int, step: int = 1):
    """_power_sums for a monic integer polynomial, in ints."""
    n = len(coeffs) - 1
    c, last, out = coeffs[-2::-1], deque(maxlen=n), [n]
    for m in range(1, count * step + 1):
        s = -sum(map(mul, c, last)) - (m * c[m - 1] if m <= n else 0)
        last.appendleft(s)
        if m % step == 0:
            out.append(s)
    return out


def _int_from_power_sums(p):
    """_from_power_sums for integer power sums, in ints."""
    out = [1]
    for j in range(1, len(p)):
        s = p[j]
        for i in range(1, j):
            s += out[i] * p[j - i]
        b, inexact = divmod(-s, j)
        if inexact:
            raise InvariantViolation("power-sum division is not exact")
        out.append(b)
    return out[::-1]


# ---------------------------------------------------------------------------
# Certified magnitudes


class MagnitudeEntry(Record):
    lower: Fraction
    upper: Fraction
    multiplicity: int


class CertifiedMagnitudeMultiset(Record):
    """Certified rational enclosures of the magnitudes of all roots of a
    polynomial, with exact multiplicities."""

    entries: tuple
    precision: Fraction


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


def _prime_factors(n: int) -> dict:
    """{p: e} with p^e exactly dividing n >= 1, by trial division."""
    primes, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            primes[p] = primes.get(p, 0) + 1
            n //= p
        p += 1 + p % 2
    return primes | {n: 1} if n > 1 else primes


@lru_cache(maxsize=None)
def _cyclotomic_at_2(n: int) -> int:
    """Phi_n(2): 2^n - 1 over Phi_d(2) for each proper divisor d of n."""
    return (2**n - 1) // math.prod(_cyclotomic_at_2(d) for d in range(1, n) if n % d == 0)


@lru_cache(maxsize=None)
def _cyclotomic_indices(max_degree: int):
    """All n with phi(n) <= max_degree, phi by a sieve; phi(n) >= sqrt(n/2)
    bounds the search."""
    bound = 2 * max_degree * max_degree + 2
    phi = list(range(bound + 1))
    for q in range(2, bound + 1):
        if phi[q] == q:  # q is prime
            phi[q::q] = [k - k // q for k in phi[q::q]]
    return tuple(n for n in range(1, bound + 1) if phi[n] <= max_degree)


def cyclotomic_root_count(p: IntPolynomial):
    """Number of roots of p (with multiplicity) that are roots of unity,
    together with the list of (n, multiplicity) cyclotomic factors.  Phi_1
    and Phi_2 are found by the roots 1 and -1; any other Phi_n is built only
    when Phi_n(2) | p(2), a screen that loses no factor: Phi_n is monic, so
    by Gauss's lemma Phi_n | p forces Phi_n(2) | p(2); try_divide decides.
    The factors x - 2 pass every screen and are no Phi_n: they go first."""
    if p.is_zero():
        raise DomainError("zero polynomial has no root-of-unity count")
    remaining = p.primitive()
    at_2, count, factors = remaining(2), 0, []
    if at_2 == 0:
        remaining, _ = _strip_root(remaining, 2)
        at_2 = remaining(2)
    for n in _cyclotomic_indices(remaining.degree):
        value, mult = _cyclotomic_at_2(n), 0
        while remaining(3 - 2 * n) == 0 if n <= 2 else at_2 % value == 0:
            quo = remaining.try_divide(cyclotomic_poly(n))
            if quo is None:
                break
            remaining, at_2, mult = quo, at_2 // value, mult + 1
        if mult:
            count += mult * cyclotomic_poly(n).degree
            factors.append((n, mult))
    return count, factors


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


def _real_root_count(p: IntPolynomial, lo, hi) -> int:
    """Number of real roots of squarefree p in (lo, hi]; lo None stands
    for -oo and hi None for +oo.

    Sturm's theorem (Basu-Pollack-Roy, Algorithms in Real Algebraic
    Geometry, Thm. 2.62) on the sequence p, p', then minus each
    pseudo-remainder, scaled by |lc|^(delta+1) and divided by its positive
    content so that the signs survive.  Sign variations skip zeros and are
    right-continuous at the roots of p, so V(lo) - V(hi) counts (lo, hi]."""
    seq = [p, p.derivative()]
    while seq[-1].degree > 0:
        a, b = seq[-2], seq[-1]
        _, rem = (a * abs(b.coeffs[-1]) ** (a.degree - b.degree + 1))._int_divmod(b)
        g = math.gcd(*rem)
        seq.append(IntPolynomial([-c // g for c in rem]))

    def variations(x, infinity):
        signs = [q(x) if x is not None else q.coeffs[-1] * infinity ** q.degree
                 for q in seq if q.coeffs]
        signs = [v for v in signs if v]
        return sum((u < 0) != (v < 0) for u, v in zip(signs, signs[1:]))

    return variations(lo, -1) - variations(hi, 1)


@lru_cache(maxsize=1024)
def unit_circle_root_count(p: IntPolynomial) -> int:
    """Exact count (with multiplicity) of roots of p on the unit circle.

    Unit-circle roots of a real polynomial are closed under z -> 1/z, so
    they live in gcd(p, reversal(p)); after stripping x = +/-1 the rest is
    palindromic of even degree and reduces to counting real roots of the
    trace polynomial in (-2, 2).  Cached: the candidate modulus 1 of
    root_magnitudes and polynomial_class count the same radical."""
    if p.is_zero():
        raise DomainError("zero polynomial")
    total = 0
    for factor, mult in p.squarefree_decomposition():
        r = factor.gcd(factor.reversal())
        r, m1 = _strip_root(r, 1)
        r, m2 = _strip_root(r, -1)
        circle = m1 + m2
        if r.degree >= 2:
            t = _trace_polynomial(r)
            circle += 2 * _real_root_count(t, -2, 2)
        total += circle * mult
    return total


# ---------------------------------------------------------------------------
# Certified root magnitudes


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


def _scaled(v: float, k: int) -> int:
    """round(v * 2^k), exactly."""
    m, e = math.frexp(v)
    man, shift = int(m * 2**53), e - 53 + k
    return man << shift if shift >= 0 else (man + (1 << (-shift - 1))) >> -shift


def _symmetric(pts, tol: int):
    """The centres pts made conjugate-symmetric, as the roots of a real
    polynomial are: imaginary parts of at most tol become 0, and when the
    two half-planes hold equally many centres the lower ones are replaced
    by the conjugates of the upper ones (otherwise pts is returned)."""
    upper = [(x, y) for x, y in pts if y > tol]
    real = [(x, 0) for x, y in pts if -tol <= y <= tol]
    if 2 * len(upper) + len(real) != len(pts):
        return pts
    return real + upper + [(x, -y) for x, y in upper]


def _polygon_offsets(sizes, count: int):
    """Starting points for the `count` smallest roots of a polynomial whose
    coefficient a_j (ascending) has bit length sizes[j], 0 when a_j = 0,
    as Gaussian integers.  Each edge of the upper convex hull of the points
    (j, sizes[j]), from j0 to j1, gets j1 - j0 points on the circle of
    radius 2^((sizes[j0] - sizes[j1]) / (j1 - j0)) (Bini 1996, Numer.
    Algorithms 13), and each vanishing low coefficient a point at 0.  The
    angles are offset by 0.4, so that no point on a circle is real and the
    points are not conjugate-symmetric."""
    hull = []
    for j, b in enumerate(sizes):
        if b:
            while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (b - hull[-2][1])
                                     >= (j - hull[-2][0]) * (hull[-1][1] - hull[-2][1])):
                hull.pop()
            hull.append((j, b))
    points = [(0, 0)] * hull[0][0]
    for (j0, b0), (j1, b1) in zip(hull, hull[1:]):
        m = j1 - j0
        e, rem = divmod(b0 - b1, m)
        for t in range(m):
            z = 2 ** (rem / m) * cmath.exp(1j * (2 * math.pi * t / m + 0.4))
            points.append((_scaled(z.real, e), _scaled(z.imag, e)))
    return points[:count]


def _seeds_around(coeffs, k: int, cx: int, cy: int, count: int):
    """Starting centres on the grid 2^-k for the `count` roots of p
    (ascending integer coefficients, degree d) nearest to C = cx + i cy:
    C plus the _polygon_offsets of the Taylor shift 2^(kd) p((C + W) / 2^k),
    whose roots W are the offsets of the roots of p from C in units of
    2^-k."""
    d = len(coeffs) - 1
    shifted = [[c << (k * (d - j)), 0] for j, c in enumerate(coeffs)]
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            re, im = shifted[j + 1]
            shifted[j][0] += re * cx - im * cy
            shifted[j][1] += re * cy + im * cx
    sizes = [max(abs(re), abs(im)).bit_length() for re, im in shifted]
    return [(cx + u, cy + v) for u, v in _polygon_offsets(sizes, count)]


def _newton_seeds(coeffs, k: int):
    """Starting centres on the grid 2^-k for all roots of p: _seeds_around
    the centroid -a_(d-1) / (d a_d) of the roots, where one Weierstrass
    step puts the centroid of any centres, up to rounding."""
    d = len(coeffs) - 1
    return _seeds_around(coeffs, k, -(coeffs[-2] << k) // (d * coeffs[-1]), 0, d)


def _weierstrass(coeffs, centres, k: int):
    """A Weierstrass (Durand-Kerner) step and the inclusion radii of the
    centres z_i = (x_i + i y_i) / 2^k of a polynomial p of degree d
    (ascending integer coefficients), both from the correction
    W_i = p(z_i) / (a_d prod_{j != i} (z_i - z_j)).  Returns (radii, finer):
    integers R_i >= 2^k d |W_i|, and the centres z_i - W_i rounded to the
    grid 2^-2k; or (None, None) when two centres coincide.

    Every root of p lies in the union of the disks |z - z_i| <= R_i / 2^k,
    and a connected component of m disks holds exactly m roots
    (Braess-Hadeler 1973; Carstensen 1991, LAA 157), so pairwise-disjoint
    disks hold exactly one root each.  All arithmetic is over the Gaussian
    integers."""
    d = len(coeffs) - 1
    lead = coeffs[-1]
    radii, finer = [], []
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
            return None, None
        # 2^2k W_i = 2^k (pr + i pi)(qr - i qi) / norm, rounded to an integer
        wr, wi = (pr * qr + pi * qi) << k, (pi * qr - pr * qi) << k
        finer.append(((x << k) - (2 * wr + norm) // (2 * norm),
                      (y << k) - (2 * wi + norm) // (2 * norm)))
        radii.append(isqrt(-(-d * d * (pr * pr + pi * pi) // norm)) + 1)
    return radii, finer


def _clusters(centres, radii):
    """Index lists of the connected components of the disks
    |z - z_i| <= R_i, on one grid."""
    groups = []
    for i, (x, y) in enumerate(centres):
        near = [g for g in groups if any(
            (x - centres[j][0]) ** 2 + (y - centres[j][1]) ** 2 <= (radii[i] + radii[j]) ** 2
            for j in g)]
        groups = [g for g in groups if g not in near] + [[i] + [j for g in near for j in g]]
    return groups


def _recentred(coeffs, before, after, groups, done, k: int):
    """The centres `after` a Weierstrass step on the grid 2^-k, with each
    group of two or more, but not all, whose centroid has settled replaced
    by _seeds_around that centroid.  A group is a component of meeting
    inclusion disks, so it holds as many roots as centres.  The
    approximations of a cluster of roots close in on it only linearly,
    halving their spread every other step, while their centroid settles
    within a few steps; seeds around it at the cluster's own radius
    converge at once.  Settled means that the step moved the centroid by
    less than 2^-8 of the spread (the largest offset of a centre from it),
    and `done` maps each group to its spread when it was last recentred:
    a group is recentred again only once its spread fell 2^8-fold, so the
    same seeds never come back."""
    out = list(after)
    for group in groups:
        m = len(group)
        if not 1 < m < len(after):
            continue
        cx, cy = (sum(after[i][t] for i in group) // m for t in (0, 1))
        moved = max(abs(cx - sum(before[i][0] for i in group) // m),
                    abs(cy - sum(before[i][1] for i in group) // m))
        spread = max(max(abs(after[i][0] - cx), abs(after[i][1] - cy)) for i in group)
        key = frozenset(group)
        if moved << 8 <= spread and spread << 8 <= done.get(key, spread << 8):
            done[key] = spread
            for i, z in zip(group, _seeds_around(coeffs, k, cx, cy, m)):
                out[i] = z
    return out


#: Root refinement is a resource: it gives up past the grid 2^-k with k the
#: larger of MAX_REFINEMENT_BITS and twice the starting grid, so at least
#: one doubling past the grid that any accepted precision asks for.
MAX_REFINEMENT_BITS = 16600


def _rounds(coeffs, k: int):
    """(centres, k, radii) for each round whose inclusion disks are
    pairwise disjoint, for a squarefree integer polynomial (ascending
    coefficients, nonzero constant term): centres z_i = (x_i + i y_i) / 2^k
    of all roots and radii from _weierstrass.

    The first round rounds the float proposals to the grid 2^-k.  Then
    Weierstrass steps refine the centres, started from those, or from
    _newton_seeds when the floats overflow or their disks meet, and
    _recentred restarts clusters.  Each round certifies the centres made
    conjugate-symmetric, and steps from them when their disks are
    disjoint.  k doubles when every correction is below 2^(-k/2), or after
    8d + 32 steps on one grid; the rounds end in a ResourceError past
    max(MAX_REFINEMENT_BITS, 2k)."""
    d = len(coeffs) - 1
    zs = _float_roots(coeffs)
    # float proposals are good to about 53 bits: |Im z| <= 2^-26 means real
    centres = None if zs is None else _symmetric(
        [(_scaled(z.real, k), _scaled(z.imag, k)) for z in zs], 1 << (k - 26))
    floats, steps, done = centres is not None, 0, {}
    limit = max(MAX_REFINEMENT_BITS, 2 * k)
    while k <= limit:
        if centres is None:
            centres, steps, done = _newton_seeds(coeffs, k), 0, {}
        base = _symmetric(centres, 1 << k // 2)
        radii, finer = _weierstrass(coeffs, base, k)
        groups = radii and _clusters(base, radii)
        if groups and len(groups) == d:
            yield base, k, radii
        elif floats:
            finer = None  # the float disks meet: start from the Newton polygon
        elif base != centres:
            base = centres
            radii, finer = _weierstrass(coeffs, base, k)
            groups = radii and _clusters(base, radii)
        floats, steps = False, steps + 1
        if finer is None:  # or two centres coincide: start over, finer
            centres, k = None, 2 * k
        elif steps > 8 * d + 32 or all(
                max(abs(u - (x << k)), abs(v - (y << k))) >> (k + k // 2) == 0
                for (x, y), (u, v) in zip(base, finer)):
            centres, k, steps, done = finer, 2 * k, 0, {}
        else:
            half = 1 << (k - 1)
            centres = _recentred(coeffs, base, [((u + half) >> k, (v + half) >> k)
                                                for u, v in finer], groups, done, k)
    raise ResourceError(f"root magnitude refinement passed its limit of {limit} bits")


def _modulus_root_count(p: IntPolynomial, r: Fraction) -> int:
    """The number of roots of p of modulus r = a/b > 0, with multiplicity:
    the roots of b^d p(a x / b) on the unit circle, d the degree of p."""
    a, b, d = r.numerator, r.denominator, p.degree
    return unit_circle_root_count(IntPolynomial(
        [c * a**j * b**(d - j) for j, c in enumerate(p.coeffs)]))


def _disk_magnitudes(q: IntPolynomial, precision: Fraction):
    """Certified (lower, upper) |root| intervals, one per root, for a
    squarefree integer polynomial with nonzero constant term.

    Each round of _rounds gives disjoint inclusion disks, one root each.  A
    rational |root| is k/|a_d| for an integer k >= 1, since a_d z is an
    algebraic integer.  A round is accepted when each interval holds at
    most one such candidate, the intervals holding a candidate r number
    exactly the roots of modulus r (_modulus_root_count), and every other
    interval is at most `precision` wide.  The intervals holding a
    candidate snap to the point [r, r]."""
    coeffs = q.coeffs
    lead = abs(coeffs[-1])
    # intervals are rounded outward to the grid 2^-scale
    scale = (precision.denominator // precision.numerator).bit_length() + 8
    on_modulus = {}  # candidate r -> number of roots of modulus r
    for centres, k, radii in _rounds(coeffs, max(53, scale)):
        # a candidate too close to a root for the grid 2^-scale moves the
        # grid to the round's own, 2^-k, and the round is read again
        for scale in sorted({scale, k}):
            one, shift = 1 << scale, k - scale
            boxed = []
            for (x, y), r in zip(centres, radii):
                c = isqrt(x * x + y * y)  # |root| is within r of |z|
                boxed.append((max(c - r, 0) >> shift, -(-(c + r + 1) >> shift)))
            # the candidates j/lead in [lo, hi] / 2^scale have j = first..last
            spans = [(max(-(-lo * lead >> scale), 1), hi * lead >> scale)
                     for lo, hi in boxed]
            held = [Fraction(first, lead) if first == last else None
                    for first, last in spans]
            candidates = set(held) - {None}
            for r in candidates - on_modulus.keys():
                on_modulus[r] = _modulus_root_count(q, r)
            if not (any(last > first for first, last in spans) or any(
                    held.count(r) != on_modulus[r] for r in candidates)):
                break
        else:
            continue
        if all(Fraction(hi - lo, one) <= precision
               for r, (lo, hi) in zip(held, boxed) if r is None):
            return [(r, r) if r is not None else (Fraction(lo, one), Fraction(hi, one))
                    for r, (lo, hi) in zip(held, boxed)]


def root_magnitudes(p: IntPolynomial, precision=DEFAULT_PRECISION) -> CertifiedMagnitudeMultiset:
    """Certified enclosures of all root magnitudes of p with exact
    multiplicities; each interval has width <= precision or is an exact
    point."""
    precision = Fraction(precision)
    if p.is_zero():
        raise DomainError("zero polynomial has no roots to enclose")
    if precision <= 0:
        raise DomainError("precision must be positive")
    merged = Counter()
    zeros = next(k for k, c in enumerate(p.coeffs) if c)
    if zeros:
        merged[Fraction(0), Fraction(0)] = zeros
        p = IntPolynomial(p.coeffs[zeros:])
    for factor, mult in p.squarefree_decomposition():
        for interval in _disk_magnitudes(factor, precision):
            merged[interval] += mult
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
    circle = unit_circle_root_count(p)
    if circle == p.degree:  # Kronecker: all roots are roots of unity
        return "cyclotomic-product"
    if p.is_reciprocal():
        # multiplicity-aware real root counts off the circle
        above_one = in_unit = 0
        for factor, mult in p.squarefree_decomposition():
            above_one += mult * _real_root_count(factor, 1, None)
            in_unit += mult * (_real_root_count(factor, 0, 1) - (factor(1) == 0))
        if (above_one == 1 and in_unit == 1 and circle == p.degree - 2
                and circle >= 2):
            return "salem"
        if circle == 0:
            return "off-circle-reciprocal"
    return "other"
