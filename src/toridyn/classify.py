"""The classification taxonomy: finite order, unity-free, amplified,
polarized, the Serre magnitude test, dynamical degrees and entropy, and
verification of the implication chain and its stability under iteration.

Amplified and polarized are decided exactly from the spectrum of M, with
no search; each "yes" carries an integer NS witness.  The spectrum of f^*
on NS comes from the analytic charpoly (ns_charpoly), so no decision
builds the rho x rho matrix ns_action.  The Serre test is an integer root
count: no yes/no field reads the precision, which sets degree widths only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import floor, inf, lcm, nextafter

from ._record import Record
from .errors import DomainError, NotSurjectiveError
from .exactnum import (DEFAULT_PRECISION, IntPolynomial, _int_from_power_sums,
                       _int_power_sums, _modulus_root_count, _power_sums,
                       polynomial_class, root_magnitudes, unit_circle_root_count)
from .matlin import RationalMatrix, _quotient, matmul
from .endo import (TorusEndomorphism, _check_conjugate_sums, _frame_blocks, _h1_of,
                   eigen_data, iterate, minimal_unity_iterate, unity_free)
from .dynamics import lefschetz_number
from .torus import (_is_positive_definite,
                    _primitive_integer_vector, canonical_ample_class,
                    form_to_ns_vector, neron_severi, ns_vector_to_form)


def h1_magnitudes(f: TorusEndomorphism, precision=DEFAULT_PRECISION):
    """Certified root magnitudes of the H^1 charpoly."""
    return root_magnitudes(eigen_data(f).h1_charpoly, precision)


# ---------------------------------------------------------------------------
# NS action


def ns_action(f: TorusEndomorphism) -> RationalMatrix:
    """Action A of f^* on NS in the coordinates of neron_severi.  f^*E is
    M^T E M; in the frame P it takes the block form B to M_P^T B M_P,
    M_P = P^-1 M P.  Column c of A reads the image of the c-th unit block
    form at the slots, each entry a sum of <= 4 products of s M_P over s^2."""
    if not f.surjective:
        raise NotSurjectiveError("NS action requires det M != 0")
    ns = neron_severi(f.torus)
    s, a, b = _frame_blocks(f.m, f.torus.j)
    mp = ([ra + [-x for x in rb] for ra, rb in zip(a, b)]
          + [rb + ra for ra, rb in zip(a, b)])
    return RationalMatrix._of(
        [[_quotient(sum(sign * mp[i][r] * mp[j][c] for (i, j), sign in unit),
                    s * s) for unit in ns.units] for r, c in ns.slots])


@lru_cache(maxsize=512)
def ns_charpoly(f: TorusEndomorphism, k: int = 1) -> IntPolynomial:
    """Charpoly of (f^*)^k on NS, of degree rho = n^2, from the analytic
    charpoly alone.  On NS (x) C, f^* is H -> N^* H N with N = A + iB, so
    its eigenvalues are conj(mu_i) mu_j over the roots mu of the analytic
    charpoly of f, and tr((f^*)^m) = |p_m|^2 with p_m the power sums of
    the mu, Gaussian integers since the mu are algebraic integers."""
    if k < 1:
        raise DomainError("iteration count must be >= 1")
    gamma = eigen_data(f).analytic
    n = len(gamma) - 1
    return _ns_charpoly_of(_power_sums(gamma, n * n, k), 1)


def _ns_charpoly_of(gamma_sums, k: int) -> IntPolynomial:
    """ns_charpoly(f, k) from the power sums p_m of the roots of Gamma:
    the traces of (f^*)^k are |p_k|^2, |p_2k|^2, ..., |p_(n^2 k)|^2."""
    n = gamma_sums[0][0]
    return IntPolynomial(_int_from_power_sums(
        [re * re + im * im for re, im in gamma_sums[:n * n * k + 1:k]]))


# ---------------------------------------------------------------------------
# Finite order


def finite_order(f: TorusEndomorphism):
    """Order of f when finite, else None.

    f can have finite order only when every H^1 eigenvalue is a root of
    unity; the candidate matrix order k is then the lcm of the cyclotomic
    factor orders.  f^k is built once: its matrix must be I (the charpoly
    alone cannot rule out unipotent parts), and its translation folds in
    as the lcm of its denominators."""
    if not f.surjective:
        raise NotSurjectiveError("order requires det M != 0")
    if 2 * eigen_data(f).u_count != f.torus.rank:
        return None
    k = minimal_unity_iterate(f)
    g = iterate(f, k)
    if g.m != RationalMatrix.identity(f.torus.rank):
        return None
    return k * lcm(1, *(t.denominator for t in g.tau))


# ---------------------------------------------------------------------------
# Dynamical degrees


class DegreeData(Record):
    """Certified dynamical degree intervals lambda_0..lambda_n."""

    intervals: tuple          # ((lo, up) Fractions per j)
    equal_consecutive_pairs: tuple  # indices j with lambda_j = lambda_{j+1}
    exact_equalities: tuple   # the same pairs: every equality is exact
    entropy: tuple            # (lo, hi) floats enclosing log max_j lambda_j
    precision: Fraction


def _atanh_scaled(num: int, den: int, bits: int):
    """(S, E) with S <= atanh(num/den) 2^bits < S + E, for integers
    0 <= num/den <= 1/3.  The series sum t^(2j+1) / (2j+1) is summed in
    integers, each power and each term rounded down; with t^2 <= 1/9 every
    power is at most 9/8 low, so each of the N terms loses less than 2.125
    and the tail after the first zero power less than 1.27."""
    total, power, j = 0, (num << bits) // den, 0
    while power:
        total += power // (2 * j + 1)
        power = power * num * num // (den * den)
        j += 1
    return total, 3 * j + 2 if num else 0


def _log_enclosure(x: Fraction):
    """Floats (a, b) with a <= log x <= b for a rational x > 0, rounded
    outward from an integer enclosure: x = y 2^m with 2/3 <= y < 4/3, and
    log x = 2 atanh((y - 1)/(y + 1)) + 2m atanh(1/3), both atanh scaled by
    2^bits.  For m = 0 the bits grow with -log2 |y - 1|, so the enclosure
    stays far narrower than a float step; log 1 is exactly (0.0, 0.0)."""
    n, d = x.numerator, x.denominator
    m = n.bit_length() - d.bit_length()
    n, d = (n, d << m) if m >= 0 else (n << -m, d)
    if 3 * n < 2 * d:
        n, m = 2 * n, m - 1
    elif 3 * n >= 4 * d:
        d, m = 2 * d, m + 1
    num, den = n - d, n + d
    bits = 128 + max(den.bit_length() - abs(num).bit_length(), 0)
    s, e = _atanh_scaled(abs(num), den, bits)
    s2, e2 = _atanh_scaled(1, 3, bits)
    y = (2 * s, 2 * (s + e)) if num >= 0 else (-2 * (s + e), -2 * s)
    two = (2 * m * s2, 2 * m * (s2 + e2)) if m >= 0 else (2 * m * (s2 + e2), 2 * m * s2)
    one = 1 << bits
    return (_outward(Fraction(y[0] + two[0], one), False),
            _outward(Fraction(y[1] + two[1], one), True))


def _outward(v: Fraction, up: bool) -> float:
    """The least float >= v when up, else the greatest float <= v."""
    f = float(v)
    if (Fraction(f) < v) if up else (Fraction(f) > v):
        f = nextafter(f, inf if up else -inf)
    return f


def dynamical_degrees(f: TorusEndomorphism,
                      precision: Fraction = DEFAULT_PRECISION) -> DegreeData:
    """lambda_j as the product of the 2j largest certified root magnitude
    enclosures of the H^1 charpoly.

    The outer enclosure multiplies the top-2j lower bounds and the top-2j
    upper bounds separately, which is valid for nonnegative values without
    having to decide an order between overlapping intervals."""
    if not f.surjective:
        raise NotSurjectiveError("dynamical degrees require det M != 0")
    mags = h1_magnitudes(f, precision)
    expanded = [e for e in mags.entries for _ in range(e.multiplicity)]
    lowers = sorted((e.lower for e in expanded), reverse=True)
    uppers = sorted((e.upper for e in expanded), reverse=True)
    n = f.torus.n
    intervals = []
    for j in range(n + 1):
        lo = Fraction(1)
        hi = Fraction(1)
        for i in range(2 * j):
            lo *= lowers[i]
            hi *= uppers[i]
        intervals.append((lo, hi))
    # the top degree is the topological degree |det M|, known exactly
    degree_det = Fraction(abs(f.degree_matrix_det))
    intervals[n] = (degree_det, degree_det)
    # exact structure: entries certified > 1 come first, exact-1 entries
    # in the middle; when positions 2j+1, 2j+2 are both exactly 1 the two
    # consecutive degrees agree exactly.  That decides every equality, as
    # the magnitudes pair up (h1 = Gamma conj(Gamma)) and root_magnitudes
    # certifies every modulus-1 root as [1, 1].
    count_gt1 = sum(1 for e in expanded if e.lower > 1)
    count_one = sum(1 for e in expanded if e.lower == e.upper == 1)
    equal = tuple(j for j in range(n)
                  if count_gt1 <= 2 * j and 2 * j + 2 <= count_gt1 + count_one)
    # topological entropy is log max_j lambda_j (Gromov; Yomdin)
    entropy = (_log_enclosure(max(lo for lo, _ in intervals))[0],
               _log_enclosure(max(hi for _, hi in intervals))[1])
    return DegreeData(tuple(intervals), equal, equal, entropy, Fraction(precision))


# ---------------------------------------------------------------------------
# Serre necessary test and q-candidate


def _integer_nth_root(value: int, n: int):
    """The integer r >= 1 with r^n = value, or None (integer Newton from
    above, which ends at floor(value^(1/n)))."""
    if value < 1 or n < 1:
        return None
    r = 1 << -(-value.bit_length() // n)
    while (s := ((n - 1) * r + value // r ** (n - 1)) // n) < r:
        r = s
    return r if r**n == value else None


def polarization_q_candidate(f: TorusEndomorphism):
    """q >= 2 with |det M| = q^n, or None."""
    q = _integer_nth_root(abs(f.degree_matrix_det), f.torus.n)
    return q if q is not None and q >= 2 else None


def serre_test(f: TorusEndomorphism, q: int) -> bool:
    """Necessary condition for f^*L = qL with L ample: every H^1
    eigenvalue has modulus sqrt(q).  The roots of g, g(x^2) = h1(x) h1(-x)
    (one Graeffe step), are their squares, so it holds exactly when all deg
    g roots of g have modulus q.  Reported by full_report as
    serre_consistent; polarized does not use it."""
    h1 = eigen_data(f).h1_charpoly
    even = h1 * IntPolynomial((-1) ** j * c for j, c in enumerate(h1.coeffs))
    g = IntPolynomial(even.coeffs[::2])
    return q > 0 and _modulus_root_count(g, Fraction(q)) == g.degree


# ---------------------------------------------------------------------------
# Amplified


def _hyperbolic_witness(f: TorusEndomorphism) -> tuple:
    """A primitive integer NS vector of an ample class f^*w - w, for M with
    no eigenvalue of modulus 1.  With L the canonical ample class (form E)
    and w_N = sum_{0<=k<N} f^*^k L - sum_{1<=k<=N} f^*^-k L, the class
    f^*w_N - w_N has the form (M^N)^T E M^N + (M^-N)^T E M^-N - 2E, ample
    once N is large, since |M^N x|^2 + |M^-N x|^2 is unbounded on the unit
    sphere.  N doubles until the exact test passes, on forms scaled by
    det^2N to stay integral."""
    torus = f.torus
    e = ns_vector_to_form(torus, canonical_ample_class(torus))
    det = f.degree_matrix_det
    fwd, adj, scale = f.m, f.m.inverse() * det, det * det
    jt = torus.j.transpose()
    while True:
        form = ((fwd.transpose() * e * fwd - e * 2) * scale
                + adj.transpose() * e * adj)
        if _is_positive_definite(jt * form):
            return _primitive_integer_vector(form_to_ns_vector(torus, form))
        fwd, adj, scale = fwd * fwd, adj * adj, scale * scale


class AmplifiedVerdict(Record):
    verdict: str  # yes / no
    path: str
    witness: tuple | None = None


@lru_cache(maxsize=512)
def amplified(f: TorusEndomorphism) -> AmplifiedVerdict:
    """Is f^*w - w ample for some class w?  (a) 1 is not an eigenvalue of
    f^* on NS, read as ns_charpoly(f)(1) != 0, so f^* - 1 is onto -> yes;
    (b) not unity-free -> no; (c) Mv = mu v with |mu| = 1 -> no, as the
    form M^T S M - S of every f^*w - w vanishes on v; (d) else yes, by
    _hyperbolic_witness."""
    if not f.surjective:
        raise NotSurjectiveError("amplified requires det M != 0")
    if ns_charpoly(f)(1) != 0:
        return AmplifiedVerdict("yes", "ns-no-unit-eigenvalue")
    free, _ = unity_free(f)
    if not free:
        return AmplifiedVerdict("no", "not-unity-free")
    if unit_circle_root_count(eigen_data(f).h1_charpoly) > 0:
        return AmplifiedVerdict("no", "unit-circle-eigenvalue")
    return AmplifiedVerdict("yes", "hyperbolic-witness", _hyperbolic_witness(f))


# ---------------------------------------------------------------------------
# Polarized


def _radical(p: IntPolynomial) -> IntPolynomial:
    """The product of the squarefree factors of p."""
    radical = IntPolynomial([1])
    for factor, _ in p.squarefree_decomposition():
        radical = radical * factor
    return radical


def _is_semisimple(f: TorusEndomorphism) -> bool:
    """M is diagonalizable over C exactly when radical(h1)(M) = 0.  A
    squarefree h1 decides it at once: M then has 2n distinct eigenvalues.
    Else radical(h1)(M) is evaluated by Horner on the integer rows."""
    h1 = eigen_data(f).h1_charpoly
    if all(mult == 1 for _, mult in h1.squarefree_decomposition()):
        return True
    value = [[0] * f.torus.rank for _ in range(f.torus.rank)]
    for c in reversed(_radical(h1).coeffs):
        value = [[x + c * (i == j) for j, x in enumerate(row)]
                 for i, row in enumerate(matmul(value, f.m.entries))]
    return not any(map(any, value))


class PolarizedVerdict(Record):
    verdict: str  # yes / no
    q: int | None = None
    witness: tuple | None = None
    reason: str = ""


@lru_cache(maxsize=512)
def polarized(f: TorusEndomorphism) -> PolarizedVerdict:
    """Is f^*L = qL for an ample class L?  q is pinned by |det M| = q^n.
    Then f is polarized exactly when M is semisimple, q is a root of
    chi = ns_charpoly(f), and the projection w of the canonical class
    L_can onto ker(f^* - q) along the other eigenspaces is ample; w is the
    witness.  If f^*L = qL with L ample, M / sqrt(q) is unitary for L, so
    f^* / q is semisimple with unit-modulus spectrum, and the Cesaro means
    of (f^* / q)^k, each at least c L on L_can, converge to that
    projector.  No magnitude filter comes first: a "yes" forces every H^1
    eigenvalue to have modulus sqrt(q).

    With M semisimple, so is f^*, and the projector is psi(f^*) / psi(q),
    psi = radical(chi) / (x - q).  It is applied by Horner on the integer
    rows of the forms, W -> M^T W M + c E with E the form of L_can; the
    witness is a ray, so only the sign of psi(q) is used."""
    if not f.surjective:
        raise NotSurjectiveError("polarized requires det M != 0")
    q = polarization_q_candidate(f)
    if q is None:
        return PolarizedVerdict("no", reason="degree is not q^n for any q >= 2")
    if not _is_semisimple(f):
        return PolarizedVerdict("no", q=q, reason="M is not semisimple")
    chi = ns_charpoly(f)
    if chi(q) != 0:
        return PolarizedVerdict("no", q=q, reason="q is not an NS eigenvalue")
    psi = _radical(chi).try_divide(IntPolynomial([-q, 1]))
    torus = f.torus
    e = ns_vector_to_form(torus, canonical_ample_class(torus)).entries
    sign, m, mt = -1 if psi(q) < 0 else 1, f.m.entries, f.m.transpose().entries
    form = [[0] * torus.rank for _ in range(torus.rank)]
    for c in reversed(psi.coeffs):
        form = [[x + sign * c * y for x, y in zip(row, e_row)]
                for row, e_row in zip(matmul(matmul(mt, form), m), e)]
    form = RationalMatrix._of(form, True)
    if not _is_positive_definite(torus.j.transpose() * form):
        return PolarizedVerdict("no", q=q, reason="the q-part of L_can is not ample")
    return PolarizedVerdict("yes", q=q,
                            witness=_primitive_integer_vector(form_to_ns_vector(torus, form)))


# ---------------------------------------------------------------------------
# Full report


class ClassificationReport(Record):
    surjective: bool
    isogeny: bool
    finite_order: int | None
    unity_free: bool
    u_f: int
    amplified: str
    amplified_path: str
    polarized: str
    polarized_q: int | None
    polarized_witness: tuple | None
    serre_consistent: bool
    dynamical_degrees: tuple
    equal_consecutive_pairs: tuple
    exact_equalities: tuple
    entropy: tuple
    lefschetz: int
    h1_poly_class: str
    h1_charpoly: IntPolynomial
    notes: tuple = ()

    def to_dict(self):
        """The fields in order, tuples as lists and exact numbers as
        strings."""
        return {name: _REPORT_JSON.get(name, _listed)(getattr(self, name))
                for name in self._fields}

    def to_text(self):
        d = self.to_dict()
        lines = ["classification report"]
        for key, value in d.items():
            if key == "dynamical_degrees":
                degs = ", ".join(
                    f"lambda_{j} in [{_decimal(Fraction(lo), 6)}, {_decimal(Fraction(hi), 6)}]"
                    for j, (lo, hi) in enumerate(value))
                lines.append(f"  dynamical_degrees: {degs}")
            else:
                lines.append(f"  {key}: {value}")
        return "\n".join(lines)


def _listed(value):
    return list(value) if type(value) is tuple else value


# fields that to_dict writes other than by _listed
_REPORT_JSON = {
    "polarized_witness": lambda w: [str(x) for x in w] if w else None,
    "dynamical_degrees": lambda v: [[str(lo), str(hi)] for lo, hi in v],
    "h1_charpoly": IntPolynomial.serialize,
}


def _decimal(v: Fraction, places: int) -> str:
    """v >= 0 with `places` decimals: as f"{float(v):.{places}f}" writes it
    in float range, and exactly, rounded half up, past it."""
    try:
        return f"{float(v):.{places}f}"
    except OverflowError:
        q = floor(v * 10**places + Fraction(1, 2))
        return f"{q // 10**places}.{q % 10**places:0{places}d}"


def full_report(f: TorusEndomorphism,
                precision: Fraction = DEFAULT_PRECISION) -> ClassificationReport:
    if not f.surjective:
        raise NotSurjectiveError("classification requires a surjective endomorphism")
    data = eigen_data(f)
    free, u = unity_free(f)
    order = finite_order(f)
    amp = amplified(f)
    pol = polarized(f)
    degrees = dynamical_degrees(f, precision)
    notes = []
    if not free and degrees.equal_consecutive_pairs:
        notes.append("equal consecutive dynamical degrees computed for a "
                     "non-unity-free map; values reported as computed")
    # squarefree part carries the classification (powers of a Salem factor
    # would otherwise fail the 'exactly one root above 1' count)
    report = ClassificationReport(
        surjective=True,
        isogeny=f.is_isogeny,
        finite_order=order,
        unity_free=free,
        u_f=u,
        amplified=amp.verdict,
        amplified_path=amp.path,
        polarized=pol.verdict,
        polarized_q=pol.q if pol.verdict == "yes" else None,
        polarized_witness=pol.witness,
        serre_consistent=pol.q is None or serre_test(f, pol.q),
        dynamical_degrees=degrees.intervals,
        equal_consecutive_pairs=degrees.equal_consecutive_pairs,
        exact_equalities=degrees.exact_equalities,
        entropy=degrees.entropy,
        lefschetz=lefschetz_number(f),
        h1_poly_class=polynomial_class(_radical(data.h1_charpoly)),
        h1_charpoly=data.h1_charpoly,
        notes=tuple(notes),
    )
    for violation in chain_violations(pol.verdict, amp.verdict, free, order):
        raise DomainError(f"implication chain violated: {violation}")  # pragma: no cover
    return report


# ---------------------------------------------------------------------------
# Implication chain and iterate stability


def chain_violations(polarized: str, amplified: str, unity_free: bool,
                     finite_order: int | None):
    """polarized => amplified => unity-free => infinite order, on verdicts
    as a report holds them."""
    out = []
    if polarized == "yes" and amplified == "no":
        out.append("polarized but not amplified")
    if amplified == "yes" and not unity_free:
        out.append("amplified but not unity-free")
    if unity_free and finite_order is not None:
        out.append("unity-free but finite order")
    return out


def verify_iterates(f: TorusEndomorphism, kmax: int):
    """Stability of the taxonomy under the iterates f^k, k <= kmax, plus
    finiteness of the difference sets for amplified maps:
    det(M^m - M^n) = det(M)^n det(M^(m-n) - I) != 0 for n < m <= kmax.
    As M has even size, det(M^j - I) = h1_j(1) with h1_j the H^1 charpoly
    of f^j.

    The data of f^k comes from f's: the power sums of the roots of f's H^1
    and analytic charpolys are built once, to the largest index that kmax
    needs, and h1 = Gamma conj(Gamma) is checked once on every index the
    two share.  f^k's h1_k, with its root-of-unity count, and the charpoly
    of (f^*)^k on NS are read off their slices p_k, p_2k, ...  Amplified
    stays yes by rule (a) when that NS charpoly is nonzero at 1; f^k is
    built only otherwise, and for polarized, which stays an independent
    check on f^k.  At k = 1 every check holds by definition."""
    if kmax < 1:
        raise DomainError("iteration count must be >= 1")
    if not f.surjective:
        raise NotSurjectiveError("iterate verification requires det M != 0")
    violations = []
    base_free, _ = unity_free(f)
    base_amp = amplified(f)
    base_pol = polarized(f)
    h1, gamma = eigen_data(f).h1_charpoly, eigen_data(f).analytic
    h1_sums = _int_power_sums(h1.coeffs, h1.degree * kmax)
    gamma_sums = _power_sums(gamma, max(h1.degree, (len(gamma) - 1) ** 2) * kmax)
    _check_conjugate_sums(h1_sums, gamma_sums)
    h1_at_one = [h1(1)]
    for k in range(2, kmax + 1):
        h1_k, u_k, _ = _h1_of(h1_sums, k)
        h1_at_one.append(h1_k(1))
        if (u_k == 0) != base_free:
            violations.append(f"unity-free changed at iterate {k}")
        if (base_amp.verdict == "yes" and _ns_charpoly_of(gamma_sums, k)(1) == 0
                and amplified(iterate(f, k)).verdict != "yes"):
            violations.append(f"amplified lost at iterate {k}")
        if base_pol.verdict == "yes":
            pol_k = polarized(iterate(f, k))
            if pol_k.verdict != "yes" or pol_k.q != base_pol.q**k:
                violations.append(f"polarized(q^k) lost at iterate {k}")
    if base_amp.verdict == "yes":
        for m_idx in range(1, kmax + 1):
            for n_idx in range(m_idx):
                if h1_at_one[m_idx - n_idx - 1] == 0:
                    violations.append(
                        f"difference set infinite for m={m_idx}, n={n_idx}")
    return violations
