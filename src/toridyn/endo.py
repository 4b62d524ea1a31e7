"""Endomorphisms of complex tori.

Validation, iteration, analytic eigenvalue data over the Gaussian
integers, the exact unity-free test, fixed subtori, and eigenvalue
multiset splitting along invariant subtori.  Every charpoly here (H^1 and
the analytic Gamma, of f and of f^k) comes from power sums by Newton's
identities: of M and of A + iB through matlin.trace_powers, and of f^k
from every k-th power sum of f's roots (_eigen_data_of), in ints for H^1
and in Gaussian-integer pairs for Gamma.

Convention: the analytic eigenvalue multiset is attached to the +i
eigenspace of J.  Conjugating the convention conjugates the multiset; all
downstream verdicts are conjugation-invariant.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, wraps
from fractions import Fraction
from math import lcm

from ._record import Record
from .errors import (DomainError, InvariantViolation,
                     NotHolomorphicError, NotSurjectiveError)
from .exactnum import (IntPolynomial, _from_power_sums, _int_from_power_sums,
                       _int_power_sums, _power_sums, cyclotomic_root_count,
                       gauss_poly_mul)
from .matlin import (RationalMatrix, _quotient, charpoly, matmul,
                     restrict_and_quotient, smith_form, trace_powers)
from .torus import ComplexTorus, Subtorus, _complex_basis, make_subtorus


class TorusEndomorphism(Record):
    """f(a) = M a + tau on torus.  M integer and commuting with J; tau
    rational, each component reduced modulo 1."""

    torus: ComplexTorus
    m: RationalMatrix
    tau: tuple

    # every lru_cache lookup hashes the map; the entries are hashed once
    @cached_property
    def _hash(self) -> int:
        return hash((self.torus, self.m, self.tau))

    def __hash__(self):
        return self._hash

    @cached_property
    def degree_matrix_det(self) -> int:
        return self.m.det()

    @property
    def surjective(self) -> bool:
        return self.degree_matrix_det != 0

    @property
    def is_isogeny(self) -> bool:
        return self.surjective and all(t == 0 for t in self.tau)

    def serialize(self):
        return {
            "M": [str(e.numerator) for row in self.m.entries for e in row],
            "tau": [str(t) for t in self.tau],
        }


def make_endo(torus: ComplexTorus, m, tau=None) -> TorusEndomorphism:
    """Validated endomorphism; rejects matrices that do not commute with J."""
    mat = m if isinstance(m, RationalMatrix) else RationalMatrix(m)
    if not mat.is_square() or mat.rows != torus.rank:
        raise DomainError("endomorphism matrix has wrong size")
    if not mat.is_integral():
        raise DomainError("endomorphism matrix must be integral")
    if mat * torus.j != torus.j * mat:
        raise NotHolomorphicError("matrix does not commute with the complex structure")
    if tau is None:
        tau = [0] * torus.rank
    if len(tau) != torus.rank:
        raise DomainError("translation vector has wrong length")
    tau = tuple(Fraction(t) % 1 for t in tau)
    return TorusEndomorphism(torus, mat, tau)


def iterate(f: TorusEndomorphism, k: int) -> TorusEndomorphism:
    """f^k: matrix M^k, translation s = (M^{k-1} + ... + I) tau mod 1, both
    read off the k-th power [[M^k, q s], [0, 1]] of the integer affine
    matrix [[M, q tau], [0, 1]], q the common denominator of tau."""
    if k < 1:
        raise DomainError("iteration count must be >= 1")
    size, q = f.torus.rank, lcm(*(t.denominator for t in f.tau))
    power = (RationalMatrix._of(_affine_rows(f, q), True) ** k).entries[:size]
    return TorusEndomorphism(f.torus, RationalMatrix._of([row[:size] for row in power], True),
                             tuple(_quotient(row[size] % q, q) for row in power))


def _affine_rows(f: TorusEndomorphism, q: int):
    """The integer rows of [[M, q tau], [0, 1]], q a multiple of every
    denominator of tau."""
    rows = [[*row, int(q * t)] for row, t in zip(f.m.entries, f.tau)]
    return rows + [[0] * f.torus.rank + [1]]


# ---------------------------------------------------------------------------
# Analytic representation


def _frame_blocks(m: RationalMatrix, j: RationalMatrix):
    """(s, sA, sB), integer rows with P^-1 M P = [[A, -B], [B, A]] in the
    frame P = (V, JV) of _complex_basis, for M commuting with J.  With
    w_k = v_k - iJv_k, Jw = iw and Mw_k = sum_l (A + iB)_lk w_l, so A + iB
    is M on the +i eigenspace of J: the analytic representation."""
    idx, d, q = _complex_basis(j)
    dm, mrows = m.scaled_rows()
    y = matmul(q, [[row[k] for k in idx] for row in mrows])  # d dm P^-1 M V
    return d * dm, y[:len(idx)], y[len(idx):]


def analytic_charpoly(m: RationalMatrix, j: RationalMatrix):
    """Gamma, the charpoly of the analytic representation N = A + iB, as
    ascending Gaussian-integer (re, im) pairs, from the power sums of its
    eigenvalues.  These are eigenvalues of the integral M, so algebraic
    integers, and Gamma is monic over Z[i]."""
    s, a, b = _frame_blocks(m, j)
    return tuple(_from_power_sums(trace_powers(a, b, s)))


class EigenData(Record):
    """Exact eigenvalue data: the degree-2n charpoly on H^1, the root-of-unity
    count u on the analytic side, and Gamma, the degree-n analytic charpoly
    over Z[i] as ascending (re, im) pairs."""

    h1_charpoly: IntPolynomial
    u_count: int
    cyclotomic_factors: tuple  # ((n, multiplicity) in h1_charpoly, ...)
    analytic: tuple


def _cached_on_k(fn):
    """lru_cache for fn(f, k=1), keyed on the value of k: fn(f) and
    fn(f, 1) share one entry."""
    cached = lru_cache(maxsize=512)(fn)

    @wraps(fn)
    def call(f, k=1):
        return cached(f, k)

    call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
    return call


@_cached_on_k
def eigen_data(f: TorusEndomorphism, k: int = 1) -> EigenData:
    """Eigen data of f^k.  Both charpolys of f are read off the traces of M
    and of A + iB; for k > 1 those of f^k are derived from f's, whose k-th
    powers are their roots, and f^k is never built."""
    if k < 1:
        raise DomainError("iteration count must be >= 1")
    if k == 1:
        h1, gamma = charpoly(f.m).coeffs, analytic_charpoly(f.m, f.torus.j)
    else:
        base = eigen_data(f)
        h1, gamma = base.h1_charpoly.coeffs, base.analytic
    d = len(h1) - 1
    return _eigen_data_of(_int_power_sums(h1, d, k), _power_sums(gamma, d, k), 1)


def _eigen_data_of(h1_sums, gamma_sums, k: int) -> EigenData:
    """EigenData of f^k from the slices p_0, p_k, ..., p_dk of the power
    sums of the roots of f's h1 (ints) and Gamma ((re, im) pairs).  Those
    of h1 are the roots of Gamma and their conjugates, so h1_k = Gamma_k
    conj(Gamma_k) is checked on the sums: p_m(h1) = 2 Re p_m(Gamma)."""
    d = h1_sums[0]
    h1, gamma = h1_sums[:d * k + 1:k], gamma_sums[:d * k + 1:k]
    if any(p != 2 * re for p, (re, _) in zip(h1, gamma)):
        raise InvariantViolation("h1 charpoly is not analytic x conjugate")
    h1 = IntPolynomial(_int_from_power_sums(h1))
    count, factors = cyclotomic_root_count(h1)
    if count % 2 != 0:
        raise InvariantViolation("root-of-unity count on H^1 must be even")
    return EigenData(h1, count // 2, tuple(factors), tuple(_from_power_sums(gamma[:d // 2 + 1])))


def unity_free(f: TorusEndomorphism):
    """(verdict, u) with u the number of root-of-unity eigenvalues on the
    analytic representation, counted with multiplicity.  Exact."""
    if not f.surjective:
        raise NotSurjectiveError("unity-free test requires det M != 0")
    data = eigen_data(f)
    return data.u_count == 0, data.u_count


def minimal_unity_iterate(f: TorusEndomorphism) -> int | None:
    """lcm of the orders n of cyclotomic factors of the H^1 charpoly, or
    None when there is no root-of-unity eigenvalue."""
    factors = eigen_data(f).cyclotomic_factors
    if not factors:
        return None
    return lcm(*[n for n, _ in factors])


def fixed_subtorus(f: TorusEndomorphism):
    """(k, S) with k the minimal cyclotomic-order lcm and S the saturated
    kernel of M^k - I (a positive-rank subtorus), or None when f is
    unity-free."""
    if not f.surjective:
        raise NotSurjectiveError("fixed subtorus requires det M != 0")
    k = minimal_unity_iterate(f)
    if k is None:
        return None
    # the columns of V at the zero invariant factors of U (M^k - I) V = D
    # are a primitive basis of the kernel, V being unimodular
    dec = smith_form(f.m ** k - RationalMatrix.identity(f.torus.rank))
    kernel = [dec.v.column(i) for i, d in enumerate(dec.invariant_factors) if d == 0]
    if not kernel:
        raise InvariantViolation("cyclotomic factor without fixed directions")
    return k, make_subtorus(f.torus, RationalMatrix.from_columns(kernel))


def eigen_split(f: TorusEndomorphism, sub: Subtorus):
    """Analytic charpolys (full, restriction, quotient) along an invariant
    subtorus; asserts the exact product identity of the eigenvalue
    multiset splitting."""
    m_w, m_q, _ = restrict_and_quotient(f.m, sub.lattice)  # raises if not invariant
    j_w, j_q, _ = restrict_and_quotient(f.torus.j, sub.lattice)
    gamma = eigen_data(f).analytic
    delta = analytic_charpoly(m_w, j_w)
    quot = analytic_charpoly(m_q, j_q)
    product = gauss_poly_mul(delta, quot)
    if product != gamma:
        raise InvariantViolation("eigenvalue splitting identity failed")
    return gamma, delta, quot
