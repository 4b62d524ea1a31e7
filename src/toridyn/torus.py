"""Complex tori with rational complex structure.

Subtori, the frame P = (v, Jv) in which J is
[[0, -I], [I, 0]], Neron-Severi spaces (the J-invariant alternating forms
on the lattice, read off that frame) and exact ample-cone membership.
Rational J restricts the model to tori of CM type; this covers every
worked example the library targets, and a torus whose period matrix is
irrational is outside the model.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm

from ._record import Record
from .errors import (ComplexStructureError, DomainError, InvariantViolation,
                     NotSubtorusError)
from .matlin import RationalMatrix, Sublattice, bareiss, exterior_basis, saturate


class ComplexTorus(Record):
    """Lattice Z^2n with a rational complex structure J, J^2 = -I."""

    n: int
    j: RationalMatrix

    # every lru_cache lookup hashes the torus; J is hashed once
    @cached_property
    def _hash(self) -> int:
        return hash((self.n, self.j))

    def __hash__(self):
        return self._hash

    @property
    def rank(self) -> int:
        return 2 * self.n


def make_torus(j) -> ComplexTorus:
    """Validated torus from a rational square matrix of even, positive
    size."""
    mat = j if isinstance(j, RationalMatrix) else RationalMatrix(j)
    if not mat.is_square():
        raise DomainError("complex structure must be square")
    if mat.rows % 2 != 0 or mat.rows == 0:
        raise DomainError("complex structure must have even size and positive dimension")
    if mat * mat != -RationalMatrix.identity(mat.rows):
        raise ComplexStructureError("J^2 != -I")
    return ComplexTorus(mat.rows // 2, mat)


class Subtorus(Record):
    """Primitive J-invariant sublattice of even rank inside a torus."""

    lattice: Sublattice

    @property
    def rank(self) -> int:
        return self.lattice.rank


def make_subtorus(torus: ComplexTorus, s) -> Subtorus:
    """Saturates the given integer columns and checks even rank and
    J-invariance of the rational span."""
    lat = saturate(s)
    if lat.ambient_rank != torus.rank:
        raise DomainError("sublattice has wrong ambient rank")
    if lat.rank % 2 != 0:
        raise NotSubtorusError("sublattice rank is odd; not a subtorus")
    for jcol in range(lat.rank):
        img = torus.j.apply(lat.basis.column(jcol))
        if not lat.spans_vector(img):
            raise NotSubtorusError("span is not J-invariant; not a subtorus")
    return Subtorus(lat)


@lru_cache(maxsize=256)
def _complex_basis(j: RationalMatrix):
    """(idx, d, q): the columns P = (v_1..v_n, Jv_1..Jv_n), v_k = e_idx[k],
    are a Q-basis in which J is [[0, -I], [I, 0]], and q = d * P^-1 is integral.

    idx is read off the pivot columns of one Bareiss pass over the columns
    (e_0, Je_0, e_1, Je_1, ...).  Each span(v, Jv) is J-invariant when
    J^2 = -I, so a pivot e_k is followed by the pivot Je_k."""
    size = j.rows
    _, jrows = j.scaled_rows()  # J's columns scaled by D: the same pivots
    pivots = bareiss([[x for k in range(size) for x in (int(i == k), row[k])]
                      for i, row in enumerate(jrows)])[0]
    idx = [c // 2 for c in pivots[::2]]
    if pivots != [c for k in idx for c in (2 * k, 2 * k + 1)]:
        raise InvariantViolation("J admits no basis of the form (v, Jv)")
    p = RationalMatrix([[int(i == k) for k in idx] + [row[k] for k in idx]
                        for i, row in enumerate(j.entries)])
    d, q = p.inverse().scaled_rows()
    return tuple(idx), d, q


class NeronSeveriSpace(Record):
    """The J-invariant alternating forms E on the lattice (Birkenhake-Lange,
    ch. 2).  In the frame P of _complex_basis, E is J-invariant exactly when
    P^T E P = [[X, Y], [-Y, X]] with X antisymmetric and Y symmetric, so
    rho = n^2.  The slots are the entries X_kl (k < l) and Y_kl (k <= l) of
    P^T E P, and ns_action acts on the unit block forms of the slots."""

    slots: tuple  # (row, column) of each slot in P^T E P
    units: tuple  # per slot, the ((i, j), +-1) entries of its unit block form
    rho: int


def _primitive_integer_vector(vec):
    """The primitive integer vector on the ray of the nonzero rational vec."""
    fracs = [Fraction(x) for x in vec]
    scale = lcm(*(x.denominator for x in fracs))
    ints = [x.numerator * (scale // x.denominator) for x in fracs]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def neron_severi(torus: ComplexTorus) -> NeronSeveriSpace:
    """NS of the torus, which takes no computation: the slots X_kl (k < l)
    and Y_kl (k <= l) and the unit forms of [[X, Y], [-Y, X]], n x n blocks."""
    n = torus.n
    x = {(k, l): {(k, l): 1, (l, k): -1, (n + k, n + l): 1, (n + l, n + k): -1}
         for k in range(n) for l in range(k + 1, n)}
    y = {(k, n + l): {(k, n + l): 1, (l, n + k): 1, (n + k, l): -1, (n + l, k): -1}
         for k in range(n) for l in range(k, n)}
    units = tuple(tuple(u.items()) for u in (x | y).values())  # Y_kk has two entries
    return NeronSeveriSpace(tuple(x | y), units, n * n)


def ns_vector_to_form(torus: ComplexTorus, omega) -> RationalMatrix:
    """Alternating form E on the lattice from an NS vector in the
    lexicographic wedge basis e_i ^ e_j (i < j)."""
    d = torus.rank
    pairs = exterior_basis(d, 2)
    vec = [Fraction(x) for x in omega]
    if len(vec) != len(pairs):
        raise DomainError("NS vector has wrong length")
    e = [[Fraction(0)] * d for _ in range(d)]
    for (i, j), val in zip(pairs, vec):
        e[i][j] = val
        e[j][i] = -val
    return RationalMatrix(e)


def form_to_ns_vector(torus: ComplexTorus, e: RationalMatrix) -> tuple:
    pairs = exterior_basis(torus.rank, 2)
    return tuple(e[i, j] for i, j in pairs)


def _is_positive_definite(s) -> bool:
    """Exact Sylvester test on a symmetric rational matrix from one plain
    fraction-free elimination pass over D*S (D > 0 clears the
    denominators).  While no row is swapped the diagonal entries are the
    leading principal minors; a swap or a skipped column means a minor
    is 0."""
    rows = (s if isinstance(s, RationalMatrix) else RationalMatrix(s)).scaled_rows()[1]
    pivots, _, swaps = bareiss(rows)
    return (not swaps and len(pivots) == len(rows)
            and all(row[k] > 0 for k, row in enumerate(rows)))


def is_ample(torus: ComplexTorus, omega) -> bool:
    """Ample-cone membership of an NS vector: the symmetric form
    S(x, y) = E(Jx, y) must be positive definite (exact leading minors).
    As J^2 = -I, S = J^T E is symmetric exactly when E is in NS."""
    s = torus.j.transpose() * ns_vector_to_form(torus, omega)
    if s.transpose() != s:
        raise DomainError("vector is not of type (1,1)")
    return _is_positive_definite(s)


@lru_cache(maxsize=256)
def canonical_ample_class(torus: ComplexTorus):
    """A deterministic ample class, available for every rational-J torus:
    average the standard inner product over J to get a J-invariant positive
    form P, then E(x, y) = -P(Jx, y) is alternating, J-invariant, and has
    S = E(J., .) = P positive definite.  Returned as a primitive integer NS
    vector."""
    p = RationalMatrix.identity(torus.rank) + torus.j.transpose() * torus.j
    e = -(torus.j.transpose() * p)
    vec = _primitive_integer_vector(form_to_ns_vector(torus, e))
    if not is_ample(torus, vec):
        raise DomainError("canonical ample construction failed")  # pragma: no cover
    return vec
