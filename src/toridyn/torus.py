"""Complex tori with rational complex structure.

Subtori, quotient tori, Neron-Severi spaces (the rational +1-eigenspace of
the induced J-action on the second exterior power of the dual lattice) and
exact ample-cone membership.  Rational J restricts the model to tori of
CM type; this covers every worked example the library targets, and all
verdicts that would need an irrational period matrix report inconclusive
instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm

from .errors import ComplexStructureError, DomainError, NotSubtorusError
from .matlin import (RationalMatrix, Sublattice, bareiss, exterior_basis,
                     exterior_power, restrict_and_quotient, saturate)


@dataclass(frozen=True)
class ComplexTorus:
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

    def is_degenerate(self) -> bool:
        return self.n == 0

    def serialize(self):
        return {"n": self.n, "J": self.j.serialize()}


def make_torus(j) -> ComplexTorus:
    """Validated torus from a rational square matrix of even size."""
    mat = j if isinstance(j, RationalMatrix) else RationalMatrix(j)
    if not mat.is_square():
        raise DomainError("complex structure must be square")
    if mat.rows % 2 != 0:
        raise DomainError("complex structure must have even size")
    if mat.rows and mat * mat != -RationalMatrix.identity(mat.rows):
        raise ComplexStructureError("J^2 != -I")
    return ComplexTorus(mat.rows // 2, mat)


@dataclass(frozen=True)
class Subtorus:
    """Primitive J-invariant sublattice of even rank inside a torus."""

    parent: ComplexTorus
    lattice: Sublattice

    @property
    def rank(self) -> int:
        return self.lattice.rank

    @property
    def complex_dim(self) -> int:
        return self.rank // 2


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
    return Subtorus(torus, lat)


def quotient_torus(torus: ComplexTorus, sub: Subtorus):
    """Quotient torus and the projection onto quotient lattice coordinates.

    The quotient basis comes from completing the subtorus basis to a basis
    of the ambient lattice; the induced complex structure is the lower
    diagonal block of J in that basis."""
    if sub.parent is not torus and sub.parent != torus:
        raise DomainError("subtorus does not belong to this torus")
    if sub.rank == torus.rank:
        return ComplexTorus(0, RationalMatrix([])), RationalMatrix([])
    _, j_q, b = restrict_and_quotient(torus.j, sub.lattice)
    binv = b.inverse()
    proj = RationalMatrix([binv.row(i) for i in range(sub.rank, torus.rank)])
    return make_torus(j_q), proj


@dataclass(frozen=True)
class NeronSeveriSpace:
    """Rational basis of the (1,1)-part of the second exterior power of the
    dual lattice; ambient space for line-bundle classes."""

    parent: ComplexTorus
    basis: RationalMatrix  # C(2n,2) x rho, columns are NS classes
    rho: int

    def contains(self, omega) -> bool:
        vec = [Fraction(x) for x in omega]
        aug = RationalMatrix([list(row) + [v]
                              for row, v in zip(self.basis.entries, vec)])
        return aug.rank() == self.rho

    def coordinates(self, omega) -> tuple:
        """Coordinates of an NS vector in this basis."""
        sol = self.basis.solve_exact(RationalMatrix([[Fraction(x)] for x in omega]))
        return sol.column(0)

    def from_coordinates(self, coords) -> tuple:
        return self.basis.apply(coords)


def _primitive_integer_vector(vec):
    fracs = [Fraction(x) for x in vec]
    scale = lcm(*(x.denominator for x in fracs))
    ints = [x.numerator * (scale // x.denominator) for x in fracs]
    g = gcd(*ints) or 1
    sign = -1 if next((x for x in ints if x != 0), 1) < 0 else 1
    return tuple(x // (g * sign) for x in ints)


@lru_cache(maxsize=256)
def neron_severi(torus: ComplexTorus) -> NeronSeveriSpace:
    """Rational kernel of (Lambda^2(J^T) - I), returned with a primitive
    integer basis."""
    if torus.n == 0:
        return NeronSeveriSpace(torus, RationalMatrix([]), 0)
    ext = exterior_power(torus.j.transpose(), 2)
    kernel = (ext - RationalMatrix.identity(ext.rows)).kernel_basis()
    if not kernel:
        return NeronSeveriSpace(torus, RationalMatrix.zero(ext.rows, 0), 0)
    cols = [_primitive_integer_vector(v) for v in kernel]
    return NeronSeveriSpace(torus, RationalMatrix.from_columns(cols), len(cols))


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
    """Exact Sylvester test on a symmetric rational matrix via one
    fraction-free elimination pass without row swaps: the k-th pivot is the
    k-th leading principal minor of D*S (D > 0 clears the denominators), so
    all pivots > 0 is equivalent and aborts early."""
    mat = s if isinstance(s, RationalMatrix) else RationalMatrix(s)
    return bareiss(mat.scaled_rows()[1], definite=True) is not None


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
    S = E(J., .) positive definite.  Returned as a primitive integer NS
    vector."""
    if torus.n == 0:
        raise DomainError("degenerate torus has no ample class")
    p = RationalMatrix.identity(torus.rank) + torus.j.transpose() * torus.j
    e = -(torus.j.transpose() * p)
    vec = _primitive_integer_vector(form_to_ns_vector(torus, e))
    if not is_ample(torus, vec):
        vec = tuple(-x for x in vec)
    if not is_ample(torus, vec):
        raise DomainError("canonical ample construction failed")  # pragma: no cover
    return vec
