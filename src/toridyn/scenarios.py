"""Builders: CM orders and their integer realifications, product tori,
endomorphisms from matrices over an order, the named examples, and seeded
random samples for sweeps.

Every construction here is validated at build time: the realified order
generator satisfies its minimal polynomial exactly, the complex structure
J is rational with J^2 = -I, and the two commute.  For the Gaussian order
the realification is the familiar 2x2 one.  For the Eisenstein order and
for Z[sqrt(-d)] with d not a perfect square no 2x2 rational J commutes
with an integer realification of the generator (the commutant of such a J
is isomorphic to Q(i), which contains neither omega nor sqrt(-d)), so
those orders are realified on a rank-4 lattice via the regular
representation of the CM field extended by i:

  eisenstein    Q(zeta_12) = Q[x]/(x^4 - x^2 + 1), J = C^3, omega = C^4
                (C the companion matrix; zeta_12^3 = i, zeta_12^4 = omega)
  quadratic(-d) basis (1, sqrt(-d), i, i sqrt(-d)) of Q(sqrt(-d), i)

Each rank-4 block is one complex-dimension-2 factor carrying a faithful
integral action of the order.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

from ._record import Record
from .errors import DomainError, ResourceError
from .matlin import RationalMatrix
from .torus import ComplexTorus, make_torus
from .endo import TorusEndomorphism, make_endo

RANDOM_REJECTION_BUDGET = 500


class CMOrder(Record):
    """An imaginary quadratic order Z[g] with a fixed integral
    realification: `generator` is the matrix of g, `j_block` the matrix of
    a square root of -1 commuting with it, both acting on one lattice
    block of rank `rank`."""

    tag: str
    generator: RationalMatrix
    j_block: RationalMatrix
    minimal_poly: tuple  # ascending integer coefficients of g's minimal poly

    def __post_init__(self):
        g, j = self.generator, self.j_block
        n = g.rows
        acc = RationalMatrix.zero(n, n)
        power = RationalMatrix.identity(n)
        for c in self.minimal_poly:
            acc = acc + power * c
            power = power * g
        if acc != RationalMatrix.zero(n, n):
            raise DomainError(f"generator violates minimal polynomial ({self.tag})")
        if j * j != -RationalMatrix.identity(n):
            raise DomainError(f"j_block^2 != -I ({self.tag})")
        if g * j != j * g:
            raise DomainError(f"order generator does not commute with J ({self.tag})")

    @property
    def rank(self) -> int:
        return self.generator.rows


def gaussian_order() -> CMOrder:
    j0 = RationalMatrix([[0, -1], [1, 0]])
    return CMOrder("gaussian", j0, j0, (1, 0, 1))


def eisenstein_order() -> CMOrder:
    # companion matrix of x^4 - x^2 + 1, the minimal polynomial of zeta_12
    c = RationalMatrix([[0, 0, 0, -1],
                         [1, 0, 0, 0],
                         [0, 1, 0, 1],
                         [0, 0, 1, 0]])
    return CMOrder("eisenstein", c ** 4, c ** 3, (1, 1, 1))


def quadratic_order(d: int) -> CMOrder:
    """Z[sqrt(-d)].  A perfect square d = b^2 lives inside the Gaussian
    realification (sqrt(-d) = b i); otherwise the rank-4 basis
    (1, sqrt(-d), i, i sqrt(-d)) is used."""
    if d < 1:
        raise DomainError("quadratic order requires d >= 1")
    b = math.isqrt(d)
    if b * b == d:
        j0 = RationalMatrix([[0, -1], [1, 0]])
        return CMOrder(f"quadratic(-{d})", j0 * b, j0, (d, 0, 1))
    w = RationalMatrix([[0, -d, 0, 0],
                         [1, 0, 0, 0],
                         [0, 0, 0, -d],
                         [0, 0, 1, 0]])
    j = RationalMatrix([[0, 0, -1, 0],
                         [0, 0, 0, -1],
                         [1, 0, 0, 0],
                         [0, 1, 0, 0]])
    return CMOrder(f"quadratic(-{d})", w, j, (d, 0, 1))


@lru_cache(maxsize=None)
def order_by_name(name: str) -> CMOrder:
    """The order named `name`, built and validated once per name; a
    CMOrder is frozen, so callers share it."""
    if name == "gaussian":
        return gaussian_order()
    if name == "eisenstein":
        return eisenstein_order()
    if name.startswith("quadratic(") and name.endswith(")"):
        inside = name[len("quadratic("):-1]
        try:
            d = -int(inside)
        except ValueError:
            raise DomainError(f"unknown CM order: {name}") from None
        return quadratic_order(d)
    raise DomainError(f"unknown CM order: {name}")


# ---------------------------------------------------------------------------
# Tori


def elliptic_curve(order: CMOrder) -> ComplexTorus:
    """The basic torus carrying a faithful integral action of the order.
    Complex dimension 1 for the Gaussian realification, 2 for the rank-4
    realifications (see the module docstring)."""
    return make_torus(order.j_block)


def product(tori) -> ComplexTorus:
    tori = list(tori)
    if not tori:
        raise DomainError("product of no tori")
    size = sum(t.rank for t in tori)
    rows = [[0] * size for _ in range(size)]
    offset = 0
    for t in tori:
        for i in range(t.rank):
            for j in range(t.rank):
                rows[offset + i][offset + j] = t.j[i, j]
        offset += t.rank
    return make_torus(RationalMatrix(rows))


@lru_cache(maxsize=None)
def cm_power_torus(order: CMOrder, n: int) -> ComplexTorus:
    """The n-th power of the order's curve, built and validated once per
    (order, n); a ComplexTorus is frozen, so callers share it."""
    if n < 1:
        raise DomainError("need at least one factor")
    return product([elliptic_curve(order)] * n)


# ---------------------------------------------------------------------------
# Endomorphisms from matrices over the order


def cm_matrix_endo(torus: ComplexTorus, order: CMOrder, b, tau=None) -> TorusEndomorphism:
    """Realify an n x n matrix over the order into an endomorphism of the
    n-fold power torus.  An entry (a, c) of integers means a + c*g and
    becomes the block a*I + c*G, G the matrix of g.  Commutation with J
    holds by construction and is re-checked by make_endo."""
    n = len(b)
    r = order.rank
    if torus.rank != n * r:
        raise DomainError("torus is not the matching power of the order's curve")
    for row in b:
        if len(row) != n:
            raise DomainError("order-matrix must be square")
        if not all(isinstance(a, int) and isinstance(c, int) for a, c in row):
            raise DomainError("order elements have integer coordinates")
    g = order.generator.entries
    rows = [[a * (p == q) + c * g[p][q] for a, c in row for q in range(r)]
            for row in b for p in range(r)]
    return make_endo(torus, RationalMatrix._of(rows, True), tau)


# ---------------------------------------------------------------------------
# Named examples


class Scenario(Record):
    name: str
    description: str
    endo: TorusEndomorphism
    sublattices: dict  # name -> tuple of integer column tuples


_EE_SUBLATTICES = {
    "first_factor": ((1, 0, 0, 0), (0, 1, 0, 0)),
    "second_factor": ((0, 0, 1, 0), (0, 0, 0, 1)),
    "diagonal": ((1, 0, 1, 0), (0, 1, 0, 1)),
}

# name -> (description, n, n x n matrix over the Gaussian order acting on E^n)
_EXAMPLES = {
    "mult_2_1": ("multiplication by 2 on the first factor of E x E", 2,
                 [[(2, 0), (0, 0)], [(0, 0), (1, 0)]]),
    "mult_2_3": ("multiplication by 2 and 3 on the factors of E x E", 2,
                 [[(2, 0), (0, 0)], [(0, 0), (3, 0)]]),
    "gtz_diag": ("multiplication by 1+2i and 2+i on the factors of E x E", 2,
                 [[(1, 2), (0, 0)], [(0, 0), (2, 1)]]),
    "shear": ("(a1, a2) -> (a1 + a2, a2) on E x E", 2,
              [[(1, 0), (1, 0)], [(0, 0), (1, 0)]]),
    "salem_surface": ("[[2,1],[1,1]] over the Gaussian order on E x E", 2,
                      [[(2, 0), (1, 0)], [(1, 0), (1, 0)]]),
    "mult_by_i": ("multiplication by i on E (finite order 4)", 1,
                  [[(0, 1)]]),
    "e4_auto": ("automorphism of E^4 with Salem characteristic polynomial", 4,
                [[(0, 0), (0, 0), (0, 0), (-1, 0)],
                 [(1, 0), (0, 0), (0, 0), (3, 0)],
                 [(0, 0), (1, 0), (0, 0), (4, 0)],
                 [(0, 0), (0, 0), (1, 0), (3, 0)]]),
}


def _build_example(name: str) -> Scenario:
    description, n, b = _EXAMPLES[name]
    g = order_by_name("gaussian")
    return Scenario(name, description, cm_matrix_endo(cm_power_torus(g, n), g, b),
                    dict(_EE_SUBLATTICES) if n == 2 else {})


def named_examples() -> dict:
    return {name: _build_example(name) for name in _EXAMPLES}


def get_example(name: str) -> Scenario:
    if name not in _EXAMPLES:
        raise DomainError(
            f"unknown example {name!r}; known: {', '.join(sorted(_EXAMPLES))}")
    return _build_example(name)


# ---------------------------------------------------------------------------
# Random sampling


def random_endo(n: int, order: CMOrder, h: int, seed: int) -> TorusEndomorphism:
    """Seeded random n x n matrix over the order with coefficient height
    <= h, rejecting det = 0.  Sampling over the order (rather than over
    arbitrary integer matrices commuting with J) guarantees holomorphy."""
    if not 1 <= n <= 4:
        raise DomainError("random_endo supports 1 <= n <= 4")
    if h < 1:
        raise DomainError("height bound must be >= 1")
    rng = random.Random(f"{order.tag}/{n}/{h}/{seed}")
    torus = cm_power_torus(order, n)
    for _ in range(RANDOM_REJECTION_BUDGET):
        b = [[(rng.randint(-h, h), rng.randint(-h, h)) for _ in range(n)]
             for _ in range(n)]
        f = cm_matrix_endo(torus, order, b)
        if f.surjective:
            return f
    raise ResourceError("random_endo rejection budget exceeded")
