"""Exact integer/rational dense matrix algebra.

Characteristic polynomials, Smith normal form with transforms, lattice
saturation, exterior powers, and restriction/quotient along invariant
sublattices.  The core is integer-first: a matrix stores plain `int`
entries wherever the value is integral and a `Fraction` only where it is
not, and every true division goes through `Fraction`.  Elimination
(determinants, inverses, pivot columns, the positive-definite test) is one
fraction-free routine (Bareiss 1968) on the integer matrix D*A, D the lcm
of the denominators.  A characteristic polynomial is read off the power
sums tr(A^m) of its roots by Newton's identities, exactnum's integer
kernel for an integer matrix and its Gaussian-integer one for A + iB;
only A^1..A^h, h = ceil(n/2), are built, and tr(A^m) past them is
tr(A^h A^(m-h)), a sum of entry products.
The Smith form keeps A and its transforms on one grid, [A | U] above V,
so each step is written once.  An integer kernel is read off the Smith
transform V, whose columns at the zero invariant factors are a primitive
basis of it.  A sublattice keeps the Smith transform of its generators
and its inverse, so span membership, restriction and quotient are integer
products with no elimination.
Dimensions in this artifact stay small (ambient rank <= 16, Neron-Severi
rank <= 64) so dense arithmetic is the right tool.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from math import lcm
from operator import mul

from ._record import Record
from .errors import DomainError, InvarianceViolation, InvariantViolation
from .exactnum import IntPolynomial, _int_from_power_sums

# ---------------------------------------------------------------------------
# Integer arithmetic


def _rational(value):
    """An exact entry: the int when the value is integral, else a Fraction."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _quotient(a: int, b: int):
    """a / b as an exact entry."""
    q, r = divmod(a, b)
    return q if r == 0 else Fraction(a, b)


def matmul(a, b):
    """Product of two matrices given as row lists."""
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def bareiss(mat, jordan=False):
    """Fraction-free elimination (Bareiss 1968) of the integer rows `mat`,
    in place.

    Every entry after a pivot step is a minor of the input, so each
    division by the previous pivot is exact; while no row has been swapped
    and no column skipped, the k-th pivot is the k-th leading principal
    minor.  Rows below a pivot are always cleared; with `jordan` the rows
    above are cleared too, so the pivot rows end as p * (reduced row
    echelon form), p the last pivot (fraction-free Gauss-Jordan).

    Returns (pivot columns, last pivot, number of row swaps)."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    pivots = []
    prev = 1
    swaps = 0
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if mat[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            mat[r], mat[piv] = mat[piv], mat[r]
            swaps += 1
        row_r = mat[r]
        p = row_r[c]
        lo = 0 if jordan else c
        for i in range(0 if jordan else r + 1, rows):
            if i != r:
                row_i = mat[i]
                f = row_i[c]
                row_i[lo:] = [(p * x - f * y) // prev
                              for x, y in zip(row_i[lo:], row_r[lo:])]
        pivots.append(c)
        prev = p
        r += 1
    return pivots, prev, swaps


def trace_powers(a, b=None, s=1):
    """Power sums p_0..p_n, as (re, im) pairs, of the eigenvalues of
    (A + iB) / s for n x n integer matrices A and B given as row lists
    (B None for zero): p_m = tr(X^m) / s^m, X = A + iB, with only X^1..X^h,
    h = ceil(n/2), built; past h, tr(X^h X^(m-h)) is an O(n^2) sum.  The
    eigenvalues are taken to be algebraic integers, so every p_m lies in
    Z[i]; a division that is not exact raises InvariantViolation."""
    def trace(x, y):  # tr(XY) = sum_ij X_ij Y_ji, without forming XY
        return sum(map(mul, chain.from_iterable(x), chain.from_iterable(zip(*y))))
    n, h = len(a), (len(a) + 1) // 2
    sums, powers, re, im = [(n, 0)], [None], a, b
    for m in range(1, n + 1):
        if 1 < m <= h and b is None:
            re = matmul(re, a)
        elif 1 < m <= h:  # (re + i im)(A + iB)
            re, im = ([[x - y for x, y in zip(r, t)]
                       for r, t in zip(matmul(re, a), matmul(im, b))],
                      [[x + y for x, y in zip(r, t)]
                       for r, t in zip(matmul(re, b), matmul(im, a))])
        if m <= h:
            powers.append((re, im))
            t_re = sum(re[i][i] for i in range(n))
            t_im = 0 if b is None else sum(im[i][i] for i in range(n))
        else:  # re + i im is X^h
            kr, ki = powers[m - h]
            t_re = trace(re, kr) - (0 if b is None else trace(im, ki))
            t_im = 0 if b is None else trace(re, ki) + trace(im, kr)
        scale = s ** m
        if t_re % scale or t_im % scale:
            raise InvariantViolation("analytic charpoly is not over Z[i]")
        sums.append((t_re // scale, t_im // scale))
    return sums


# ---------------------------------------------------------------------------
# Rational matrices


class RationalMatrix:
    """Immutable dense matrix over Q; integral entries are stored as int."""

    __slots__ = ("rows", "cols", "entries", "_integral")

    def __init__(self, entries):
        rows = tuple(tuple(map(_rational, row)) for row in entries)
        n = len(rows[0]) if rows else 0
        if any(len(r) != n for r in rows):
            raise DomainError("ragged matrix")
        self.rows, self.cols, self.entries, self._integral = len(rows), n, rows, None

    @staticmethod
    def _of(rows, integral=None) -> "RationalMatrix":
        """Matrix from row sequences whose entries are already exact; row
        sequences of plain ints when `integral` is true."""
        if not integral:
            return RationalMatrix(rows)
        out = object.__new__(RationalMatrix)
        out.entries = tuple(map(tuple, rows))
        out.rows = len(out.entries)
        out.cols = len(out.entries[0]) if out.entries else 0
        out._integral = True
        return out

    # -- constructors

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix._of([[int(i == j) for j in range(n)] for i in range(n)], True)

    @staticmethod
    def zero(rows: int, cols: int) -> "RationalMatrix":
        return RationalMatrix._of([[0] * cols for _ in range(rows)], True)

    @staticmethod
    def from_columns(cols) -> "RationalMatrix":
        return RationalMatrix([[c[i] for c in cols] for i in range(len(cols[0]))])

    @staticmethod
    def diagonal(values) -> "RationalMatrix":
        vs = list(values)
        return RationalMatrix([[vs[i] if i == j else 0 for j in range(len(vs))]
                               for i in range(len(vs))])

    # -- basic structure

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def column(self, j):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_integral(self) -> bool:
        if self._integral is None:
            self._integral = all(type(e) is int for row in self.entries for e in row)
        return self._integral

    def __eq__(self, other):
        return (isinstance(other, RationalMatrix)
                and self.entries == other.entries)

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in row) for row in self.entries)
        return f"RationalMatrix[{body}]"

    # -- arithmetic

    def __add__(self, other):
        self._shape_match(other)
        return RationalMatrix._of([[a + b for a, b in zip(r1, r2)]
                                   for r1, r2 in zip(self.entries, other.entries)],
                                  self.is_integral() and other.is_integral())

    def __sub__(self, other):
        self._shape_match(other)
        return RationalMatrix._of([[a - b for a, b in zip(r1, r2)]
                                   for r1, r2 in zip(self.entries, other.entries)],
                                  self.is_integral() and other.is_integral())

    def __neg__(self):
        return RationalMatrix._of([[-a for a in row] for row in self.entries],
                                  self.is_integral())

    def _shape_match(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DomainError("matrix shape mismatch")

    def __mul__(self, other):
        if isinstance(other, RationalMatrix):
            if self.cols != other.rows:
                raise DomainError("matrix shape mismatch in product")
            return RationalMatrix._of(matmul(self.entries, other.entries),
                                      self.is_integral() and other.is_integral())
        scalar = _rational(other)
        return RationalMatrix._of([[a * scalar for a in row] for row in self.entries],
                                  self.is_integral() and type(scalar) is int)

    __rmul__ = lambda self, other: self * other

    def apply(self, vector):
        if len(vector) != self.cols:
            raise DomainError("vector length mismatch")
        vec = [_rational(v) for v in vector]
        return tuple(_rational(sum(map(mul, row, vec)))
                     for row in self.entries)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix._of(list(zip(*self.entries)), self.is_integral())

    def __pow__(self, k: int) -> "RationalMatrix":
        if not self.is_square() or k < 0:
            raise DomainError("power requires a square matrix and k >= 0")
        result = RationalMatrix.identity(self.rows)
        for bit in bin(k)[2:]:  # left to right: no square past the top bit
            result = result * result
            if bit == "1":
                result = result * self
        return result

    # -- elimination based operations

    def scaled_rows(self):
        """(D, rows of D * self as int lists), D the lcm of the denominators."""
        if self.is_integral():
            return 1, [list(row) for row in self.entries]
        d = lcm(*(e.denominator for row in self.entries for e in row))
        return d, [[e.numerator * (d // e.denominator) for e in row]
                   for row in self.entries]

    def det(self):
        if not self.is_square():
            raise DomainError("determinant requires a square matrix")
        d, mat = self.scaled_rows()
        pivots, p, swaps = bareiss(mat)
        if len(pivots) < self.rows:
            return 0
        value = -p if swaps & 1 else p
        return value if d == 1 else _quotient(value, d ** self.rows)

    def inverse(self) -> "RationalMatrix":
        if not self.is_square():
            raise DomainError("inverse requires a square matrix")
        n = self.rows
        d, mat = self.scaled_rows()
        for i, row in enumerate(mat):
            row.extend(int(i == j) for j in range(n))
        pivots, p, _ = bareiss(mat, jordan=True)
        if pivots != list(range(n)):
            raise DomainError("matrix is singular")
        # [DA | I] reduces to p * [I | (DA)^-1], and A^-1 = D (DA)^-1
        return RationalMatrix._of([[_quotient(d * x, p) for x in row[n:]] for row in mat])

    def trace(self):
        if not self.is_square():
            raise DomainError("trace requires a square matrix")
        return _rational(sum(self.entries[i][i] for i in range(self.rows)))

    def to_integer(self):
        """Entries as ints; raises when any entry is non-integral."""
        if not self.is_integral():
            raise DomainError("matrix is not integral")
        return [list(row) for row in self.entries]


def charpoly(a: RationalMatrix) -> IntPolynomial:
    """det(xI - A) for an integral A, from the power sums of its
    eigenvalues by Newton's identities."""
    if not a.is_square():
        raise DomainError("characteristic polynomial requires a square matrix")
    return IntPolynomial(_int_from_power_sums([re for re, _ in trace_powers(a.to_integer())]))


def exterior_power(a: RationalMatrix, k: int) -> RationalMatrix:
    """Induced map on the k-th exterior power; basis indexed by lexicographic
    k-subsets of {0..d-1}; entries are k x k minors of A."""
    if not a.is_square():
        raise DomainError("exterior power requires a square matrix")
    d = a.rows
    if not 1 <= k <= d:
        raise DomainError("exterior power index out of range")
    subsets = list(combinations(range(d), k))
    e = a.entries
    return RationalMatrix._of(
        [[RationalMatrix._of([[e[i][j] for j in cols] for i in rows], a.is_integral()).det()
          for cols in subsets] for rows in subsets], a.is_integral())


def exterior_basis(d: int, k: int):
    """The lexicographic k-subset basis order used by exterior_power."""
    return list(combinations(range(d), k))


# ---------------------------------------------------------------------------
# Smith normal form


class SmithDecomposition(Record):
    """U * A * V = D with U, V unimodular and D diagonal with the
    divisibility chain d_1 | d_2 | ... (trailing zeros allowed)."""

    u: RationalMatrix
    d: RationalMatrix
    v: RationalMatrix

    @property
    def invariant_factors(self):
        n = min(self.d.rows, self.d.cols)
        return [self.d[i, i].numerator for i in range(n)]


def smith_form(a) -> SmithDecomposition:
    """Smith normal form U A V = D of an integer matrix (lists or
    RationalMatrix), after Cohen, A Course in Computational Algebraic Number
    Theory, 2.4.  One grid holds [A | U] above V: a row step acts on one
    grid row, a column step on one column of every grid row.  The pivot is
    the first entry of least |value| in row-major order."""
    if isinstance(a, RationalMatrix):
        mat = a.to_integer()
    else:
        mat = [[int(x) for x in row] for row in a]
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    grid = [row + [int(i == j) for j in range(rows)] for i, row in enumerate(mat)]
    grid += ([int(i == j) for j in range(cols)] for i in range(cols))
    t = 0
    while t < min(rows, cols):
        best = None
        for i in range(t, rows):
            for j, x in enumerate(grid[i][t:cols], t):
                if x != 0 and (best is None or abs(x) < least):
                    best, least = (i, j), abs(x)
        if best is None:
            break
        i, j = best
        grid[t], grid[i] = grid[i], grid[t]
        for row in grid:
            row[t], row[j] = row[j], row[t]
        if grid[t][t] < 0:
            grid[t] = [-x for x in grid[t]]
        pivot = grid[t]
        # clear the edging; restart if a smaller remainder shows up
        dirty = False
        for i in range(t + 1, rows):
            if grid[i][t] != 0:
                q = grid[i][t] // pivot[t]
                grid[i] = [x - q * y for x, y in zip(grid[i], pivot)]
                dirty |= grid[i][t] != 0
        for j in range(t + 1, cols):
            if pivot[j] != 0:
                q = pivot[j] // pivot[t]
                for row in grid:
                    row[j] -= q * row[t]
                dirty |= pivot[j] != 0
        if dirty:
            continue
        # enforce divisibility d_t | everything below-right
        offender = next((i for i in range(t + 1, rows)
                         if any(x % pivot[t] for x in grid[i][t + 1:cols])), None)
        if offender is not None:
            grid[t] = [x + y for x, y in zip(pivot, grid[offender])]
            continue
        t += 1
    return SmithDecomposition(RationalMatrix._of([row[cols:] for row in grid[:rows]], True),
                              RationalMatrix._of([row[:cols] for row in grid[:rows]], True),
                              RationalMatrix._of(grid[rows:], True))


# ---------------------------------------------------------------------------
# Sublattices


class Sublattice(Record, compare=("ambient_rank", "basis")):
    """Primitive sublattice of Z^ambient_rank with an integer basis, kept
    with Smith coordinates: `completion` is a unimodular matrix whose
    first rank columns are `basis`, and `coordinates` is its inverse.  As
    coordinates * completion = I, rows rank.. of `coordinates` send the
    basis to zero and the other columns of `completion` to independent
    vectors, so they annihilate exactly the rational span."""

    ambient_rank: int
    basis: RationalMatrix
    coordinates: RationalMatrix
    completion: RationalMatrix

    def __post_init__(self):
        if self.basis.rows != self.ambient_rank:
            raise DomainError("sublattice basis has wrong ambient rank")
        if not all(m.is_integral() for m in (self.basis, self.coordinates, self.completion)):
            raise DomainError("sublattice basis must be integral")
        # the basis starts a unimodular matrix: it has full rank, and its
        # Smith invariant factors are all 1
        r = self.basis.cols
        if (self.coordinates * self.completion != RationalMatrix.identity(self.ambient_rank)
                or [row[:r] for row in self.completion.entries] != list(self.basis.entries)):
            raise DomainError("sublattice basis is not primitive")

    @property
    def rank(self) -> int:
        return self.basis.cols

    def spans_vector(self, vec) -> bool:
        """Membership of vec in the rational span."""
        return not any(self.coordinates.apply(vec)[self.rank:])


def saturate(s) -> Sublattice:
    """Primitive hull: basis of span_Q(S) intersected with Z^d.

    With U S V = D (Smith), U S = D V^-1 has zero rows past r = rank S, so
    rows r.. of U annihilate span_Q(S), and the first r columns of U^-1
    are a primitive basis of the saturation."""
    mat = s if isinstance(s, RationalMatrix) else RationalMatrix(s)
    dec = smith_form(mat)
    # the rank is the number of nonzero invariant factors
    if mat.cols == 0 or sum(map(bool, dec.invariant_factors)) != mat.cols:
        raise DomainError("saturation requires full column rank")
    uinv = dec.u.inverse()
    basis = RationalMatrix._of([row[:mat.cols] for row in uinv.entries], True)
    return Sublattice(mat.rows, basis, dec.u, uinv)


def restrict_and_quotient(a: RationalMatrix, w: Sublattice):
    """Blocks of A in the completion B of W: (A_W, A_Q, B) with
    B^-1 A B = [[A_W, *], [0, A_Q]].  Column j of the lower left block is
    the annihilator of span(W) applied to A b_j, so A preserves span(W)
    exactly when that block is zero; otherwise InvarianceViolation is
    raised with the first basis column b_j it moves out as witness."""
    if not a.is_square() or a.rows != w.ambient_rank:
        raise DomainError("matrix/sublattice dimension mismatch")
    conj = (w.coordinates * a * w.completion).entries
    r = w.rank
    for j in range(r):
        if any(row[j] for row in conj[r:]):
            raise InvarianceViolation(
                f"A * basis column {j} leaves the rational span of W",
                witness=w.basis.column(j))
    a_w = RationalMatrix([row[:r] for row in conj[:r]])
    a_q = RationalMatrix([row[r:] for row in conj[r:]])
    return a_w, a_q, w.completion
