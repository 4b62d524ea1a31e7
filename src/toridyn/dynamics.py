"""Fixed points, periodic point counts, Lefschetz numbers, torsion-level
orbit graphs, and subtorus orbit behaviour.

Fixed-point congruences are solved through the Smith normal form: the
solutions form a coset of a lattice mod a common denominator D, listed in
lexicographic order from a triangular (Hermite) basis of that lattice.
The listing stops at the last level K that offers more than one choice:
the choices of coordinates before K give the parents, and each parent
ends in the tail that level K spans from its state, so a tail shared by
many parents is built once.  The number of points is |det(M - I)| when
that is nonzero, budgeted before the Smith form, and otherwise known from
the Smith factors and budgeted before anything is listed.  Orbit graphs
on the m-torsion lattice are counted, not built: every count solves a
congruence with a power of f mod m, from the same triangular basis, taken
mod m; the order of f on the periodic nodes is bounded from the degrees
of the factors of its charpoly mod p, read off the kernels of
M^(p^j) - M over F_p by the same elimination, and tested as
f^(N+L) = f^N on augmented matrices, and the node budget bounds the
trial division this needs.  Subtorus orbits are followed on integer
bases, pushed by the integer rows of M, each image tested for inclusion
in the start span by integer dot products with the rows of the start
lattice's Smith coordinates that annihilate it, up to a bound:
'escaping' is a bounded verdict.  No step of an orbit makes a Fraction.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, pairwise, product, repeat, starmap
from math import lcm, prod
from operator import add, lt, mod, mul, sub

from ._record import Record
from .errors import DomainError, NotSurjectiveError, ResourceError
from .exactnum import _prime_factors, cyclotomic_poly
from .matlin import RationalMatrix, matmul, smith_form
from .endo import TorusEndomorphism, _affine_rows, eigen_data, iterate
from .torus import Subtorus, make_subtorus

DEFAULT_NODE_BUDGET = 10**6
DEFAULT_ORBIT_BOUND = 64


def _count_text(n: int) -> str:
    """A count for a budget message: its digits when it fits in 64 bits,
    else its bit length, as str() refuses an int of more digits than
    sys.get_int_max_str_digits()."""
    return str(n) if n.bit_length() <= 64 else f"a {n.bit_length()}-bit number of"


def lefschetz_number(f: TorusEndomorphism) -> int:
    """det(I - M), the alternating trace sum over the cohomology ring: the
    H^1 charpoly det(xI - M) at x = 1."""
    return eigen_data(f).h1_charpoly(1)


class FixedPointSet(Record):
    """Solutions of f(x) = x on the torus.

    kind 'finite': exactly |det(M - I)| rational points, lexicographically
    sorted with coordinates in [0, 1).  kind 'coset-family': a fixed
    subtorus plus a finite transversal of rational translates.  kind
    'empty': the congruence is inconsistent (pure translation).

    The points (or the transversal) are listed by their integer numerators
    over the common `denominator`, as parents that share tails.  Parent p
    is a head, coordinates 0..K-1 (column t of `heads` holds coordinate t
    of every parent), followed in turn by each of the `tail_length` rows
    of tail block `tail_index[p]`, coordinates K..d-1: block i is rows
    i * tail_length up to (i + 1) * tail_length of the columns `tails`.
    Each distinct tail is stored once however many parents end in it.
    Building the set checks that the heads strictly increase and that
    coordinate K strictly increases inside every tail block, which makes
    the rows strictly increasing.  `columns` (one integer column per
    coordinate), `rows` (integer tuples), `points` and `transversal`
    (Fraction tuples) are derived from the listing when first asked for."""

    kind: str
    denominator: int = 1
    heads: tuple = ()
    tail_index: tuple = ()
    tails: tuple = ()
    tail_length: int = 1
    subtorus: Subtorus | None = None

    def __post_init__(self):
        heads = pairwise(_head_rows(self.heads, self.tail_index))
        first = self.tails[0] if self.tails else ()
        steps = list(map(lt, first, first[1:]))
        del steps[self.tail_length - 1::self.tail_length]  # block boundaries
        if not (all(starmap(lt, heads)) and all(steps)):
            raise DomainError("fixed point rows are not strictly increasing")

    def listing_as(self, convert):
        """(heads, tails), the columns of those two fields with each
        numerator k read as convert(k), converted once per distinct
        numerator; each column is an iterator."""
        values = {k: convert(k) for k in set().union(*self.heads, *self.tails)}
        return ([map(values.__getitem__, column) for column in self.heads],
                [map(values.__getitem__, column) for column in self.tails])

    def rows_as(self, convert):
        """The rows with each numerator k read as convert(k), converted
        once per distinct numerator; an iterable of tuples."""
        heads, tails = self.listing_as(convert)
        heads = _head_rows(heads, self.tail_index)
        rows, n = list(zip(*tails)), self.tail_length
        return (head + row for head, i in zip(heads, self.tail_index)
                for row in rows[i * n:(i + 1) * n])

    def _fractions(self):
        return tuple(self.rows_as(lambda k: Fraction(k, self.denominator)))

    @cached_property
    def rows(self) -> tuple:
        return tuple(self.rows_as(int))

    @cached_property
    def columns(self) -> tuple:
        return tuple(zip(*self.rows))

    @cached_property
    def points(self) -> tuple:
        return self._fractions() if self.kind == "finite" else ()

    @cached_property
    def transversal(self) -> tuple:
        return self._fractions() if self.kind == "coset-family" else ()

    def count(self):
        if self.kind == "finite":
            return len(self.tail_index) * self.tail_length
        if self.kind == "empty":
            return 0
        return None  # infinite


def _head_rows(columns, tail_index):
    """The head of every parent as a tuple, from the head columns; () for
    each parent when there are no head columns."""
    return zip(*columns) if columns else repeat((), len(tail_index))


def _smith_reduce(m_minus_i: RationalMatrix, rhs):
    """(V, c, factors) with U (M - I) V = diag(factors) and c = U rhs, or
    None when (M - I) x = rhs (mod Z^d) is inconsistent: some factor is
    0 while its c_i is not an integer."""
    dec = smith_form(m_minus_i)
    c = [Fraction(ci) for ci in dec.u.apply(rhs)]
    factors = dec.invariant_factors
    if any(di == 0 and ci.denominator != 1 for di, ci in zip(factors, c)):
        return None
    return dec.v, c, factors


def _solve_congruence(m_minus_i: RationalMatrix, rhs, budget):
    """All x mod 1 with (M - I) x = rhs (mod Z^d); returns (D, listing,
    free_directions): the solutions as integer rows x D over one common
    denominator D, listed by _coset_listing, and integer kernel
    generators.  Returns None when inconsistent, and raises ResourceError
    before any enumeration when there would be more than `budget` rows.

    With U (M - I) V = diag(d_i) and c = U rhs, y = V^{-1} x solves
    d_i y_i = c_i, so y_i = (c_i + j) / d_i for 0 <= j < |d_i|, and y_i = 0
    on the transversal in a free direction (d_i = 0).  Over the common
    denominator D the numerators x D = V (y D) mod D form the coset p + L
    in [0, D)^d, p = V (c_i D / d_i)_i and L = V diag(D / d_i) Z^d + D Z^d,
    D / d_i read as D in a free direction.  V is unimodular, so L has
    index prod d_i in Z^d / D Z^d and no numerator row repeats."""
    reduced = _smith_reduce(m_minus_i, rhs)
    if reduced is None:
        return None
    v, c, factors = reduced
    count = prod(di for di in factors if di)
    if count > budget:
        raise ResourceError(
            f"fixed point transversal has {_count_text(count)} points, budget {budget}")
    denom = lcm(1, *(di * ci.denominator for di, ci in zip(factors, c) if di))
    steps = [denom // di if di else denom for di in factors]
    point = v.apply([ci * step for ci, step in zip(c, steps)])  # c_i D / d_i is integral
    basis = _hermite_basis((v * RationalMatrix.diagonal(steps)).columns(), denom)
    listing = _coset_listing(basis, point, denom)
    return denom, listing, [v.column(i) for i, di in enumerate(factors) if di == 0]


def _hermite_basis(generators, denom):
    """An upper-triangular basis of the lattice spanned by the integer
    rows `generators` (d of them, of length d) and denom Z^d, entries
    reduced mod denom: row k is zero before column k, and its pivot h_k
    divides denom (h_k = denom when the generators vanish there mod denom).
    Modular Hermite normal form (Cohen, A Course in Computational Algebraic
    Number Theory, 2.4), by Euclid's algorithm on rows: every step is
    unimodular, and denom Z^d lies in the lattice, so reducing mod denom
    keeps it."""
    rows = [[x % denom for x in g] for g in generators]
    basis = []
    for k in range(len(rows)):
        pivot = [0] * len(rows)
        pivot[k] = denom
        rest = []
        for row in rows:
            while row[k]:
                q = pivot[k] // row[k]
                pivot, row = row, [(x - q * y) % denom for x, y in zip(pivot, row)]
            rest.append(row)
        basis.append(pivot)
        rows = rest
    return basis


def _coset_listing(basis, point, denom):
    """The points of point + L in [0, denom)^d, L the lattice of the
    triangular `basis` from _hermite_basis, in strictly increasing
    lexicographic order, as the fields (heads, tail_index, tails,
    tail_length) of a FixedPointSet.

    Coordinate k is chosen level by level (_choose): each level keeps the
    order of the one before and adds increasing x_k; a level with
    h_k = denom has one option and is skipped.  The levels before the last
    active one, K, are chosen over the parents.  Level K then depends on a
    parent only through its tail state, (w_K mod h_K, (w_t - (w_K // h_K)
    e_t) mod denom for t > K) with e row K of the basis, so it is chosen
    once per distinct state, the states numbered in first-seen order."""
    active = [k for k, row in enumerate(basis) if row[k] < denom]
    last = active.pop() if active else len(basis) - 1
    columns = [(x % denom,) for x in point]
    for k in active:
        _choose(columns, basis[k], k, denom)
    row, h = basis[last], basis[last][last]
    lifts = [w // h for w in columns[last]]
    states = [[w % h for w in columns[last]], *(
        [(w - q * e) % denom for w, q in zip(column, lifts)]
        for column, e in zip(columns[last + 1:], row[last + 1:]))]
    numbers = {state: i for i, state in enumerate(dict.fromkeys(zip(*states)))}
    tail_index = tuple(map(numbers.__getitem__, zip(*states)))
    tails = list(zip(*numbers))
    _choose(tails, row[last:], 0, denom)
    return tuple(columns[:last]), tail_index, tuple(tails), denom // h


def _choose(columns, row, k, denom):
    """Chooses coordinate k for every partial point of `columns` (one
    tuple per coordinate), in place: the lattice vectors that vanish before
    column k have k-th coordinates h_k Z, h_k = row[k], so a partial point
    w takes x_k = (w_k mod h_k) + j h_k for 0 <= j < denom / h_k, and
    `row`, added -(w_k // h_k) + j times, moves w there."""
    h = row[k]
    n = denom // h
    lifts = [-(w // h) for w in columns[k]]
    columns[k] = tuple(chain.from_iterable(
        map(range, [w % h for w in columns[k]], repeat(denom), repeat(h))))
    for t, (column, e) in enumerate(zip(columns, row)):
        if t < k:  # row is zero here: each point repeats n times
            columns[t] = tuple(chain.from_iterable(map(repeat, column, repeat(n))))
        elif t > k:  # every moved w_t plus every shift j e, mod denom
            bases = map(add, column, map(mul, lifts, repeat(e)))
            sums = starmap(add, product(bases, map(mul, range(n), repeat(e))))
            columns[t] = tuple(map(mod, sums, repeat(denom)))


def _fixed_count(f: TorusEndomorphism):
    """(M - I, -tau, |det(M - I)|): the fixed points' congruence, and their count."""
    m_minus_i = f.m - RationalMatrix.identity(f.torus.rank)
    return m_minus_i, tuple(-t for t in f.tau), abs(m_minus_i.det().numerator)


def fixed_points(f: TorusEndomorphism,
                 budget: int = DEFAULT_NODE_BUDGET) -> FixedPointSet:
    """Solves (M - I) x = -tau (mod 1) by Smith reduction.  Listing more
    than `budget` points (or transversal points) raises ResourceError."""
    m_minus_i, rhs, det = _fixed_count(f)
    # refuse a count over budget before the Smith form, whose entries swell
    if det > budget:
        raise ResourceError(f"fixed point set has {_count_text(det)} points, budget {budget}")
    solved = _solve_congruence(m_minus_i, rhs, budget)
    if solved is None:
        return FixedPointSet("empty")
    denom, listing, free_dirs = solved
    if not free_dirs:
        fps = FixedPointSet("finite", denom, *listing)
        if fps.count() != det:
            raise DomainError("fixed point count mismatch")  # pragma: no cover
        return fps
    sub = make_subtorus(f.torus, RationalMatrix.from_columns(free_dirs))
    return FixedPointSet("coset-family", denom, *listing, sub)


def periodic_count(f: TorusEndomorphism, k: int):
    """Number of period-dividing-k points, |det(M^k - I)| taken on the
    iterate f^k as in fixed_points, or the string 'infinite' when the
    fixed locus of f^k is positive dimensional."""
    if not f.surjective:
        raise NotSurjectiveError("periodic counts require det M != 0")
    if k < 1:
        raise DomainError("period must be >= 1")
    m_minus_i, rhs, det = _fixed_count(iterate(f, k))
    if det:
        return det
    # a consistent congruence has a free direction, so its solutions are
    # cosets of a positive-dimensional subtorus; none is listed
    return "infinite" if _smith_reduce(m_minus_i, rhs) else 0


class TorsionOrbitGraph(Record):
    """Cycle and tail histograms of the functional graph of f on the
    m-torsion points."""

    level: int
    node_count: int
    cycle_histogram: dict  # cycle length -> number of cycles
    tail_histogram: dict   # tail length -> node count (0 = periodic)

    def periodic_node_count(self) -> int:
        return self.tail_histogram[0]

    def fixed_node_count(self) -> int:
        return self.cycle_histogram.get(1, 0)


def torsion_dynamics(f: TorusEndomorphism, m: int,
                     budget: int = DEFAULT_NODE_BUDGET) -> TorsionOrbitGraph:
    """Orbit graph of x -> M x + m*tau on (Z/m)^{2n}.

    Torsion points a = x/m; f(a) has coordinates (M x + m tau)/m, so the
    translation must have denominators dividing m.  The budget bounds
    m^d, and with it every number the counts factor by trial division:
    m and the cyclotomic values Phi_e(p), p | m, which divide some
    p^j - 1 < m^d."""
    if m < 1:
        raise DomainError("torsion level must be >= 1")
    for t in f.tau:
        if m % t.denominator != 0:
            raise DomainError("translation denominator does not divide the level")
    d = f.torus.rank
    n_nodes = m**d
    if n_nodes > budget:
        raise ResourceError(f"torsion graph needs {_count_text(n_nodes)} nodes, budget {budget}")
    cycle_hist, tail_hist = _orbit_histograms(f, m)
    return TorsionOrbitGraph(m, n_nodes, cycle_hist, tail_hist)


def _orbit_histograms(f, m):
    """(cycle length -> cycles, tail length -> nodes) of the orbit graph
    of f = (M, c) on (Z/m)^d, counted from powers of the augmented matrix
    [[M, c], [0, 1]] mod m.

    The nodes of tail at most t number |E| |ker M^t|, E = M^N (Z/m)^d and
    N the step where |ker M^t| stops growing; the periodic nodes are the
    coset f^N((Z/m)^d) of E.  So L is a multiple of the order of f on
    them exactly when f^(N+L) = f^N, as augmented matrices mod m.  Over
    p^e || m, E lies in the part where M is invertible, so the order
    divides lcm(p^j - 1) times a power of p, j over 1 and the degrees of
    the irreducible factors other than x of the charpoly of M mod p, read
    off kernel sizes over F_p (_factor_degrees); p^j - 1 is the product
    of the Phi_e(p), e | j, whose primes are the candidates for
    stripping the bound to the order L.  The nodes of each exact period
    follow from Fix(k), the solutions of (M^k - I) x = -c_k for
    f^k = (M^k, c_k), over the divisors k of L.  Every count is one
    _congruence_count mod m."""
    d = f.torus.rank
    aug = [[x % m for x in row] for row in _affine_rows(f, m)]
    identity = [[int(i == j) % m for j in range(d + 1)] for i in range(d + 1)]
    factors = _prime_factors(m)
    squares = [aug]  # squares[i] = aug^(2^i) mod m, shared by every power

    def power(k):  # f^k as the augmented matrix [[M^k, c_k], [0, 1]] mod m
        while len(squares) < k.bit_length():
            squares.append(_product_mod(squares[-1], squares[-1], m))
        chosen = [a for i, a in enumerate(squares) if k >> i & 1]
        return reduce(lambda a, b: _product_mod(a, b, m), chosen) if chosen else identity

    def solutions(k, s):  # of (M^k - s I) x = -s c_k: |ker M^k| or Fix(k)
        *columns, c = zip(*power(k)[:d])  # the columns of M^k, then c_k
        columns = [[x - s * (i == j) for i, x in enumerate(column)]
                   for j, column in enumerate(columns)]
        return _congruence_count(columns, [-s * x for x in c], m)

    kernels = [1, solutions(1, 0)]  # |ker M^t| until it stops growing
    while kernels[-1] != kernels[-2]:
        kernels.append(solutions(len(kernels), 0))
    periodic = m**d // kernels[-1]
    tails = {t: periodic * (kernels[t] - kernels[t - 1]) if t else periodic
             for t in range(len(kernels) - 1)}
    n = len(kernels) - 2  # N
    start = power(n)

    def closes(k):  # f^k is the identity on the periodic nodes
        return power(n + k) == start

    order, primes = 1, set(factors)
    for p in factors:
        for j in {1} | _factor_degrees([row[:d] for row in aug[:d]], p):
            order = lcm(order, p**j - 1)
            for e in range(1, j + 1):
                if j % e == 0:
                    primes.update(_prime_factors(cyclotomic_poly(e)(p)))
    while not closes(order):  # the p-power parts: unipotent, translations
        order *= prod(factors)
    divisors = [1]
    for r in primes:
        v = 0  # r^v || order
        while order % r**(v + 1) == 0:
            v += 1
        # the least i <= v with f^(order / r^(v - i)) closing: tests are monotone in i
        i = bisect_left(range(v), True, key=lambda t: closes(order // r**(v - t)))
        order //= r**(v - i)
        divisors = [k * r**e for k in divisors for e in range(i + 1)]
    exact = {}  # period -> nodes of exactly that period
    for k in sorted(divisors):
        exact[k] = solutions(k, 1) - sum(v for j, v in exact.items() if k % j == 0)
    return {k: v // k for k, v in exact.items() if v}, tails


def _congruence_count(columns, b, m):
    """The number of x in (Z/m)^d with A x = b (mod m), A the integer
    `columns`.  These and m Z^d span a lattice L, with the triangular basis
    of _hermite_basis, pivots h_k | m.  A maps (Z/m)^d onto L / m Z^d, of
    order m^d / prod h_k, so a consistent system has prod h_k solutions;
    it is consistent exactly when b lies in L, that is, when reducing b
    by the basis rows in turn meets only entries b_k divisible by h_k."""
    basis = _hermite_basis(columns, m)
    for k, row in enumerate(basis):
        q, r = divmod(b[k], row[k])
        if r:
            return 0
        b = [(x - q * y) % m for x, y in zip(b, row)]
    return prod(row[k] for k, row in enumerate(basis))


def _factor_degrees(rows, p):
    """The degrees of the irreducible factors other than x of the charpoly
    of the integer square matrix `rows` reduced mod p, read off kernel
    sizes over F_p.  Over an algebraic closure, M^(p^j) - M kills one
    vector of each Jordan block of a nonzero root in F_(p^j), nothing of
    any other nonzero root, and ker M on the root 0.  So found[j] =
    |ker(M^(p^j) - M)| / (|ker M| prod found[i], i a proper divisor of j)
    is p^(j b_j), b_j the number of Jordan blocks of one root summed over
    the factors of degree j, and exceeds 1 exactly when such a factor
    occurs.  A factor has at most as many blocks as its multiplicity, so
    once |ker M| prod found = p^d no factor is missing and the search
    stops.  Each kernel size is one _congruence_count mod p; A and its
    transpose have kernels of one size, so the rows serve as columns."""
    d, zeros = len(rows), [0] * len(rows)
    rows = [[x % p for x in row] for row in rows]
    base = _congruence_count(rows, zeros, p)  # |ker M|
    found, power, total = {}, rows, base  # power = M^(p^j) mod p
    for j in range(1, d + 1):
        if total == p**d:
            break
        power = _power_mod(power, p, p)
        kernel = _congruence_count([list(map(sub, x, y)) for x, y in zip(power, rows)], zeros, p)
        found[j] = kernel // (base * prod(v for i, v in found.items() if j % i == 0))
        total *= found[j]
    return {j for j, v in found.items() if v > 1}


def _product_mod(a, b, m):
    """The product of the integer row lists a and b, entries mod m."""
    return [[x % m for x in row] for row in matmul(a, b)]


def _power_mod(a, k, m):
    """a^k for k >= 1, entries mod m, by squaring."""
    result = a
    for bit in bin(k)[3:]:
        result = _product_mod(result, result, m)
        if bit == "1":
            result = _product_mod(result, a, m)
    return result


def subtorus_orbit(f: TorusEndomorphism, sub: Subtorus,
                   bound: int = DEFAULT_ORBIT_BOUND):
    """Orbit of a subtorus S, followed on its rational span V: f^k(S) is
    the saturation of M^k V, so two subtori of the orbit agree exactly
    when their spans do.

    Returns (verdict, examined): verdict 'invariant', ('periodic', p) or
    'escaping', and the number of subtori examined, the start included.
    'escaping' is bounded: the orbit did not close within `bound` steps."""
    if not f.surjective:
        raise NotSurjectiveError("subtorus orbits require det M != 0")
    # M^k V has the dimension of V, so it is V as soon as it lies in V:
    # each step pushes the integer basis forward by the integer rows of M
    # and tests inclusion by the integer rows that annihilate V
    lattice, rows = sub.lattice, f.m.entries
    annihilator = lattice.coordinates.entries[lattice.rank:]
    current = lattice.basis.columns()
    for step in range(1, bound + 1):
        current = [[sum(map(mul, row, v)) for row in rows] for v in current]
        if not any(sum(map(mul, a, v)) for v in current for a in annihilator):
            return ("invariant" if step == 1 else ("periodic", step)), step + 1
    return "escaping", bound + 1
