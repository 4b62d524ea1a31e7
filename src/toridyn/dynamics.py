"""Fixed points, periodic point counts, Lefschetz numbers, torsion-level
orbit graphs, and subtorus orbit behaviour.

Fixed-point congruences are solved through the Smith normal form and
enumerated in integers over one common denominator.  Orbit graphs are
exhaustive over the m-torsion lattice and therefore budgeted; they are
built by whole-array numpy passes, and numpy is imported only then.
Subtorus orbits are followed on rational spans, one reduced row echelon
form per step, up to a bound: 'escaping' is a bounded verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import DomainError, NotSurjectiveError, ResourceError
from .matlin import RationalMatrix, smith_form
from .endo import TorusEndomorphism, fixed_subtorus, iterate, unity_free
from .torus import Subtorus, _primitive_integer_vector, make_subtorus

DEFAULT_NODE_BUDGET = 10**6
DEFAULT_ORBIT_BOUND = 64


def lefschetz_number(f: TorusEndomorphism) -> int:
    """det(I - M), the alternating trace sum over the cohomology ring."""
    d = f.torus.rank
    return (RationalMatrix.identity(d) - f.m).det().numerator


@dataclass(frozen=True)
class FixedPointSet:
    """Solutions of f(x) = x on the torus.

    kind 'finite': exactly |det(M - I)| rational points, lexicographically
    sorted with coordinates in [0, 1).  kind 'coset-family': a fixed
    subtorus plus a finite transversal of rational translates.  kind
    'empty': the congruence is inconsistent (pure translation)."""

    kind: str
    points: tuple = ()
    subtorus: Subtorus | None = None
    transversal: tuple = ()

    def count(self):
        if self.kind == "finite":
            return len(self.points)
        if self.kind == "empty":
            return 0
        return None  # infinite


def _solve_congruence(m_minus_i: RationalMatrix, rhs):
    """All x mod 1 with (M - I) x = rhs (mod Z^d); returns (points,
    free_directions) where free_directions are integer kernel generators,
    or None when inconsistent.

    With U (M - I) V = diag(d_i) and c = U rhs, y = V^{-1} x solves
    d_i y_i = c_i, so y_i = (c_i + j) / d_i for 0 <= j < |d_i|.  Every
    option is written over one common denominator D and x D = V (y D)
    is enumerated mod D in integers."""
    d = m_minus_i.rows
    dec = smith_form(m_minus_i)
    c = [Fraction(ci) for ci in dec.u.apply(rhs)]
    factors = [abs(dec.d[i, i].numerator) for i in range(d)]
    free = [i for i, di in enumerate(factors) if di == 0]
    if any(c[i].denominator != 1 for i in free):
        return None
    denom = lcm(1, *(di * ci.denominator for di, ci in zip(factors, c) if di))
    columns = []  # per coordinate i: column i of V times each y_i D
    for i, (di, ci) in enumerate(zip(factors, c)):
        if di == 0:
            columns.append([(0,) * d])
            continue
        step = denom // di
        base = ci.numerator * (step // ci.denominator)
        col = dec.v.column(i)
        columns.append([tuple(e * (base + j * step) for e in col)
                        for j in range(di)])
    out = {tuple(sum(t) % denom for t in zip(*choice))
           for choice in itertools.product(*columns)}
    # sorting the numerators sorts the points, since D is common
    shared = {k: Fraction(k, denom) for k in set().union(*out)}
    points = [tuple(shared[k] for k in x) for x in sorted(out)]
    kernel_dirs = [dec.v.column(i) for i in free]
    return points, kernel_dirs


def fixed_points(f: TorusEndomorphism) -> FixedPointSet:
    """Solves (M - I) x = -tau (mod 1) by Smith reduction."""
    d = f.torus.rank
    m_minus_i = f.m - RationalMatrix.identity(d)
    rhs = tuple(-t for t in f.tau)
    solved = _solve_congruence(m_minus_i, rhs)
    if solved is None:
        return FixedPointSet("empty")
    points, free_dirs = solved
    if not free_dirs:
        expected = abs(m_minus_i.det().numerator)
        if len(points) != expected:
            raise DomainError("fixed point count mismatch")  # pragma: no cover
        return FixedPointSet("finite", points=tuple(points))
    cols = [_primitive_integer_vector(v) for v in free_dirs]
    sub = make_subtorus(f.torus, RationalMatrix.from_columns(cols))
    return FixedPointSet("coset-family", subtorus=sub, transversal=tuple(points))


def periodic_count(f: TorusEndomorphism, k: int):
    """Number of period-dividing-k points, or the string 'infinite' when
    the fixed locus of f^k is positive dimensional."""
    if not f.surjective:
        raise NotSurjectiveError("periodic counts require det M != 0")
    if k < 1:
        raise DomainError("period must be >= 1")
    g = iterate(f, k)
    det = (g.m - RationalMatrix.identity(f.torus.rank)).det().numerator
    if det != 0:
        return abs(det)
    fp = fixed_points(g)
    if fp.kind == "empty":
        return 0
    return "infinite"


@dataclass(frozen=True)
class TorsionOrbitGraph:
    """Exhaustive functional graph of f on the m-torsion points."""

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
    translation must have denominators dividing m.  Nodes are mixed-radix
    integers, last coordinate fastest."""
    if m < 1:
        raise DomainError("torsion level must be >= 1")
    for t in f.tau:
        if m % t.denominator != 0:
            raise DomainError("translation denominator does not divide the level")
    d = f.torus.rank
    n_nodes = m**d
    if n_nodes > budget:
        raise ResourceError(f"torsion graph needs {n_nodes} nodes, budget {budget}")
    try:
        cycle_hist, tail_hist = _orbit_histograms(f, m, n_nodes)
    except MemoryError:
        raise ResourceError(
            f"torsion graph of {n_nodes} nodes does not fit in memory") from None
    return TorsionOrbitGraph(m, n_nodes, cycle_hist, tail_hist)


def _orbit_histograms(f, m, n):
    """(cycle length -> cycles, tail length -> nodes) of the orbit graph
    on n = m^d nodes, by whole-array numpy passes.

    Every value stays below n: a term is a residue times an entry of M
    reduced mod m, so at most (m-1)^2, and a partial sum is reduced mod m
    after each term, so it is at most m^2 - m.  The rank d is 0 (no
    arithmetic at all) or at least 2, where m^2 <= m^d = n; so int32
    suffices whenever n < 2^31."""
    import numpy as np

    def histogram(values):
        counts = np.bincount(values)
        keys = np.flatnonzero(counts)
        return dict(zip(keys.tolist(), counts[keys].tolist()))

    d = f.torus.rank
    dtype = np.int32 if n < 2**31 else np.int64
    mint = [[x % m for x in row] for row in f.m.to_integer()]
    shift = [int(t * m) % m for t in f.tau]
    residues = np.arange(m, dtype=dtype)
    # successor map, one output coordinate at a time: its value over the
    # whole grid is a broadcast sum of d residue vectors, one per axis
    succ = np.zeros(n, dtype)
    for i in range(d):
        acc = np.full((1,) * d, shift[i], dtype)
        for j in range(d):
            axis = [1] * d
            axis[j] = m
            acc = acc + (residues * mint[i][j] % m).reshape(axis)
            acc %= m
        acc *= m**(d - 1 - i)
        succ += acc.reshape(n)
    # cycle nodes: peel nodes of in-degree 0 until none is left
    indeg = np.bincount(succ, minlength=n)
    on_cycle = np.ones(n, bool)
    frontier = np.flatnonzero(indeg == 0)
    while frontier.size:
        on_cycle[frontier] = False
        targets = succ[frontier]
        np.subtract.at(indeg, targets, 1)
        frontier = np.unique(targets[indeg[targets] == 0])
    del indeg
    # tails: one more than the successor's, filled in rounds over the
    # nodes still unknown
    tail = np.full(n, -1, dtype)
    tail[on_cycle] = 0
    unknown = np.flatnonzero(~on_cycle)
    while unknown.size:
        nxt = tail[succ[unknown]]
        known = nxt >= 0
        tail[unknown[known]] = nxt[known] + 1
        unknown = unknown[~known]
    # cycle lengths: label each cycle node by the least compact index on
    # its cycle (pointer doubling), then count the labels
    cyc = np.flatnonzero(on_cycle).astype(dtype)
    del on_cycle
    position = np.zeros(n, dtype)
    position[cyc] = np.arange(cyc.size, dtype=dtype)
    jump = position[succ[cyc]]
    del position
    label = np.arange(cyc.size, dtype=dtype)
    # a window of 2^r nodes that misses some cycle's least index moves a
    # label in the next round, so a round that moves none is the last
    while True:
        merged = np.minimum(label, label[jump])
        if np.array_equal(merged, label):
            break
        label = merged
        jump = jump[jump]
    lengths = np.bincount(label)
    return histogram(lengths[lengths > 0]), histogram(tail)


def _span_key(vectors) -> tuple:
    """The nonzero rows of the rref of the vectors: a canonical basis of
    their rational span."""
    red, _ = RationalMatrix(vectors).rref()
    return tuple(row for row in red.entries if any(row))


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
    # M is invertible over Q, so the map on spans is injective and the
    # first repeat of the orbit is its start
    start = current = _span_key(sub.lattice.basis.columns())
    for step in range(1, bound + 1):
        current = _span_key([f.m.apply(v) for v in current])
        if current == start:
            return ("invariant" if step == 1 else ("periodic", step)), step + 1
    return "escaping", bound + 1


@dataclass(frozen=True)
class PreperVsTorsionVerdict:
    """Structured evidence for the equivalence between a root-of-unity
    eigenvalue, a pointwise-fixed subtorus of an iterate, and extra
    nontorsion preperiodic points."""

    has_unity_eigenvalue: bool        # exact
    fixed_subtorus_iterate: int | None  # exact: minimal k, or None
    fixed_subtorus_rank: int | None
    consistent: bool                  # the two exact conditions agree
    preper_exceeds_torsion: bool      # theorem-implied, not enumerated
    note: str = ("nontorsion preperiodic points are not enumerable; "
                 "condition reported as implied by theory")


def preper_vs_torsion(f: TorusEndomorphism) -> PreperVsTorsionVerdict:
    if not f.is_isogeny:
        raise DomainError("preperiodic/torsion comparison requires an isogeny (tau = 0)")
    free, u = unity_free(f)
    fs = fixed_subtorus(f)
    consistent = (fs is None) == free
    return PreperVsTorsionVerdict(
        has_unity_eigenvalue=not free,
        fixed_subtorus_iterate=None if fs is None else fs[0],
        fixed_subtorus_rank=None if fs is None else fs[1].rank,
        consistent=consistent,
        preper_exceeds_torsion=not free,
    )
