"""Fixed points, periodic point counts, Lefschetz numbers, torsion-level
orbit graphs, and subtorus orbit behaviour.

Fixed-point congruences are solved through the Smith normal form; orbit
graphs are exhaustive over the m-torsion lattice and therefore budgeted.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError, NotSurjectiveError, ResourceError
from .matlin import RationalMatrix, smith_form
from .endo import TorusEndomorphism, fixed_subtorus, iterate, unity_free
from .torus import Subtorus, make_subtorus

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
    or None when inconsistent."""
    d = m_minus_i.rows
    dec = smith_form(m_minus_i)
    c = dec.u.apply(rhs)
    factors = [dec.d[i, i].numerator for i in range(d)]
    coords = []
    free = []
    for i, di in enumerate(factors):
        ci = Fraction(c[i])
        if di == 0:
            if ci.denominator != 1:
                return None
            free.append(i)
            coords.append([Fraction(0)])
        else:
            di = abs(di)
            coords.append([Fraction(ci + j_, di) % 1 for j_ in range(di)])
    points = [[]]
    for options in coords:
        points = [p + [o] for p in points for o in options]
    out = []
    for y in points:
        x = dec.v.apply(y)
        out.append(tuple(t % 1 for t in x))
    kernel_dirs = []
    for i in free:
        e = [Fraction(0)] * d
        e[i] = Fraction(1)
        kernel_dirs.append(dec.v.apply(e))
    return sorted(set(out)), kernel_dirs


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
    from .torus import _primitive_integer_vector
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
    translation must have denominators dividing m."""
    if m < 1:
        raise DomainError("torsion level must be >= 1")
    for t in f.tau:
        if m % t.denominator != 0:
            raise DomainError("translation denominator does not divide the level")
    d = f.torus.rank
    n_nodes = m**d
    if n_nodes > budget:
        raise ResourceError(f"torsion graph needs {n_nodes} nodes, budget {budget}")
    mint = f.m.to_integer()
    shift = [int(t * m) % m for t in f.tau]
    # successor array over mixed-radix encoded nodes
    succ = [0] * n_nodes
    radix = [m**(d - 1 - i) for i in range(d)]
    coords = [0] * d
    for idx in range(n_nodes):
        s = 0
        for i in range(d):
            acc = shift[i]
            row = mint[i]
            for jj in range(d):
                acc += row[jj] * coords[jj]
            s += (acc % m) * radix[i]
        succ[idx] = s
        # increment mixed-radix counter (last coordinate fastest)
        for i in range(d - 1, -1, -1):
            coords[i] += 1
            if coords[i] < m:
                break
            coords[i] = 0
    period = [0] * n_nodes
    tail = [-1] * n_nodes
    state = [0] * n_nodes  # 0 unvisited, 1 in progress, 2 done
    for start in range(n_nodes):
        if state[start] != 0:
            continue
        path = []
        node = start
        while state[node] == 0:
            state[node] = 1
            path.append(node)
            node = succ[node]
        if state[node] == 1:
            # found a new cycle; node is on it
            cycle_start = path.index(node)
            cyc_len = len(path) - cycle_start
            for p in path[cycle_start:]:
                period[p] = cyc_len
                tail[p] = 0
            for i, p in enumerate(path[:cycle_start]):
                period[p] = cyc_len
                tail[p] = cycle_start - i
        else:
            base_tail = tail[node]
            base_per = period[node]
            for i, p in enumerate(path):
                period[p] = base_per
                tail[p] = base_tail + len(path) - i
        for p in path:
            state[p] = 2
    cycles = Counter()
    for idx in range(n_nodes):
        if tail[idx] == 0:
            cycles[period[idx]] += 1
    cycle_hist = {length: count // length for length, count in cycles.items()}
    tail_hist = dict(Counter(tail))
    return TorsionOrbitGraph(m, n_nodes, cycle_hist, tail_hist)


def subtorus_orbit(f: TorusEndomorphism, sub: Subtorus,
                   bound: int = DEFAULT_ORBIT_BOUND):
    """Orbit of a subtorus under the saturated lattice image map.

    Returns (verdict, sequence) with verdict one of 'invariant',
    ('periodic', p), or 'escaping'; escaping is a bounded verdict, not a
    proof of infinite orbit."""
    if not f.surjective:
        raise NotSurjectiveError("subtorus orbits require det M != 0")
    from .matlin import saturate

    def canonical(lat):
        # Hermite-like canonical form via rref scaling of the basis columns
        red, _ = lat.basis.transpose().rref()
        rows = [tuple(r) for r in red.entries if any(r)]
        return tuple(rows)

    # M is invertible over Q, so the map on subtori is injective and the
    # first repeat of the orbit is its start
    start = canonical(sub.lattice)
    current = sub.lattice
    sequence = [current]
    for step in range(1, bound + 1):
        image_cols = [f.m.apply(current.basis.column(j)) for j in range(current.rank)]
        current = saturate(RationalMatrix.from_columns(image_cols))
        sequence.append(current)
        key = canonical(current)
        if key == start:
            verdict = "invariant" if step == 1 else ("periodic", step)
            return verdict, sequence
    return "escaping", sequence


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
