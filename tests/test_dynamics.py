"""Fixed points, Lefschetz numbers, periodic counts, torsion orbit graphs,
subtorus orbits."""

import itertools
import json
import math
import operator
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.matrices import DomainMatrix

from toridyn import (DomainError, FixedPointSet, InvarianceViolation, RationalMatrix,
                     ResourceError, Sublattice, fixed_points, iterate, lefschetz_number,
                     make_endo, make_subtorus, order_by_name, periodic_count,
                     random_endo, restrict_and_quotient, saturate,
                     subtorus_orbit, torsion_dynamics)
from toridyn.cli import _default_text, main
from toridyn.dynamics import _congruence_count, _factor_degrees, _smith_reduce
from toridyn.endo import eigen_data
from toridyn.scenarios import cm_matrix_endo, cm_power_torus, get_example, named_examples

from conftest import ORDER_UNITS, block_unit_endo


def mult_map(e_torus, a):
    return make_endo(e_torus, [[a, 0], [0, a]])


# -- Lefschetz

def test_lefschetz_multiplication(e_torus):
    # L([a]) = det(aI - I) = (a-1)^2 on an elliptic curve
    for a in (2, 3, -1, 5):
        assert lefschetz_number(mult_map(e_torus, a)) == (a - 1) ** 2


def test_lefschetz_identity_vanishes(e_torus):
    assert lefschetz_number(mult_map(e_torus, 1)) == 0


def test_lefschetz_matches_fixed_count(e_torus):
    f = mult_map(e_torus, 3)
    fp = fixed_points(f)
    assert fp.kind == "finite"
    assert fp.count() == abs(lefschetz_number(f)) == 4


# -- fixed points

def test_fixed_points_of_doubling(e_torus):
    fp = fixed_points(mult_map(e_torus, 2))
    assert fp.kind == "finite" and fp.count() == 1
    assert fp.points == (((Fraction(0), Fraction(0))),)


def test_fixed_points_of_tripling_are_2_torsion(e_torus):
    fp = fixed_points(mult_map(e_torus, 3))
    half = Fraction(1, 2)
    assert set(fp.points) == {(Fraction(0), Fraction(0)), (Fraction(0), half),
                              (half, Fraction(0)), (half, half)}


def test_fixed_points_brute_force_agreement(e_torus):
    # fixed points of 3x + tau have denominators dividing 2*2 = 4
    f = make_endo(e_torus, [[3, 0], [0, 3]], tau=[Fraction(1, 2), 0])
    fp = fixed_points(f)
    expected = set()
    for x, y in itertools.product([Fraction(k, 4) for k in range(4)], repeat=2):
        fx = (3 * x + Fraction(1, 2)) % 1, (3 * y) % 1
        if fx == (x, y):
            expected.add((x, y))
    assert set(fp.points) == expected


@pytest.mark.parametrize("name, tau", [
    ("mult_2_3", (Fraction(1, 5), 0, Fraction(2, 7), 0)),
    ("gtz_diag", (Fraction(1, 3), Fraction(1, 4), 0, Fraction(1, 5))),
])
def test_fixed_points_translation_denominator_off_smith_factors(name, tau):
    endo = get_example(name).endo
    f = make_endo(endo.torus, endo.m, tau)
    fp = fixed_points(f)
    assert fp.kind == "finite"
    assert fp.count() == abs(lefschetz_number(f)) == len(set(fp.points))
    assert list(fp.points) == sorted(fp.points)
    for x in fp.points:
        assert all(0 <= t < 1 for t in x)
        image = f.m.apply(x)
        assert all((image[i] + f.tau[i] - x[i]).denominator == 1
                   for i in range(len(x)))


def test_fixed_points_common_denominator_brute_force(e_torus):
    # 2x = -tau with tau = (1/3, 0): Smith factors (2, 2), points over 6
    f = make_endo(e_torus, [[3, 0], [0, 3]], tau=[Fraction(1, 3), 0])
    grid = [Fraction(k, 12) for k in range(12)]
    expected = sorted((x, y) for x, y in itertools.product(grid, repeat=2)
                      if ((3 * x + Fraction(1, 3) - x).denominator == 1
                          and (2 * y).denominator == 1))
    assert list(fixed_points(f).points) == expected
    assert len(expected) == 4


def test_fixed_points_budget():
    f = iterate(get_example("gtz_diag").endo, 2)  # 640 points
    with pytest.raises(ResourceError):
        fixed_points(f, budget=639)
    fp = fixed_points(f, budget=640)
    assert fp.count() == len(fp.rows) == 640
    assert all(0 <= k < fp.denominator for row in fp.rows for k in row)


def test_fixed_points_pure_translation_empty(e_torus):
    for tau in ([Fraction(1, 3), 0], [Fraction(1, 2), 0]):
        fp = fixed_points(make_endo(e_torus, [[1, 0], [0, 1]], tau=tau))
        assert fp.kind == "empty" and fp.count() == 0


def test_fixed_points_coset_family():
    scenario = get_example("mult_2_1")  # [2] x [1] on E x E
    fp = fixed_points(scenario.endo)
    assert fp.kind == "coset-family"
    assert fp.subtorus.rank == 2
    assert fp.count() is None


def grid_fixed_points(f, budget):
    """Reference enumeration: (kind, denominator, rows) from the full grid
    of Smith-form options y_i = (c_i + j) / d_i, each mapped through V mod
    D and sorted; None when there are more than `budget` rows."""
    d = f.torus.rank
    reduced = _smith_reduce(f.m - RationalMatrix.identity(d), tuple(-t for t in f.tau))
    if reduced is None:
        return "empty", 1, ()
    v, c, factors = reduced
    if math.prod(di for di in factors if di) > budget:
        return None
    denom = math.lcm(1, *(di * ci.denominator for di, ci in zip(factors, c) if di))
    coords = [[0] for _ in factors]
    for i, (di, ci) in enumerate(zip(factors, c)):
        if di == 0:
            continue
        step = denom // di
        options = [ci.numerator * (step // ci.denominator) + j * step for j in range(di)]
        for r, e in enumerate(v.column(i)):
            shifts = [e * o % denom for o in options]
            coords[r] = [(s + t) % denom for s in coords[r] for t in shifts]
    kind = "coset-family" if 0 in factors else "finite"
    return kind, denom, tuple(sorted(zip(*coords)))


@st.composite
def fixed_point_maps(draw):
    """An iterate f^k, k <= 3, of a rank-2 or rank-4 Gaussian or Eisenstein
    map translated by a vector of denominator 1, 2, 3, 5, 6 or 7.  The map
    is random, or diagonal over units and small scalars so that roots of
    unity give coset families and, with a translation, empty sets."""
    name, n = draw(st.sampled_from([("gaussian", 1), ("gaussian", 2), ("eisenstein", 1)]))
    order = order_by_name(name)
    if draw(st.booleans()):
        base = random_endo(n, order, 1, draw(st.integers(0, 10**6)))
    else:
        entry = st.sampled_from(ORDER_UNITS[name] + ((2, 0), (1, 1), (0, 2), (-1, 2)))
        b = [[draw(entry) if i == j else (0, 0) for j in range(n)] for i in range(n)]
        base = cm_matrix_endo(cm_power_torus(order, n), order, b)
    den = draw(st.sampled_from([1, 2, 3, 5, 6, 7]))
    tau = [Fraction(draw(st.integers(0, den - 1)), den) for _ in range(base.torus.rank)]
    return iterate(make_endo(base.torus, base.m, tau), draw(st.integers(1, 3)))


@given(fixed_point_maps())
@example(get_example("gtz_diag").endo)
@example(get_example("mult_2_1").endo)
@example(make_endo(get_example("mult_2_1").endo.torus, get_example("mult_2_1").endo.m,
                   (0, 0, Fraction(1, 6), 0)))
@settings(max_examples=150, deadline=None)
def test_fixed_points_match_the_sorted_smith_grid(f):
    budget = 5000
    expected = grid_fixed_points(f, budget)
    if expected is None:
        with pytest.raises(ResourceError):
            fixed_points(f, budget)
        return
    fp = fixed_points(f, budget)
    assert (fp.kind, fp.denominator, fp.rows) == expected


@given(fixed_point_maps())
@example(get_example("mult_2_1").endo)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fixed_points_cli_bytes_match_the_sorted_smith_grid(capsys, tmp_path, f):
    # the CLI's JSON and text documents against the same documents built
    # with str() from the reference rows, never from a FixedPointSet
    budget = 5000
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "torus": {"J": [[str(x) for x in row] for row in f.torus.j.entries]},
        "endomorphism": {"M": [[str(x) for x in row] for row in f.m.entries],
                         "tau": [str(t) for t in f.tau]}}))
    expected = grid_fixed_points(f, budget)
    for fmt in ("json", "text"):
        code = main(["fixed-points", str(path), "--budget", str(budget), "--format", fmt])
        out = capsys.readouterr().out
        if expected is None:
            assert code == 4 and out == ""
            continue
        kind, denom, rows = expected
        doc = {"iterate": 1, "kind": kind}
        strings = [[str(Fraction(k, denom)) for k in row] for row in rows]
        if kind == "finite":
            doc.update(count=len(rows), points=strings)
        elif kind == "coset-family":
            m = sympy.Matrix(f.m.entries)
            doc.update(subtorus_rank=m.rows - (m - sympy.eye(m.rows)).rank(),
                       transversal=strings)
        text = (json.dumps(doc, sort_keys=True, separators=(",", ":")) if fmt == "json"
                else _default_text(doc))
        assert code == 0 and out == text + "\n"


@pytest.mark.parametrize("name, k, parents, distinct, tail_length", [
    ("gtz_diag", 2, 320, 5, 2),
    ("gtz_diag", 3, 148, 1, 122),
    ("mult_2_3", 3, 1274, 1, 26),
    ("e4_auto", 3, 512, 64, 2),
])
def test_fixed_point_parents_share_tails(name, k, parents, distinct, tail_length):
    fp = fixed_points(iterate(get_example(name).endo, k))
    assert len(fp.tail_index) == parents and fp.tail_length == tail_length
    assert sorted(set(fp.tail_index)) == list(range(distinct))
    assert all(len(column) == distinct * tail_length for column in fp.tails)
    assert fp.count() == parents * tail_length == len(set(fp.rows))


def test_fixed_point_listing_expands_parents_and_tails():
    # two parents (0,) and (1,), two tails: rows (0, 2), (0, 6) | (1, 1), (1, 5)
    fp = FixedPointSet("finite", 8, heads=((0, 1),), tail_index=(0, 1),
                       tails=((2, 6, 1, 5),), tail_length=2)
    assert fp.rows == ((0, 2), (0, 6), (1, 1), (1, 5))
    assert fp.columns == ((0, 0, 1, 1), (2, 6, 1, 5))
    assert fp.points[1] == (Fraction(0), Fraction(3, 4)) and fp.count() == 4
    empty = FixedPointSet("empty")
    assert (empty.denominator, empty.columns, empty.subtorus) == (1, (), None)


@pytest.mark.parametrize("heads, tail_index, tails", [
    (((1, 0),), (0, 0), ((0, 2),)),        # the second parent's head is smaller
    (((0, 0), (1, 1)), (0, 0), ((0, 2),)),  # two parents with one head
    ((), (0, 0), ((0, 2),)),                # two parents with no head columns
    (((0, 1),), (0, 0), ((2, 0),)),        # coordinate K falls inside the block
    (((0, 1),), (0, 1), ((0, 2, 3, 3),)),  # or repeats inside the second block
])
def test_fixed_point_order_certificate_refuses_unsorted_listings(heads, tail_index, tails):
    with pytest.raises(DomainError, match="not strictly increasing"):
        FixedPointSet("finite", 4, heads=heads, tail_index=tail_index, tails=tails,
                      tail_length=2)


# -- periodic counts

def test_periodic_count_doubling(e_torus):
    f = mult_map(e_torus, 2)
    # #Per_k = (2^k - 1)^2
    assert periodic_count(f, 1) == 1
    assert periodic_count(f, 2) == 9
    assert periodic_count(f, 3) == 49
    with pytest.raises(DomainError, match="period must be >= 1"):
        periodic_count(f, 0)


def test_periodic_count_infinite_on_unity_factor():
    f = get_example("mult_2_1").endo
    assert periodic_count(f, 1) == "infinite"


def test_periodic_count_lists_no_transversal(ee_torus):
    # [1] x [1002]: the transversal has 1001^2 > DEFAULT_NODE_BUDGET points,
    # but deciding 'infinite' against 0 needs only the Smith form
    m = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1002, 0], [0, 0, 0, 1002]]
    assert periodic_count(make_endo(ee_torus, m), 1) == "infinite"
    shifted = make_endo(ee_torus, m, tau=[Fraction(1, 2), 0, 0, 0])
    assert periodic_count(shifted, 1) == 0
    with pytest.raises(ResourceError):
        fixed_points(make_endo(ee_torus, m))


def test_periodic_count_rotation(e_torus):
    # multiplication by i: f^4 = id, every point periodic
    f = make_endo(e_torus, e_torus.j.to_integer())
    assert periodic_count(f, 1) == abs(lefschetz_number(f)) == 2
    assert periodic_count(f, 4) == "infinite"


def test_periodic_count_is_the_count_of_the_iterate(monkeypatch):
    # periodic_count takes det(M^k - I) on the iterate and reads no eigen_data
    import toridyn.dynamics as dynamics

    examples = [get_example(name).endo for name in sorted(named_examples())]
    expected = [[newton_periodic_count(f, k) for k in range(1, 25)] for f in examples]

    def no_eigen_data(*args):
        raise AssertionError("periodic_count read eigen_data")

    monkeypatch.setattr(dynamics, "eigen_data", no_eigen_data)
    for f, counts in zip(examples, expected):
        assert [periodic_count(f, k) for k in range(1, 25)] == counts
    # gtz_diag's charpoly to index 4 * 10**4 by Newton took 0.5 s; its
    # iterate by squaring and one Bareiss pass take under 0.01 s
    gtz_diag = get_example("gtz_diag").endo
    times = []
    for _ in range(3):
        start = time.perf_counter()
        periodic_count(gtz_diag, 10**4)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.1


def newton_periodic_count(f, k):
    """The count by another route: M has even size, so det(M^k - I) is the
    H^1 charpoly of f^k at 1, which eigen_data takes by Newton's identities
    from the traces of M; the Smith form of the composed iterate decides
    between 'infinite' and 0 when it is 0."""
    det = eigen_data(f, k).h1_charpoly(1)
    if det != 0:
        return abs(det)
    g = iterate(f, k)
    m_minus_i = g.m - RationalMatrix.identity(f.torus.rank)
    return "infinite" if _smith_reduce(m_minus_i, tuple(-t for t in g.tau)) else 0


@given(st.sampled_from(["gaussian", "eisenstein"]), st.integers(1, 2),
       st.integers(1, 6), st.integers(0, 10**6),
       st.lists(st.fractions(0, 1, max_denominator=6), min_size=8, max_size=8))
@settings(max_examples=60, deadline=None)
def test_periodic_count_matches_the_composed_iterate(order, n, k, seed, tau):
    base = random_endo(n, order_by_name(order), 2, seed)
    f = make_endo(base.torus, base.m, tau[:base.torus.rank])
    assert periodic_count(f, k) == newton_periodic_count(f, k)


@pytest.mark.parametrize("order, unit", [("gaussian", (1, 0)), ("gaussian", (0, 1)),
                                         ("eisenstein", (1, 1))])
@pytest.mark.parametrize("tau", [None, (Fraction(1, 2), 0), (Fraction(1, 3), Fraction(2, 3))])
def test_periodic_count_matches_the_composed_iterate_on_units(order, unit, tau):
    # 1, i and 1 + w have orders 1, 4 and 6, so det(M^k - I) = 0 at some
    # k <= 6; for M = I, f^k is the translation by k tau, which has no
    # fixed point unless k tau is integral
    cm = order_by_name(order)
    f = cm_matrix_endo(cm_power_torus(cm, 1), cm, [[unit]])
    if tau is not None:
        f = make_endo(f.torus, f.m, tau + (0,) * (f.torus.rank - 2))
    for k in range(1, 7):
        assert periodic_count(f, k) == newton_periodic_count(f, k)


# -- torsion orbit graphs

def brute_force_graph(f, m):
    d = f.torus.rank
    nodes = list(itertools.product(range(m), repeat=d))
    def step(v):
        img = f.m.apply([Fraction(x, 1) for x in v])
        return tuple(int(img[i] + m * f.tau[i]) % m for i in range(d))
    return {v: step(v) for v in nodes}


def eventual_period(succ, start):
    seen = {}
    v, steps = start, 0
    while v not in seen:
        seen[v] = steps
        v = succ[v]
        steps += 1
    return steps - seen[v], seen[v]  # period, tail


def assert_matches_brute_force(f, m):
    graph = torsion_dynamics(f, m)
    succ = brute_force_graph(f, m)
    assert graph.node_count == m ** f.torus.rank == len(succ)
    orbits = {v: eventual_period(succ, v) for v in succ}
    tails = Counter(tail for _, tail in orbits.values())
    periodic = tails[0]
    assert graph.periodic_node_count() == periodic
    assert graph.tail_histogram == tails
    assert graph.fixed_node_count() == sum(1 for v in succ if succ[v] == v)
    total_cycle_nodes = sum(l * c for l, c in graph.cycle_histogram.items())
    assert total_cycle_nodes == periodic
    cycles = Counter()  # each cycle counted at its least node
    for v, (period, tail) in orbits.items():
        cycle = [v]
        while tail == 0 and len(cycle) < period:
            cycle.append(succ[cycle[-1]])
        if tail == 0 and v == min(cycle):
            cycles[period] += 1
    assert graph.cycle_histogram == cycles


def test_torsion_dynamics_matches_brute_force(e_torus):
    f = make_endo(e_torus, [[2, 1], [-1, 2]], tau=[Fraction(1, 2), 0])
    for m in (2, 4, 6):
        assert_matches_brute_force(f, m)
    # pure translations: their order is a power of p, so the order search
    # multiplies by rad(m) more than once
    for m, tau in ((9, (Fraction(1, 9), 0)), (27, (Fraction(1, 27), 0)),
                   (27, (Fraction(2, 9), Fraction(1, 27)))):
        assert_matches_brute_force(make_endo(e_torus, [[1, 0], [0, 1]], tau), m)
    # rank 2 at odd prime-power and mixed levels, with and without tails
    for a, tau, m in (([[1, -1], [1, 1]], (Fraction(1, 3), 0), 9),
                      ([[2, 1], [-1, 2]], None, 9),
                      ([[3, 0], [0, 3]], (Fraction(1, 4), Fraction(1, 3)), 12),
                      ([[0, -1], [1, 0]], (Fraction(1, 2), 0), 12),
                      ([[2, -1], [1, 2]], (Fraction(1, 5), Fraction(2, 3)), 15),
                      ([[1, -2], [2, 1]], None, 25),
                      ([[1, -1], [1, 1]], (Fraction(1, 25), 0), 25)):
        assert_matches_brute_force(make_endo(e_torus, a, tau), m)


HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


@pytest.mark.parametrize("name, m, tau", [
    ("gtz_diag", 4, None), ("gtz_diag", 6, (HALF, 0, 0, HALF)),
    ("gtz_diag", 8, (0, HALF, HALF, 0)), ("gtz_diag", 10, (HALF, HALF, 0, 0)),
    ("mult_2_3", 4, None), ("mult_2_3", 6, (HALF, 0, 0, HALF)),
    ("mult_2_3", 8, None), ("mult_2_3", 8, (0, HALF, HALF, HALF)),
    # unipotent: the order is a power of p, which the rad(m) loop must
    # reach and the stripping must keep whole
    ("shear", 4, None), ("shear", 4, (0, HALF, HALF, 0)),
    ("shear", 8, None), ("shear", 8, (Fraction(1, 8), 0, 0, HALF)),
    ("shear", 9, None), ("shear", 9, (0, 0, THIRD, Fraction(1, 9))),
])
def test_torsion_dynamics_rank4_matches_brute_force(name, m, tau):
    endo = get_example(name).endo
    assert_matches_brute_force(make_endo(endo.torus, endo.m, tau), m)


def test_torsion_dynamics_long_tails_past_2_16_nodes(e_torus):
    # x -> (1+i) x on Z[i]/2^9 = Z[i]/pi^18 with pi = 1+i: a point of
    # pi-valuation v < 18 has tail 18 - v, and 2^(t-1) points have tail t
    k = 9
    graph = torsion_dynamics(make_endo(e_torus, [[1, -1], [1, 1]]), 2**k,
                             budget=2**18)
    assert graph.node_count == 2**18
    assert graph.tail_histogram == {0: 1, **{t: 2**(t - 1) for t in range(1, 2 * k + 1)}}
    assert graph.cycle_histogram == {1: 1}


def test_torsion_dynamics_doubling_on_2_power_torsion(e_torus):
    # doubling on (Z/2^k)^2: a point of 2-adic valuation v < k has tail
    # k - v, and 3 * 4^(t-1) points have tail t; every peeling frontier
    # has repeated targets (x and x + 2^(k-1) share 2x)
    k = 8
    graph = torsion_dynamics(mult_map(e_torus, 2), 2**k)
    assert graph.tail_histogram == {0: 1, **{t: 3 * 4**(t - 1) for t in range(1, k + 1)}}
    assert graph.cycle_histogram == {1: 1}


def test_torsion_dynamics_of_10_12_nodes_against_sympy_smith_forms():
    # gtz_diag on (Z/997)^4, about 9.9e11 nodes, is counted without a node
    # list; tau = 0, so the nodes of period dividing k are ker(M^k - I)
    m = 997
    f = get_example("gtz_diag").endo
    graph = torsion_dynamics(f, m, budget=10**12)
    assert graph.cycle_histogram == {1: 1, 498: 1996, 996: 992020982}
    assert graph.tail_histogram == {0: 988053892081}
    assert sum(graph.tail_histogram.values()) == m**4
    assert sum(l * c for l, c in graph.cycle_histogram.items()) == graph.tail_histogram[0]
    a = sympy.Matrix(f.m.to_integer())
    for k in graph.cycle_histogram:
        snf = smith_normal_form((a**k - sympy.eye(4)).applyfunc(lambda x: x % m),
                                domain=sympy.ZZ)
        kernel = math.prod(math.gcd(int(snf[i, i]), m) for i in range(4))
        assert sum(l * c for l, c in graph.cycle_histogram.items() if k % l == 0) == kernel


@pytest.mark.parametrize("name, p, degree", [
    pytest.param("gtz_diag", 10**9 + 7, 2, id="gtz_diag-1000000007"),
    pytest.param("mult_by_i", 2**31 - 1, 2, id="mult_by_i-2147483647"),
    # the Salem quartic stays irreducible mod p, and M, the direct sum of
    # N and its conjugate, has two Jordan blocks of each root
    pytest.param("e4_auto", 10037, 4, id="e4_auto-10037"),
])
def test_torsion_dynamics_at_a_large_prime_level(name, p, degree):
    # chi splits mod p into factors of degree at most `degree`, so the
    # order bound is a multiple of p^degree - 1 and only the cyclotomic
    # values Phi_e(p), e | j <= degree, are factored
    f = get_example(name).endo
    d = f.torus.rank
    start = time.perf_counter()
    graph = torsion_dynamics(f, p, budget=10**40)
    assert time.perf_counter() - start < 2
    assert sum(l * c for l, c in graph.cycle_histogram.items()) == graph.tail_histogram[0] == p**d
    assert all((p**degree - 1) % l == 0 for l in graph.cycle_histogram)
    m_minus_i = sympy.Matrix(f.m.to_integer()) - sympy.eye(d)
    rank = DomainMatrix.from_Matrix(m_minus_i).convert_to(sympy.GF(p)).rank()
    assert graph.fixed_node_count() == p**(d - rank)


def test_torsion_dynamics_at_level_1(capsys):
    # (Z/1)^d is one node, fixed by f
    f = get_example("gtz_diag").endo
    graph = torsion_dynamics(f, 1)
    assert (graph.node_count, graph.cycle_histogram, graph.tail_histogram) == (1, {1: 1}, {0: 1})
    assert main(["torsion", "--example", "gtz_diag", "--level", "1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "level": 1, "node_count": 1, "cycle_histogram": {"1": 1}, "tail_histogram": {"0": 1},
        "periodic_node_count": 1, "fixed_node_count": 1}


TORSION_LEVELS = {2: (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64, 6, 10, 12, 15, 18, 20, 36),
                  4: (2, 3, 4, 5, 7, 8, 6)}


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_torsion_dynamics_matches_brute_force_on_random_maps(seed):
    # a random Gaussian or Eisenstein map of rank 2 or 4 with a random
    # translation, at a prime-power or composite level of at most 4096
    # nodes; a row scaled by p | m makes M singular mod p, so the counts
    # take pivots of positive p-valuation
    rng = random.Random(seed)
    name, n = rng.choice([("gaussian", 1), ("gaussian", 2), ("eisenstein", 1)])
    order = order_by_name(name)
    torus = cm_power_torus(order, n)
    m = rng.choice(TORSION_LEVELS[torus.rank])
    b = [[(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.4:
        p = min(q for q in range(2, m + 1) if m % q == 0)
        b[0] = [(x * p, y * p) for x, y in b[0]]
    tau = [Fraction(rng.randrange(m), m) if rng.random() < 0.5 else 0 for _ in range(torus.rank)]
    assert_matches_brute_force(cm_matrix_endo(torus, order, b, tau), m)


def test_torsion_counts_take_no_smith_form(monkeypatch):
    # the torsion counts eliminate over Z/p^e; fixed points still take the
    # Smith form, which shows the patch reaches it
    def refuse(a):
        raise AssertionError("smith_form was called")

    monkeypatch.setattr("toridyn.dynamics.smith_form", refuse)
    f = get_example("gtz_diag").endo
    assert torsion_dynamics(f, 31).cycle_histogram == {1: 1, 96: 9620}
    with pytest.raises(AssertionError, match="smith_form was called"):
        fixed_points(f)


def enumerated_count(a, b, m):
    """The number of x in (Z/m)^d with A x = b (mod m), by listing them."""
    return sum(all((sum(map(operator.mul, row, x)) - bi) % m == 0 for row, bi in zip(a, b))
               for x in itertools.product(range(m), repeat=len(a)))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_congruence_count_matches_enumeration(seed):
    # A x = b over (Z/m)^d, d <= 3: a random, singular (a row or column
    # scaled by a prime of m, or a repeated column) or zero A, against a
    # consistent b = A x0 and a random b, which is often inconsistent
    rng = random.Random(seed)
    d, m = rng.randint(1, 3), rng.choice([1, 2, 4, 6, 9, 10, 12])
    a = [[rng.randint(-12, 12) for _ in range(d)] for _ in range(d)]
    p = next((q for q in range(2, m + 1) if m % q == 0), 0)  # 0 at m = 1
    kind = rng.choice(["random", "row", "column", "repeat", "zero"])
    if kind == "zero":
        a = [[0] * d for _ in range(d)]
    elif kind == "row":
        a[0] = [x * p for x in a[0]]
    for row in a:
        if kind == "column":
            row[-1] *= p
        elif kind == "repeat":
            row[-1] = row[0] * rng.randint(-2, 2)
    columns = [list(column) for column in zip(*a)]
    x0 = [rng.randrange(m) for _ in range(d)]
    image = [sum(map(operator.mul, row, x0)) for row in a]
    kernel = enumerated_count(a, [0] * d, m)
    assert _congruence_count(columns, image, m) == enumerated_count(a, image, m) == kernel
    b = [rng.randint(-2 * m, 2 * m) for _ in range(d)]
    assert _congruence_count(columns, b, m) == enumerated_count(a, b, m) in (0, kernel)


@pytest.mark.parametrize("a, b, m", [
    ([[0, 0], [0, 0]], [0, 1], 4),          # zero A, b != 0
    ([[2, 0], [0, 2]], [1, 0], 4),          # b_0 off the pivot 2
    ([[2, 0], [0, 3]], [0, 1], 6),          # b_1 off the pivot 3
    ([[1, 2], [2, 4]], [1, 1], 10),         # rank 1 over Z: b off its image
    ([[3, 0, 0], [0, 0, 0], [0, 3, 6]], [3, 0, 4], 9),
])
def test_congruence_count_of_inconsistent_systems(a, b, m):
    assert enumerated_count(a, b, m) == 0
    assert _congruence_count([list(column) for column in zip(*a)], b, m) == 0


def companion(coeffs):
    """The companion matrix of the monic x^d + coeffs (ascending)."""
    d = len(coeffs)
    return [[int(i == j + 1) for j in range(d - 1)] + [-coeffs[i]] for i in range(d)]


def direct_sum(*blocks):
    """The block-diagonal matrix of the square row lists `blocks`."""
    d = sum(map(len, blocks))
    rows, k = [], 0
    for block in blocks:
        rows += [[0] * k + row + [0] * (d - k - len(row)) for row in block]
        k += len(block)
    return rows


def factor_degrees_by_sympy(rows, p):
    """The degrees of the irreducible factors other than x of det(xI - M)
    reduced mod p, by sympy's factorisation over GF(p)."""
    x = sympy.symbols("x")
    chi = sympy.Poly(sympy.Matrix(rows).charpoly(x).as_expr(), x, modulus=p)
    return {g.degree() for g, _ in chi.factor_list()[1] if g != sympy.Poly(x, x, modulus=p)}


def random_factor_matrix(rng, p):
    """A random integer matrix of size at most 8 for _factor_degrees: a
    companion matrix, the direct sum of A with itself, scalar-plus-nilpotent
    blocks, a matrix with a row scaled by p (singular mod p), or a random
    matrix; conjugated by a random unimodular matrix, so the blocks do not
    show."""
    kind = rng.choice(["companion", "sum", "jordan", "singular", "random"])
    if kind == "companion":
        rows = companion([rng.randint(-9, 9) for _ in range(rng.randint(1, 8))])
    elif kind == "sum":
        n = rng.randint(1, 4)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        rows = direct_sum(a, a)
    elif kind == "jordan":  # lambda I + N, N strictly upper triangular
        blocks = [[[rng.randint(-3, 3) * (i < j) + lam * (i == j) for j in range(n)]
                   for i in range(n)]
                  for n, lam in [(rng.randint(1, 3), rng.randint(-4, 4))
                                 for _ in range(rng.randint(1, 3))]]
        rows = direct_sum(*blocks)
    else:
        n = rng.randint(1, 8)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if kind == "singular":
            k = rng.randrange(n)
            rows[k] = [x * p for x in rows[k]]
    d = len(rows)
    for _ in range(rng.randint(0, 2 * d) if d > 1 else 0):  # E M E^-1, E = I + c e_j e_i^T
        i, j = rng.sample(range(d), 2)
        c = rng.randint(-2, 2)
        rows[j] = [x + c * y for x, y in zip(rows[j], rows[i])]
        for row in rows:
            row[i] -= c * row[j]
    return rows


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 5, 7, 31, 997]))
@settings(max_examples=150, deadline=None)
def test_factor_degrees_match_sympy(seed, p):
    # the degrees of the irreducible factors other than x of the charpoly
    # mod p, read off kernels over F_p, against sympy's factorisation;
    # sums and scalar-plus-nilpotent blocks give roots of several Jordan
    # blocks, a row scaled by p a root 0 mod p
    rows = random_factor_matrix(random.Random(seed), p)
    assert _factor_degrees(rows, p) == factor_degrees_by_sympy(rows, p)


@pytest.mark.parametrize("rows, p, expected", [
    # irreducible of full degree: the last j = d is searched
    pytest.param(companion([1, 0]), 3, {2}, id="irreducible-quadratic"),
    pytest.param(companion([1, 0, 1, 0, 0]), 2, {5}, id="irreducible-quintic"),
    pytest.param(direct_sum(companion([1, 0]), companion([1, 0])), 3, {2},
                 id="quadratic-twice"),
    # ker M is not the root 1: M singular mod p with no linear factor but x
    pytest.param(direct_sum([[0]], companion([1, 0])), 3, {2}, id="zero-plus-quadratic"),
    pytest.param([[3, 6, 0], [0, 0, -1], [0, 1, 0]], 3, {2}, id="row-scaled-by-p"),
    # scalar plus nilpotent: one block of a root in F_p
    pytest.param([[2, 1, 0], [0, 2, 1], [0, 0, 2]], 5, {1}, id="jordan-block"),
    pytest.param([[0, 1], [0, 0]], 7, set(), id="nilpotent"),
])
def test_factor_degrees_on_fixed_matrices(rows, p, expected):
    assert factor_degrees_by_sympy(rows, p) == expected
    assert _factor_degrees(rows, p) == expected


def test_torsion_dynamics_doubling_level3(e_torus):
    # doubling is a bijection on 3-torsion: 1 fixed point + 4 two-cycles
    graph = torsion_dynamics(mult_map(e_torus, 2), 3)
    assert graph.cycle_histogram == {1: 1, 2: 4}
    assert graph.periodic_node_count() == 9
    assert graph.fixed_node_count() == 1


def test_torsion_dynamics_tails(e_torus):
    # doubling on 4-torsion: non-bijective, tails of length <= 2
    graph = torsion_dynamics(mult_map(e_torus, 2), 4)
    assert graph.node_count == 16
    assert graph.periodic_node_count() == 1  # only 0 is periodic
    assert max(graph.tail_histogram) == 2


def test_import_does_not_load_numpy():
    # numpy is not a runtime dependency: neither the package, fixed points
    # nor a torsion graph imports it
    code = ("import sys, toridyn, toridyn.cli; print('numpy' in sys.modules); "
            "toridyn.fixed_points(toridyn.get_example('gtz_diag').endo); "
            "print('numpy' in sys.modules); "
            "toridyn.torsion_dynamics(toridyn.get_example('mult_by_i').endo, 2); "
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.split() == ["False", "False", "False"]


def test_torsion_dynamics_budget(e_torus):
    with pytest.raises(ResourceError):
        torsion_dynamics(mult_map(e_torus, 2), 100, budget=100)


def test_torsion_dynamics_invalid_level(e_torus):
    with pytest.raises(DomainError):
        torsion_dynamics(mult_map(e_torus, 2), 0)
    with pytest.raises(DomainError):
        # translation denominator must divide the level
        torsion_dynamics(make_endo(e_torus, [[2, 0], [0, 2]],
                                   tau=[Fraction(1, 3), 0]), 2)


# -- subtorus orbits

def test_subtorus_orbit_invariant():
    scenario = get_example("mult_2_1")
    f = scenario.endo
    sub = make_subtorus(f.torus, RationalMatrix.from_columns(
        scenario.sublattices["first_factor"]))
    verdict, seq = subtorus_orbit(f, sub)
    assert verdict == "invariant"


def test_subtorus_orbit_diagonal_escapes_under_gtz():
    scenario = get_example("gtz_diag")
    f = scenario.endo
    sub = make_subtorus(f.torus, RationalMatrix.from_columns(
        scenario.sublattices["diagonal"]))
    assert subtorus_orbit(f, sub, bound=8) == ("escaping", 9)


def test_subtorus_orbit_swap_periodic(ee_torus):
    f = make_endo(ee_torus, [[0, 0, 2, 0], [0, 0, 0, 2],
                             [2, 0, 0, 0], [0, 2, 0, 0]])
    sub = make_subtorus(ee_torus, [[1, 0], [0, 1], [0, 0], [0, 0]])
    verdict, seq = subtorus_orbit(f, sub)
    assert verdict == ("periodic", 2)


def example_subtorus(name, lattice):
    scenario = get_example(name)
    f = scenario.endo
    return f, make_subtorus(f.torus, RationalMatrix.from_columns(
        scenario.sublattices[lattice]))


def test_span_questions_take_no_elimination(monkeypatch):
    # a sublattice keeps its Smith coordinates, so once det M is known an
    # orbit, a restriction and a span test are integer products alone
    gtz, diagonal = example_subtorus("gtz_diag", "diagonal")
    mult, first = example_subtorus("mult_2_1", "first_factor")
    assert gtz.surjective and mult.surjective
    blocks = restrict_and_quotient(mult.m, first.lattice)

    def no_elimination(*args, **kwargs):
        raise AssertionError("an elimination or a Smith form was run")

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "toridyn"]:
        for name in ("bareiss", "smith_form"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_elimination)
    assert subtorus_orbit(gtz, diagonal) == ("escaping", 65)
    assert subtorus_orbit(mult, first) == ("invariant", 2)
    assert restrict_and_quotient(mult.m, first.lattice) == blocks
    with pytest.raises(InvarianceViolation):
        restrict_and_quotient(gtz.m, diagonal.lattice)
    column = diagonal.lattice.basis.column(0)
    assert diagonal.lattice.spans_vector(column)
    assert not diagonal.lattice.spans_vector(gtz.m.apply(column))


def test_orbit_takes_no_fraction_path(monkeypatch):
    # the basis is pushed by the integer rows of M and each image is tested
    # against the integer annihilator rows, with no entry normalised by apply
    gtz, diagonal = example_subtorus("gtz_diag", "diagonal")
    assert gtz.surjective

    def no_fraction_path(*args, **kwargs):
        raise AssertionError("a vector took the RationalMatrix.apply path")

    monkeypatch.setattr(Sublattice, "spans_vector", no_fraction_path)
    monkeypatch.setattr(RationalMatrix, "apply", no_fraction_path)
    assert subtorus_orbit(gtz, diagonal) == ("escaping", 65)


def saturating_orbit(f, sub, bound):
    """Reference orbit: every image lattice is saturated, and lattices are
    compared by the rref of their bases."""
    start, current = span_key(sub.lattice.basis.columns()), sub.lattice
    for step in range(1, bound + 1):
        current = saturate(RationalMatrix.from_columns(
            [f.m.apply(c) for c in current.basis.columns()]))
        if span_key(current.basis.columns()) == start:
            return ("invariant" if step == 1 else ("periodic", step)), step + 1
    return "escaping", bound + 1


@st.composite
def orbit_cases(draw):
    """A dim-2 Gaussian or Eisenstein map, either random or a block
    permutation times units (periodic orbits of period up to 6), and a
    J-invariant rank-2 subtorus span(v, Jv)."""
    name = draw(st.sampled_from(sorted(ORDER_UNITS)))
    order = order_by_name(name)
    if draw(st.booleans()):
        f = random_endo(2, order, draw(st.integers(1, 2)), draw(st.integers(0, 10**6)))
    else:
        scalar = st.sampled_from([(1, 0), (2, 0), (1, 2), (-2, 1)])
        unit = st.sampled_from(ORDER_UNITS[name])
        f = block_unit_endo(order, draw(st.booleans()),
                            (draw(scalar), draw(scalar)), (draw(unit), draw(unit)))
    rank = f.torus.rank
    v = draw(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank)
             .filter(any))
    sub = make_subtorus(f.torus, RationalMatrix.from_columns([v, f.torus.j.apply(v)]))
    return f, sub, draw(st.integers(1, 12))


@given(orbit_cases())
@settings(max_examples=60, deadline=None)
def test_span_orbit_matches_the_saturating_orbit(case):
    f, sub, bound = case
    assert subtorus_orbit(f, sub, bound) == saturating_orbit(f, sub, bound)


@pytest.mark.parametrize("name, swap, units, expected", [
    ("gaussian", False, ((1, 0), (0, 1)), ("periodic", 4)),
    ("gaussian", True, ((1, 0), (0, 1)), ("periodic", 2)),
    ("eisenstein", False, ((1, 0), (0, 1)), ("periodic", 6)),
])
def test_span_orbit_periods_of_block_unit_maps(name, swap, units, expected):
    f = block_unit_endo(order_by_name(name), swap, ((2, 1), (2, 1)), units)
    half = f.torus.rank // 2
    v = [1] + [0] * (half - 1) + [1] + [0] * (half - 1)
    sub = make_subtorus(f.torus, RationalMatrix.from_columns([v, f.torus.j.apply(v)]))
    examined = expected[1] + 1
    assert subtorus_orbit(f, sub, 12) == saturating_orbit(f, sub, 12) == (expected, examined)


def span_key(vectors):
    """The nonzero rows of sympy's rref of the vectors, with int or Fraction
    entries: a canonical basis of their rational span."""
    red, _ = sympy.Matrix([[sympy.Rational(str(x)) for x in v] for v in vectors]).rref()
    rows = (tuple(int(x) if x.q == 1 else Fraction(int(x.p), int(x.q)) for x in red.row(i))
            for i in range(red.rows))
    return tuple(row for row in rows if any(row))


def span_key_orbit(f, sub, bound):
    """Reference orbit: the span followed by one rational rref per step and
    compared with the start's."""
    start = current = span_key(sub.lattice.basis.columns())
    for step in range(1, bound + 1):
        current = span_key([f.m.apply(v) for v in current])
        if current == start:
            return ("invariant" if step == 1 else ("periodic", step)), step + 1
    return "escaping", bound + 1


def test_span_orbit_of_a_span_with_a_non_integral_rref():
    # span(v, Jv) with v = (2, 0, 1, 0) reduces to rows (1, 0, 1/2, 0) and
    # (0, 1, 0, 1/2); the map is (x, y) -> (2+i)(i y, x)
    f = block_unit_endo(order_by_name("gaussian"), True, ((2, 1), (2, 1)), ((1, 0), (0, 1)))
    v = [2, 0, 1, 0]
    sub = make_subtorus(f.torus, RationalMatrix.from_columns([v, f.torus.j.apply(v)]))
    assert any(type(x) is Fraction for row in span_key(sub.lattice.basis.columns())
               for x in row)
    for bound in (1, 12):
        assert subtorus_orbit(f, sub, bound) == span_key_orbit(f, sub, bound)
    assert subtorus_orbit(f, sub, 12) == (("periodic", 2), 3)


def test_span_orbit_of_a_three_cycle_of_factors():
    # (x, y, z) -> ((1+2i) z, (1+2i) x, i (1+2i) y) on E^3 cycles the
    # factors, and M^3 = i (1+2i)^3 is scalar: the span of two factors and
    # the diagonal of two both return after exactly 3 steps
    g = order_by_name("gaussian")
    s, zero = (1, 2), (0, 0)
    f = cm_matrix_endo(cm_power_torus(g, 3), g,
                       [[zero, zero, s], [s, zero, zero], [zero, (-2, 1), zero]])
    first_two = make_subtorus(f.torus, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                                        [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]])
    v = [1, 0, 1, 0, 0, 0]
    mixed = make_subtorus(f.torus, RationalMatrix.from_columns([v, f.torus.j.apply(v)]))
    for sub in (first_two, mixed):
        assert subtorus_orbit(f, sub, 16) == span_key_orbit(f, sub, 16) == (("periodic", 3), 4)
