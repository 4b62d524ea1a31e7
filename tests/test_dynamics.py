"""Fixed points, Lefschetz numbers, periodic counts, torsion orbit graphs,
subtorus orbits."""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

from toridyn import (DomainError, RationalMatrix, ResourceError, fixed_points,
                     iterate, lefschetz_number, make_endo, make_subtorus,
                     periodic_count, preper_vs_torsion, subtorus_orbit,
                     torsion_dynamics)
from toridyn.scenarios import get_example


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


def test_fixed_points_pure_translation_empty(e_torus):
    f = make_endo(e_torus, [[1, 0], [0, 1]], tau=[Fraction(1, 3), 0])
    assert fixed_points(f).kind == "empty"


def test_fixed_points_coset_family():
    scenario = get_example("mult_2_1")  # [2] x [1] on E x E
    fp = fixed_points(scenario.endo)
    assert fp.kind == "coset-family"
    assert fp.subtorus.rank == 2
    assert fp.count() is None


# -- periodic counts

def test_periodic_count_doubling(e_torus):
    f = mult_map(e_torus, 2)
    # #Per_k = (2^k - 1)^2
    assert periodic_count(f, 1) == 1
    assert periodic_count(f, 2) == 9
    assert periodic_count(f, 3) == 49


def test_periodic_count_infinite_on_unity_factor():
    f = get_example("mult_2_1").endo
    assert periodic_count(f, 1) == "infinite"


def test_periodic_count_rotation(e_torus):
    # multiplication by i: f^4 = id, every point periodic
    f = make_endo(e_torus, e_torus.j.to_integer())
    assert periodic_count(f, 1) == abs(lefschetz_number(f)) == 2
    assert periodic_count(f, 4) == "infinite"


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


def test_torsion_dynamics_matches_brute_force(e_torus):
    f = make_endo(e_torus, [[2, 1], [-1, 2]], tau=[Fraction(1, 2), 0])
    for m in (2, 4, 6):
        graph = torsion_dynamics(f, m)
        succ = brute_force_graph(f, m)
        assert graph.node_count == m ** 2 == len(succ)
        tails = Counter(eventual_period(succ, v)[1] for v in succ)
        periodic = tails[0]
        assert graph.periodic_node_count() == periodic
        assert graph.tail_histogram == tails
        assert graph.fixed_node_count() == sum(1 for v in succ if succ[v] == v)
        total_cycle_nodes = sum(l * c for l, c in graph.cycle_histogram.items())
        assert total_cycle_nodes == periodic


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
    verdict, seq = subtorus_orbit(f, sub, bound=8)
    assert verdict in ("escaping",) or isinstance(verdict, tuple)


def test_subtorus_orbit_swap_periodic(ee_torus):
    f = make_endo(ee_torus, [[0, 0, 2, 0], [0, 0, 0, 2],
                             [2, 0, 0, 0], [0, 2, 0, 0]])
    sub = make_subtorus(ee_torus, [[1, 0], [0, 1], [0, 0], [0, 0]])
    verdict, seq = subtorus_orbit(f, sub)
    assert verdict == ("periodic", 2)


# -- preperiodic vs torsion evidence

def test_preper_vs_torsion_unity_free(e_torus):
    v = preper_vs_torsion(mult_map(e_torus, 2))
    assert not v.has_unity_eigenvalue and v.consistent
    assert not v.preper_exceeds_torsion


def test_preper_vs_torsion_with_unity_factor():
    v = preper_vs_torsion(get_example("mult_2_1").endo)
    assert v.has_unity_eigenvalue and v.consistent
    assert v.fixed_subtorus_iterate == 1 and v.fixed_subtorus_rank == 2
    assert v.preper_exceeds_torsion


def test_preper_vs_torsion_requires_isogeny(e_torus):
    f = make_endo(e_torus, [[2, 0], [0, 2]], tau=[Fraction(1, 2), 0])
    with pytest.raises(DomainError):
        preper_vs_torsion(f)
