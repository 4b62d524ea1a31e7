"""Endomorphisms: validation, iteration, eigenvalue data, unity-freeness,
fixed subtori, eigenvalue splitting."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ_I
from sympy.polys.matrices import DomainMatrix

from toridyn import (DomainError, InvarianceViolation, InvariantViolation,
                     NotHolomorphicError, NotSurjectiveError, RationalMatrix,
                     TorusEndomorphism, analytic_charpoly,
                     charpoly, eigen_data, eigen_split, fixed_subtorus,
                     gauss_poly_conj, gauss_poly_mul, iterate, make_endo,
                     make_subtorus, minimal_unity_iterate, unity_free)
from toridyn.scenarios import get_example

from conftest import frac_matrix, lattice_contains, sympy_kernel, sympy_matrix


def block_diag(a, b):
    top = [row + [0, 0] for row in a]
    bot = [[0, 0] + row for row in b]
    return top + bot


def test_make_endo_rejects_non_commuting(e_torus):
    with pytest.raises(NotHolomorphicError):
        make_endo(e_torus, [[1, 1], [0, 1]])


def test_make_endo_rejects_non_integral(e_torus):
    with pytest.raises(DomainError):
        make_endo(e_torus, frac_matrix([[Fraction(1, 2), 0], [0, Fraction(1, 2)]]))


def test_make_endo_reduces_translation(e_torus):
    f = make_endo(e_torus, [[2, 0], [0, 2]], tau=[Fraction(3, 2), Fraction(-1, 4)])
    assert f.tau == (Fraction(1, 2), Fraction(3, 4))


def test_degree_is_det(e_torus):
    f = make_endo(e_torus, [[2, 1], [-1, 2]])
    assert f.degree_matrix_det == 5
    assert f.surjective and f.is_isogeny


def test_not_surjective(e_torus):
    f = make_endo(e_torus, [[0, 0], [0, 0]])
    assert not f.surjective
    with pytest.raises(NotSurjectiveError):
        unity_free(f)


# -- iteration

def test_iterate_matrix_power(e_torus):
    f = make_endo(e_torus, [[2, 0], [0, 2]], tau=[Fraction(1, 3), 0])
    f2 = iterate(f, 2)
    assert f2.m == f.m ** 2
    # (M + I) tau mod 1 = (3 * 1/3 mod 1, 0)
    assert f2.tau == (Fraction(0), Fraction(0))


def test_iterate_composition_law(ee_torus):
    f = make_endo(ee_torus, block_diag([[2, 1], [-1, 2]], [[3, 0], [0, 3]]),
                  tau=[Fraction(1, 5), 0, Fraction(2, 7), 0])
    f6 = iterate(f, 6)
    g = iterate(iterate(f, 2), 3)
    assert (f6.m, f6.tau) == (g.m, g.tau)


def _linear_iterate(f, k):
    """Reference f^k: k matrix products, accumulating M^(k-1) + ... + I."""
    acc = RationalMatrix.zero(f.torus.rank, f.torus.rank)
    power = RationalMatrix.identity(f.torus.rank)
    for _ in range(k):
        acc = acc + power
        power = power * f.m
    return TorusEndomorphism(f.torus, power, tuple(t % 1 for t in acc.apply(f.tau)))


@pytest.mark.parametrize("name", ["gtz_diag", "mult_by_i", "shear", "e4_auto"])
def test_iterate_by_squaring_matches_the_linear_loop(name):
    base = get_example(name).endo
    rng = random.Random(name)
    for k in range(1, 40):
        tau = [Fraction(rng.randint(-20, 20), 7) for _ in range(base.torus.rank)]
        f = make_endo(base.torus, base.m, tau)
        fast, slow = iterate(f, k), _linear_iterate(f, k)
        assert fast == slow
        assert [type(t) for t in fast.tau] == [type(t) for t in slow.tau]


def test_iterate_requires_positive(e_torus):
    with pytest.raises(DomainError):
        iterate(make_endo(e_torus, [[2, 0], [0, 2]]), 0)


# -- eigenvalue data

def test_h1_is_analytic_times_conjugate(ee_torus):
    f = make_endo(ee_torus, block_diag([[1, 2], [-2, 1]], [[3, 1], [-1, 3]]))
    data = eigen_data(f)
    product = gauss_poly_mul(data.analytic, gauss_poly_conj(data.analytic))
    assert product == tuple((c, 0) for c in data.h1_charpoly.coeffs)


def test_analytic_charpoly_multiplication_by_i(e_torus):
    # M = J acts on the +i eigenspace of J as multiplication by i: Gamma = x - i
    gamma = analytic_charpoly(e_torus.j, e_torus.j)
    assert gamma == ((0, -1), (1, 0))
    assert all(type(x) is int for c in gamma for x in c)


def test_analytic_charpoly_rejects_coefficients_off_z_i(e_torus, monkeypatch):
    # blocks (s, sA, sB) = (2, [[1]], [[0]]) would give Gamma = x - 1/2
    import toridyn.endo as endo
    monkeypatch.setattr(endo, "_frame_blocks", lambda m, j: (2, [[1]], [[0]]))
    with pytest.raises(InvariantViolation, match="not over Z\\[i\\]"):
        analytic_charpoly(e_torus.j, e_torus.j)


def test_unity_free_multiplication_map(e_torus):
    f = make_endo(e_torus, [[2, 0], [0, 2]])
    free, u = unity_free(f)
    assert free and u == 0


def test_unity_count_identity_factor(ee_torus):
    f = make_endo(ee_torus, block_diag([[1, 0], [0, 1]], [[2, 0], [0, 2]]))
    free, u = unity_free(f)
    assert not free and u == 1
    assert minimal_unity_iterate(f) == 1


def test_minimal_unity_iterate_negative_identity(ee_torus):
    f = make_endo(ee_torus, block_diag([[-1, 0], [0, -1]], [[3, 0], [0, 3]]))
    assert minimal_unity_iterate(f) == 2
    assert minimal_unity_iterate(iterate(f, 2)) == 1


def test_minimal_unity_iterate_none_when_free(e_torus):
    assert minimal_unity_iterate(make_endo(e_torus, [[3, 0], [0, 3]])) is None


# -- fixed subtorus

def test_fixed_subtorus_of_partial_identity(ee_torus):
    f = make_endo(ee_torus, block_diag([[1, 0], [0, 1]], [[2, 0], [0, 2]]))
    result = fixed_subtorus(f)
    assert result is not None
    k, sub = result
    assert k == 1 and sub.rank == 2
    assert lattice_contains(sub.lattice, (1, 0, 0, 0))


def test_fixed_subtorus_none_for_unity_free(e_torus):
    assert fixed_subtorus(make_endo(e_torus, [[2, 0], [0, 2]])) is None


def test_fixed_subtorus_order_four(e_torus):
    # multiplication by i: eigenvalues are primitive 4th roots of unity
    f = make_endo(e_torus, e_torus.j.to_integer())
    k, sub = fixed_subtorus(f)
    assert k == 4 and sub.rank == 2


# -- eigenvalue splitting

def test_eigen_split_shear_example():
    scenario = get_example("shear")
    f = scenario.endo
    from toridyn import RationalMatrix
    cols = scenario.sublattices["first_factor"]
    sub = make_subtorus(f.torus, RationalMatrix.from_columns(cols))
    gamma, delta, quot = eigen_split(f, sub)
    assert gauss_poly_mul(delta, quot) == gamma
    # shear restricts to the identity on the first factor
    assert delta == ((-1, 0), (1, 0))


def test_eigen_split_non_invariant_raises(ee_torus):
    f = make_endo(ee_torus, [[0, 0, 1, 0], [0, 0, 0, 1],
                             [1, 0, 0, 0], [0, 1, 0, 0]])  # swap factors
    sub = make_subtorus(ee_torus, [[1, 0], [0, 1], [0, 0], [0, 0]])
    with pytest.raises(InvarianceViolation):
        eigen_split(f, sub)


def test_eigen_split_diagonal_product(ee_torus):
    f = make_endo(ee_torus, block_diag([[2, 0], [0, 2]], [[3, 0], [0, 3]]))
    sub = make_subtorus(ee_torus, [[1, 0], [0, 1], [0, 0], [0, 0]])
    gamma, delta, quot = eigen_split(f, sub)
    assert delta == ((-2, 0), (1, 0)) and quot == ((-3, 0), (1, 0))


# -- the A + iB analytic charpoly against the kernel-of-(J - i) computation

def _qq_i(a):
    return DomainMatrix.from_Matrix(sympy_matrix(a)).convert_to(QQ_I)


def oracle_analytic_charpoly(m, j):
    """M on the +i eigenspace K = ker(J - i) of J, by sympy over Q(i): the
    rref of [K | MK] holds X with K X = M K, and Gamma is the charpoly of
    X, as ascending (re, im) pairs."""
    d = j.rows
    kernel = (_qq_i(j) - DomainMatrix.eye(d, QQ_I) * QQ_I(0, 1)).nullspace().transpose()
    n = kernel.shape[1]
    assert 2 * n == d
    red, pivots = kernel.hstack(_qq_i(m) * kernel).rref()
    assert pivots == tuple(range(n))
    coeffs = red[:n, n:].charpoly()
    assert all(c.x.denominator == c.y.denominator == 1 for c in coeffs)
    return tuple((int(c.x), int(c.y)) for c in reversed(coeffs))


def _cm_tori():
    from toridyn import make_torus
    from toridyn.scenarios import (cm_power_torus, eisenstein_order, elliptic_curve,
                                   gaussian_order, product, quadratic_order)
    orders = [gaussian_order(), eisenstein_order(), quadratic_order(2),
              quadratic_order(3), quadratic_order(4), quadratic_order(5)]
    tori = [cm_power_torus(o, n) for o in orders for n in (1, 2)]
    tori.append(cm_power_torus(orders[0], 4))
    tori.append(product([elliptic_curve(orders[0]), elliptic_curve(orders[1])]))
    tori.append(product([elliptic_curve(orders[2]), elliptic_curve(orders[0]),
                         elliptic_curve(orders[0])]))
    # a rational complex structure whose (v, Jv) basis has a non-integral inverse
    half = make_torus([[0, Fraction(-1, 2)], [2, 0]])
    tori += [half, product([half, elliptic_curve(orders[3])])]
    return tori


CM_TORI = _cm_tori()


def _commutant(j):
    """Integer basis of the matrices commuting with J (kernel of X -> XJ - JX)."""
    from math import lcm
    from toridyn import RationalMatrix
    d = j.rows
    rows = []
    for r in range(d):
        for c in range(d):
            rows.append([(j[k, c] if p == r else 0) - (j[r, p] if k == c else 0)
                         for p in range(d) for k in range(d)])
    out = []
    for v in sympy_kernel(RationalMatrix(rows)):
        s = lcm(*(Fraction(x).denominator for x in v))
        out.append([int(x * s) for x in v])
    return out


COMMUTANTS = {}


@given(st.sampled_from(range(len(CM_TORI))), st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_analytic_charpoly_matches_eigenspace_oracle(index, seed):
    import random
    torus = CM_TORI[index]
    basis = COMMUTANTS.setdefault(index, _commutant(torus.j))
    rng = random.Random(seed)
    coeffs = [rng.randint(-3, 3) for _ in basis]
    d = torus.rank
    flat = [sum(c * v[i] for c, v in zip(coeffs, basis)) for i in range(d * d)]
    f = make_endo(torus, [flat[r * d:(r + 1) * d] for r in range(d)])
    expected = oracle_analytic_charpoly(f.m, torus.j)
    assert analytic_charpoly(f.m, torus.j) == expected
    assert eigen_data(f).analytic == expected
