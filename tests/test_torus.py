"""Complex tori, subtori, Neron-Severi spaces, ample classes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toridyn import (ComplexStructureError, DomainError, NotSubtorusError,
                     RationalMatrix, canonical_ample_class, charpoly,
                     cm_power_torus, is_ample, make_subtorus, make_torus,
                     neron_severi, ns_vector_to_form, form_to_ns_vector,
                     order_by_name)

from conftest import lattice_contains, ns_basis_reference


def test_make_torus_validates():
    with pytest.raises(ComplexStructureError):
        make_torus([[1, 0], [0, 1]])
    with pytest.raises(DomainError):
        make_torus([[0, 1, 0], [-1, 0, 0], [0, 0, 1]])  # odd size
    with pytest.raises(DomainError):
        make_torus([[0, 1, 0], [-1, 0, 0]])  # non-square


def test_make_torus_rejects_the_zero_dimensional_torus():
    with pytest.raises(DomainError, match="positive dimension"):
        make_torus([])


def test_torus_rank_and_dim(e_torus, ee_torus):
    assert (e_torus.n, e_torus.rank) == (1, 2)
    assert (ee_torus.n, ee_torus.rank) == (2, 4)


def test_nontrivial_complex_structure():
    # J in GL_2(Q) with nonzero trace-free off-diagonal mix
    t = make_torus([[1, -2], [1, -1]])
    assert t.n == 1
    assert charpoly(t.j).coeffs == (1, 0, 1)


# -- subtori

def test_make_subtorus_diagonal(ee_torus):
    sub = make_subtorus(ee_torus, [[1, 0], [0, 1], [1, 0], [0, 1]])
    assert sub.rank == 2


def test_make_subtorus_rejects_odd_rank(ee_torus):
    with pytest.raises(NotSubtorusError):
        make_subtorus(ee_torus, [[1], [0], [0], [0]])


def test_make_subtorus_rejects_non_invariant():
    # product with mixed structure: span(e1, e3) is not J-invariant
    t = make_torus([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    with pytest.raises(NotSubtorusError):
        make_subtorus(t, [[1, 0], [0, 0], [0, 1], [0, 0]])


def test_make_subtorus_saturates(ee_torus):
    sub = make_subtorus(ee_torus, [[2, 0], [0, 2], [0, 0], [0, 0]])
    assert lattice_contains(sub.lattice, (1, 0, 0, 0))


# -- Neron-Severi

def test_ns_rank_elliptic(e_torus):
    assert neron_severi(e_torus).rho == 1


def test_ns_rank_square_of_cm_curve(ee_torus):
    # E_i x E_i has Picard number 4
    assert neron_severi(ee_torus).rho == 4


def test_ns_rank_product_of_rational_structure_curves():
    # any 1-dim torus with rational J has End^0 = Q(J) = Q(i), so the two
    # factors are isogenous and the product still has Picard number 4
    t = make_torus([[0, 1, 0, 0], [-1, 0, 0, 0],
                    [0, 0, 1, -2], [0, 0, 1, -1]])
    assert neron_severi(t).rho == 4


def test_ns_vector_form_round_trip(ee_torus):
    basis = ns_basis_reference(ee_torus)
    for k in range(basis.cols):
        vec = basis.column(k)
        e = ns_vector_to_form(ee_torus, vec)
        assert e.transpose() == -e
        # invariance E(Jx, Jy) = E(x, y)
        assert ee_torus.j.transpose() * e * ee_torus.j == e
        assert form_to_ns_vector(ee_torus, e) == tuple(vec)


# the scenario orders' powers and a product of curves whose J is not the
# standard one
NS_TORI = ([cm_power_torus(order_by_name(name), n)
            for name in ("gaussian", "eisenstein", "quadratic(-2)", "quadratic(-5)")
            for n in (1, 2)]
           + [cm_power_torus(order_by_name("gaussian"), 3),
              make_torus([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 1, -2], [0, 0, 1, -1]])])


@st.composite
def ns_coordinates(draw):
    torus = draw(st.sampled_from(NS_TORI))
    rho = torus.n ** 2
    coords = draw(st.lists(st.fractions(-5, 5, max_denominator=6),
                           min_size=rho, max_size=rho))
    return torus, tuple(coords)


@given(ns_coordinates())
@settings(max_examples=80, deadline=None)
def test_ns_coordinates_are_the_invariant_forms(case):
    # every coordinate vector gives an alternating form with J^T E J = E,
    # and each unit block form reads 1 at its own slot and 0 at the others
    torus, coords = case
    ns = neron_severi(torus)
    assert ns.rho == torus.n ** 2 == len(ns.slots) == len(ns.units)
    vec = ns_basis_reference(torus).apply(coords)
    e = ns_vector_to_form(torus, vec)
    assert e.transpose() == -e
    assert torus.j.transpose() * e * torus.j == e
    assert ([[dict(unit).get(slot, 0) for slot in ns.slots] for unit in ns.units]
            == [list(row) for row in RationalMatrix.identity(ns.rho).entries])


# -- ample classes

def test_canonical_ample_class_is_ample(e_torus, ee_torus):
    for t in (e_torus, ee_torus):
        omega = canonical_ample_class(t)
        assert is_ample(t, omega)
        assert all(x == int(x) for x in omega)


def test_negative_of_ample_is_not_ample(ee_torus):
    omega = canonical_ample_class(ee_torus)
    assert not is_ample(ee_torus, tuple(-x for x in omega))


def test_is_ample_rejects_non_ns_vector(ee_torus):
    # e_0 ^ e_2 is not J-invariant: E(Je_0, Je_2) = E(e_1, e_3) = 0
    outside = (0, 1, 0, 0, 0, 0)
    with pytest.raises(DomainError):
        is_ample(ee_torus, outside)


def test_canonical_ample_nontrivial_structure():
    t = make_torus([[1, -2], [1, -1]])
    assert is_ample(t, canonical_ample_class(t))
