"""CM orders, scenario builders, named examples, seeded sampling."""

import pytest

from toridyn import DomainError, RationalMatrix, make_endo
from toridyn.scenarios import (CMOrder, cm_matrix_endo, cm_power_torus,
                               eisenstein_order, elliptic_curve, gaussian_order,
                               get_example, order_by_name, named_examples,
                               product, quadratic_order, random_endo)


# -- orders

def test_gaussian_order_axioms():
    g = gaussian_order()
    assert g.rank == 2
    assert g.generator * g.generator == -RationalMatrix.identity(2)


def test_eisenstein_order_axioms():
    o = eisenstein_order()
    assert o.rank == 4
    w = o.generator
    # omega^2 + omega + 1 = 0
    assert w * w + w + RationalMatrix.identity(4) == RationalMatrix.zero(4, 4)
    assert w * o.j_block == o.j_block * w


def test_quadratic_order_square_discriminant_is_rank_2():
    o = quadratic_order(4)  # sqrt(-4) = 2i
    assert o.rank == 2
    assert o.generator * o.generator == -4 * RationalMatrix.identity(2)


def test_quadratic_order_nonsquare_is_rank_4():
    o = quadratic_order(2)
    assert o.rank == 4
    assert o.generator * o.generator == -2 * RationalMatrix.identity(4)
    assert o.generator * o.j_block == o.j_block * o.generator


def test_order_by_name_round_trip():
    for name in ("gaussian", "eisenstein", "quadratic(-2)", "quadratic(-4)"):
        assert order_by_name(name).tag == name
    with pytest.raises(DomainError):
        order_by_name("cubic")


def test_order_post_init_validates():
    g = gaussian_order()
    with pytest.raises(DomainError):
        CMOrder("bad", g.generator, g.j_block, (1, 1, 1))  # wrong minpoly


def _order_element(o, a, b):
    """The integral matrix of a + b*g, realified by cm_matrix_endo from a
    1 x 1 matrix over the order."""
    return cm_matrix_endo(cm_power_torus(o, 1), o, [[(a, b)]]).m


def test_cm_matrix_endo_is_ring_homomorphism():
    for o in (gaussian_order(), eisenstein_order(), quadratic_order(3)):
        a1, b1, a2, b2 = 2, -1, 3, 2
        lhs = _order_element(o, a1, b1) * _order_element(o, a2, b2)
        # (a1 + b1 g)(a2 + b2 g) with g^2 = -c - s g from the minimal poly
        c, s = o.minimal_poly[0], o.minimal_poly[1]
        prod_a = a1 * a2 - b1 * b2 * c
        prod_b = a1 * b2 + a2 * b1 - b1 * b2 * s
        assert lhs == _order_element(o, prod_a, prod_b)


def test_cm_matrix_endo_rejects_non_integers():
    with pytest.raises(DomainError, match="integer coordinates"):
        _order_element(gaussian_order(), 1, 0.5)


# -- tori

def test_elliptic_curve_dimensions():
    assert elliptic_curve(gaussian_order()).n == 1
    assert elliptic_curve(eisenstein_order()).n == 2
    assert elliptic_curve(quadratic_order(5)).n == 2


def test_product_and_power():
    g = gaussian_order()
    e = elliptic_curve(g)
    assert product([e, e]).n == 2
    assert cm_power_torus(g, 3).rank == 6
    with pytest.raises(DomainError):
        product([])


def test_cm_matrix_endo_block_structure(ee_torus):
    f = cm_matrix_endo(ee_torus, gaussian_order(), [[(2, 0), (0, 0)], [(0, 0), (0, 1)]])
    # second block is multiplication by i = j_block
    assert f.m[2, 2] == 0 and f.m[2, 3] == -1 and f.m[3, 2] == 1


def test_cm_matrix_endo_size_mismatch(e_torus):
    with pytest.raises(DomainError):
        cm_matrix_endo(e_torus, gaussian_order(), [[(1, 0), (0, 0)], [(0, 0), (1, 0)]])


# -- named examples

def test_named_examples_complete():
    names = set(named_examples())
    assert {"mult_2_1", "mult_2_3", "gtz_diag", "shear",
            "salem_surface", "mult_by_i", "e4_auto"} <= names


def test_get_example_deterministic():
    a = get_example("gtz_diag").endo
    b = get_example("gtz_diag").endo
    assert a.m == b.m and a.torus.j == b.torus.j


def test_get_example_unknown():
    with pytest.raises(DomainError) as err:
        get_example("nope")
    assert "known:" in str(err.value)


def test_get_example_builds_only_the_requested_example(monkeypatch):
    import toridyn.scenarios as scenarios
    built = []
    original = scenarios.cm_matrix_endo

    def spy(torus, order, b, tau=None):
        built.append(torus.n)
        return original(torus, order, b, tau)

    monkeypatch.setattr(scenarios, "cm_matrix_endo", spy)
    assert get_example("gtz_diag").endo.torus.n == 2
    assert built == [2]  # in particular the n = 4 e4_auto is not built
    with pytest.raises(DomainError) as err:
        get_example("e5_auto")
    assert all(name in str(err.value) for name in named_examples())


def test_get_example_reuses_the_cached_gaussian_order(monkeypatch):
    import toridyn.scenarios as scenarios
    get_example("mult_2_1")

    def rebuilt():
        raise AssertionError("the Gaussian order was built again")

    monkeypatch.setattr(scenarios, "gaussian_order", rebuilt)
    for name in named_examples():
        assert get_example(name).endo.torus.rank > 0


def test_e4_auto_is_automorphism():
    f = get_example("e4_auto").endo
    assert abs(f.degree_matrix_det) == 1
    assert f.torus.n == 4


# -- random sampling

def test_random_endo_deterministic():
    g = gaussian_order()
    a = random_endo(2, g, 3, seed=42)
    b = random_endo(2, g, 3, seed=42)
    assert a.m == b.m


def test_random_endo_shares_one_torus_per_order_and_power():
    g = gaussian_order()
    tori = {id(random_endo(2, g, 3, seed=s).torus) for s in range(8)}
    assert len(tori) == 1
    assert cm_power_torus(g, 2) is cm_power_torus(gaussian_order(), 2)
    assert cm_power_torus(g, 3) is not cm_power_torus(g, 2)


def test_random_endo_seed_sensitivity():
    g = gaussian_order()
    ms = {random_endo(2, g, 3, seed=s).m for s in range(8)}
    assert len(ms) > 1


def test_random_endo_is_surjective_and_holomorphic():
    for order in (gaussian_order(), eisenstein_order()):
        for s in range(5):
            f = random_endo(1, order, 2, seed=s)
            assert f.surjective
            assert f.m * f.torus.j == f.torus.j * f.m


def test_random_endo_validates_arguments():
    g = gaussian_order()
    with pytest.raises(DomainError):
        random_endo(0, g, 3, seed=1)
    with pytest.raises(DomainError):
        random_endo(2, g, 0, seed=1)
