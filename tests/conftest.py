import random
from fractions import Fraction
from itertools import combinations

import pytest
import sympy

from toridyn import (RationalMatrix, cm_matrix_endo, cm_power_torus,
                     gaussian_order, make_endo, make_torus, neron_severi)
from toridyn.torus import _complex_basis


def frac_matrix(rows):
    return RationalMatrix([[Fraction(x) for x in row] for row in rows])


def sympy_matrix(a):
    return sympy.Matrix([[sympy.Rational(str(x)) for x in row] for row in a.entries])


def sympy_solve(a, rhs):
    """A solution X of a * X = rhs for RationalMatrix a and rhs, by sympy's
    Gauss-Jordan solve with every free parameter set to 0; raises
    ValueError when there is none."""
    x, params = sympy_matrix(a).gauss_jordan_solve(sympy_matrix(rhs))
    x = x.subs({p: 0 for p in params})
    return RationalMatrix([[Fraction(str(v)) for v in row] for row in x.tolist()])


def sympy_kernel(a):
    """Basis of the right kernel of a RationalMatrix, by sympy's nullspace:
    one vector per free column of the reduced row echelon form, 1 at that
    column and 0 at the other free ones, as tuples of Fractions."""
    return [tuple(Fraction(str(x)) for x in v) for v in sympy_matrix(a).nullspace()]


def ns_basis_reference(torus):
    """The NS basis in the slot coordinates of neron_severi(torus), built by
    sympy: with P = (e_idx, J e_idx) for idx = _complex_basis(J)[0], column
    c is the wedge vector (lexicographic e_i ^ e_j, i < j) of P^-T B_c P^-1,
    B_c the unit block form of slot c."""
    ns, size = neron_severi(torus), torus.rank
    idx = _complex_basis(torus.j)[0]
    j = sympy_matrix(torus.j)
    p_inv = sympy.Matrix.hstack(*(sympy.eye(size)[:, i] for i in idx),
                                *(j[:, i] for i in idx)).inv()
    columns = []
    for unit in ns.units:
        block = sympy.zeros(size, size)
        for (r, c), sign in unit:
            block[r, c] = sign
        form = p_inv.T * block * p_inv
        columns.append([Fraction(str(form[r, c])) for r, c in combinations(range(size), 2)])
    return RationalMatrix(columns).transpose()


def lattice_contains(lattice, vec):
    """Integer membership of vec in a sublattice, decided by sympy: the
    basis has full column rank, so vec lies in the lattice exactly when
    basis * x = vec has a solution and it is integral."""
    column = sympy.Matrix([sympy.Rational(str(v)) for v in vec])
    try:
        x, _ = sympy_matrix(lattice.basis).gauss_jordan_solve(column)
    except ValueError:  # no solution: vec is outside the rational span
        return False
    return all(c.is_integer for c in x)


J2 = [[0, -1], [1, 0]]
J4 = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]


@pytest.fixture(scope="session")
def e_torus():
    return make_torus(frac_matrix(J2))


@pytest.fixture(scope="session")
def ee_torus():
    return make_torus(frac_matrix(J4))


@pytest.fixture(scope="session")
def gaussian():
    return gaussian_order()


def diag_endo(torus, values, tau=None):
    """Diagonal integer endomorphism [a1] x ... on a product of Gaussian
    curves: each value v becomes the 2x2 block v*I."""
    entries = []
    for v in values:
        entries.extend([v, v])
    return make_endo(torus, RationalMatrix.diagonal([Fraction(v) for v in entries]), tau)


def random_integer_matrix(rng: random.Random, size: int, height: int) -> RationalMatrix:
    return frac_matrix([[rng.randint(-height, height) for _ in range(size)]
                        for _ in range(size)])


# units (a, b) = a + b*g of the orders whose generator g has finite order
ORDER_UNITS = {
    "gaussian": ((1, 0), (-1, 0), (0, 1), (0, -1)),
    "eisenstein": ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)),
}


def block_unit_endo(order, swap, scalars, units):
    """diag(scalars) * P * diag(units) on the square of the order's curve,
    with P the swap of the two factors when `swap` is true; entries are
    order elements (a, b) = a + b*g.  Such maps have a scalar power when
    the scalars agree, so their subtorus orbits are periodic and they are
    often polarized."""
    torus = cm_power_torus(order, 2)
    zero, one = (0, 0), (1, 0)

    def blocks(rows):
        return cm_matrix_endo(torus, order, rows).m

    perm = blocks([[zero, one], [one, zero]] if swap else [[one, zero], [zero, one]])
    m = (blocks([[scalars[0], zero], [zero, scalars[1]]]) * perm
         * blocks([[units[0], zero], [zero, units[1]]]))
    return make_endo(torus, m)
