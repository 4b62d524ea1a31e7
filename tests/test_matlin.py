"""Exact linear algebra: matrices, charpoly, exterior powers, Smith
normal form, sublattices."""

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toridyn import (DomainError, IntPolynomial, InvarianceViolation,
                     InvariantViolation, RationalMatrix, Sublattice, charpoly,
                     exterior_power, restrict_and_quotient, saturate, smith_form)
from toridyn import matlin
from toridyn.matlin import bareiss, trace_powers

from conftest import frac_matrix, lattice_contains, random_integer_matrix, sympy_matrix


small_mats = st.integers(0, 10**6)


def _mat(seed, size=3, height=6):
    return random_integer_matrix(random.Random(seed), size, height)


# -- basics

def test_matrix_shape_and_immutability():
    a = frac_matrix([[1, 2], [3, 4]])
    assert (a.rows, a.cols) == (2, 2)
    with pytest.raises(TypeError):
        a.entries[0][0] = 5  # entries stored as tuples


def test_matrix_product_shape_mismatch():
    with pytest.raises(DomainError):
        frac_matrix([[1, 2]]) * frac_matrix([[1, 2]])


@given(small_mats, small_mats)
@settings(max_examples=30, deadline=None)
def test_arithmetic_matches_sympy(s1, s2):
    a, b = _mat(s1), _mat(s2)
    assert sympy_matrix(a * b) == sympy_matrix(a) * sympy_matrix(b)
    assert sympy_matrix(a + b) == sympy_matrix(a) + sympy_matrix(b)
    assert sympy_matrix(a.transpose()) == sympy_matrix(a).T


@given(small_mats)
@settings(max_examples=30, deadline=None)
def test_det_and_rank_match_sympy(seed):
    a = _mat(seed)
    sm = sympy_matrix(a)
    assert a.det() == sympy.Rational(sm.det())
    assert len(bareiss(a.scaled_rows()[1])[0]) == sm.rank()  # pivots count the rank


def test_inverse_and_solve():
    a = frac_matrix([[2, 1], [1, 1]])
    assert a * a.inverse() == RationalMatrix.identity(2)
    with pytest.raises(DomainError):
        frac_matrix([[1, 1], [1, 1]]).inverse()


# -- charpoly

@given(small_mats)
@settings(max_examples=25, deadline=None)
def test_charpoly_matches_sympy(seed):
    a = _mat(seed)
    p = charpoly(a)
    coeffs = [int(c) for c in reversed(sympy_matrix(a).charpoly().all_coeffs())]
    assert p == IntPolynomial(coeffs)


def test_charpoly_rational_matrix_raises_on_non_square():
    with pytest.raises(DomainError):
        charpoly(frac_matrix([[1, 2]]))


def power_traces_by_sympy(a, b):
    """tr(X^m) for m = 0..n, X = A + iB, from every power of the real form
    [[A, -B], [B, A]], whose m-th power is [[Re X^m, -Im X^m], [Im X^m, Re X^m]]."""
    n = len(a)
    b = b or [[0] * n for _ in range(n)]
    real = sympy.Matrix([ra + [-x for x in rb] for ra, rb in zip(a, b)]
                        + [rb + ra for ra, rb in zip(a, b)])
    power, traces = sympy.eye(2 * n), []
    for _ in range(n + 1):
        traces.append((sum(power[i, i] for i in range(n)),
                       sum(power[n + i, i] for i in range(n))))
        power *= real
    return traces


@st.composite
def trace_cases(draw):
    """(A, B, s, seed): an integer matrix of size 1..8 with B None and s 1,
    or a Gaussian block (A + iB) = s D Y D^-1, Y Gaussian-integral and D
    diagonal with entries 1 or s, so that every tr(X^m) is divisible by s^m
    though not every entry of A + iB is."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    y = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    if not draw(st.booleans()):
        return y, None, 1, seed
    s = rng.randint(2, 4)
    z = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    e = [rng.randint(0, 1) for _ in range(n)]
    scale = [[s ** (1 + e[i] - e[j]) for j in range(n)] for i in range(n)]
    return ([[c * x for c, x in zip(cs, row)] for cs, row in zip(scale, y)],
            [[c * x for c, x in zip(cs, row)] for cs, row in zip(scale, z)], s, seed)


@given(trace_cases())
@settings(max_examples=150, deadline=None)
def test_trace_powers_match_the_trace_of_every_power(case):
    # traces past ceil(n/2) are sums of entry products of two built powers;
    # each must equal the trace of the power formed in full
    a, b, s, seed = case
    traces = power_traces_by_sympy(a, b)
    assert all(re % s**m == 0 and im % s**m == 0 for m, (re, im) in enumerate(traces)), seed
    expected = [(re // s**m, im // s**m) for m, (re, im) in enumerate(traces)]
    assert trace_powers(a, b, s) == expected, seed


@pytest.mark.parametrize("a, b", [
    # traces 4, 4, 4: tr(X^3) = 4 is the first not divisible by 2^3
    pytest.param([[2, 0, 1], [-2, 2, -2], [-2, 0, 0]], None, id="integer"),
    # traces 3, 0, 16 + 28i, 33i: only the imaginary part of tr(X^3) fails
    pytest.param([[2, -2, 2], [-1, 0, -2], [2, 0, -2]],
                 [[1, 0, 1], [-2, -1, 0], [1, -2, 0]], id="gaussian"),
])
def test_trace_powers_raise_when_a_trace_is_not_divisible(a, b):
    traces = power_traces_by_sympy(a, b)
    assert all(re % 2**m == 0 and im % 2**m == 0 for m, (re, im) in enumerate(traces[:3]))
    assert traces[3][0] % 8 or traces[3][1] % 8
    assert trace_powers(a, b) == traces
    with pytest.raises(InvariantViolation):
        trace_powers(a, b, 2)


@pytest.mark.parametrize("n", range(1, 9))
def test_trace_powers_builds_half_the_powers(n, monkeypatch):
    # X^1 .. X^ceil(n/2) take ceil(n/2) - 1 products; no other is formed
    calls, matmul = [], matlin.matmul

    def counted(x, y):
        calls.append(len(x))
        return matmul(x, y)

    monkeypatch.setattr(matlin, "matmul", counted)
    a = [[(3 * i + 5 * j) % 7 - 3 for j in range(n)] for i in range(n)]
    assert trace_powers(a) == power_traces_by_sympy(a, None)
    assert len(calls) == (n + 1) // 2 - 1


# -- exterior powers

def test_exterior_power_determinant_relation():
    a = _mat(7, size=3)
    top = exterior_power(a, 3)
    assert top.rows == 1 and top[0, 0] == a.det()


def test_exterior_power_functorial():
    a, b = _mat(1, size=3, height=3), _mat(2, size=3, height=3)
    assert exterior_power(a * b, 2) == exterior_power(a, 2) * exterior_power(b, 2)


def test_exterior_power_trace_sum_is_char_value():
    # sum_k (-1)^k tr(Lambda^k A) = det(I - A)
    a = _mat(11, size=4, height=4)
    total = 1 + sum((-1) ** k * exterior_power(a, k).trace() for k in range(1, 5))
    assert total == (RationalMatrix.identity(4) - a).det()


# -- Smith normal form

@given(small_mats)
@settings(max_examples=30, deadline=None)
def test_smith_form_decomposition(seed):
    a = _mat(seed)
    dec = smith_form(a)
    assert dec.u * a * dec.v == dec.d
    assert abs(dec.u.det()) == 1 and abs(dec.v.det()) == 1
    factors = [abs(x) for x in dec.invariant_factors if x != 0]
    assert all(factors[i + 1] % factors[i] == 0 for i in range(len(factors) - 1))


def test_smith_invariant_factors_known():
    a = frac_matrix([[2, 0], [0, 4]])
    assert smith_form(a).invariant_factors == [2, 4]
    b = frac_matrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert smith_form(b).invariant_factors == [2, 2, 156]


# -- saturation and sublattices

def test_saturate_primitive_hull():
    cols = frac_matrix([[2, 0], [0, 3], [0, 0]])
    lat = saturate(cols)
    assert lat.rank == 2
    assert lat.spans_vector((Fraction(1), Fraction(0), Fraction(0)))
    assert lattice_contains(lat, (Fraction(1), Fraction(0), Fraction(0)))
    assert not lat.spans_vector((Fraction(0), Fraction(0), Fraction(1)))


def test_saturate_of_multiplied_basis_is_same_lattice():
    rng = random.Random(3)
    base = frac_matrix([[1, 0], [2, 1], [0, 3]])
    doubled = base * 6
    a, b = saturate(base), saturate(doubled)
    for j in range(2):
        assert lattice_contains(a, b.basis.column(j))
        assert lattice_contains(b, a.basis.column(j))


def test_completion_basis_unimodular():
    lat = saturate(frac_matrix([[1], [2], [3]]))
    full = lat.completion
    assert abs(full.det()) == 1
    # first column of the completion spans the same rank-1 lattice
    assert lattice_contains(lat, full.column(0))


def test_sublattice_checks_its_smith_coordinates():
    lat = saturate(frac_matrix([[1, 0], [2, 1], [0, 3]]))
    assert Sublattice(3, lat.basis, lat.coordinates, lat.completion) == lat
    with pytest.raises(DomainError, match="not primitive"):  # not the completion's start
        Sublattice(3, lat.basis * 2, lat.coordinates, lat.completion)
    with pytest.raises(DomainError, match="not primitive"):  # no inverse of the completion
        Sublattice(3, lat.basis, lat.coordinates * 2, lat.completion)
    with pytest.raises(DomainError, match="integral"):
        Sublattice(3, lat.basis, lat.coordinates * Fraction(1, 2), lat.completion)


@st.composite
def span_cases(draw):
    """A full-column-rank integer d x r matrix S (d <= 6) and an integer or
    rational vector v, drawn from the rational span of S half the time."""
    d = draw(st.integers(1, 6))
    r = draw(st.integers(1, d))
    cols = draw(st.lists(st.lists(st.integers(-6, 6), min_size=d, max_size=d),
                         min_size=r, max_size=r))
    s = RationalMatrix.from_columns(cols)
    assume(sympy_matrix(s).rank() == r)
    entry = st.fractions(-4, 4, max_denominator=5) if draw(st.booleans()) else st.integers(-6, 6)
    if draw(st.booleans()):
        coeffs = [draw(entry) for _ in range(r)]
        v = tuple(sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(d))
    else:
        v = tuple(draw(entry) for _ in range(d))
    return s, v


@given(span_cases())
@settings(max_examples=80, deadline=None)
def test_spans_vector_matches_sympy_rank(case):
    s, v = case
    lat = saturate(s)
    assert lat.coordinates * lat.completion == RationalMatrix.identity(s.rows)
    sm = sympy_matrix(s)
    in_span = sm.row_join(sympy.Matrix([sympy.Rational(str(x)) for x in v])).rank() == sm.rank()
    assert lat.spans_vector(v) == in_span


# -- restrict and quotient

def test_restrict_and_quotient_block_structure():
    a = frac_matrix([[2, 1, 0], [0, 3, 0], [0, 5, 4]])
    w = saturate(frac_matrix([[1], [0], [0]]))
    a_w, a_q, basis = restrict_and_quotient(a, w)
    assert a_w.entries == ((Fraction(2),),)
    assert charpoly(a_w) * charpoly(a_q) == charpoly(a)
    assert abs(basis.det()) == 1


def test_restrict_non_invariant_raises_with_witness():
    a = frac_matrix([[0, 1], [1, 0]])
    w = saturate(frac_matrix([[1], [0]]))
    with pytest.raises(InvarianceViolation) as err:
        restrict_and_quotient(a, w)
    assert err.value.witness is not None
    assert str(err.value) == "A * basis column 0 leaves the rational span of W"
    assert err.value.witness == (1, 0)


def test_restrict_names_the_first_basis_column_moved_out():
    # A fixes e1 and swaps e2 with e3, so only the second column leaves
    a = frac_matrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    w = saturate(frac_matrix([[1, 0], [0, 1], [0, 0]]))
    with pytest.raises(InvarianceViolation) as err:
        restrict_and_quotient(a, w)
    assert str(err.value) == "A * basis column 1 leaves the rational span of W"
    assert err.value.witness == w.basis.column(1) == (0, 1, 0)


# -- the integer-first core against sympy (integral and rational, <= 8 x 8)

@st.composite
def exact_matrices(draw, square=False, rational=None):
    """Small integral or rational matrices, often rank deficient."""
    rows = draw(st.integers(1, 8))
    cols = rows if square else draw(st.integers(1, 8))
    if rational is None:
        rational = draw(st.booleans())
    entry = (st.fractions(min_value=-9, max_value=9, max_denominator=6) if rational
             else st.integers(-9, 9))
    mat = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        # make the last row a combination of the others
        coeffs = [draw(st.integers(-3, 3)) for _ in range(rows - 1)]
        mat[-1] = [sum(c * mat[i][j] for i, c in enumerate(coeffs)) for j in range(cols)]
    return RationalMatrix(mat)


def _exact(x):
    return Fraction(int(x.p), int(x.q))


def _assert_integer_first(values):
    """Exact entries only, and integral values stored as int."""
    for x in values:
        assert type(x) in (int, Fraction)
        assert type(x) is int or x.denominator != 1


@given(exact_matrices(square=True))
@settings(max_examples=60, deadline=None)
def test_det_inverse_charpoly_match_sympy(a):
    sm = sympy_matrix(a)
    det = a.det()
    _assert_integer_first([det])
    assert det == _exact(sm.det())
    if det == 0:
        with pytest.raises(DomainError):
            a.inverse()
    else:
        inv = a.inverse()
        assert sympy_matrix(inv) == sm.inv()
        _assert_integer_first(x for row in inv.entries for x in row)
    if a.is_integral():
        expected = [_exact(c) for c in reversed(sm.charpoly().all_coeffs())]
        assert charpoly(a) == IntPolynomial(expected)
    else:
        with pytest.raises(DomainError, match="not integral"):
            charpoly(a)


@given(exact_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_kernel_match_sympy(a):
    """The rank is the number of Bareiss pivots, and the columns of the
    Smith V of D*A at its zero invariant factors (and past its last one)
    are a primitive basis of the integer kernel."""
    sm = sympy_matrix(a)
    rank = sm.rank()
    _, rows = a.scaled_rows()
    assert len(bareiss([list(row) for row in rows])[0]) == rank
    dec = smith_form(rows)
    factors = dec.invariant_factors + [0] * (a.cols - len(dec.invariant_factors))
    kernel = [dec.v.column(i) for i, d in enumerate(factors) if d == 0]
    assert len(kernel) == a.cols - rank
    for v in kernel:
        assert all(type(x) is int for x in v) and gcd(*v) == 1
        assert a.apply(v) == (0,) * a.rows
    assert abs(dec.v.det()) == 1  # so the kernel columns are independent


@given(exact_matrices(square=True), exact_matrices(square=True), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_no_operation_yields_a_float(a, b, k):
    """Integer-first storage: every entry is an int or a non-integral
    Fraction, so no true division on entries can silently give a float."""
    results = [a, -a, a.transpose(), a * 3, a * Fraction(1, 3), a ** k,
               exterior_power(a, min(2, a.rows))]
    if a.rows == b.rows:
        results += [a + b, a - b, a * b]
    if a.det() != 0:
        results.append(a.inverse())
    for m in results:
        _assert_integer_first(x for row in m.entries for x in row)
    _assert_integer_first([a.det(), a.trace()] + list(a.apply([1] * a.cols)))


def test_positive_definite_test_is_exact():
    from toridyn.torus import _is_positive_definite
    big = 10**20
    # [[1, N], [N, N^2 + 1]] = V^T V with det 1; in floats N^2 + 1 - N * N is 0
    assert _is_positive_definite([[1, big], [big, big * big + 1]])
    assert not _is_positive_definite([[1, big], [big, big * big - 1]])
    assert _is_positive_definite(frac_matrix([[Fraction(1, 3), Fraction(big, 3)],
                                              [Fraction(big, 3), Fraction(big * big + 1, 3)]]))
    assert not _is_positive_definite([[0, 0], [0, 1]])
    assert not _is_positive_definite([[2, 3], [3, 2]])
    assert _is_positive_definite(RationalMatrix.identity(8) * 2)


@st.composite
def symmetric_rationals(draw):
    """A symmetric rational matrix of size 1-6: either a Gram matrix
    A^T A + cI (positive definite for c > 0, possibly singular for c = 0)
    or a free symmetric draw, whose leading minors are often 0 or
    negative."""
    n = draw(st.integers(1, 6))
    entry = st.fractions(-4, 4, max_denominator=3)
    if draw(st.booleans()):
        a = [[draw(entry) for _ in range(n)] for _ in range(n)]
        c = draw(st.sampled_from([0, Fraction(1, 2), 1]))
        return [[sum(a[k][i] * a[k][j] for k in range(n)) + c * (i == j)
                 for j in range(n)] for i in range(n)]
    upper = {(i, j): draw(entry) for i in range(n) for j in range(i, n)}
    return [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]


@given(symmetric_rationals())
@example([[-1]])                              # negative first minor
@example([[1, 2], [2, 1]])                    # negative second minor
@example([[0, 1], [1, 0]])                    # zero first minor: a row swap
@example([[0, 0], [0, 0]])                    # zero column: no pivot
@example([[1, 1, 0], [1, 1, 0], [0, 0, 1]])   # zero second minor, skipped column
@example([[2, 1, 0], [1, 2, 1], [0, 1, 2]])   # positive definite
@settings(max_examples=60, deadline=None)
def test_positive_definite_test_matches_sympy(rows):
    from toridyn.torus import _is_positive_definite
    s = frac_matrix(rows)
    assert _is_positive_definite(s) == sympy_matrix(s).is_positive_definite
