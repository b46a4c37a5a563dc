import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from parageo.algebra import exp_nilpotent
from parageo.matrices import Mat, rref
from parageo.poly import P_T, Poly
from parageo.scalars import GaussianRational
from paper_checks import solve_linear
from poly_reference import cofactor_inverse, exp_mat, to_mat

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=6)
gaussians = st.builds(GaussianRational, fractions, fractions)


def frac_mat(n, entries=fractions):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n).map(Mat)


def leibniz_det(m):
    n = m.dim
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= m.rows[i][perm[i]]
        total += sign * prod
    return total


@settings(max_examples=60)
@given(frac_mat(4))
def test_det_against_permanent_oracle(m):
    assert m.det() == leibniz_det(m)


@settings(max_examples=40)
@given(st.one_of(frac_mat(3), frac_mat(3, gaussians)))
def test_inverse_identity(m):
    # a third row equal to the sum of the first two makes any matrix singular
    r0, r1, _ = m.rows
    with pytest.raises(ZeroDivisionError):
        Mat((r0, r1, tuple(a + b for a, b in zip(r0, r1)))).inverse()
    if not m.det():
        with pytest.raises(ZeroDivisionError):
            m.inverse()
        return
    inv = m.inverse()
    assert m * inv == Mat.identity(3) and inv * m == Mat.identity(3)
    assert inv == cofactor_inverse(m)


def test_exp_inverse_is_exp_minus(any_algebra):
    # I + t E21 = exp(t E21) has inverse I - t E21
    e21 = Mat([[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]])
    one, zero = Poly((1,)), Poly()
    assert exp_mat(e21, P_T) == Mat([[one, zero], [P_T, one]])
    assert exp_mat(e21, -P_T) == Mat([[one, zero], [-P_T, one]])
    assert exp_mat(e21, P_T) * exp_mat(e21, -P_T) == Mat([[one, zero], [zero, one]])
    # any catalog exp(tX) has det 1 and inverse exp(-tX)
    alg = any_algebra
    ident = Mat.identity(alg.matrix_dim)
    for grade in range(-alg.k, 0):
        for x in alg.grade_basis(grade)[:2]:
            m = to_mat(exp_nilpotent(x, P_T))
            det = m.det()
            assert det == 1 or det == Poly.const(Fraction(1))
            assert m * to_mat(exp_nilpotent(x, -P_T)) == ident


def test_solve_linear():
    a = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]]
    assert solve_linear(a, [Fraction(4), Fraction(6)]) == (Fraction(2), Fraction(2))
    # inconsistent system
    assert solve_linear([[Fraction(1)], [Fraction(1)]], [Fraction(0), Fraction(1)]) is None


def test_rref_pivots():
    red, piv = rref([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
    assert piv == [0, 1]
    assert red[0][0] == 1 and red[1][1] == 1
