import math

from hypothesis import given, strategies as st

from parageo.poly import NEG_INF, P_T, Poly

fractions = st.fractions(min_value=-10, max_value=10, max_denominator=8)
polys = st.lists(fractions, min_size=0, max_size=6).map(Poly)


def test_derivative_examples():
    assert (P_T**2).derivative() == Poly((0, 2))
    assert Poly.const(5).derivative().is_zero()
    assert Poly((1, 3, 0, 1)).derivative() == Poly((3, 0, 3))


def test_degree_marker():
    assert Poly().degree == NEG_INF
    assert Poly().degree == -math.inf
    assert Poly((0, 1)).degree == 1
    # deg(p*q) = deg p + deg q also when one factor is zero
    p = Poly((1, 2))
    assert (p * Poly()).degree == p.degree + NEG_INF


@given(polys, polys)
def test_mul_degree(p, q):
    assert (p * q).degree == p.degree + q.degree


@given(polys, polys)
def test_leibniz_rule(p, q):
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()
