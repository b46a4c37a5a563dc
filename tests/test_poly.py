from hypothesis import given, strategies as st

from parageo.poly import P_T, Poly

fractions = st.fractions(min_value=-10, max_value=10, max_denominator=8)
polys = st.lists(fractions, min_size=0, max_size=6).map(Poly)


def test_derivative_examples():
    assert (P_T**2).derivative() == Poly((0, 2))
    assert Poly.const(5).derivative().is_zero()
    assert Poly((1, 3, 0, 1)).derivative() == Poly((3, 0, 3))


@given(polys, polys)
def test_mul_degree(p, q):
    # no zero divisors: the product's length is len p + len q - 1
    if p and q:
        assert len((p * q).coeffs) == len(p.coeffs) + len(q.coeffs) - 1
    else:
        assert (p * q).is_zero()


@given(polys, polys)
def test_leibniz_rule(p, q):
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()
