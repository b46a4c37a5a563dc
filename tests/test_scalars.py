from fractions import Fraction

from hypothesis import given, strategies as st

from parageo.scalars import GaussianRational, scalar_str

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
gaussians = st.builds(GaussianRational, fractions, fractions)


def test_basic_arithmetic():
    a = GaussianRational(1, 2)
    b = GaussianRational(Fraction(1, 2), -1)
    assert a * b == GaussianRational(Fraction(5, 2), 0)
    assert a + 1 == GaussianRational(2, 2)
    assert 2 - a == GaussianRational(1, -2)
    assert (a / b) * b == a
    assert a.conjugate() == GaussianRational(1, -2)
    assert -a == GaussianRational(-1, -2)


def test_interop_with_fraction():
    assert GaussianRational(3, 0) == Fraction(3)
    assert hash(GaussianRational(Fraction(1, 2), 0)) == hash(Fraction(1, 2))
    assert Fraction(1, 2) * GaussianRational(0, 2) == GaussianRational(0, 1)
    assert GaussianRational(1, 1) != Fraction(1)


@given(gaussians, gaussians)
def test_exactness(a, b):
    assert (a + b) - b == a


@given(gaussians, gaussians, gaussians)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a


@given(gaussians)
def test_inverse_of_nonzero(a):
    if a:
        assert a * (1 / a) == 1


def test_scalar_str():
    assert scalar_str(Fraction(-3, 7)) == "-3/7"
    assert scalar_str(GaussianRational(1, 2)) == "1+2i"
    assert scalar_str(GaussianRational(Fraction(1, 2), Fraction(-1, 3))) == "1/2-1/3i"
    assert scalar_str(GaussianRational(0, -1)) == "-1i"
    assert scalar_str(GaussianRational(5, 0)) == "5"

