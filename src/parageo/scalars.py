"""Gaussian rationals Q(i), for complex determinants.

Every algebra, polynomial and grid computation runs over the rationals
(``fractions.Fraction``); su(2,1) is realified at build time.  The one
complex computation left, in the tests' su21 group-membership check, is
the determinant of the complex matrix read back off a realified group
matrix, over this thin pair-of-Fractions class.
It interoperates with int/Fraction through the usual coercion dunders, so
``Mat.det`` runs on it unchanged.  There is no floating point anywhere in
this module.
"""

from __future__ import annotations

from fractions import Fraction

_REAL = (int, Fraction)


class GaussianRational:
    """A Gaussian rational a + b*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _REAL):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # agree with Fraction when the imaginary part vanishes
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return "GaussianRational(%r, %r)" % (str(self.re), str(self.im))

    def __str__(self):
        return scalar_str(self)


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, _REAL):
        return GaussianRational(x)
    return NotImplemented


def scalar_str(x):
    """Canonical exact string: 'p/q' for rationals, 'p/q+r/si' for Gaussian."""
    if isinstance(x, GaussianRational):
        if x.im == 0:
            return str(x.re)
        if x.re == 0:
            return "%si" % x.im
        sign = "+" if x.im > 0 else "-"
        return "%s%s%si" % (x.re, sign, abs(x.im))
    return str(Fraction(x))
