"""Dense univariate polynomials over the rationals.

Coefficients are Fraction (or plain int, which the arithmetic coerces on
contact).  Trailing zero coefficients are dropped, so the zero polynomial
has no coefficients.

There is no rational-function type: the one check that needs a rational
function, a Moebius reparametrization phi = N/D, clears the power of D
and becomes a polynomial identity (see ``reparam``).
"""

from __future__ import annotations

from fractions import Fraction

_SCALARS = (int, Fraction)


def _strip(coeffs):
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


class Poly:
    """Polynomial in the formal curve parameter t, exact coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _strip(tuple(coeffs)))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def const(cls, c):
        return cls((c,))

    @classmethod
    def t(cls):
        return cls((0, 1))

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.const(Fraction(1))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- calculus -----------------------------------------------------------

    def derivative(self):
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs))[1:])

    def truncate(self, order):
        """Drop all terms of degree > order (series arithmetic helper)."""
        return Poly(self.coeffs[: order + 1])

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("%s*t" % c)
            else:
                parts.append("%s*t^%d" % (c, i))
        return " + ".join(parts)

    __repr__ = __str__


def _as_poly(x):
    if isinstance(x, Poly):
        return x
    if isinstance(x, _SCALARS):
        return Poly((x,))
    return NotImplemented


P_ONE = Poly.const(Fraction(1))
P_T = Poly.t()
