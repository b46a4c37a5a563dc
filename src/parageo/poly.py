"""Dense univariate polynomials and rational functions over the rationals.

Coefficients are Fraction (or plain int, which the arithmetic coerces on
contact).  The zero polynomial has degree ``NEG_INF``, a distinguished
minus-infinity marker, so degree arithmetic like deg(p*q) = deg p + deg q
stays literally true.
"""

from __future__ import annotations

import math
from fractions import Fraction

NEG_INF = -math.inf

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

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

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

    def nth_derivative(self, n):
        p = self
        for _ in range(n):
            p = p.derivative()
        return p

    def eval(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def truncate(self, order):
        """Drop all terms of degree > order (series arithmetic helper)."""
        return Poly(self.coeffs[: order + 1])

    def shift(self, n):
        """Multiply by t**n."""
        if not self.coeffs:
            return self
        return Poly((Fraction(0),) * n + self.coeffs)

    def monic(self):
        if not self.coeffs:
            return self
        lead = self.leading()
        return Poly(tuple(c / lead for c in self.coeffs))

    def divmod(self, other):
        """Exact polynomial division with remainder over the field."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = len(other.coeffs) - 1
        lead = other.coeffs[-1]
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if not c:
                continue
            q = c / lead
            quo[i - d] = q
            for j, oc in enumerate(other.coeffs):
                rem[i - d + j] = rem[i - d + j] - q * oc
        return Poly(quo), Poly(rem)

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


P_ZERO = Poly()
P_ONE = Poly.const(Fraction(1))
P_T = Poly.t()


def poly_derivative(p):
    """Formal derivative; degree drops by exactly one for nonconstant p."""
    return p.derivative()


def poly_gcd(a, b):
    """Monic gcd over the coefficient field (Euclid)."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic() if not a.is_zero() else a


def poly_series_inverse(p, order):
    """Coefficients of 1/p modulo t**(order+1); requires p(0) != 0."""
    c0 = p[0]
    if not c0:
        raise ZeroDivisionError("series inverse of a polynomial vanishing at 0")
    inv = [1 / (Fraction(1) * c0)]
    for n in range(1, order + 1):
        s = 0
        for j in range(1, n + 1):
            cj = p[j]
            if cj:
                s = s + cj * inv[n - j]
        inv.append(-s * inv[0])
    return Poly(inv)


class RatFun:
    """Rational function num/den, canonical: gcd(num,den)=1 and den monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=P_ONE):
        num = num if isinstance(num, Poly) else _as_poly(num)
        den = den if isinstance(den, Poly) else _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = P_ZERO, P_ONE
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
            lead = den.leading()
            if lead != 1:
                num = Poly(tuple(c / lead for c in num.coeffs))
                den = den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFun is immutable")

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def is_poly(self):
        return self.den == P_ONE

    def __add__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RatFun(-self.num, self.den)

    def __mul__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if n < 0:
            return RatFun(self.den, self.num) ** (-n)
        return RatFun(self.num**n, self.den**n)

    def __eq__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def derivative(self):
        return RatFun(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def nth_derivative(self, n):
        r = self
        for _ in range(n):
            r = r.derivative()
        return r

    def eval(self, x):
        d = self.den.eval(x)
        if not d:
            raise ZeroDivisionError("evaluation at a pole")
        return self.num.eval(x) / d

    def compose_poly(self, p):
        """Substitute a polynomial p(t) for the variable."""
        num = _poly_subst(self.num, p)
        den = _poly_subst(self.den, p)
        return RatFun(num, den)

    def taylor(self, order):
        """Taylor expansion at 0 up to degree ``order``; pole at 0 rejected."""
        inv = poly_series_inverse(self.den, order)
        return (self.num.truncate(order) * inv).truncate(order)

    def __str__(self):
        if self.is_poly():
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)

    __repr__ = __str__


def _as_ratfun(x):
    if isinstance(x, RatFun):
        return x
    if isinstance(x, Poly):
        return RatFun(x, P_ONE)
    if isinstance(x, _SCALARS):
        return RatFun(Poly((x,)), P_ONE)
    return NotImplemented


def _poly_subst(p, q):
    acc = Poly()
    for c in reversed(p.coeffs):
        acc = acc * q + Poly.const(c)
    return acc
