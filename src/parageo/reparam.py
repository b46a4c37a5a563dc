"""Projective (Moebius) reparametrizations of distinguished curves.

A fractional-linear map phi(t) = (At+B)/(Ct+D) is stored projectively with
exact coefficients and AD - BC != 0; scaling all four entries by a nonzero
rational gives the same map, and exact scaling to determinant 1 is not
possible over Q (it needs a square root), so composition and equality are
projective.  With phi(0) = 0, phi'(0) = a != 0 and phi''(0) = b the map is
phi(t) = a t (1 - (b/2a) t)^{-1}; its higher derivatives at 0 follow the
recursion phi^(i+1)(0) = (i+1)!/2^i * b^i / a^(i-1).

Whether two distinguished curves agree up to such a reparametrization is
decided exactly from iterated brackets (the seeds a, b are proportionality
factors against the direction), and every positive answer is verifiable
as an exact matrix identity.  Writing phi = N/D with
N = At+B and D = Ct+D, the factor q! D^q (q the last nonzero power of the
direction) clears every denominator of exp(phi X), so the identity is one
of integer matrix polynomials: the series ``_fastgrid.exp_series`` with a
polynomial denominator, decided by ``_fastgrid.product_in_p_pattern``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from ._fastgrid import exp_series, nilpotent_powers, product_in_p_pattern
from .algebra import bracket, group_exp, normal_form_P
from .errors import (
    NotApplicableGrading,
    PoleAtOrigin,
    ZeroVelocity,
)
from .poly import P_ONE, P_T, Poly

_F0 = Fraction(0)


@dataclass(frozen=True, slots=True)
class MobiusMap:
    """phi(t) = (At+B)/(Ct+D) with exact coefficients, AD-BC != 0.

    Stored projectively normalized, so equal maps have equal (a, b, c, d).
    """

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        a, b, c, d = Fraction(self.a), Fraction(self.b), Fraction(self.c), Fraction(self.d)
        det = a * d - b * c
        if not det:
            raise ValueError("Moebius map needs AD - BC != 0")
        # canonical projective scaling: last nonzero of (D, C) becomes 1
        scale = d if d else c
        object.__setattr__(self, "a", a / scale)
        object.__setattr__(self, "b", b / scale)
        object.__setattr__(self, "c", c / scale)
        object.__setattr__(self, "d", d / scale)

    @classmethod
    def from_seeds(cls, value0, velocity, acceleration):
        """Map with phi(0)=value0, phi'(0)=velocity, phi''(0)=acceleration."""
        a = Fraction(velocity)
        if not a:
            raise ZeroVelocity("phi'(0) must be nonzero")
        b = Fraction(acceleration)
        v0 = Fraction(value0)
        c = -b / (2 * a)
        return cls(a + c * v0, v0, c, 1)

    @property
    def det(self):
        return self.a * self.d - self.b * self.c

    def seeds(self):
        """(phi(0), phi'(0), phi''(0)); needs no pole at the origin."""
        if not self.d:
            raise PoleAtOrigin("map has a pole at t = 0")
        det = self.det
        return (
            self.b / self.d,
            det / (self.d * self.d),
            -2 * self.c * det / (self.d**3),
        )

    def __repr__(self):
        return "MobiusMap((%s t + %s)/(%s t + %s))" % (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class ReparamVerdict:
    exists: bool
    map: MobiusMap | None = None
    failure_reason: str | None = None


def _proportionality(x_ref, x):
    """Scalar a with x = a * x_ref, or None."""
    ratio = None
    for cr, cx in zip(x_ref.coords, x.coords):
        if cr:
            ratio = cx / cr
            break
        if cx:
            return None
    if ratio is None:
        return None
    if x_ref * ratio == x:
        return ratio
    return None


def reparam_solve(algebra, x1, z, x2):
    """Decide when c^{e,X1} and c^{exp Z,X2} trace the same geodesic.

    |1|-graded case: X1, X2 in g_-1 and Z in g_1; the verdict exists iff
    X2 = a X1 (a != 0) and [X2,[X2,Z]] = b X1, and then the projective map
    with seeds (0, a, b) does the job.  For the lowest-grade class in a
    deeper grading (X1, X2 in g_-k), the grade components Z_1..Z_{k-1}
    must first satisfy the cascade [Z_l, X2] = 0, after which the same
    two conditions run on the g_k component.
    """
    if x1.algebra is not algebra or x2.algebra is not algebra or z.algebra is not algebra:
        raise NotApplicableGrading("operands must live in the given algebra")
    if not z.in_p_plus():
        raise NotApplicableGrading("Z must lie in p_+")
    k = algebra.k
    if k == 1:
        if not (x1.in_grade(-1) and x2.in_grade(-1)):
            raise NotApplicableGrading("directions must lie in g_-1")
        z_top = z
    else:
        if not (x1.in_grade(-k) and x2.in_grade(-k)):
            raise NotApplicableGrading(
                "solver covers only the lowest-grade class in a |%d|-grading" % k
            )
        _, zs = normal_form_P(group_exp(z))
        for ell in range(1, k):
            if bracket(zs[ell - 1], x2):
                return ReparamVerdict(False, None, "cascade [Z_%d, X2] != 0" % ell)
        z_top = zs[k - 1]
    if x1.is_zero() or x2.is_zero():
        return ReparamVerdict(False, None, "zero direction")
    a = _proportionality(x1, x2)
    if a is None or a == 0:
        return ReparamVerdict(False, None, "X2 is not a nonzero multiple of X1")
    acc = bracket(x2, bracket(x2, z_top))
    b = _proportionality(x1, acc) if acc else _F0
    if b is None:
        return ReparamVerdict(False, None, "[X2,[X2,Z]] is not a multiple of X1")
    return ReparamVerdict(True, MobiusMap.from_seeds(0, a, b), None)


def _num_den(m):
    """The numerator At+B and the denominator Ct+D of a MobiusMap."""
    return Poly((m.b, m.a)), Poly((m.d, m.c))


def verify_reparam(c1, c2, m):
    """Exact check that c2(t) and c1(phi(t)) project to the same curve.

    u(t) = c2(t)^{-1} c1(phi(t)) = b2^{-1} exp(-t A2) exp(phi A1) b1 with
    A_i = Ad_{b_i} X_i.  As b1 and b2 lie in P and D != 0, u lies in P iff
    exp(-t A2) times the cleared series q! D^q exp(phi A1) =
    sum_p (q!/p!) N^p D^(q-p) A1^p does (q the last nonzero power of A1,
    N and D scaled to integer coefficients): every entry of that product
    outside the block pattern of P must vanish identically.
    """
    if not m.d:
        raise PoleAtOrigin("reparametrization has a pole at t = 0")
    a1 = c1.ad_polymat
    scale = lcm(*(c.denominator for c in (m.a, m.b, m.c, m.d)))
    num = (int(m.b * scale), int(m.a * scale))
    den = (int(m.d * scale) * a1.den, int(m.c * scale) * a1.den)
    cleared = exp_series(a1.d, nilpotent_powers(a1.coeffs), num, den)
    left = c2.ad_polymat.exp(-P_T).coeffs
    return product_in_p_pattern(left, cleared, c1.algebra.forbidden_positions)


def schwarzian_check(phi):
    """phi''' phi' = 3/2 (phi'')^2 for a MobiusMap, or a Poly (D = 1).

    By the quotient rule phi' = P1/D^2, phi'' = P2/D^3 and phi''' = P3/D^4,
    with P1 = N'D - ND', P2 = P1'D - 2 P1 D' and P3 = P2'D - 3 P2 D', so
    the identity is the polynomial one P3 P1 = 3/2 P2^2.
    """
    num, den = _num_den(phi) if isinstance(phi, MobiusMap) else (phi, P_ONE)
    den1 = den.derivative()
    p1 = num.derivative() * den - num * den1
    p2 = p1.derivative() * den - 2 * p1 * den1
    p3 = p2.derivative() * den - 3 * p2 * den1
    return p3 * p1 == p2 * p2 * Fraction(3, 2)
