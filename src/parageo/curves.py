"""Distinguished curves b exp(tX)P and their exact jet calculus.

A curve spec (b, X) with b in P and X in n determines the curve
t -> b exp(tX) P.  Replacing the G-valued representative b exp(tX) by the
canonical one exp(t Ad_b X) does not change the projection to G/P, and the
comparison curve of two specs is

    u(t) = exp(-t Ad_{b2} X2) exp(t Ad_{b1} X1),

an exact polynomial matrix with u(0) = I.  The two projections coincide
iff u stays in the block pattern of P, and they agree to order ell at 0
iff the derivatives of the left logarithmic derivative delta_u = u^{-1} u'
at 0 lie in p for all orders < ell.  Everything here is decided exactly:
membership tests are coordinate (or polynomial-coefficient) vanishing.

The module also machine-checks, as identities of polynomial matrices, the
series expansion of delta(exp(Y(t))), the Leibniz rule for delta, the
iterated-adjoint formula for (delta u)^(i), the derivative formula for
Ad_{u(t)^{-1}} Y(t), and the reparametrized derivative formula with its
partition coefficients.

Every matrix here, constant or polynomial, is an ``IntPolyMat`` (integer
coefficient matrices over one common denominator, from ``_fastgrid``): b
and b^-1 of a spec and X (from ``GroupElem`` and ``AlgElem.matrix``),
Ad_b X = b X b^-1, the comparison curve, the five identity checkers and
the normal-coordinate jet, solved one degree at a time.  Every
exponential is ``IntPolyMat.exp``, the one nilpotent series of
``_fastgrid``, and curve equality is its one pattern test
``product_in_p_pattern`` on the two factors of u.  Coordinates of a
polynomial matrix (``delta_coords``, the jet's Y) are tuples of ``Poly``
read by ``GradedAlgebra.express_poly``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from ._fastgrid import IntPolyMat, _int_coeffs, product_in_p_pattern
from .algebra import AlgElem, GradedAlgebra, GroupElem, _same_algebra, group_exp
from .errors import (
    BadReparam,
    NotInNilpotentPart,
    NotInParabolic,
    OracleDisagreement,
)
from .poly import P_T, Poly


@dataclass(frozen=True, slots=True, eq=False)
class CurveSpec:
    """The data (b, X) of a distinguished curve c^{b,X}(t) = b exp(tX) P."""

    algebra: GradedAlgebra
    b: GroupElem
    X: AlgElem
    _a_int: IntPolyMat | None = field(default=None, init=False)

    def __post_init__(self):
        if self.b.algebra is not self.algebra or self.X.algebra is not self.algebra:
            raise NotInParabolic("curve data must live in the given algebra")
        if not self.b.in_P():
            raise NotInParabolic("base point b is not in P")
        if not self.X.in_n():
            raise NotInNilpotentPart("direction X is not in n")

    @classmethod
    def from_Z(cls, algebra, Z, X):
        """Curve c^{exp(Z), X} for Z in p_+ (the reduced form of 2.5a)."""
        if not Z.in_p_plus():
            raise NotInParabolic("Z must lie in p_+")
        return cls(algebra, group_exp(Z), X)

    @classmethod
    def base(cls, algebra, X):
        return cls(algebra, algebra.group_identity(), X)

    @property
    def ad_polymat(self):
        """The constant matrix Ad_b X = b X b^{-1}, one integer product."""
        if self._a_int is None:
            object.__setattr__(self, "_a_int", self.b.mat * self.X.matrix * self.b.inv_mat)
        return self._a_int

    def __repr__(self):
        return "CurveSpec(%s; X=%s)" % (self.algebra.name, list(self.X.coords))


@dataclass(frozen=True, slots=True, eq=False)
class ComparisonCurve:
    """u(t) with rep_1(t) = rep_2(t) u(t), plus delta_u in coordinates.

    ``u``, ``u_inv`` and ``delta_u`` are IntPolyMats; ``delta_coords`` is a
    tuple of Poly, one per basis coordinate.
    """

    c1: CurveSpec
    c2: CurveSpec
    u: IntPolyMat
    u_inv: IntPolyMat
    delta_u: IntPolyMat
    delta_coords: tuple

    @property
    def algebra(self):
        return self.c1.algebra


def comparison(c1, c2):
    """Comparison data of two curve specs in the same algebra."""
    _same_algebra(c1.X, c2.X)
    a1, a2 = c1.ad_polymat, c2.ad_polymat
    u = a2.exp(-P_T) * a1.exp(P_T)
    u_inv = a1.exp(-P_T) * a2.exp(P_T)
    delta = u_inv * u.derivative()
    coords = c1.algebra.express_poly(delta)
    if coords is None:
        raise OracleDisagreement("delta_u left the algebra span; this cannot happen for curves in G")
    return ComparisonCurve(c1, c2, u, u_inv, delta, coords)


def curves_equal(c1, c2):
    """True iff the two curves coincide in G/P: u(t) stays in the P pattern."""
    _same_algebra(c1.X, c2.X)
    left, right = c2.ad_polymat.exp(-P_T), c1.ad_polymat.exp(P_T)
    return product_in_p_pattern(left.coeffs, right.coeffs, c1.algebra.forbidden_positions)


def jet_orders_equal(cc, ell):
    """(delta_u)^(i)(0) in p for all i <= ell-1, by coordinate vanishing."""
    for idx in cc.algebra.n_indices:
        coeffs = cc.delta_coords[idx].coeffs
        # i-th derivative at 0 is i! * coeffs[i]
        for i in range(min(ell, len(coeffs))):
            if coeffs[i]:
                return False
    return True


def jet_equal(c1, c2, ell):
    """Decide equality of ell-jets at 0, with an independent oracle.

    Primary route: p-membership of (delta_u)^(i)(0) for i < ell.  Oracle:
    coefficientwise comparison of the normal-coordinate expansions up to
    order ell.  Disagreement raises OracleDisagreement.
    """
    if ell < 1:
        raise ValueError("jet order must be >= 1")
    cc = comparison(c1, c2)
    primary = jet_orders_equal(cc, ell)
    j1 = normal_coord_jet(c1, ell)
    j2 = normal_coord_jet(c2, ell)
    oracle = j1.coeffs_prefix(ell) == j2.coeffs_prefix(ell)
    if oracle != primary:
        raise OracleDisagreement(
            "jet_equal at order %d: delta-route %s vs normal-coordinate %s"
            % (ell, primary, oracle)
        )
    return primary


@dataclass(frozen=True, slots=True, eq=False)
class NormalCoordJet:
    """Jet of the normal-coordinate representation exp(Y(t)) p(t).

    ``Y_coeffs`` are the coefficients of Y as algebra elements;
    ``P_part`` is p(t) mod t^(order+1), an IntPolyMat.
    """

    algebra: GradedAlgebra
    order: int
    Y_coeffs: tuple
    P_part: IntPolyMat

    def __post_init__(self):
        object.__setattr__(self, "Y_coeffs", tuple(self.Y_coeffs))

    def coeffs_prefix(self, ell):
        return tuple(e.coords for e in self.Y_coeffs[: ell + 1])


def normal_coord_jet(c, order):
    """Factor the curve through the big cell: exp(Y(t)) p(t), truncated.

    Solves for Y(t) with exp(-Y(t)) exp(t Ad_b X) in P, one degree at a
    time.  Every element of n lives on the negative-grade positions.  If Y
    is right below degree j, then exp(-Y - t^j V) = exp(-Y) - t^j V +
    O(t^(j+1)), so t^j Y_j is the negative-grade part of
    exp(-Y) exp(t Ad_b X) mod t^(j+1), whose lower degrees already vanish;
    Y_0 = 0 since the representative starts at I.  p(t) is that product
    mod t^(order+1).  That Y lies in n and p(t) in P is asserted.
    """
    if order < 1:
        raise ValueError("jet order must be >= 1")
    alg = c.algebra
    m = c.ad_polymat.exp(P_T).truncate(order)
    ymat = IntPolyMat(alg.matrix_dim, [])
    for j in range(1, order + 1):
        ymat = ymat + alg.position_part((ymat.exp(-1) * m).truncate(j), lambda g: g < 0)
    upper = (ymat.exp(-1) * m).truncate(order)
    coords = alg.express_poly(ymat)
    if coords is None:
        raise OracleDisagreement("normal-coordinate factor left the algebra span")
    # ymat has degree <= order, so these coefficients are all of Y
    ycoeffs = [AlgElem(alg, tuple(p[i] for p in coords)) for i in range(order + 1)]
    if not all(e.in_n() for e in ycoeffs):
        raise OracleDisagreement("normal-coordinate factor is not n-valued")
    if not upper.in_p_pattern(alg):
        raise OracleDisagreement("big-cell factor p(t) left P")
    return NormalCoordJet(alg, order, ycoeffs, upper)


# -- identity checkers ---------------------------------------------------------


def curve_matrix_from_coeffs(coeff_elems, require_n=True):
    """Sum_j t^j * Y_j as an IntPolyMat; Y_j algebra elements."""
    if not coeff_elems:
        raise ValueError("need at least one coefficient")
    if require_n and not all(e.in_n() for e in coeff_elems):
        raise NotInNilpotentPart("curve coefficient outside n")
    acc = coeff_elems[-1].matrix
    for e in reversed(coeff_elems[:-1]):
        acc = acc.scale(P_T) + e.matrix
    return acc


def delta_of_exp(ymat):
    """Left logarithmic derivative of exp(Y(t)) computed from first principles."""
    return ymat.exp(-1) * ymat.exp().derivative()


def delta_series(ymat):
    """The finite series sum_p ad(-Y)^p Y'(t) / (p+1)!."""
    term = total = ymat.derivative()
    p = 1
    while True:
        term = term * ymat - ymat * term  # ad(-Y) applied once
        if term.is_zero():
            return total
        total = total + term.scale(Fraction(1, factorial(p + 1)))
        p += 1
        if p > ymat.d * ymat.d:
            raise OracleDisagreement("delta series failed to terminate")


def verify_lemma_2_3(coeff_elems):
    """Series formula for delta(exp o Y) on an n-valued polynomial curve."""
    ymat = curve_matrix_from_coeffs(coeff_elems)
    return delta_of_exp(ymat) == delta_series(ymat)


def verify_delta_leibniz(f, f_inv, g, g_inv):
    """delta(f g) = delta(g) + Ad_{g^{-1}} delta(f) for P-valued poly curves."""
    fg = f * g
    fg_inv = g_inv * f_inv
    lhs = fg_inv * fg.derivative()
    rhs = g_inv * g.derivative() + g_inv * (f_inv * f.derivative()) * g
    return lhs == rhs


def verify_lemma_2_4(cc, i_max):
    """(delta_u)^(i)(t) = ad(-Ad_{b1}X1)^i (delta_u(t)) for 1 <= i <= i_max."""
    a1 = cc.c1.ad_polymat
    lhs = rhs = cc.delta_u
    for _ in range(i_max):
        lhs = lhs.derivative()
        rhs = rhs * a1 - a1 * rhs  # ad(-a1)
        if lhs != rhs:
            return False
    return True


def verify_eq_2_4_1(u, u_inv, coeff_elems):
    """d/dt (Ad_{u^{-1}} Y) = Ad_{u^{-1}} Y' - [delta_u, Ad_{u^{-1}} Y].

    ``u_inv`` is the known inverse of u; False unless u_inv * u = I.
    """
    if u_inv * u != IntPolyMat.identity(u.d):
        return False
    ymat = curve_matrix_from_coeffs(coeff_elems, require_n=False)
    ad_y = u_inv * ymat * u
    delta = u_inv * u.derivative()
    lhs = ad_y.derivative()
    rhs = u_inv * ymat.derivative() * u - (delta * ad_y - ad_y * delta)
    return lhs == rhs


def _partitions(total):
    """Integer partitions of ``total`` as descending tuples."""
    if total == 0:
        yield ()
        return
    def rec(rest, maxpart):
        if rest == 0:
            yield ()
            return
        for part in range(min(rest, maxpart), 0, -1):
            for tail in rec(rest - part, part):
                yield (part,) + tail
    yield from rec(total, total)


def partition_coefficient(i, parts):
    """Number of ways to split i derivative hits realizing the given parts."""
    num = factorial(i)
    den = 1
    mult = {}
    for p in parts:
        mult[p] = mult.get(p, 0) + 1
    for p, a in mult.items():
        den *= factorial(p) ** a * factorial(a)
    return Fraction(num, den)


def reparam_comparison(cc, phi):
    """u(t) for exp(phi(t) Ad_{b1}X1) = exp(t Ad_{b2}X2) u(t), phi a Poly."""
    if phi[0]:
        raise BadReparam("phi(0) must be 0")
    if not phi[1]:
        raise BadReparam("phi'(0) must be nonzero")
    a1, a2 = cc.c1.ad_polymat, cc.c2.ad_polymat
    u = a2.exp(-P_T) * a1.exp(phi)
    u_inv = a1.exp(-phi) * a2.exp(P_T)
    return u, u_inv, a1


def _lemma_3_2_scalars(phi, i_max):
    """The scalar polynomials of the Lemma 3.2 right-hand side, one table
    per phi: for i = 1..i_max, phi^(i+1) and, by part count k, the signed
    partition sum (-1)^k sum_parts partition_coefficient(i, parts)
    prod_{p in parts} phi^(p) over the partitions of i into k parts.

    The derivative products run on the integer coefficients of den * phi
    (den the least common denominator of phi), so a product of k of them
    takes (-1)^k / den^k into its partition coefficient.
    """
    nums, den = _int_coeffs(phi)
    derivs = [Poly(nums)]
    for _ in range(i_max + 1):
        derivs.append(derivs[-1].derivative())
    table = []
    for i in range(1, i_max + 1):
        signed = {}
        for parts in _partitions(i):
            term = derivs[parts[0]]
            for p in parts[1:]:
                term = term * derivs[p]
            k = len(parts)
            c = partition_coefficient(i, parts) * Fraction((-1) ** k, den**k)
            signed[k] = signed.get(k, Poly()) + term * c
        table.append((derivs[i + 1] * Fraction(1, den), signed))
    return table


def verify_lemma_3_2(cc, phi, i_max, scalars=None):
    """Multi-index derivative formula for the reparametrized comparison.

    For each 1 <= i <= i_max the directly differentiated (delta_u)^(i)
    must equal phi^(i+1) X1 plus the signed partition sum applied to the
    iterated ad_{X1} of delta_u, exactly as polynomial matrices.
    ``scalars`` is ``_lemma_3_2_scalars(phi, i_max)``, which a caller that
    checks many curves against one phi builds once; it is built here when
    None.
    """
    u, u_inv, a1 = reparam_comparison(cc, phi)
    delta = u_inv * u.derivative()
    ad_pow = [delta]
    for _ in range(i_max):
        prev = ad_pow[-1]
        ad_pow.append(a1 * prev - prev * a1)
    lhs = delta
    if scalars is None:
        scalars = _lemma_3_2_scalars(phi, i_max)
    for phi_next, signed in scalars:
        lhs = lhs.derivative()
        rhs = a1.scale(phi_next)
        for k, cpoly in signed.items():
            rhs = rhs + ad_pow[k].scale(cpoly)
        if lhs != rhs:
            return False
    return True
