"""Poly-entry references for the curve-calculus identity checkers.

The same comparison curve, curve equality and five identity checkers as
``parageo.curves``, computed on ``Mat``s whose entries are ``Poly`` with
``Fraction`` coefficients instead of on the integer ``IntPolyMat``:
products go through ``Poly.__mul__``, and coordinates come from the
algebra's Fraction extractor (``GradedAlgebra.express_poly``).  They take
and return Poly-entry ``Mat``s; ``to_int`` converts one for the primary
route.
"""

from fractions import Fraction
from math import factorial

from parageo._fastgrid import IntPolyMat
from parageo.algebra import exp_mat
from parageo.curves import ComparisonCurve, _partitions, partition_coefficient
from parageo.errors import BadReparam, NotInNilpotentPart, OracleDisagreement
from parageo.matrices import Mat
from parageo.poly import P_T, Poly


def to_int(mat):
    """The IntPolyMat of a Mat with rational or Poly entries."""
    polys = [[e if isinstance(e, Poly) else Poly.const(e) for e in row] for row in mat.rows]
    top = max((len(e.coeffs) for row in polys for e in row), default=0)
    return IntPolyMat.from_mats(
        [Mat(tuple(tuple(e[p] for e in row) for row in polys)) for p in range(max(top, 1))]
    )


def derivative(mat):
    """Entrywise derivative; rational entries are constants."""
    return mat.map(lambda e: e.derivative() if isinstance(e, Poly) else Fraction(0))


def comparison(c1, c2):
    a1, a2 = c1.ad_matrix, c2.ad_matrix
    u = exp_mat(a2, -P_T) * exp_mat(a1, P_T)
    u_inv = exp_mat(a1, -P_T) * exp_mat(a2, P_T)
    delta = u_inv * derivative(u)
    coords = c1.algebra.express_poly(delta)
    if coords is None:
        raise OracleDisagreement("delta_u left the algebra span")
    return ComparisonCurve(c1, c2, u, u_inv, delta, coords)


def curves_equal(c1, c2):
    u = exp_mat(c2.ad_matrix, -P_T) * exp_mat(c1.ad_matrix, P_T)
    return c1.algebra.matrix_in_p_pattern(u)


def curve_matrix_from_coeffs(coeff_elems, require_n=True):
    alg = coeff_elems[0].algebra
    if require_n and not all(e.in_n() for e in coeff_elems):
        raise NotInNilpotentPart("curve coefficient outside n")
    acc = Mat.zero(alg.matrix_dim).map(lambda _: Poly())
    for j, e in enumerate(coeff_elems):
        tj = Poly((0,) * j + (1,))
        acc = acc + e.matrix.map(lambda v: tj * v)
    return acc


def delta_of_exp(ymat):
    return exp_mat(-ymat) * derivative(exp_mat(ymat))


def delta_series(ymat):
    term = derivative(ymat)
    total = term
    p = 1
    while True:
        term = term * ymat - ymat * term
        if term.is_zero():
            return total
        total = total + term.scale(Fraction(1, factorial(p + 1)))
        p += 1
        if p > ymat.dim * ymat.dim:
            raise OracleDisagreement("delta series failed to terminate")


def verify_lemma_2_3(coeff_elems):
    ymat = curve_matrix_from_coeffs(coeff_elems)
    return delta_of_exp(ymat) == delta_series(ymat)


def verify_delta_leibniz(f, f_inv, g, g_inv):
    fg = f * g
    lhs = (g_inv * f_inv) * derivative(fg)
    rhs = g_inv * derivative(g) + g_inv * (f_inv * derivative(f)) * g
    return lhs == rhs


def verify_lemma_2_4(cc, i_max):
    a1 = cc.c1.ad_matrix
    lhs = rhs = cc.delta_u
    for _ in range(i_max):
        lhs = derivative(lhs)
        rhs = rhs * a1 - a1 * rhs
        if lhs != rhs:
            return False
    return True


def verify_eq_2_4_1(u, u_inv, coeff_elems):
    if u_inv * u != Mat.identity(u.dim):
        return False
    ymat = curve_matrix_from_coeffs(coeff_elems, require_n=False)
    ad_y = u_inv * ymat * u
    delta = u_inv * derivative(u)
    rhs = u_inv * derivative(ymat) * u - (delta * ad_y - ad_y * delta)
    return derivative(ad_y) == rhs


def reparam_comparison(cc, phi):
    if phi[0]:
        raise BadReparam("phi(0) must be 0")
    if not phi[1]:
        raise BadReparam("phi'(0) must be nonzero")
    a1, a2 = cc.c1.ad_matrix, cc.c2.ad_matrix
    u = exp_mat(a2, -P_T) * exp_mat(a1, phi)
    u_inv = exp_mat(a1, -phi) * exp_mat(a2, P_T)
    return u, u_inv, a1


def verify_lemma_3_2(cc, phi, i_max):
    u, u_inv, a1 = reparam_comparison(cc, phi)
    delta = u_inv * derivative(u)
    ad_pow = [delta]
    for _ in range(i_max):
        ad_pow.append(a1 * ad_pow[-1] - ad_pow[-1] * a1)
    lhs = delta
    for i in range(1, i_max + 1):
        lhs = derivative(lhs)
        rhs = a1.scale(phi.nth_derivative(i + 1))
        coeff_by_k = {}
        for parts in _partitions(i):
            term = Poly.const(partition_coefficient(i, parts))
            for p in parts:
                term = term * phi.nth_derivative(p)
            coeff_by_k[len(parts)] = coeff_by_k.get(len(parts), Poly()) + term
        for k, cpoly in coeff_by_k.items():
            sign = 1 if k % 2 == 0 else -1
            rhs = rhs + ad_pow[k].scale(cpoly * sign)
        if lhs != rhs:
            return False
    return True
