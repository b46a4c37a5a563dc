"""Poly-entry references for the curve calculus.

The nilpotent exponential ``exp_mat`` (with its power list) and the same
comparison curve, curve equality, five identity checkers,
normal-coordinate jet (here by block LU and a series logarithm, there
solved one degree at a time) and reparametrization check as
``parageo.curves`` and ``parageo.reparam``, and the Jacobian of the orbit
map whose rank ``parageo.lab`` reports (there taken at Z = 0, here at any
Z), computed on ``Mat``s whose entries are ``Poly`` with ``Fraction``
coefficients instead of on the integer ``IntPolyMat``: products go through ``Poly.__mul__``,
Ad_b X is two ``Fraction`` products, and coordinates come from a dense
cofactor extractor over ``basis_mats`` (``express`` below, cached per
algebra), which reads none of the algebra's own coordinate frame.  They
take and return Poly-entry ``Mat``s; ``to_int`` converts one for the
primary route (through ``from_mats``, the one conversion from a
``Fraction`` ``Mat`` to the integer engine), and ``to_mat`` converts an
``IntPolyMat`` back.
The basis is ``basis_mats``: ``Fraction`` ``Mat``s built from the
algebra's integer ``basis_entries``.  An algebra element enters as
``frac_matrix``, summed over it in ``Fraction``s, and a group element as
the ``Fraction`` form of its two integer matrices (``group_mats``), so no
reference shares the arithmetic of the integer route.
"""

from fractions import Fraction
from functools import cache
from math import factorial, lcm

from parageo._fastgrid import IntPolyMat
from parageo.algebra import AlgElem
from parageo.curves import ComparisonCurve, NormalCoordJet, _partitions, partition_coefficient
from parageo.errors import (
    BadReparam,
    NotInNilpotentPart,
    NotNilpotent,
    OracleDisagreement,
    PoleAtOrigin,
)
from parageo.matrices import Mat, rank
from parageo.poly import P_ONE, P_T, Poly
from parageo.reparam import _num_den


def entries_mat(d, entries):
    """The Fraction Mat of the d x d matrix with nonzero entries
    {(row, col): value}."""
    return Mat(tuple(tuple(Fraction(entries.get((i, j), 0)) for j in range(d)) for i in range(d)))


@cache
def basis_mats(alg):
    """The basis of ``alg`` as Fraction Mats, built from its integer
    ``basis_entries``: the oracles share no matrix object with the build."""
    d = alg.matrix_dim
    return tuple(entries_mat(d, {divmod(r, d): v for r, v in entries}) for entries in alg.basis_entries)


def frac_matrix(x):
    """The Fraction Mat sum_m c_m B_m of an algebra element over
    ``basis_mats``."""
    alg = x.algebra
    acc = Mat.zero(alg.matrix_dim)
    for c, b in zip(x.coords, basis_mats(alg)):
        if c:
            acc = acc + b.scale(c)
    return acc


def to_mat(pm):
    """The same matrix as an IntPolyMat ``pm``, as a Mat with Poly entries."""
    d, den = pm.d, pm.den
    return Mat(
        tuple(
            tuple(Poly(tuple(Fraction(c[i][j], den) for c in pm.coeffs)) for j in range(d))
            for i in range(d)
        )
    )


def const_mat(pm):
    """The Fraction Mat of a constant IntPolyMat."""
    c0 = pm.coeffs[0] if pm.coeffs else [[0] * pm.d] * pm.d
    return Mat(tuple(tuple(Fraction(x, pm.den) for x in row) for row in c0))


def group_mats(g):
    """(matrix, inverse) of a GroupElem as Fraction Mats."""
    return const_mat(g.mat), const_mat(g.inv_mat)


def in_p_pattern(alg, mat):
    """True when every entry of ``mat`` at a negative-grade position vanishes."""
    return all(not mat.rows[i][j] for i, j in alg.forbidden_positions)


def position_part(alg, mat, keep):
    """``mat`` with every entry whose position grade fails ``keep`` set to 0."""
    grades = alg.position_grade
    return Mat(
        tuple(
            tuple(e if keep(g) else Fraction(0) for e, g in zip(row, grow))
            for row, grow in zip(mat.rows, grades)
        )
    )


def nilpotent_powers(m):
    """m, m^2, ... up to the last nonzero power, each formed once.

    Raises NotNilpotent (after the last yield) when m^d != 0, d = dim m.
    """
    power = m
    for _ in range(1, m.dim):
        if power.is_zero():
            return
        yield power
        power = power * m
    if not power.is_zero():
        raise NotNilpotent("matrix is not nilpotent")


def exp_mat(m, scale=1):
    """exp(scale * m) of a nilpotent matrix m with rational or Poly
    entries, for a rational or Poly scale: the series I + sum_p
    scale^p m^p / p! through the entries' own arithmetic."""
    acc = Mat.identity(m.dim)
    scale_pow = None
    for p, power in enumerate(nilpotent_powers(m), 1):
        scale_pow = scale if scale_pow is None else scale_pow * scale
        acc = acc + power.scale(scale_pow * Fraction(1, factorial(p)))
    return acc


def from_mats(mats):
    """The IntPolyMat sum_p t^p mats[p] of constant rational Mats of one
    size, over the least common denominator of their entries."""
    den = lcm(*(Fraction(e).denominator for m in mats for row in m.rows for e in row))
    coeffs = [[[int(e * den) for e in row] for row in m.rows] for m in mats]
    return IntPolyMat(mats[0].nrows, coeffs, den)


def to_int(mat):
    """The IntPolyMat of a Mat with rational or Poly entries."""
    polys = [[e if isinstance(e, Poly) else Poly.const(e) for e in row] for row in mat.rows]
    top = max((len(e.coeffs) for row in polys for e in row), default=0)
    return from_mats(
        [Mat(tuple(tuple(e[p] for e in row) for row in polys)) for p in range(max(top, 1))]
    )


def derivative(mat):
    """Entrywise derivative; rational entries are constants."""
    return mat.map(lambda e: e.derivative() if isinstance(e, Poly) else Fraction(0))


def _as_poly(e):
    return e if isinstance(e, Poly) else Poly.const(e)


def truncate(mat, order):
    """Entrywise series truncation; rational entries become constants."""
    return mat.map(lambda e: _as_poly(e).truncate(order))


def vectorize(mat):
    """The entries of a matrix, row-major."""
    return tuple(e for row in mat.rows for e in row)


def cofactor_inverse(m):
    """m^{-1} = adj(m) / det(m), every cofactor a Laplace ``Mat.det`` minor."""
    n = m.dim
    d = m.det()
    if not d:
        raise ZeroDivisionError("singular matrix")

    def cofactor(i, j):
        rows = (row for r, row in enumerate(m.rows) if r != i)
        sub = Mat(tuple(row[c] for c in range(n) if c != j) for row in rows)
        return (1 if (i + j) % 2 == 0 else -1) * sub.det()

    return Mat(tuple(tuple(cofactor(j, i) / d for j in range(n)) for i in range(n)))


@cache
def dense_frame(alg):
    """(pivot rows, extractor rows, vectorized basis) over ``basis_mats``:
    one rank test per candidate row, and the inverse of the basis at the
    chosen rows from Laplace cofactors."""
    vecs = [vectorize(m) for m in basis_mats(alg)]
    chosen, acc = [], []
    for r in range(len(vecs[0])):
        row = tuple(v[r] for v in vecs)
        if rank(acc + [row]) > len(chosen):
            acc.append(row)
            chosen.append(r)
        if len(chosen) == alg.dim:
            break
    assert len(chosen) == alg.dim, "basis matrices are linearly dependent"
    return tuple(chosen), cofactor_inverse(Mat(acc)).rows, vecs


def express(alg, mat):
    """Coordinates over ``basis_mats`` of a matrix with Fraction or Poly
    entries, through the cofactor extractor of ``dense_frame`` with a dense
    span check at every position, or None off the span."""
    chosen, extractor, vecs = dense_frame(alg)
    vec = vectorize(mat)
    coords = tuple(
        sum((e * vec[pr] for e, pr in zip(erow, chosen) if e), Fraction(0)) for erow in extractor
    )
    terms = [(c, v) for c, v in zip(coords, vecs) if c]
    for r, target in enumerate(vec):
        if sum((c * v[r] for c, v in terms if v[r]), Fraction(0)) != target:
            return None
    return coords


def express_poly(alg, mat):
    """Poly coordinates of a Poly-entry matrix curve in g, or None."""
    coords = express(alg, mat)
    return None if coords is None else tuple(_as_poly(c) for c in coords)


def log_unipotent(m):
    """Finite matrix logarithm of I + N with N nilpotent."""
    acc = Mat.zero(m.dim)
    for p, power in enumerate(nilpotent_powers(m - Mat.identity(m.dim)), 1):
        acc = acc + power.scale(Fraction(1, p) if p % 2 == 1 else Fraction(-1, p))
    return acc


def ad_matrix(c):
    """Ad_b X of a curve spec as two Fraction products."""
    b, b_inv = group_mats(c.b)
    return b * frac_matrix(c.X) * b_inv


def curve_matrix(c, scale=P_T):
    """b exp(tX) as a Poly-entry matrix."""
    return group_mats(c.b)[0] * exp_mat(frac_matrix(c.X), scale)


def rep_matrix(c, scale=P_T):
    """The canonical representative exp(t Ad_b X); same projection."""
    return exp_mat(ad_matrix(c), scale)


def comparison(c1, c2):
    a1, a2 = ad_matrix(c1), ad_matrix(c2)
    u = exp_mat(a2, -P_T) * exp_mat(a1, P_T)
    u_inv = exp_mat(a1, -P_T) * exp_mat(a2, P_T)
    delta = u_inv * derivative(u)
    coords = express_poly(c1.algebra, delta)
    if coords is None:
        raise OracleDisagreement("delta_u left the algebra span")
    return ComparisonCurve(c1, c2, u, u_inv, delta, coords)


def curves_equal(c1, c2):
    u = exp_mat(ad_matrix(c2), -P_T) * exp_mat(ad_matrix(c1), P_T)
    return in_p_pattern(c1.algebra, u)


def curve_matrix_from_coeffs(coeff_elems, require_n=True):
    alg = coeff_elems[0].algebra
    if require_n and not all(e.in_n() for e in coeff_elems):
        raise NotInNilpotentPart("curve coefficient outside n")
    acc = Mat.zero(alg.matrix_dim).map(lambda _: Poly())
    for j, e in enumerate(coeff_elems):
        tj = Poly((0,) * j + (1,))
        acc = acc + frac_matrix(e).map(lambda v: tj * v)
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
    a1 = ad_matrix(cc.c1)
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
    a1, a2 = ad_matrix(cc.c1), ad_matrix(cc.c2)
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


def normal_coord_jet(c, order):
    """exp(Y(t)) p(t) mod t^(order+1) by block LU of the representative."""
    alg = c.algebra
    m = truncate(rep_matrix(c), order)
    lower, upper = _block_lu_series(alg, m, order)
    ymat = truncate(log_unipotent(lower), order)
    coords = express_poly(alg, ymat)
    if coords is None:
        raise OracleDisagreement("normal-coordinate factor left the algebra span")
    ycoeffs = [AlgElem(alg, tuple(p[i] for p in coords)) for i in range(order + 1)]
    if not all(e.in_n() for e in ycoeffs) or ycoeffs[0]:
        raise OracleDisagreement("normal-coordinate factor is not an n-valued Y with Y(0) = 0")
    if truncate(exp_mat(ymat) * upper, order) != m:
        raise OracleDisagreement("big-cell factorization failed to reproduce the curve")
    return NormalCoordJet(alg, order, ycoeffs, upper)


def _block_lu_series(alg, m, order):
    """m = L Q with L block-lower unipotent, Q block-upper, mod t^(order+1)."""
    sizes = alg.block_sizes
    starts = [sum(sizes[:b]) for b in range(len(sizes))]
    d = alg.matrix_dim
    work = [list(row) for row in m.rows]
    lower = [[Poly.const(Fraction(1)) if i == j else Poly() for j in range(d)] for i in range(d)]
    nb = len(sizes)
    for jb in range(nb - 1):
        rj = range(starts[jb], starts[jb] + sizes[jb])
        piv = Mat(tuple(tuple(work[i][j] for j in rj) for i in rj))
        piv_inv = unipotent_series_inverse(piv, order)
        for ib in range(jb + 1, nb):
            ri = range(starts[ib], starts[ib] + sizes[ib])
            blk = Mat(tuple(tuple(work[i][j] for j in rj) for i in ri))
            f = truncate(blk * piv_inv, order)
            for a, i in enumerate(ri):
                for bcol, j in enumerate(rj):
                    lower[i][j] = f.rows[a][bcol]
            for a, i in enumerate(ri):
                for j in range(d):
                    acc = work[i][j]
                    for bcol, jj in enumerate(rj):
                        acc = acc - f.rows[a][bcol] * work[jj][j]
                    work[i][j] = acc.truncate(order)
    return Mat(lower), Mat(work)


def unipotent_series_inverse(piv, order):
    """piv^{-1} mod t^(order+1) for piv = I at t = 0: sum_k (I - piv)^k."""
    ident = Mat.identity(piv.dim)
    if piv.map(lambda e: e[0]) != ident:
        raise OracleDisagreement("pivot block of the representative is not I at t = 0")
    step = ident - piv
    term = inv = ident
    for _ in range(order):
        term = truncate(term * step, order)
        if term.is_zero():
            break
        inv = inv + term
    return inv


def truncated_ad_coords_poly(alg, z0, dz, y0, dy):
    """Poly coords of s -> Adbar(exp(z0 + s dz))(y0 + s dy), exact."""
    zmat = frac_matrix(z0).map(Poly.const) + frac_matrix(dz).scale(P_T)
    ymat = frac_matrix(y0).map(Poly.const) + frac_matrix(dy).scale(P_T)
    img = position_part(alg, exp_mat(zmat) * ymat * exp_mat(-zmat), lambda grade: grade < 0)
    return express_poly(alg, img)


def orbit_jacobian(alg, z0, x, param_indices):
    """Rows spanning the Jacobian at (z0, x) of the orbit map (Z, X) ->
    Adbar(exp Z)(X), X moving along ``param_indices``: the n coordinates of
    the s^1 coefficient of ``truncated_ad_coords_poly`` along each p_+
    basis element and each parameter's unit direction."""
    zero = alg.elem_at((), ())
    dirs = [(alg.basis_elem(i), zero) for i in alg.pplus_indices]
    dirs += [(zero, alg.basis_elem(i)) for i in param_indices]
    rows = []
    for dz, dy in dirs:
        coords = truncated_ad_coords_poly(alg, z0, dz, x, dy)
        rows.append([coords[i][1] for i in alg.n_indices])
    return rows


def verify_reparam(c1, c2, m):
    """D^q u(t) in the P pattern, u = c2(t)^{-1} c1(phi(t)), on b and X."""
    if not m.d:
        raise PoleAtOrigin("reparametrization has a pole at t = 0")
    num, den = _num_den(m)
    powers = list(nilpotent_powers(frac_matrix(c1.X)))
    q = len(powers)
    cleared = Mat.identity(c1.algebra.matrix_dim).scale(den**q)
    num_pow = P_ONE
    for p, power in enumerate(powers, 1):
        num_pow = num_pow * num
        cleared = cleared + power.scale(num_pow * den ** (q - p) * Fraction(1, factorial(p)))
    left = exp_mat(frac_matrix(c2.X), -P_T) * group_mats(c2.b)[1]
    return in_p_pattern(c1.algebra, left * (group_mats(c1.b)[0] * cleared))
