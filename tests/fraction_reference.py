"""Minimal Fraction references for the grid pair step and the algebra build.

The same per-pair statistics as ``parageo.lab._iter_pair_stats``, with Z
and Y as Fraction coordinates (as ``paper_checks.coordinate_pair_stats``
reads them), computed on the Fraction ``Mat`` stack instead of the
integer engine of ``parageo._fastgrid``: ``exp_mat`` of Z's
``frac_matrix`` + ``solve_direction`` (the Fraction fixed-point
iteration that ``parageo.lab.solve_direction`` replaced, for unipotent
g) give Y, the jet order comes from the constant-matrix derivatives of
delta_u at 0, and curve equality is the polynomial identity "exp(-t A2) exp(t A1) stays
in the P block pattern".

The orbit points of ``parageo.lab.orbit_hull_dimension`` on the Fraction
``Mat`` stack (``reference_orbit_points``), the loop that the integer
``IntPolyMat`` route replaced.

The same pivot rows, coordinate extractor and bracket table as
``GradedAlgebra``'s integer build, computed densely: the pivot rows and
cofactor extractor of ``poly_reference.dense_frame`` (one rank test per
candidate row, an inverse from Laplace cofactors, which shares no ``rref``
with the build or with ``Mat.inverse``), and ``Fraction`` commutators of
``basis_mats`` read by its ``express`` with a dense span check.  The Y of
``solve_direction`` and the orbit points are read by the same reader.

The Jacobi identity on every basis triple through dense ``bracket_coords``
calls, the n^3 loop that ``GradedAlgebra.structure_violations`` replaced
by its sparse "ad is a representation" check.
"""

from parageo.algebra import AlgElem
from parageo.lab import iter_pplus_coords, pplus_elem
from parageo.poly import P_T
from poly_reference import basis_mats, dense_frame, exp_mat, express, frac_matrix, in_p_pattern, position_part


def solve_direction(e, einv, x):
    """Y in n with truncated_Ad(g, Y) = X by Y <- Y + (X - Adbar(Y)) on
    Fraction matrices, for a unipotent g = e with inverse einv."""
    alg = x.algebra
    ymat = xmat = frac_matrix(x)
    for _ in range(alg.k + 1):
        img = position_part(alg, e * ymat * einv, lambda grade: grade < 0)
        resid = xmat - img
        if resid.is_zero():
            return AlgElem(alg, express(alg, ymat))
        ymat = ymat + resid
    raise AssertionError("direction constraint failed to converge")


def pair_jet_order(alg, a1, a2, r_max):
    """Consecutive orders r with (delta_u)^(i)(0) in p for i < r, capped."""
    d = a1 - a2
    order = 0
    while order < r_max and in_p_pattern(alg, d):
        order += 1
        d = d * a1 - a1 * d  # ad(-a1)
    return order


def fast_curves_equal(alg, a1, a2):
    u = exp_mat(a2.scale(-P_T)) * exp_mat(a1.scale(P_T))
    return in_p_pattern(alg, u)


def reference_pair_stats(ts, x, grid, r_max):
    """List of (Z coords, Y coords, jet order, equal) over the p_+ grid."""
    alg = ts.algebra
    a1 = frac_matrix(x)
    out = []
    for vals in iter_pplus_coords(alg, grid):
        z = pplus_elem(alg, vals)
        e, einv = exp_mat(frac_matrix(z)), exp_mat(frac_matrix(z), -1)
        y = solve_direction(e, einv, x)
        if not ts.contains(y):
            out.append((tuple(z.coords), tuple(y.coords), None, False))
            continue
        a2 = e * frac_matrix(y) * einv
        jord = pair_jet_order(alg, a1, a2, r_max)
        equal = fast_curves_equal(alg, a1, a2) if jord == r_max else False
        out.append((tuple(z.coords), tuple(y.coords), jord, equal))
    return out


def reference_orbit_points(ts, grid):
    """(Z, X, Adbar(exp Z) X) over the same grids as ``lab._orbit_points``:
    ``exp_mat``, two Fraction products, ``position_part`` and
    ``express``."""
    alg = ts.algebra
    xs = list(ts.grid(grid))
    points = []
    for vals in iter_pplus_coords(alg, min(grid, 1)):
        z = pplus_elem(alg, vals)
        e, einv = exp_mat(frac_matrix(z)), exp_mat(frac_matrix(z), -1)
        for x in xs:
            img = position_part(alg, e * frac_matrix(x) * einv, lambda grade: grade < 0)
            points.append((z, x, AlgElem(alg, express(alg, img))))
    return points


def reference_build(alg):
    """(pivot rows, extractor rows, bracket table) of the dense build."""
    chosen, extractor, _ = dense_frame(alg)
    basis = basis_mats(alg)
    table = []
    for bi in basis:
        row = []
        for bj in basis:
            coords = express(alg, bi * bj - bj * bi)
            assert coords is not None, "bracket of basis pair leaves the span"
            row.append(coords)
        table.append(tuple(row))
    return chosen, extractor, tuple(table)


def exhaustive_jacobi_violations(alg):
    """Jacobi on every basis triple through dense ``bracket_coords`` calls,
    one violation string per failing triple (i, j, m)."""
    br = alg.bracket_coords
    basis = [alg.basis_elem(i).coords for i in range(alg.dim)]
    bad = []
    for i, ei in enumerate(basis):
        for j, ej in enumerate(basis):
            bij = br(ei, ej)
            for m, em in enumerate(basis):
                lhs = br(bij, em)
                t1 = br(br(ei, em), ej)
                t2 = br(ei, br(ej, em))
                if any(a - b - c for a, b, c in zip(lhs, t1, t2)):
                    bad.append("Jacobi fails on basis triple (%d,%d,%d)" % (i, j, m))
    return bad
