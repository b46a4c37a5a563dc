"""Minimal Fraction references for the grid pair step and the algebra build.

The same per-pair statistics as ``parageo.lab._iter_pair_stats``, computed
on the Fraction ``Mat`` stack instead of the integer engine of
``parageo._fastgrid``: ``exp_mat`` of Z's ``frac_matrix`` + ``solve_direction``
(the Fraction fixed-point iteration that ``parageo.lab.solve_direction``
replaced, for unipotent g) give Y,
the jet order comes from the constant-matrix derivatives of delta_u at 0,
and curve equality is the polynomial identity "exp(-t A2) exp(t A1) stays
in the P block pattern".

The orbit points of ``parageo.lab.orbit_hull_dimension`` on the Fraction
``Mat`` stack (``reference_orbit_points``), the loop that the integer
``IntPolyMat`` route replaced.

The same pivot rows, coordinate extractor and bracket table as
``GradedAlgebra``'s sparse build, computed densely: one rank test per
candidate row, an inverse from Laplace cofactors (``cofactor_inverse``,
which shares no ``rref`` with the build or with ``Mat.inverse``), and dense
commutators expressed through dense extractor products with a dense span
check.

The Jacobi identity on every basis triple through dense ``bracket_coords``
calls, the n^3 loop that ``GradedAlgebra.structure_violations`` replaced
by its sparse "ad is a representation" check.
"""

from fractions import Fraction

from parageo.algebra import AlgElem
from parageo.lab import iter_pplus_coords, pplus_elem
from parageo.matrices import Mat, rank
from parageo.poly import P_T
from poly_reference import exp_mat, frac_matrix, in_p_pattern, position_part


def solve_direction(e, einv, x):
    """Y in n with truncated_Ad(g, Y) = X by Y <- Y + (X - Adbar(Y)) on
    Fraction matrices, for a unipotent g = e with inverse einv."""
    alg = x.algebra
    ymat = xmat = frac_matrix(x)
    for _ in range(alg.k + 1):
        img = position_part(alg, e * ymat * einv, lambda grade: grade < 0)
        resid = xmat - img
        if resid.is_zero():
            return AlgElem(alg, alg.express(ymat))
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
            points.append((z, x, AlgElem(alg, alg.express(img))))
    return points


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


def reference_build(alg):
    """(pivot rows, extractor rows, bracket table) of the dense build."""
    vecs = [alg.vectorize(m) for m in alg.basis]
    chosen, acc = [], []
    for r in range(len(vecs[0])):
        row = tuple(v[r] for v in vecs)
        if rank(acc + [row]) > len(chosen):
            acc.append(row)
            chosen.append(r)
        if len(chosen) == alg.dim:
            break
    assert len(chosen) == alg.dim, "basis matrices are linearly dependent"
    extractor = cofactor_inverse(Mat(acc))

    def express(mat):
        vec = alg.vectorize(mat)
        coords = tuple(
            sum((e * vec[pr] for e, pr in zip(erow, chosen)), Fraction(0))
            for erow in extractor.rows
        )
        for r, target in enumerate(vec):
            if sum((c * v[r] for c, v in zip(coords, vecs)), Fraction(0)) != target:
                return None
        return coords

    table = []
    for bi in alg.basis:
        row = []
        for bj in alg.basis:
            coords = express(bi * bj - bj * bi)
            assert coords is not None, "bracket of basis pair leaves the span"
            row.append(coords)
        table.append(tuple(row))
    return tuple(chosen), extractor.rows, tuple(table)


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
