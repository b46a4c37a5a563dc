"""Paper checks that only the tests run: the group of a catalog algebra
as user-style matrices (the membership test ``validate_group_matrix``,
``group_elem`` and the G0 samples built with it), the [X,[X,Z]] solve,
projective-structure witnesses, Moebius seeds, the chain-family check, the
direct standard-fiber loop and the full-grid default-direction walk.

No command of the command line takes a group matrix, so this is the one
place where a ``Fraction`` ``Mat`` becomes a ``GroupElem``: it is checked
against the group's invariant forms (built here: conf's from its
signs, su21's as constants), inverted once and converted to the
integer engine by ``poly_reference.from_mats``.
"""

import itertools
from fractions import Fraction
from math import factorial

from parageo.algebra import AlgElem, GroupElem, bracket
from parageo.curves import CurveSpec, normal_coord_jet
from parageo.errors import NotAMember, NotApplicableGrading, UnknownCatalogName, ZeroVelocity
from parageo.lab import _iter_pair_stats, pair_coords, type_grade
from parageo.matrices import Mat, rref
from parageo.poly import Poly
from parageo.reparam import _proportionality, reparam_solve, verify_reparam
from parageo.scalars import GaussianRational

from poly_reference import entries_mat, from_mats

_F0 = Fraction(0)
_F1 = Fraction(1)


def validate_group_matrix(alg, mat):
    """Exact membership test of a matrix in the catalog group G."""
    if alg.family in ("proj", "grass", "lagr3", "xxdot"):
        return mat.det() == 1
    d = alg.matrix_dim
    if alg.family == "conf":
        form = conf_form(alg)
        return mat.transpose() * form * mat == form
    if alg.family == "su21":
        # a complex matrix (commutes with J0), preserving the Hermitian form
        # (realified: M^T F M = F), of complex determinant 1
        form, j0 = SU21_FORM, SU21_COMPLEX_STRUCTURE
        if mat * j0 != j0 * mat or mat.transpose() * form * mat != form:
            return False
        rows = mat.rows
        complex_mat = Mat(
            [GaussianRational(rows[2 * r][2 * c], rows[2 * r + 1][2 * c]) for c in range(d // 2)]
            for r in range(d // 2)
        )
        return complex_mat.det() == 1
    raise UnknownCatalogName(alg.family)


def conf_form(alg):
    """The invariant form of conf(p,q): 1 at the two corners of the
    antidiagonal and the signs of meta "signs" on the middle block."""
    d = alg.matrix_dim
    entries = {(0, d - 1): 1, (d - 1, 0): 1}
    entries.update(((1 + i, 1 + i), s) for i, s in enumerate(alg.meta["signs"]))
    return entries_mat(d, entries)


def group_elem(alg, rows):
    """Build a validated GroupElem from explicit rational matrix rows: the
    matrix is checked to lie in G, inverted once and made integral once."""
    mat = (rows if isinstance(rows, Mat) else Mat(rows)).map(Fraction)
    if not validate_group_matrix(alg, mat):
        raise ValueError("matrix is not in the group of %s" % alg.name)
    return GroupElem(alg, *(from_mats([m]) for m in (mat, mat.inverse())))


def g0_samples(alg):
    """A few explicit block-diagonal G0 elements with rational entries.

    These are user-style inputs: supplied as matrices and validated, not
    generated from abstract reductive group theory.
    """
    d = alg.matrix_dim
    out = [alg.group_identity()]
    if alg.family in ("proj", "grass"):
        n = alg.params["n"] if alg.family == "grass" else 1
        diag = [Fraction(2)] + [_F1] * (d - 2) + [Fraction(1, 2)]
        out.append(group_elem(alg, _diag(diag)))
        if n >= 2:
            # a unipotent shear inside the upper diagonal block
            rows = _diag([_F1] * d)
            rows[0][1] = _F1
            out.append(group_elem(alg, rows))
    elif alg.family == "conf":
        signs = alg.meta["signs"]
        nn = len(signs)
        out.append(group_elem(alg, _diag([Fraction(3)] + [_F1] * nn + [Fraction(1, 3)])))
        # a rational (pseudo-)rotation in the first two middle slots
        if nn >= 2:
            rows = _diag([_F1] * d)
            if signs[0] == signs[1]:
                c, s = Fraction(3, 5), Fraction(4, 5)
                rows[1][1], rows[1][2], rows[2][1], rows[2][2] = c, -s, s, c
            else:
                c, s = Fraction(5, 4), Fraction(3, 4)
                rows[1][1], rows[1][2], rows[2][1], rows[2][2] = c, s, s, c
            out.append(group_elem(alg, rows))
    elif alg.family in ("lagr3",):
        out.append(group_elem(alg, _diag([Fraction(2), Fraction(3), Fraction(1, 6)])))
        out.append(group_elem(alg, _diag([Fraction(1, 2), Fraction(-1), Fraction(-2)])))
    elif alg.family == "xxdot":
        out.append(group_elem(alg, _diag([Fraction(2), Fraction(3), Fraction(1, 2), Fraction(1, 3)])))
        rows = _diag([_F1, _F1, _F1, _F1])
        rows[2][3] = _F1
        out.append(group_elem(alg, rows))
    elif alg.family == "su21":
        # diag(2, 1, 1/2) and diag(1 + i, -i, (1 + i)/2), realified
        half = Fraction(1, 2)
        for vals in (((2, 0), (1, 0), (half, 0)), ((1, 1), (0, -1), (half, half))):
            out.append(group_elem(alg, realified({(a, a): v for a, v in enumerate(vals)})))
    return out


def realified(entries):
    """The 6 x 6 real Fraction Mat of the complex 3 x 3 matrix whose
    nonzero entries are {(row, col): (re, im)}: a + bi becomes the block
    [[a, -b], [b, a]]."""
    rows = [[_F0] * 6 for _ in range(6)]
    for (r, c), (a, b) in entries.items():
        rows[2 * r][2 * c], rows[2 * r][2 * c + 1] = Fraction(a), Fraction(-b)
        rows[2 * r + 1][2 * c], rows[2 * r + 1][2 * c + 1] = Fraction(b), Fraction(a)
    return Mat(rows)


# su(2,1) realified: the Hermitian form antidiag(1, 1, 1) and the complex
# structure J0, multiplication by i
SU21_FORM = realified({(0, 2): (1, 0), (1, 1): (1, 0), (2, 0): (1, 0)})
SU21_COMPLEX_STRUCTURE = realified({(a, a): (0, 1) for a in range(3)})


def _diag(vals):
    d = len(vals)
    rows = [[_F0] * d for _ in range(d)]
    for i, v in enumerate(vals):
        rows[i][i] = v
    return rows


def solve_linear(a_rows, b):
    """One exact solution x of A x = b, or None when inconsistent."""
    if not a_rows:
        return ()
    rows = [list(r) + [bv] for r, bv in zip(a_rows, b)]
    nc = len(a_rows[0])
    red, pivots = rref(rows)
    if nc in pivots:
        return None
    x = [Fraction(0)] * nc
    for r, pc in enumerate(pivots):
        x[pc] = red[r][-1]
    return tuple(x)


def double_bracket_solution(algebra, x, grade, target):
    """Coordinates over grade_basis(grade) of a Z with [X,[X,Z]] = target,
    or None when there is none."""
    basis = algebra.grade_basis(grade)
    cols = [bracket(x, bracket(x, bj)).coords for bj in basis]
    rows = [[cols[j][r] for j in range(len(basis))] for r in range(algebra.dim)]
    return solve_linear(rows, list(target.coords))


def projective_structure_exists(algebra, x, grade_for_z):
    """A witness Z in g_{grade} with [X,[X,Z]] = X, or None.

    The zero direction returns None by convention (a constant curve has no
    projective family of parametrizations).
    """
    if x.is_zero():
        return None
    if not x.in_grade(-grade_for_z):
        raise NotApplicableGrading("X must lie in g_-%d" % grade_for_z)
    sol = double_bracket_solution(algebra, x, grade_for_z, x)
    if sol is None:
        return None
    out = algebra.zero_elem()
    for coeff, bj in zip(sol, algebra.grade_basis(grade_for_z)):
        out = out + bj * coeff
    return out


def taylor_seed_expand(a, b, order):
    """Taylor coefficients (degrees 1..order) of a t (1 - (b/2a) t)^{-1}.

    The i-th coefficient is a (b/2a)^(i-1), the geometric-series form of
    the derivative recursion; times the closed form's denominator
    1 - (b/2a) t the series must be exactly a t modulo t^(order+1).
    """
    a = Fraction(a)
    b = Fraction(b)
    if not a:
        raise ZeroVelocity("phi'(0) must be nonzero")
    ratio = b / (2 * a)
    coeffs = []
    power = _F1
    for _ in range(order):
        coeffs.append(a * power)
        power *= ratio
    series = Poly((_F0,) + tuple(coeffs))
    if (series * Poly((_F1, -ratio))).truncate(order) != Poly((_F0, a)).truncate(order):
        raise AssertionError("seed expansion disagrees with the closed form")
    return coeffs


def mobius_candidate_between(c1, c2):
    """The unique Moebius-seed candidate matching directions and 2-jets.

    Returns (a, b) seeds when the normal-coordinate jets allow a solution
    of Y2' = a Y1' and Y2'' = b Y1' + a^2 Y1''; otherwise None.  The
    candidate still has to pass verify_reparam to count.
    """
    j1 = normal_coord_jet(c1, 2)
    j2 = normal_coord_jet(c2, 2)
    # Y^(i)(0) = i! * Y_coeffs[i]
    y1p, y1pp = (j1.Y_coeffs[i] * factorial(i) for i in (1, 2))
    y2p, y2pp = (j2.Y_coeffs[i] * factorial(i) for i in (1, 2))
    a = _proportionality(y1p, y2p)
    if a is None or a == 0:
        return None
    rest = y2pp - y1pp * (a * a)
    if rest.is_zero():
        return (a, _F0)
    b = _proportionality(y1p, rest)
    if b is None:
        return None
    return (a, b)


def expand_pair_stats(ts, x, grid, r_max):
    """The per-fiber items of ``_iter_pair_stats`` as a list of one item
    (vals, y, jet order, equal) per grid point, in grid order.

    Walks the full grid and gives each point the item of its fiber, found
    by setting the point's free coordinates to -grid.  Asserts that the
    stream's items come in grid order, each at its fiber's first point, so
    that the fibers tile the grid."""
    items = list(_iter_pair_stats(ts, x, grid, r_max))
    free = items[0][4]
    fibers = {item[0]: item[1:4] for item in items}
    assert [item[0] for item in items] == sorted(fibers)
    assert all(item[4] == free and all(item[0][i] == -grid for i in free) for item in items)
    n = len(ts.algebra.pplus_indices)
    assert len(fibers) == (2 * grid + 1) ** (n - len(free))
    return [
        (vals, *fibers[tuple(-grid if i in free else v for i, v in enumerate(vals))])
        for vals in itertools.product(range(-grid, grid + 1), repeat=n)
    ]


def coordinate_pair_stats(ts, x, grid, r_max):
    """The items of ``expand_pair_stats`` with Z and Y read as Fraction
    coordinates by ``pair_coords``: (Z coords, Y coords, jet order, equal)."""
    alg = ts.algebra
    return [
        (*pair_coords(alg, vals, y), jord, equal)
        for vals, y, jord, equal in expand_pair_stats(ts, x, grid, r_max)
    ]


def admissible_pairs(ts, x, grid):
    """The admissible (Z, Y) pairs of the family in direction X, in grid
    order: the grid points whose solved Y is a member of the type."""
    alg = ts.algebra
    return [
        (AlgElem(alg, zc), AlgElem(alg, yc))
        for zc, yc, jord, _ in coordinate_pair_stats(ts, x, grid, alg.k + 2)
        if jord is not None
    ]


def chain_family_reparam_check(alg, x, grid=2):
    """All same-direction lowest-grade curves are projectively related.

    For each admissible Z the pairwise reparametrization against the base
    chain c^{e,X} is solved from the bracket seeds and verified by
    ``verify_reparam`` as an exact polynomial identity.  Returns
    (n_checked, failures).
    """
    ts = type_grade(alg, -alg.k)
    if not ts.contains(x):
        raise NotAMember("direction must lie in the lowest grade")
    base = CurveSpec.base(alg, x)
    n = 0
    failures = []
    for z, y in admissible_pairs(ts, x, grid):
        verdict = reparam_solve(alg, x, z, y)
        if not verdict.exists:
            failures.append("no reparametrization for Z=%s" % (tuple(z.coords),))
            continue
        c2 = CurveSpec.from_Z(alg, z, y)
        if not verify_reparam(base, c2, verdict.map):
            failures.append("map failed verification for Z=%s" % (tuple(z.coords),))
        n += 1
    return n, failures


def standard_fiber_pairs(ts, grid):
    """The (X coords, [X,[X,Z]] coords, Z coords) pairs of the standard
    fiber by the direct loop, one ``elem_at`` and two brackets per (X, Z):
    the reference for ``lab.standard_fiber``."""
    alg = ts.algebra
    zs = alg.grade_slices[1]
    pairs = []
    for x in ts.grid(grid):
        for vals in itertools.product(range(-grid, grid + 1), repeat=len(zs)):
            z = alg.elem_at(zs, vals)
            second = bracket(x, bracket(x, z))
            pairs.append((tuple(x.coords), tuple(second.coords), tuple(z.coords)))
    return tuple(pairs)


def default_direction_scan(ts):
    """The default direction of a type by the full grid walk that
    ``TypeSpec.default_direction`` replaced: at bounds 1, 2, 3, walk
    ``ts.grid(bound)`` from (-b, ..., -b), return the first nonzero member
    with no negative coordinate, or else the first nonzero member."""
    fallback = None
    for bound in (1, 2, 3):
        for x in ts.grid(bound):
            if not x:
                continue
            if all(c >= 0 for c in x.coords):
                return x
            fallback = fallback or x
        if fallback is not None:
            return fallback
    raise NotAMember("type %s has no small integer member" % ts.label)
