"""Jet-determination experiments, standard fibers, and family dimensions.

The experiments all follow the same reduction: a geodesic with a prescribed
direction X in n is, up to the choices that do not move the curve, of the
form c^{exp(Z), Y} with Z in p_+ and Y solved exactly from the constraint
that the truncated adjoint action of exp(Z) maps Y to X.  Grids are
deterministic (integer coordinates in a symmetric range, lexicographic
order), so reports are reproducible byte for byte.

Per-pair jet orders are computed from the constant-matrix derivatives of
delta_u at 0 (exact), and curve equality is always decided by the full
polynomial identity "u(t) stays in the P block pattern"; the jets are used
only to skip pairs whose curves already differ at jet level, which is
sound without any theorem: distinct jets force distinct curves.  Every
witness that lands in a report is re-verified through the public
curve-engine operations, including the independent normal-coordinate
oracle.  Every grid pair runs on the exact integer engine of
``_fastgrid``, for every catalog algebra and every rational direction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgElem, bracket, exp_mat, exp_nilpotent, group_exp
from .curves import CurveSpec, curves_equal, jet_equal, normal_coord_jet
from .errors import (
    EmptyGrid,
    NotAMember,
    NotInNilpotentPart,
    NotOneGraded,
    OracleDisagreement,
)
from ._fastgrid import grid_kernel
from .matrices import rank, rref, solve_linear
from .poly import P_T, Poly
from .reparam import reparam_solve, verify_reparam

_F0 = Fraction(0)
_F1 = Fraction(1)


# -- type specs ----------------------------------------------------------------


class TypeSpec:
    """A G0-invariant set A of admissible directions in n.

    ``kind`` is one of full_n / grade / null_cone / rank_stratum / custom;
    membership is always an exact predicate on coordinates.  ``token`` is
    a picklable recipe for rebuilding the spec in worker processes (None
    for ad-hoc custom predicates, which then run single-process).
    """

    __slots__ = ("algebra", "kind", "label", "data", "token", "_member")

    def __init__(self, algebra, kind, label, member, data=None, token=None):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "token", token)
        object.__setattr__(self, "_member", member)

    def __setattr__(self, name, value):
        raise AttributeError("TypeSpec is immutable")

    def contains(self, x):
        if x.algebra is not self.algebra:
            return False
        if not x.in_n():
            return False
        return self._member(x)

    def __repr__(self):
        return "TypeSpec(%s: %s)" % (self.algebra.name, self.label)

    # enumeration ------------------------------------------------------------

    def param_indices(self):
        """Basis indices of the smallest grade-span containing the set."""
        alg = self.algebra
        if self.kind == "grade":
            return list(alg.grade_slices[self.data])
        return [i for i in range(alg.dim) if alg.basis_grades[i] < 0]

    def grid(self, bound):
        """Deterministic enumeration of members with integer coordinates."""
        if bound < 0:
            raise EmptyGrid("grid bound must be >= 0")
        alg = self.algebra
        idxs = self.param_indices()
        for vals in itertools.product(range(-bound, bound + 1), repeat=len(idxs)):
            coords = [_F0] * alg.dim
            for i, v in zip(idxs, vals):
                coords[i] = Fraction(v)
            x = AlgElem(alg, tuple(coords))
            if self.contains(x):
                yield x

    def default_direction(self):
        """A canonical member used by the CLI when no direction is given."""
        fallback = None
        for bound in (1, 2, 3):
            for x in self.grid(bound):
                if not x:
                    continue
                if all(c >= 0 for c in x.coords):
                    return x
                fallback = fallback or x
            if fallback is not None:
                return fallback
        raise NotAMember("type %s has no small integer member" % self.label)


def type_full(alg):
    return TypeSpec(alg, "full_n", "full_n", lambda x: True, token=("full_n",))


def type_grade(alg, grade):
    if not (-alg.k <= grade <= -1):
        raise NotAMember("grade must be one of -1..-%d" % alg.k)
    return TypeSpec(
        alg,
        "grade",
        "grade(%d)" % grade,
        lambda x: x.in_grade(grade),
        data=grade,
        token=("grade", grade),
    )


def conf_norm_square(x):
    """X^t J X for a g_-1 element of a conformal algebra."""
    signs = x.algebra.meta["signs"]
    vec = x.grade_coords(-1)
    return sum(s * v * v for s, v in zip(signs, vec))


def type_null_cone(alg):
    if alg.family != "conf":
        raise NotAMember("null_cone is a conformal type")
    return TypeSpec(
        alg,
        "null_cone",
        "null_cone",
        lambda x: bool(x) and conf_norm_square(x) == 0,
        token=("null_cone",),
    )


def grass_block(x):
    """The m x n block matrix of a grass/proj g_-1 element."""
    m, n = x.algebra.meta["x_shape"]
    vec = x.grade_coords(-1)
    return [[vec[i * n + j] for j in range(n)] for i in range(m)]


def type_rank_stratum(alg, r):
    if alg.family not in ("grass", "proj"):
        raise NotAMember("rank_stratum is a Grassmannian type")
    return TypeSpec(
        alg,
        "rank_stratum",
        "rank(%d)" % r,
        lambda x: rank(grass_block(x)) == r,
        data=r,
        token=("rank_stratum", r),
    )


def type_custom(alg, label, member, data=None, token=None):
    return TypeSpec(alg, "custom", label, member, data=data, token=token)


def _lagr3_parts(x):
    gm1 = x.grade_coords(-1)
    return gm1[0], gm1[1], x.grade_coords(-2)[0]


def _xxdot_parts(x):
    gm1 = x.grade_coords(-1)
    return gm1[0], (gm1[1], gm1[2]), x.grade_coords(-2)


def _parallel(u, v):
    return u[0] * v[1] - u[1] * v[0] == 0


_LAGR3_STRATA = {
    "lagrange1": lambda a, b, c: a != 0 and b == 0 and c == 0,
    "lagrange2": lambda a, b, c: a == 0 and b != 0 and c == 0,
    "contact-generic": lambda a, b, c: a != 0 and b != 0 and c == 0,
    "chain-equiv1": lambda a, b, c: a != 0 and b == 0 and c != 0,
    "chain-equiv2": lambda a, b, c: a == 0 and b != 0 and c != 0,
    "generic": lambda a, b, c: a != 0 and b != 0 and c != 0,
}

_XXDOT_STRATA = {
    "x1": lambda x1, X1, X2: x1 != 0 and X1 == (0, 0) and X2 == (0, 0),
    "X1": lambda x1, X1, X2: x1 == 0 and X1 != (0, 0) and X2 == (0, 0),
    "contact-generic": lambda x1, X1, X2: x1 != 0 and X1 != (0, 0) and X2 == (0, 0),
    "cylinder": lambda x1, X1, X2: X2 != (0, 0) and _parallel(X1, X2),
    "cylinder-a1": lambda x1, X1, X2: x1 == 0 and X2 != (0, 0) and _parallel(X1, X2),
    "cylinder-a2": lambda x1, X1, X2: X1 == (0, 0) and X2 != (0, 0),
    "offcyl": lambda x1, X1, X2: x1 == 0 and not _parallel(X1, X2),
    "generic": lambda x1, X1, X2: x1 != 0 and not _parallel(X1, X2),
}


def type_stratum(alg, name):
    """Named G0-invariant strata of n for the contact-type catalogs."""
    if alg.family == "lagr3" and name in _LAGR3_STRATA:
        pred = _LAGR3_STRATA[name]
        return type_custom(alg, name, lambda x: pred(*_lagr3_parts(x)), token=("stratum", name))
    if alg.family == "xxdot" and name in _XXDOT_STRATA:
        pred = _XXDOT_STRATA[name]
        return type_custom(alg, name, lambda x: pred(*_xxdot_parts(x)), token=("stratum", name))
    raise NotAMember("unknown stratum %r for %s" % (name, alg.name))


def type_from_token(alg, token):
    """Rebuild a TypeSpec from its picklable token."""
    kind = token[0]
    if kind == "full_n":
        return type_full(alg)
    if kind == "grade":
        return type_grade(alg, token[1])
    if kind == "null_cone":
        return type_null_cone(alg)
    if kind == "rank_stratum":
        return type_rank_stratum(alg, token[1])
    if kind == "stratum":
        return type_stratum(alg, token[1])
    raise NotAMember("unknown type token %r" % (token,))


def g0_orbit_classify(x):
    """Stratum label of a direction under the reductive subgroup G0."""
    alg = x.algebra
    if not x.in_n():
        raise NotInNilpotentPart("direction must lie in n")
    if x.is_zero():
        return "zero"
    if alg.family == "conf":
        n2 = conf_norm_square(x)
        if n2 == 0:
            return "null"
        return "spacelike" if n2 > 0 else "timelike"
    if alg.family in ("grass", "proj"):
        return "rank %d" % rank(grass_block(x))
    if alg.family == "lagr3":
        a, b, c = _lagr3_parts(x)
        for name, pred in _LAGR3_STRATA.items():
            if pred(a, b, c):
                return name
        return "chain"
    if alg.family == "xxdot":
        x1, X1, X2 = _xxdot_parts(x)
        if X2 == (0, 0):
            for name in ("x1", "X1", "contact-generic"):
                if _XXDOT_STRATA[name](x1, X1, X2):
                    return name
        else:
            if x1 == 0 and X1 == (0, 0):
                return "chain"
            if _parallel(X1, X2):
                if x1 == 0:
                    return "cylinder-a1"
                if X1 == (0, 0):
                    return "cylinder-a2"
                return "cylinder-generic"
            return "offcyl" if x1 == 0 else "generic"
    if alg.family == "su21":
        u = x.grade_coords(-1)
        v = x.grade_coords(-2)
        if any(v) and any(u):
            return "generic"
        return "chain" if any(v) else "contact"
    return "generic"


# -- direction constraint ------------------------------------------------------


def iter_pplus_coords(alg, bound):
    """Integer coordinate tuples over the p_+ basis, lexicographic."""
    if bound < 0:
        raise EmptyGrid("grid bound must be >= 0")
    nplus = sum(len(alg.grade_slices[g]) for g in range(1, alg.k + 1))
    return itertools.product(range(-bound, bound + 1), repeat=nplus)


def pplus_elem(alg, vals):
    coords = [_F0] * alg.dim
    idx = 0
    for g in range(1, alg.k + 1):
        for i in alg.grade_slices[g]:
            coords[i] = Fraction(vals[idx])
            idx += 1
    return AlgElem(alg, tuple(coords))


def solve_direction(g, x):
    """The unique Y in n with truncated_Ad(g, Y) = X, solved exactly.

    The truncated action is unipotent with respect to the grade filtration
    of n, so the fixed-point iteration Y <- Y + (X - Adbar(Y)) terminates
    in at most k steps.
    """
    alg = x.algebra
    gm, gi = g.mat, g.inv_mat
    ymat = x.matrix
    xmat = x.matrix
    for _ in range(alg.k + 1):
        img = alg.negative_position_part(gm * ymat * gi)
        resid = xmat - img
        if resid.is_zero():
            return AlgElem(alg, alg.express(ymat, check=False))
        ymat = ymat + resid
    raise OracleDisagreement("direction constraint failed to converge")


def paper_jet_bound(ts):
    """The proved determination bound for this type of geodesics."""
    k = ts.algebra.k
    if k == 1:
        return 2
    if ts.kind == "grade":
        j = -ts.data
        return -(-(k + 1) // j)  # ceil((k+1)/j)
    return k + 2


# -- jet order search ----------------------------------------------------------


@dataclass(frozen=True)
class PairRecord:
    z_coords: tuple
    y_coords: tuple
    jet_order: int
    equal: bool


@dataclass(frozen=True)
class JetOrderReport:
    algebra: str
    type_label: str
    direction: tuple
    grid_range: int
    orders_tested: tuple
    claimed_bound: int
    n_grid: int
    n_admissible: int
    n_equal: int
    verdicts: dict
    counterexamples: dict
    violations: tuple
    empirical_sharp_order: int | None

    def passed(self):
        return not self.violations

    def to_jsonable(self):
        return {
            "algebra": self.algebra,
            "type": self.type_label,
            "direction": [str(c) for c in self.direction],
            "grid_range": self.grid_range,
            "orders_tested": list(self.orders_tested),
            "claimed_bound": self.claimed_bound,
            "n_grid": self.n_grid,
            "n_admissible": self.n_admissible,
            "n_equal": self.n_equal,
            "verdicts": {str(r): v for r, v in sorted(self.verdicts.items())},
            "counterexamples": {
                str(r): {
                    "Z": [str(c) for c in w.z_coords],
                    "Y": [str(c) for c in w.y_coords],
                    "jet_order": w.jet_order,
                }
                for r, w in sorted(self.counterexamples.items())
            },
            "violations": list(self.violations),
            "empirical_sharp_order": self.empirical_sharp_order,
            "pass": self.passed(),
        }


def _pair_step(ts, kern, vals, r_max):
    """(Z coords, Y coords, jet order, equal) of one p_+ grid point."""
    alg = ts.algebra
    zc = tuple(pplus_elem(alg, vals).coords)
    e, einv, s = kern.exp_pair(kern.combo_rows(vals))
    y_num, y_den, a2num, a2den = kern.solve_direction(e, einv, s)
    yc = kern.elem_coords(y_num, y_den)
    if not ts.contains(AlgElem(alg, yc)):
        return zc, yc, None, False
    jord = kern.pair_jet_order(a2num, a2den, r_max)
    return zc, yc, jord, jord == r_max and kern.curves_equal(a2num, a2den)


def _iter_pair_stats(ts, x, grid, r_max):
    """Stream (Z coords, Y coords, jet order, equal) over the p_+ grid.

    ``jet order`` is None when the solved Y is not a member of the type;
    ``equal`` is the exact polynomial curve identity, computed only when
    the jets agree through r_max (pairs with lower jet order are unequal
    by definition: distinct jets force distinct curves).  Every pair runs
    on the integer grid engine of ``_fastgrid``.
    """
    kern = grid_kernel(ts.algebra, x)
    for vals in iter_pplus_coords(ts.algebra, grid):
        yield _pair_step(ts, kern, vals, r_max)


def _pair_stats_chunk(args):
    """Worker entry point: evaluate one contiguous chunk of the Z grid."""
    algebra_name, token, x_coords, chunk, r_max = args
    from .catalog import make_algebra

    alg = make_algebra(algebra_name)
    ts = type_from_token(alg, token)
    kern = grid_kernel(alg, AlgElem(alg, x_coords))
    return [_pair_step(ts, kern, vals, r_max) for vals in chunk]


def _pair_stats(ts, x, grid, r_max, workers=1):
    """Pair statistics, optionally fanned out to a worker pool.

    Chunks are contiguous slices of the lexicographic grid and results are
    merged in chunk order, so the output is identical for any worker count.
    """
    if workers <= 1 or ts.token is None:
        return list(_iter_pair_stats(ts, x, grid, r_max))
    from concurrent.futures import ProcessPoolExecutor

    vals_list = list(iter_pplus_coords(ts.algebra, grid))
    nchunks = min(workers * 4, max(1, len(vals_list)))
    size = -(-len(vals_list) // nchunks)
    chunks = [vals_list[i : i + size] for i in range(0, len(vals_list), size)]
    args = [(ts.algebra.name, ts.token, tuple(x.coords), chunk, r_max) for chunk in chunks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_pair_stats_chunk, args))
    return [stat for part in parts for stat in part]


def min_jet_order_search(ts, x, grid=2, r_max=None, claimed_bound=None, reverify=True, workers=1):
    """Check "equal r-jets implies equal curves" over the p_+ grid.

    For each Z with integer coordinates in [-grid, grid] the unique Y with
    truncated_Ad(exp Z, Y) = X is solved exactly and kept when Y is again
    a member of the type.  The verdict for each order r <= r_max is either
    "confirmed" or the first counterexample in grid order; a counterexample
    at or above the proved bound is recorded as a violation.  The sharp
    order is empirical: a lower bound from a counterexample at r-1 plus
    the confirmation at r, never a claim beyond the grid.
    """
    alg = ts.algebra
    if not ts.contains(x):
        raise NotAMember("base direction is not a member of %s" % ts.label)
    if not x:
        raise NotAMember("base direction must be nonzero")
    r_max = r_max if r_max is not None else alg.k + 3
    claimed = claimed_bound if claimed_bound is not None else paper_jet_bound(ts)
    records = []
    n_grid = 0
    for zc, yc, jord, equal in _pair_stats(ts, x, grid, r_max, workers=workers):
        n_grid += 1
        if jord is None:
            continue
        if jord == 0:
            raise OracleDisagreement("solved pair does not even share its 1-jet")
        records.append(PairRecord(zc, yc, jord, equal))
    verdicts = {}
    counterexamples = {}
    violations = []
    for r in range(1, r_max + 1):
        witness = next((p for p in records if p.jet_order >= r and not p.equal), None)
        if witness is None:
            verdicts[r] = "confirmed"
        else:
            verdicts[r] = "counterexample"
            counterexamples[r] = witness
            if r >= claimed:
                violations.append(
                    "counterexample at order %d despite proved bound %d" % (r, claimed)
                )
    sharp = None
    for r in range(1, r_max + 1):
        if verdicts[r] == "confirmed":
            if r == 1 or verdicts[r - 1] == "counterexample":
                sharp = r
            break
    if reverify:
        base = CurveSpec.base(alg, x)
        for r, w in counterexamples.items():
            c2 = CurveSpec.from_Z(alg, AlgElem(alg, w.z_coords), AlgElem(alg, w.y_coords))
            if not jet_equal(base, c2, r) or curves_equal(base, c2):
                raise OracleDisagreement("reported witness failed re-verification")
    return JetOrderReport(
        algebra=alg.name,
        type_label=ts.label,
        direction=tuple(x.coords),
        grid_range=grid,
        orders_tested=tuple(range(1, r_max + 1)),
        claimed_bound=claimed,
        n_grid=n_grid,
        n_admissible=len(records),
        n_equal=sum(1 for p in records if p.equal),
        verdicts=verdicts,
        counterexamples=counterexamples,
        violations=tuple(violations),
        empirical_sharp_order=sharp,
    )


# -- proof-claim checker for the grade(-1) bound --------------------------------


@dataclass(frozen=True)
class Prop41Report:
    algebra: str
    n_samples: int
    n_applicable: int
    violations: tuple

    def passed(self):
        return not self.violations

    def to_jsonable(self):
        return {
            "algebra": self.algebra,
            "n_samples": self.n_samples,
            "n_applicable": self.n_applicable,
            "violations": list(self.violations),
            "pass": self.passed(),
        }


def verify_prop41_claim(alg, x_samples=None, z_bound=1, extra_orders=4):
    """Exact check of the inductive claim behind the (k+1)-jet bound.

    For W = Ad(exp Z_1 ... exp Z_k) X - X with X in g_-1: whenever
    ad_X^i(W) lies in p for all i <= l, each ad_X^(j+1)(Z_j) with j <= l
    must vanish and ad_X^n(W'_l) must stay in p for n > l (checked up to
    l + extra_orders), where W'_l collects the terms of the expansion that
    involve only Z_1..Z_l, i.e. W'_l = Ad(exp Z_1 ... exp Z_l) X - X.
    """
    if alg.k < 2:
        raise NotOneGraded("claim checker needs grading depth >= 2")
    if x_samples is None:
        basis = alg.grade_basis(-1)
        x_samples = list(basis)
        x_samples.append(sum(basis[1:], basis[0]))
        if len(basis) >= 2:
            x_samples.append(basis[0] - basis[1])
    zgrids = []
    for g in range(1, alg.k + 1):
        dims = len(alg.grade_slices[g])
        zgrids.append(
            [vals for vals in itertools.product(range(-z_bound, z_bound + 1), repeat=dims)]
        )
    n_samples = 0
    n_applicable = 0
    violations = []
    for x in x_samples:
        xm = x.matrix
        for combo in itertools.product(*zgrids):
            n_samples += 1
            zs = []
            for g, vals in enumerate(combo, start=1):
                coords = [_F0] * alg.dim
                for i, v in zip(alg.grade_slices[g], vals):
                    coords[i] = Fraction(v)
                zs.append(AlgElem(alg, tuple(coords)))
            mats = [exp_nilpotent(z, _F1) for z in zs]
            prod = mats[0]
            for m in mats[1:]:
                prod = prod * m
            prod_inv = None
            w = _conj(prod, xm) - xm
            if not alg.matrix_in_p_pattern(w):
                violations.append("W left p for X=%s" % (x.coords,))
                continue
            # largest l with ad_X^i(W) in p for all i <= l
            ell = 0
            d = w
            while ell < alg.k:
                d = xm * d - d * xm
                if not alg.matrix_in_p_pattern(d):
                    break
                ell += 1
            if ell >= 1:
                n_applicable += 1
            for j in range(1, min(ell, alg.k) + 1):
                t = zs[j - 1].matrix
                for _ in range(j + 1):
                    t = xm * t - t * xm
                if not t.is_zero():
                    violations.append(
                        "ad_X^%d(Z_%d) != 0 at l=%d, X=%s" % (j + 1, j, ell, x.coords)
                    )
            # W'_l from the partial product
            if ell == 0:
                continue
            partial = mats[0]
            for m in mats[1:ell]:
                partial = partial * m
            wl = _conj(partial, xm) - xm
            d = wl
            for n in range(1, ell + extra_orders + 1):
                d = xm * d - d * xm
                if n > ell and not alg.matrix_in_p_pattern(d):
                    violations.append("ad_X^%d(W'_%d) left p, X=%s" % (n, ell, x.coords))
    return Prop41Report(alg.name, n_samples, n_applicable, tuple(violations))


def _conj(gmat, xmat):
    return gmat * xmat * gmat.inverse()


# -- standard fiber -------------------------------------------------------------


@dataclass(frozen=True)
class FiberSample:
    algebra: str
    type_label: str
    grid_range: int
    pairs: tuple  # (X coords, second coords, Z coords)

    def to_jsonable(self):
        return {
            "algebra": self.algebra,
            "type": self.type_label,
            "grid_range": self.grid_range,
            "n_pairs": len(self.pairs),
            "pairs": [
                {
                    "X": [str(c) for c in x],
                    "second": [str(c) for c in s],
                    "Z": [str(c) for c in z],
                }
                for x, s, z in self.pairs
            ],
        }


def standard_fiber(ts, grid=2):
    """All admissible 2-jets (X, [X,[X,Z]]) over the grid, Z in g_1."""
    alg = ts.algebra
    if alg.k != 1:
        raise NotOneGraded("standard fiber is computed for |1|-graded algebras")
    pairs = []
    zs = list(alg.grade_slices[1])
    for x in ts.grid(grid):
        for vals in itertools.product(range(-grid, grid + 1), repeat=len(zs)):
            coords = [_F0] * alg.dim
            for i, v in zip(zs, vals):
                coords[i] = Fraction(v)
            z = AlgElem(alg, tuple(coords))
            second = bracket(x, bracket(x, z))
            pairs.append((tuple(x.coords), tuple(second.coords), tuple(z.coords)))
    return FiberSample(alg.name, ts.label, grid, tuple(pairs))


def fiber_second_in_span(alg, x, second):
    """Is ``second`` of the form [X,[X,Z]] for some Z in g_1 (exact solve)?"""
    basis = alg.grade_basis(1)
    cols = [bracket(x, bracket(x, bj)).coords for bj in basis]
    rows = [[cols[j][r] for j in range(len(basis))] for r in range(alg.dim)]
    return solve_linear(rows, list(second.coords)) is not None


def pplus_action_on_2jets(w, jet):
    """The action of exp(W), W in g_1, on admissible 2-jets (Y', Y'')."""
    alg = w.algebra
    if alg.k != 1:
        raise NotOneGraded("2-jet action is defined for |1|-graded algebras")
    if not w.in_grade(1) and not w.is_zero():
        raise NotAMember("W must lie in g_1")
    y1, y2 = jet
    return (y1, y2 + bracket(y1, bracket(y1, w)))


# -- family dimensions ----------------------------------------------------------


@dataclass(frozen=True)
class FamilyReport:
    algebra: str
    type_label: str
    direction: tuple
    grid_range: int
    n_admissible: int
    admissible_hull_dim: int
    stabilizer_points: tuple
    stabilizer_hull_dim: int
    stabilizer_linear: bool
    family_dimension: int
    family_dimension_range: tuple
    jet_class_count: int | None

    def to_jsonable(self):
        return {
            "algebra": self.algebra,
            "type": self.type_label,
            "direction": [str(c) for c in self.direction],
            "grid_range": self.grid_range,
            "n_admissible": self.n_admissible,
            "admissible_hull_dim": self.admissible_hull_dim,
            "stabilizer_size": len(self.stabilizer_points),
            "stabilizer_hull_dim": self.stabilizer_hull_dim,
            "stabilizer_linear": self.stabilizer_linear,
            "family_dimension": self.family_dimension,
            "family_dimension_range": list(self.family_dimension_range),
            "jet_class_count": self.jet_class_count,
        }


def _pplus_flat(alg, elem):
    out = []
    for g in range(1, alg.k + 1):
        out.extend(elem.grade_coords(g))
    return tuple(out)


def family_dimension(ts, x, grid=2, jet_class_cap=512):
    """Dimension bookkeeping for the parametrized geodesics in direction X.

    Enumerates Z over the p_+ grid, solves the direction constraint for Y,
    keeps members of the type, and splits off the stabilizer K of curves
    equal to the base curve c^{e,X} (each K point verified by the exact
    polynomial identity).  The family dimension is the linear-hull
    dimension of admissible Z minus that of K; when K fails the grid
    linearity check the claim is downgraded to a range.
    """
    alg = ts.algebra
    if not ts.contains(x):
        raise NotAMember("direction is not a member of %s" % ts.label)
    r_filter = alg.k + 2
    admissible = []
    stab = []
    for zc, yc, jord, equal in _iter_pair_stats(ts, x, grid, r_filter):
        if jord is None:
            continue
        z = AlgElem(alg, zc)
        admissible.append((z, AlgElem(alg, yc)))
        if equal:
            stab.append(z)
    adm_rows = [_pplus_flat(alg, z) for z, _ in admissible]
    stab_rows = [_pplus_flat(alg, z) for z in stab]
    adm_dim = rank(adm_rows) if adm_rows else 0
    stab_dim = rank(stab_rows) if stab_rows else 0
    stab_set = {r for r in stab_rows}
    linear = True
    if stab_rows:
        red, pivots = rref(stab_rows)
        span_rows = [red[i] for i in range(len(pivots))]
        for z, _ in admissible:
            flat = _pplus_flat(alg, z)
            if flat in stab_set:
                continue
            if rank(span_rows + [list(flat)]) == stab_dim:
                linear = False
                break
    fam = adm_dim - stab_dim
    fam_range = (fam, adm_dim) if not linear else (fam, fam)
    classes = None
    if len(admissible) <= jet_class_cap:
        signatures = set()
        order = alg.k + 2
        for z, y in admissible:
            c2 = CurveSpec.from_Z(alg, z, y)
            signatures.add(normal_coord_jet(c2, order).coeffs_prefix(order))
        classes = len(signatures)
    return FamilyReport(
        algebra=alg.name,
        type_label=ts.label,
        direction=tuple(x.coords),
        grid_range=grid,
        n_admissible=len(admissible),
        admissible_hull_dim=adm_dim,
        stabilizer_points=tuple(_pplus_flat(alg, z) for z in stab),
        stabilizer_hull_dim=stab_dim,
        stabilizer_linear=linear,
        family_dimension=fam,
        family_dimension_range=fam_range,
        jet_class_count=classes,
    )


def family_members(ts, x, grid=2):
    """The admissible (Z, Y) pairs of the family in direction X."""
    alg = ts.algebra
    kern = grid_kernel(alg, x)
    out = []
    for vals in iter_pplus_coords(alg, grid):
        e, einv, s = kern.exp_pair(kern.combo_rows(vals))
        y_num, y_den, _, _ = kern.solve_direction(e, einv, s)
        y = AlgElem(alg, kern.elem_coords(y_num, y_den))
        if ts.contains(y):
            out.append((pplus_elem(alg, vals), y))
    return out


def mobius_candidate_between(c1, c2, order=None):
    """The unique Moebius-seed candidate matching directions and 2-jets.

    Returns (a, b) seeds when the normal-coordinate jets allow a solution
    of Y2' = a Y1' and Y2'' = b Y1' + a^2 Y1''; otherwise None.  The
    candidate still has to pass verify_reparam to count.
    """
    alg = c1.algebra
    order = order if order is not None else 2
    j1 = normal_coord_jet(c1, order)
    j2 = normal_coord_jet(c2, order)
    y1p, y1pp = j1.derivative_at_zero(1), j1.derivative_at_zero(2)
    y2p, y2pp = j2.derivative_at_zero(1), j2.derivative_at_zero(2)
    a = _prop(y1p, y2p)
    if a is None or a == 0:
        return None
    rest = y2pp - y1pp * (a * a)
    if rest.is_zero():
        return (a, _F0)
    b = _prop(y1p, rest)
    if b is None:
        return None
    return (a, b)


def _prop(ref, x):
    ratio = None
    for cr, cx in zip(ref.coords, x.coords):
        if cr:
            ratio = cx / cr
            break
        if cx:
            return None
    if ratio is None:
        return None
    return ratio if ref * ratio == x else None


# -- orbit hulls -----------------------------------------------------------------


@dataclass(frozen=True)
class OrbitHullReport:
    algebra: str
    type_label: str
    grid_range: int
    n_points: int
    hull_dim: int
    orbit_dim: int
    description_violations: tuple

    def passed(self):
        return not self.description_violations

    def to_jsonable(self):
        return {
            "algebra": self.algebra,
            "type": self.type_label,
            "grid_range": self.grid_range,
            "n_points": self.n_points,
            "hull_dim": self.hull_dim,
            "orbit_dim": self.orbit_dim,
            "description_violations": list(self.description_violations),
            "pass": self.passed(),
        }


def _truncated_ad_coords_poly(alg, z0, dz, y0, dy):
    """Poly coords of s -> Adbar(exp(z0 + s dz))(y0 + s dy), exact."""
    zmat = z0.matrix.map(lambda v: Poly.const(v)) + dz.matrix.scale(P_T)
    ymat = y0.matrix.map(lambda v: Poly.const(v)) + dy.matrix.scale(P_T)
    g = exp_mat(zmat)
    gi = exp_mat(-zmat)
    img = alg.negative_position_part(g * ymat * gi)
    coords = alg.express_poly(img, check=False)
    return coords


def orbit_hull_dimension(ts, grid=2, probes=6):
    """Hull and pointwise dimension of the truncated-adjoint orbit of a set.

    ``hull_dim`` is the linear span of the sampled orbit points; the orbit
    itself is usually a proper subvariety, so ``orbit_dim`` reports the
    maximal Jacobian rank of the orbit parametrization (Z, X) -> Adbar(exp
    Z)(X) over deterministic rational probe points (an exact tangent-space
    dimension at the best sampled point).  Where a parametric description
    of the orbit is known, every sampled point is checked against it.
    """
    alg = ts.algebra
    nplus = sum(len(alg.grade_slices[g]) for g in range(1, alg.k + 1))
    zero = pplus_elem(alg, (0,) * nplus)
    points = []
    zs_used = [pplus_elem(alg, vals) for vals in iter_pplus_coords(alg, min(grid, 1))]
    xs_used = list(ts.grid(grid))
    for z in zs_used:
        g = group_exp(z)
        gm, gi = g.mat, g.inv_mat
        for x in xs_used:
            img = alg.negative_position_part(gm * x.matrix * gi)
            points.append((z, x, AlgElem(alg, alg.express(img, check=False))))
    rows = [list(p.coords) for _, _, p in points]
    hull = rank(rows) if rows else 0
    checker = _orbit_description(alg, ts)
    bad = []
    if checker is not None:
        for z, x, p in points:
            if not checker(p):
                bad.append("orbit point from Z=%s X=%s violates the description" % (
                    tuple(z.coords), tuple(x.coords)))
    # pointwise tangent dimension at probe points
    param_basis = [alg.basis_elem(i) for i in ts.param_indices()]
    pplus_basis = []
    for g in range(1, alg.k + 1):
        pplus_basis.extend(alg.grade_basis(g))
    probe_pairs = []
    nonzero_xs = [x for x in xs_used if x]
    ones = pplus_elem(alg, (1,) * nplus)
    for x in (nonzero_xs[:2] + nonzero_xs[-2:]):
        probe_pairs.append((zero, x))
        probe_pairs.append((ones, x))
    best = 0
    for z0, x0 in probe_pairs[:probes]:
        cols = []
        for dz in pplus_basis:
            coords = _truncated_ad_coords_poly(alg, z0, dz, x0, x0.algebra.zero_elem())
            cols.append([p[1] for p in coords])
        for dx in param_basis:
            coords = _truncated_ad_coords_poly(alg, z0, z0.algebra.zero_elem(), x0, dx)
            cols.append([p[1] for p in coords])
        best = max(best, rank([list(col) for col in zip(*cols)]) if cols else 0)
        if best == hull:
            break
    return OrbitHullReport(
        algebra=alg.name,
        type_label=ts.label,
        grid_range=grid,
        n_points=len(points),
        hull_dim=hull,
        orbit_dim=best,
        description_violations=tuple(bad),
    )


def _orbit_description(alg, ts):
    """Known parametric descriptions of truncated-adjoint orbits."""
    if alg.k == 1:
        # p_+ acts trivially on g/p: the orbit of any set is the set itself
        return lambda p: ts.contains(p)
    if alg.family == "xxdot" and ts.kind == "grade" and ts.data == -2:
        def cyl(p):
            x1, X1, X2 = _xxdot_parts(p)
            return _parallel(X1, X2)
        return cyl
    if alg.family == "lagr3" and ts.kind == "grade" and ts.data == -2:
        def offcontact(p):
            a, b, c = _lagr3_parts(p)
            return bool(c) or (a == 0 and b == 0)
        return offcontact
    return None


# -- chains up to reparametrization ----------------------------------------------


def chain_family_reparam_check(alg, x, grid=2):
    """All same-direction lowest-grade curves are projectively related.

    For each admissible Z the pairwise reparametrization against the base
    chain c^{e,X} is solved from the bracket seeds and verified as an
    exact rational-function identity.  Returns (n_checked, failures).
    """
    ts = type_grade(alg, -alg.k)
    if not ts.contains(x):
        raise NotAMember("direction must lie in the lowest grade")
    base = CurveSpec.base(alg, x)
    n = 0
    failures = []
    for z, y in family_members(ts, x, grid):
        verdict = reparam_solve(alg, x, z, y)
        if not verdict.exists:
            failures.append("no reparametrization for Z=%s" % (tuple(z.coords),))
            continue
        c2 = CurveSpec.from_Z(alg, z, y)
        if not verify_reparam(base, c2, verdict.map):
            failures.append("map failed verification for Z=%s" % (tuple(z.coords),))
        n += 1
    return n, failures
