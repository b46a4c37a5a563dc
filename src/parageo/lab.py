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
``_fastgrid``, for every catalog algebra and every rational direction:
the pair system (the whole step as integer polynomials in Z's grid
coordinates, built once per search) is the pair route, and the matrix
kernel ``GridKernel`` is its oracle, rerun on the first pair of each
outcome.

The pair stream ``_iter_pair_stats`` yields one item per fiber of the
grid coordinates that the pair system reads, and stays in integers: Z is
its grid tuple, Y an integer matrix and denominator, and the type test
of full_n and grade(-j) reads the matrix positions.  Fraction coordinates
are built (by ``pair_coords``) only for what a report keeps or an oracle
re-solves: the witnesses of a jets search, and the first pair of each jet
class that a family counts on its compiled ``JetSignature``.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .algebra import AlgElem, GradedAlgebra, bracket, exp_nilpotent, group_exp, truncated_Ad
from .catalog import MAX_GRID_POINTS, MAX_JET_ORDER
from .curves import CurveSpec, curves_equal, jet_equal, normal_coord_jet
from .errors import (
    EmptyGrid,
    GridTooLarge,
    NotAMember,
    NotInNilpotentPart,
    NotOneGraded,
    OracleDisagreement,
    ParageoError,
)
from ._fastgrid import IntPolyMat, JetSignature, PairSystem, grid_kernel
from .matrices import echelon, rank, remainder


# -- type specs ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TypeSpec:
    """A G0-invariant set A of admissible directions in n.

    ``kind`` is one of full_n / grade / stratum.  A grade type's ``data``
    is its grade; a stratum type's is the frozenset of the
    ``g0_orbit_classify`` labels of its members, so membership is always an
    exact predicate on coordinates.  ``label`` is also the recipe that
    rebuilds the spec: ``parse_type(algebra, label)`` returns an equal
    spec.
    """

    algebra: GradedAlgebra
    kind: str
    label: str
    data: int | frozenset | None = None

    def contains(self, x):
        if x.algebra is not self.algebra:
            return False
        if not x.in_n():
            return False
        if self.kind == "grade":
            return x.in_grade(self.data)
        if self.kind == "stratum":
            return g0_orbit_classify(x) in self.data
        return True

    def __repr__(self):
        return "TypeSpec(%s: %s)" % (self.algebra.name, self.label)

    # enumeration ------------------------------------------------------------

    def param_indices(self):
        """Basis indices of the smallest grade-span containing the set."""
        alg = self.algebra
        if self.kind == "grade":
            return alg.grade_slices[self.data]
        return alg.n_indices

    def _members(self, values):
        """Members with every parameter coordinate in ``values``, lexicographic."""
        idxs = self.param_indices()
        for vals in itertools.product(values, repeat=len(idxs)):
            x = self.algebra.elem_at(idxs, vals)
            if self.contains(x):
                yield x

    def grid(self, bound):
        """Deterministic enumeration of members with integer coordinates."""
        check_grid((bound, len(self.param_indices())))
        return self._members(range(-bound, bound + 1))

    def default_direction(self):
        """A canonical member used by the CLI when no direction is given:
        at the first bound 1, 2, 3 with a nonzero member, the first one in
        grid order with no negative coordinate, or else the first one.  The
        grid order restricted to [0, b]^m is that of [0, b]^m, so that scan
        comes first; each scan stops at its first hit."""
        for bound in (1, 2, 3):
            for values in (range(bound + 1), range(-bound, bound + 1)):
                x = next(filter(None, self._members(values)), None)
                if x is not None:
                    return x
        raise NotAMember("type %s has no small integer member" % self.label)


def type_full(alg):
    return TypeSpec(alg, "full_n", "full_n")


def type_grade(alg, grade):
    if not (-alg.k <= grade <= -1):
        raise NotAMember("grade must be one of -1..-%d" % alg.k)
    return TypeSpec(alg, "grade", "grade(%d)" % grade, grade)


# Every named type other than full_n and grade(-j) is a union of the G0
# strata that g0_orbit_classify labels: {family: {type name: labels}}.
# parse_type adds rank(r) = {"rank r"} ({"zero"} for r = 0) on grass and proj.
STRATUM_TYPES = {
    "conf": {"null_cone": frozenset({"null"})},
    "lagr3": {
        n: frozenset({n})
        for n in ("lagrange1", "lagrange2", "contact-generic", "chain-equiv1", "chain-equiv2", "generic")
    },
    "xxdot": {
        **{n: frozenset({n}) for n in ("x1", "X1", "contact-generic", "offcyl", "generic")},
        "cylinder": frozenset({"chain", "cylinder-a1", "cylinder-a2", "cylinder-generic"}),
        "cylinder-a1": frozenset({"chain", "cylinder-a1"}),
        "cylinder-a2": frozenset({"chain", "cylinder-a2"}),
    },
}


def type_stratum(alg, name):
    """The named union of G0 strata of ``STRATUM_TYPES``."""
    labels = STRATUM_TYPES.get(alg.family, {}).get(name)
    if labels is None:
        raise NotAMember("unknown stratum %r for %s" % (name, alg.name))
    return TypeSpec(alg, "stratum", name, labels)


def _parse_int(text):
    try:
        return int(text)
    except ValueError:
        raise ParageoError("expected an integer, got %r" % text) from None


def parse_type(alg, text):
    """Type names: full_n, grade(-j), rank(r), or a ``STRATUM_TYPES`` name
    (``null`` is null_cone).

    Every TypeSpec label is such a name, so the label rebuilds its spec.
    """
    text = text.strip()
    if text in ("full", "full_n", "n"):
        return type_full(alg)
    if text.startswith("grade(") and text.endswith(")"):
        return type_grade(alg, _parse_int(text[6:-1]))
    if text.startswith("rank(") and text.endswith(")"):
        r = _parse_int(text[5:-1])
        if alg.family not in ("grass", "proj"):
            raise NotAMember("rank(r) is a Grassmannian type")
        return TypeSpec(alg, "stratum", "rank(%d)" % r, frozenset({"rank %d" % r if r else "zero"}))
    return type_stratum(alg, "null_cone" if text == "null" else text)


def conf_norm_square(x):
    """X^t J X for a g_-1 element of a conformal algebra."""
    signs = x.algebra.meta["signs"]
    vec = x.grade_coords(-1)
    return sum(s * v * v for s, v in zip(signs, vec))


def grass_block(x):
    """The m x n block matrix of a grass/proj g_-1 element."""
    m, n = x.algebra.meta["x_shape"]
    vec = x.grade_coords(-1)
    return [[vec[i * n + j] for j in range(n)] for i in range(m)]


def _xxdot_parts(x):
    gm1 = x.grade_coords(-1)
    return gm1[0], (gm1[1], gm1[2]), x.grade_coords(-2)


def _parallel(u, v):
    return u[0] * v[1] - u[1] * v[0] == 0


def g0_orbit_classify(x):
    """Stratum label of a direction under the reductive subgroup G0: the
    one description of the strata that every named type is a union of."""
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
        (a, b), c = x.grade_coords(-1), x.grade_coords(-2)[0]
        if a and b:
            return "generic" if c else "contact-generic"
        if c:
            return "chain-equiv1" if a else "chain-equiv2" if b else "chain"
        return "lagrange1" if a else "lagrange2"
    if alg.family == "xxdot":
        x1, X1, X2 = _xxdot_parts(x)
        if X2 == (0, 0):
            if X1 == (0, 0):
                return "x1"
            return "contact-generic" if x1 else "X1"
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


def check_grid(*grids):
    """Raise EmptyGrid for a negative bound, and GridTooLarge when the
    product of the grids [-bound, bound]^n_coords, one per (bound,
    n_coords) pair, has more than MAX_GRID_POINTS points."""
    if any(bound < 0 for bound, _ in grids):
        raise EmptyGrid("grid bound must be >= 0")
    points = 1
    for bound, n_coords in grids:
        for _ in range(n_coords):
            points *= 2 * bound + 1
            if points > MAX_GRID_POINTS:
                raise GridTooLarge(
                    "grid %s has more than %d points"
                    % (" x ".join("[-%d, %d]^%d" % (b, b, n) for b, n in grids), MAX_GRID_POINTS)
                )


def iter_pplus_coords(alg, bound):
    """Integer coordinate tuples over the p_+ basis, lexicographic."""
    check_grid((bound, len(alg.pplus_indices)))
    return itertools.product(range(-bound, bound + 1), repeat=len(alg.pplus_indices))


def pplus_elem(alg, vals):
    return alg.elem_at(alg.pplus_indices, vals)


def n_coords(x):
    """The coordinates of x over the n basis, as ``--direction`` reads them."""
    return tuple(x.coords[i] for i in x.algebra.n_indices)


def solve_direction(g, x):
    """The unique Y in n with truncated_Ad(g, Y) = X, for any g in P.

    Truncated Ad is an action of P on n = g/p, so Y = truncated_Ad(g^-1, X).
    """
    return truncated_Ad(g.inverse(), x)


def check_direction(ts, x):
    """Raise NotAMember unless the base direction x is a nonzero member
    of the type: the one direction rule of ``jets`` and ``family``."""
    if not ts.contains(x):
        raise NotAMember("base direction is not a member of %s" % ts.label)
    if not x:
        raise NotAMember("base direction must be nonzero")


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
    z_coords: tuple  # over the p_+ basis
    y_coords: tuple  # over the n basis
    jet_order: int


@dataclass(frozen=True)
class JetOrderReport:
    algebra: str
    type_label: str
    direction: tuple  # over the n basis
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
        """The fields, with the verdicts and their witnesses as one table."""
        rows = []
        for r, verdict in sorted(self.verdicts.items()):
            w = self.counterexamples.get(r)
            rows.append([r, verdict, *((w.z_coords, w.y_coords, w.jet_order) if w else (None,) * 3)])
        return {
            "algebra": self.algebra,
            "type": self.type_label,
            "direction": self.direction,
            "grid_range": self.grid_range,
            "orders_tested": self.orders_tested,
            "claimed_bound": self.claimed_bound,
            "n_grid": self.n_grid,
            "n_admissible": self.n_admissible,
            "n_equal": self.n_equal,
            "verdicts": {"columns": ["order", "verdict", "Z", "Y", "jet_order"], "rows": rows},
            "violations": self.violations,
            "empirical_sharp_order": self.empirical_sharp_order,
            "pass": self.passed(),
        }


def _member_test(ts, kern, y_polys):
    """Type membership of a solved direction Y = y_num / y_den.

    Each basis matrix is grade-pure on positions, so Y (in the span of the
    basis) lies in grade g exactly when y_num vanishes at every position of
    another grade, and in n exactly when it vanishes at every position of
    grade >= 0.  Only the positions where Y's polynomial ``y_polys`` (the
    pair system's) is nonzero are read: those entries are the type
    polynomials.  Only a stratum type reads Y's coordinates, through the
    kernel's ``elem_coords``, and asks ``ts.contains``."""
    alg = ts.algebra
    if ts.kind == "stratum":
        return lambda y_num, y_den: ts.contains(AlgElem(alg, kern.elem_coords(y_num, y_den)))
    keep = (lambda g: g == ts.data) if ts.kind == "grade" else (lambda g: g < 0)
    zero = [
        (i, j)
        for i, row in enumerate(alg.position_grade)
        for j, g in enumerate(row)
        if not keep(g) and (i, j) in y_polys
    ]
    return lambda y_num, y_den: not any(y_num[i][j] for i, j in zero)


def _kernel_pair(kern, member, r_max, vals):
    """(Y, jet order, equal) at one grid point by the kernel's
    ``IntPolyMat`` step, Y a constant ``IntPolyMat``: the exponentials of
    Z, the solve by the truncated action of exp(-Z) on X, the commutator
    jet order and, at jet order r_max, the curve identity."""
    e, einv = kern.exp_pair(kern.combo_rows(vals))
    y, a2 = kern.solve_direction(e, einv)
    # Y is nonzero: truncated Ad is an action, and X != 0
    if not member(y.coeffs[0], y.den):
        return y, None, False
    jord = kern.pair_jet_order(a2, r_max)
    return y, jord, jord == r_max and kern.curves_equal(a2)


def _iter_pair_stats(ts, x, grid, r_max, system=None):
    """Stream (vals, (y_num, y_den), jet order, equal, free) over the p_+
    grid, one item per fiber.

    The pair route is the ``PairSystem`` of ``_fastgrid``, built once here
    unless the caller passes the search's ``system``.
    It reads only the coordinates ``read_coords``, so the grid points that
    agree on them, a fiber, share Y, jet order and equality.  ``free``
    holds the other coordinate indices; a fiber has (2 grid + 1)^len(free)
    points.  ``vals`` is the integer grid tuple of the fiber's first point
    in grid order (every free coordinate at -grid), and fibers come in the
    order of their first points, so the first pair of the grid with an
    outcome is the first item with it.  Y = y_num / y_den is an integer
    matrix and denominator; ``pair_coords`` reads Fraction coordinates.
    ``jet order`` is None when Y is not a member of the type; ``equal`` is
    the exact polynomial curve identity, computed only when the jets agree
    through r_max (distinct jets force distinct curves).

    ``GridKernel``, built in the first step (where a trace of the loop
    reads which engine runs it), is the system's oracle: ``_kernel_pair``
    reruns the step as ``IntPolyMat`` arithmetic, by other algorithms and
    at the full Z, on the first pair of each outcome (non-member, each jet
    order, equal or not), and any difference in Y as a rational matrix,
    membership, jet order or equality raises OracleDisagreement.  A jets
    witness is the first unequal pair of its jet order, so the kernel
    re-checks every witness.
    """
    alg = ts.algebra
    kern = grid_kernel(alg, x)
    n = len(alg.pplus_indices)
    check_grid((grid, n))
    system = system or PairSystem(alg, x, r_max)
    read = system.read_coords
    free = tuple(i for i in range(n) if i not in read)
    member = _member_test(ts, kern, system.y)
    y_den = system.y_den
    checked = set()  # the outcomes whose first pair the kernel re-checked
    for vals in _grid_points((-grid,) * n, read, grid):
        y_num, jord, equal = system.evaluate(vals, member)
        if (jord, equal) not in checked:
            checked.add((jord, equal))
            y, k_jord, k_equal = _kernel_pair(kern, member, r_max, vals)
            if IntPolyMat(system.d, [y_num], y_den) != y or (k_jord, k_equal) != (jord, equal):
                raise OracleDisagreement("pair system and kernel disagree at Z = %s" % (vals,))
        yield vals, (y_num, y_den), jord, equal, free


def _grid_points(vals, spread, grid):
    """The grid points that agree with ``vals`` outside the coordinate
    indices ``spread``, in grid order."""
    axis = range(-grid, grid + 1)
    return itertools.product(*(axis if i in spread else (v,) for i, v in enumerate(vals)))


def pair_coords(alg, vals, y):
    """(Z coords, Y coords): the Fraction coordinates of a stream item's
    grid point ``vals`` and direction ``y = (y_num, y_den)``."""
    y_num, y_den = y
    return pplus_elem(alg, vals).coords, alg.express(IntPolyMat(alg.matrix_dim, [y_num], y_den))


def min_jet_order_search(ts, x, grid=2, r_max=None, claimed_bound=None):
    """Check "equal r-jets implies equal curves" over the p_+ grid.

    For each Z with integer coordinates in [-grid, grid] the unique Y with
    truncated_Ad(exp Z, Y) = X is solved exactly and kept when Y is again
    a member of the type.  The verdict for each order r <= r_max is either
    "confirmed" or the first counterexample in grid order; a counterexample
    at or above the proved bound is recorded as a violation.  The sharp
    order is empirical: a lower bound from a counterexample at r-1 plus
    the confirmation at r, never a claim beyond the grid.  Each reported
    counterexample is re-verified by jet_equal and curves_equal.  The
    search counts pairs from the integer stream, each item by the size of
    its fiber, and reads Fraction coordinates only for a newly recorded
    witness, so at most r_max times: Z over the p_+ basis and Y over the n
    basis, as the command line reads them.
    """
    alg = ts.algebra
    r_max = r_max if r_max is not None else alg.k + 3
    if r_max < 1:
        raise ParageoError("highest jet order must be at least 1, got %d" % r_max)
    if r_max > MAX_JET_ORDER:
        raise ParageoError("highest jet order must be at most %d, got %d" % (MAX_JET_ORDER, r_max))
    if claimed_bound is not None and claimed_bound < 1:
        raise ParageoError("claimed bound must be at least 1, got %d" % claimed_bound)
    check_direction(ts, x)
    claimed = claimed_bound if claimed_bound is not None else paper_jet_bound(ts)
    n_grid = n_admissible = n_equal = 0
    # order r -> the first unequal pair in grid order with jet order >= r,
    # which serves every lower order too: the keys are 1..len
    counterexamples = {}
    for vals, y, jord, equal, free in _iter_pair_stats(ts, x, grid, r_max):
        size = (2 * grid + 1) ** len(free)
        n_grid += size
        if jord is None:
            continue
        if jord == 0:
            raise OracleDisagreement("solved pair does not even share its 1-jet")
        n_admissible += size
        if equal:
            n_equal += size
        elif jord > len(counterexamples):
            _, yc = pair_coords(alg, vals, y)
            witness = PairRecord(tuple(map(Fraction, vals)), n_coords(AlgElem(alg, yc)), jord)
            for r in range(len(counterexamples) + 1, jord + 1):
                counterexamples[r] = witness
    verdicts = {
        r: "counterexample" if r in counterexamples else "confirmed" for r in range(1, r_max + 1)
    }
    violations = [
        "counterexample at order %d despite proved bound %d" % (r, claimed)
        for r in counterexamples
        if r >= claimed
    ]
    # the first confirmed order follows a counterexample, or is order 1
    sharp = len(counterexamples) + 1 if len(counterexamples) < r_max else None
    base = CurveSpec.base(alg, x)
    for r, w in counterexamples.items():
        c2 = CurveSpec.from_Z(alg, pplus_elem(alg, w.z_coords), alg.elem_at(alg.n_indices, w.y_coords))
        if not jet_equal(base, c2, r) or curves_equal(base, c2):
            raise OracleDisagreement("reported witness failed re-verification")
    return JetOrderReport(
        algebra=alg.name,
        type_label=ts.label,
        direction=n_coords(x),
        grid_range=grid,
        orders_tested=tuple(range(1, r_max + 1)),
        claimed_bound=claimed,
        n_grid=n_grid,
        n_admissible=n_admissible,
        n_equal=n_equal,
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
            "violations": self.violations,
            "pass": self.passed(),
        }


def verify_prop41_claim(alg, x_samples=None, z_bound=1):
    """Exact check of the inductive claim behind the (k+1)-jet bound.

    For W = Ad(exp Z_1 ... exp Z_k) X - X with X in g_-1: whenever
    ad_X^i(W) lies in p for all i <= l, each ad_X^(j+1)(Z_j) with j <= l
    must vanish and ad_X^n(W'_l) must stay in p for n > l (checked up to
    l + 4), where W'_l collects the terms of the expansion that
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
            zs = [alg.elem_at(alg.grade_slices[g], vals) for g, vals in enumerate(combo, 1)]
            exps = [(exp_nilpotent(z), exp_nilpotent(z, -1)) for z in zs]
            w = _ad_exp(exps, xm) - xm
            if not w.in_p_pattern(alg):
                violations.append("W left p for X=%s" % (x.coords,))
                continue
            # largest l with ad_X^i(W) in p for all i <= l
            ell = 0
            d = w
            while ell < alg.k:
                d = xm * d - d * xm
                if not d.in_p_pattern(alg):
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
            wl = _ad_exp(exps[:ell], xm) - xm
            d = wl
            for n in range(1, ell + 5):
                d = xm * d - d * xm
                if n > ell and not d.in_p_pattern(alg):
                    violations.append("ad_X^%d(W'_%d) left p, X=%s" % (n, ell, x.coords))
    return Prop41Report(alg.name, n_samples, n_applicable, tuple(violations))


def _ad_exp(exps, xmat):
    """Ad(exp Z_1 ... exp Z_l) X from the IntPolyMat pairs (exp Z_i,
    exp -Z_i): the inverse of the product is the reversed product of the
    exp(-Z_i)."""
    for e, einv in reversed(exps):
        xmat = e * xmat * einv
    return xmat


# -- standard fiber -------------------------------------------------------------


@dataclass(frozen=True)
class FiberSample:
    """The standard fiber over a grid: its pair count and per-X ranks."""
    algebra: str
    type_label: str
    grid_range: int
    n_pairs: int  # |X members| * |Z grid|, the Z grid over g_1
    ranks: tuple  # (X coords over n, rank of [X,[X,g_1]]) per grid X

    def to_jsonable(self):
        """The pair count and the per-X ranks table."""
        return {
            "algebra": self.algebra,
            "type": self.type_label,
            "grid_range": self.grid_range,
            "n_pairs": self.n_pairs,
            "ranks": {"columns": ["X", "rank"], "rows": self.ranks},
        }


def _linear_combinations(images, vectors):
    """The exact coordinates of sum_i v_i images[i], for each integer (or
    rational) vector v of ``vectors`` in turn: the orbit points of one Z
    from the images of the type's parameter basis.

    The images go over one denominator: every coordinate m that some image
    reaches becomes the integer column den * images[i][m], so a point costs
    one dot product per such coordinate, and each numerator's ``Fraction``
    is built once.
    """
    dim = len(images[0])
    den = lcm(*(c.denominator for s in images for c in s))
    cols = [(m, [int(s[m] * den) for s in images]) for m in range(dim) if any(s[m] for s in images)]
    zero = (Fraction(0),) * dim
    fracs = {}  # numerator -> Fraction(numerator, den)
    for v in vectors:
        out = list(zero)
        for m, col in cols:
            num = sum(map(operator.mul, v, col))
            f = fracs.get(num)
            if f is None:
                f = fracs[num] = Fraction(num, den)
            out[m] = f
        yield tuple(out)


def standard_fiber(ts, grid=2):
    """The admissible 2-jets (X, [X,[X,Z]]), Z in g_1, over the grid X.

    [X,[X,Z]] is linear in Z, so the fiber over X is the span of the double
    brackets [X,[X,e_i]] of the g_1 basis e_i, and its dimension is their
    rank: one rank per X, in ``ts.grid`` order.  ``n_pairs`` counts the
    pairs (X, Z) with Z on the g_1 grid of the same radius; no pair is
    built.
    """
    alg = ts.algebra
    if alg.k != 1:
        raise NotOneGraded("standard fiber is computed for |1|-graded algebras")
    # the pairs are X points times Z points (p_+ = g_1 here)
    check_grid((grid, len(ts.param_indices())), (grid, len(alg.pplus_indices)))
    basis = alg.grade_basis(1)
    ranks = tuple(
        (n_coords(x), rank([bracket(x, bracket(x, e)).coords for e in basis])) for x in ts.grid(grid)
    )
    return FiberSample(alg.name, ts.label, grid, len(ranks) * (2 * grid + 1) ** len(basis), ranks)


# -- family dimensions ----------------------------------------------------------


@dataclass(frozen=True)
class FamilyReport:
    algebra: str
    type_label: str
    direction: tuple  # over the n basis
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
        """The fields, ``type_label`` as "type" and K by its size."""
        out = dict(vars(self), type=self.type_label, stabilizer_size=len(self.stabilizer_points))
        del out["type_label"], out["stabilizer_points"]
        return out


def family_dimension(ts, x, grid=2):
    """Dimension bookkeeping for the parametrized geodesics in direction X.

    Enumerates Z over the p_+ grid, solves the direction constraint for Y,
    keeps members of the type, and splits off the stabilizer K of curves
    equal to the base curve c^{e,X} (each K point verified by the exact
    polynomial identity).  The family dimension is the linear-hull
    dimension of admissible Z minus that of K; when K fails the grid
    linearity check the claim is downgraded to a range.  The Z rows are the
    integer grid tuples of the admissible pairs, each admissible item of
    the stream expanded over its fiber (the curve depends on the full Z)
    and sorted into grid order.  The jet classes (counted when at most 512
    pairs are admissible) are the values of the search's ``JetSignature``,
    read once per fiber of its own read coordinates; see
    ``_jet_class_count``.
    """
    alg = ts.algebra
    check_direction(ts, x)
    order = alg.k + 2
    check_grid((grid, len(alg.pplus_indices)))
    system = PairSystem(alg, x, order)
    admissible = []  # (vals, Y, equal) of every admissible pair
    for vals, y, jord, equal, free in _iter_pair_stats(ts, x, grid, order, system):
        if jord is not None:
            admissible += ((point, y, equal) for point in _grid_points(vals, free, grid))
    admissible.sort(key=operator.itemgetter(0))
    stab_rows = [vals for vals, _, equal in admissible if equal]
    # the Z rows over the p_+ basis are the integer grid tuples
    adm_rows = [vals for vals, _, _ in admissible]
    adm_dim = rank(adm_rows)
    stab = echelon(stab_rows)
    stab_set = set(stab_rows)
    # K is linear on the grid when no admissible point outside K is in its span
    linear = not any(row not in stab_set and not any(remainder(row, stab)) for row in adm_rows)
    fam = adm_dim - len(stab)
    fam_range = (fam, adm_dim) if not linear else (fam, fam)
    classes = None  # counted only when at most 512 pairs are admissible
    if len(admissible) <= 512:
        classes = _jet_class_count(JetSignature(alg, system, order), admissible)
    return FamilyReport(
        algebra=alg.name,
        type_label=ts.label,
        direction=n_coords(x),
        grid_range=grid,
        n_admissible=len(admissible),
        admissible_hull_dim=adm_dim,
        stabilizer_points=tuple(stab_rows),
        stabilizer_hull_dim=len(stab),
        stabilizer_linear=linear,
        family_dimension=fam,
        family_dimension_range=fam_range,
        jet_class_count=classes,
    )


def _jet_class_count(signature, admissible):
    """The number of distinct (k+2)-jets among the admissible pairs
    (vals, Y, equal), in grid order: the distinct values of ``signature``.

    The signature is read once per fiber of its own read coordinates, the
    admissible points that agree on them.  ``normal_coord_jet`` is its
    oracle: the first pair of each new class is solved again at the full
    Z, and a Y coordinate that differs from the signature's raises
    OracleDisagreement.
    """
    alg, order = signature.alg, len(signature.dens)
    fibers, classes = set(), set()
    for vals, y, _ in admissible:
        fiber = tuple(vals[i] for i in signature.read_coords)
        if fiber in fibers:
            continue
        fibers.add(fiber)
        key = signature.evaluate(vals)
        if key not in classes:
            classes.add(key)
            zc, yc = pair_coords(alg, vals, y)
            jet = normal_coord_jet(CurveSpec.from_Z(alg, AlgElem(alg, zc), AlgElem(alg, yc)), order)
            if jet.coeffs_prefix(order)[1:] != signature.coords(key):
                raise OracleDisagreement("jet signature and normal-coordinate jet differ at Z = %s" % (vals,))
    return len(classes)


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
        """The fields, ``type_label`` as "type", and the verdict."""
        out = dict(vars(self), type=self.type_label)
        del out["type_label"]
        out["pass"] = self.passed()
        return out


def _orbit_dim(ts, grid, hull):
    """The best rank, stopping once it reaches ``hull``, of the orbit map's
    tangent at (0, X) over the first two and the last nonzero grid members
    X.  It is spanned by [e, X] for each p_+ basis element e and the unit
    directions of the type's parameters, in n coordinates."""
    alg = ts.algebra
    units = [alg.basis_elem(i) for i in ts.param_indices()]
    nonzero = [x for x in ts.grid(grid) if x]
    best = 0
    for x in nonzero[:2] + nonzero[-1:]:
        vecs = [bracket(alg.basis_elem(i), x) for i in alg.pplus_indices] + units
        best = max(best, rank([[v.coords[i] for i in alg.n_indices] for v in vecs]))
        if best == hull:
            break
    return best


def _orbit_points(ts, grid):
    """(points, hull): (Z, X, Adbar(exp Z) X) for Z on the p_+ grid of radius
    min(grid, 1) and X over the type's members on the grid of radius
    ``grid``, and the dimension of their span.

    Adbar(exp Z) is linear on n, so each Z takes only the images of the
    type's parameter basis, combined over the integer parameter
    coordinates of each X, and the span is that of the images under each Z
    of an ``echelon`` basis of the X span: one row per Z and basis vector."""
    alg = ts.algebra
    zgrid = min(grid, 1)
    idxs = ts.param_indices()
    # the points are X points times Z points
    check_grid((grid, len(idxs)), (zgrid, len(alg.pplus_indices)))
    xs = list(ts.grid(grid))
    xvals = [[int(x.coords[i]) for i in idxs] for x in xs]
    xbasis = [row for _, row in echelon([[x.coords[i] for i in idxs] for x in xs])]
    units = [alg.basis_elem(i) for i in idxs]
    points, per_z = [], []
    for vals in iter_pplus_coords(alg, zgrid):
        z = pplus_elem(alg, vals)
        g = group_exp(z)
        images = [truncated_Ad(g, u).coords for u in units]
        per_z.append(images)
        coords = _linear_combinations(images, xvals)
        points.extend((z, x, AlgElem(alg, p)) for x, p in zip(xs, coords))
    # the points lie in n; the rows are lazy, as the rank stops at a full one
    span = ([p[i] for i in alg.n_indices] for imgs in per_z for p in _linear_combinations(imgs, xbasis))
    return points, rank(span)


def orbit_hull_dimension(ts, grid=2):
    """Hull and pointwise dimension of the truncated-adjoint orbit of a set.

    ``hull_dim`` is the linear span of the sampled orbit points; the orbit
    itself is usually a proper subvariety, so ``orbit_dim`` is the best
    Jacobian rank of the orbit map (Z, X) -> Adbar(exp Z)(X) over a few
    probe directions X (an exact tangent-space dimension).  The Jacobian
    is taken at Z = 0, where it is a bracket, and that loses nothing:
    exp(Z0 + s dZ) = exp(Z0) exp(s eta + O(s^2)) with eta = ((1 - e^{-ad
    Z0}) / ad Z0) dZ ranging over all of p_+, so the Jacobian at (Z0, X) is
    the one at (0, X) followed by Adbar(exp Z0), invertible on n, and the
    two have the same rank.  Where a parametric description of the orbit
    is known, every sampled point is checked against it.
    """
    alg = ts.algebra
    points, hull = _orbit_points(ts, grid)
    checker = _orbit_description(alg, ts)
    bad = [] if checker is None else [
        "orbit point from Z=%s X=%s violates the description" % (tuple(z.coords), tuple(x.coords))
        for z, x, p in points
        if not checker(p)
    ]
    return OrbitHullReport(
        algebra=alg.name,
        type_label=ts.label,
        grid_range=grid,
        n_points=len(points),
        hull_dim=hull,
        orbit_dim=_orbit_dim(ts, grid, hull),
        description_violations=tuple(bad),
    )


# Truncated-adjoint orbits known as unions of G0 strata: {family: {type name:
# labels}}.  The grade(-2) orbit is 0 and the directions with a nonzero g_-2
# part on lagr3, and the directions with X1 parallel to X2 on xxdot.
ORBIT_STRATA = {
    "lagr3": {"grade(-2)": frozenset({"zero", "chain", "chain-equiv1", "chain-equiv2", "generic"})},
    "xxdot": {
        "grade(-2)": frozenset({
            "zero", "x1", "X1", "contact-generic",
            "chain", "cylinder-a1", "cylinder-a2", "cylinder-generic",
        })
    },
}


def _orbit_description(alg, ts):
    """Known descriptions of truncated-adjoint orbits: a predicate on n."""
    if alg.k == 1:
        # p_+ acts trivially on g/p: the orbit of any set is the set itself
        return ts.contains
    labels = ORBIT_STRATA.get(alg.family, {}).get(ts.label)
    return None if labels is None else lambda p: g0_orbit_classify(p) in labels
