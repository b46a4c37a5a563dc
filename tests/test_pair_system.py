"""The pair system of ``_fastgrid`` against the kernel's matrix step.

``lab._iter_pair_stats`` evaluates ``PairSystem``, the grid pair step built
once per search as integer polynomials in the p_+ grid coordinates, once
per fiber of the coordinates it reads, and reruns the kernel only on the
first pair of each outcome.  Here the stream is expanded to every pair of
the grid (``paper_checks.expand_pair_stats``), and every pair of each
search is also run through the kernel (``lab._kernel_pair``, with
membership decided by ``ts.contains`` on Y's coordinates), and the two
routes must give the same Y as a rational matrix, the same membership,
jet order and equality.  A sympy rebuild of the same polynomials, which
shares no code with the system, checks them term for term.
"""

import pathlib
import runpy
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from parageo._fastgrid import IntPolyMat, PairSystem, grid_kernel
from parageo.algebra import AlgElem
from parageo.catalog import make_algebra
from parageo.cli import main, parse_direction
from parageo.errors import OracleDisagreement
from parageo.lab import (
    STRATUM_TYPES,
    _iter_pair_stats,
    _kernel_pair,
    _member_test,
    family_dimension,
    parse_type,
    type_full,
    type_grade,
)

from conftest import ALL_IDS, full_flag_sl4
from paper_checks import expand_pair_stats

SUITE = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_full_suite.py"
JET_RUNS = runpy.run_path(str(SUITE))["JET_RUNS"]


def assert_routes_agree(ts, x, grid, r_max):
    """Run every grid pair through the stream and through the kernel step;
    return the set of (jet order, equal) outcomes."""
    alg = ts.algebra
    kern = grid_kernel(alg, x)

    def member(y_num, y_den):
        return ts.contains(AlgElem(alg, kern.elem_coords(y_num, y_den)))

    outcomes = set()
    n = 0
    for vals, y, jord, equal in expand_pair_stats(ts, x, grid, r_max):
        k_y, k_jord, k_equal = _kernel_pair(kern, member, r_max, vals)
        assert IntPolyMat(alg.matrix_dim, [y[0]], y[1]) == k_y, vals
        assert (jord, equal) == (k_jord, k_equal), vals
        outcomes.add((jord, equal))
        n += 1
    assert n == (2 * grid + 1) ** len(alg.pplus_indices)
    return outcomes


def _grid_1_cases():
    cases = []
    for cid in ALL_IDS:
        alg = make_algebra(cid)
        names = ["full_n"] + ["grade(%d)" % -j for j in range(1, alg.k + 1)]
        names += sorted(STRATUM_TYPES.get(alg.family, {}))
        if alg.family in ("grass", "proj"):
            names += ["rank(1)"]
        cases += [(cid, name) for name in names]
    return cases


@pytest.mark.parametrize("cid,tspec", _grid_1_cases())
def test_routes_agree_on_grid_1(cid, tspec):
    alg = make_algebra(cid)
    ts = parse_type(alg, tspec)
    assert_routes_agree(ts, ts.default_direction(), 1, alg.k + 3)


@pytest.mark.parametrize("cid,tspec,grid", JET_RUNS)
def test_routes_agree_on_the_full_suite_runs(cid, tspec, grid):
    ts = parse_type(make_algebra(cid), tspec)
    assert_routes_agree(ts, ts.default_direction(), grid, 4)


# the jets jobs of the benchmark's grid-fraction workload at seed 0
FRACTION_JOBS = [
    ("su21", "grade(-2)", 2, None),
    ("su21", "grade(-1)", 1, None),
    ("su21", "full_n", 1, None),
    ("xxdot", "grade(-1)", 2, "0,0,1/2,1,0"),
    ("lagr3", "full_n", 3, "1/2,1,1"),
    ("conf(1,2)", "full_n", 2, "1/2,1,1"),
]


@pytest.mark.parametrize("cid,tspec,grid,direction", FRACTION_JOBS)
def test_routes_agree_on_the_fraction_jobs(cid, tspec, grid, direction):
    alg = make_algebra(cid)
    ts = parse_type(alg, tspec)
    x = ts.default_direction() if direction is None else parse_direction(alg, direction)
    assert_routes_agree(ts, x, grid, 4)


def test_routes_agree_at_depth_3():
    # the full flag of sl(4) with X = (1,1,1) in g_-1: on grade(-1) the
    # bound ceil((k+1)/1) = 4 is reached by an unequal pair of jet order 3
    alg = full_flag_sl4()
    x = alg.elem_from_grade_coords({-1: (1, 1, 1)})
    assert_routes_agree(type_full(alg), x, 1, alg.k + 3)
    outcomes = assert_routes_agree(type_grade(alg, -1), x, 1, alg.k)
    assert {(3, False), (3, True)} <= outcomes


@settings(max_examples=25, deadline=None)
@given(
    cid=st.sampled_from(["proj(1)", "proj(2)", "conf(1,1)", "lagr3", "su21"]),
    grade=st.integers(0, 2),
    coords=st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=3, max_size=3
    ),
)
def test_routes_agree_fractional_hypothesis(cid, grade, coords):
    # grade 0 draws over all of n, grade j over g_-j
    alg = make_algebra(cid)
    grade = min(grade, alg.k)
    grades = range(1, alg.k + 1) if grade == 0 else [grade]
    ts = type_full(alg) if grade == 0 else type_grade(alg, -grade)
    vals = iter(coords)
    x = alg.elem_from_grade_coords({-j: [next(vals) for _ in alg.grade_slices[-j]] for j in grades})
    if not x:
        return
    assert_routes_agree(ts, x, 1, alg.k + 2)


def test_a_negated_coefficient_fails_the_kernel_recheck(monkeypatch):
    # one coefficient of a nonconstant term of Y negated: Y changes at the
    # first grid point, whose coordinates are all nonzero, and the kernel
    # re-check of that first pair catches it (the stream alone, so that no
    # witness re-verification of the search can)
    def corrupted(alg, x, r_max):
        system = PairSystem(alg, x, r_max)
        poly = next(p for p in system.y.values() if any(map(any, p)))
        e = next(e for e in poly if any(e))
        poly[e] = -poly[e]
        system._compile()
        return system

    monkeypatch.setattr("parageo.lab.PairSystem", corrupted)
    alg = make_algebra("lagr3")
    with pytest.raises(OracleDisagreement, match="pair system and kernel disagree"):
        list(_iter_pair_stats(type_full(alg), parse_direction(alg, "1,1,1"), 1, 4))


def _lagr3_stream_corrupted(monkeypatch, corrupt, r_max):
    """The stream on lagr3, full_n, X = (1,1,1), grid 1, over a pair system
    that ``corrupt`` changed before it was compiled."""

    def corrupted(alg, x, r_max):
        system = PairSystem(alg, x, r_max)
        corrupt(system)
        system._compile()
        return system

    alg = make_algebra("lagr3")
    ts, x = type_full(alg), parse_direction(alg, "1,1,1")
    # the first grid point is a member pair of jet order 1, unequal curves
    assert next(_iter_pair_stats(ts, x, 1, r_max))[2:4] == (1, False)
    monkeypatch.setattr("parageo.lab.PairSystem", corrupted)
    return _iter_pair_stats(ts, x, 1, r_max)


def test_dropped_jet_forms_fail_the_kernel_recheck(monkeypatch):
    # without its order-1 jet forms, the system reads a higher jet order at
    # the first grid point, and the kernel re-check of that pair catches it
    stream = _lagr3_stream_corrupted(monkeypatch, lambda system: system.jets[1].clear(), 4)
    with pytest.raises(OracleDisagreement, match="pair system and kernel disagree"):
        list(stream)


def test_a_dropped_curve_identity_fails_the_kernel_recheck(monkeypatch):
    # at r_max 1 every member pair reads the curve identity; without its
    # polynomials the first pair, whose curves differ, reads equal, and the
    # kernel re-check of that pair catches it
    stream = _lagr3_stream_corrupted(monkeypatch, lambda system: system.identity.clear(), 1)
    with pytest.raises(OracleDisagreement, match="pair system and kernel disagree"):
        list(stream)


def test_a_stalled_residual_iteration_is_an_oracle_disagreement(monkeypatch, capsys):
    # a conjugation that returns Y unchanged never clears the residual: the
    # build raises OracleDisagreement, and the console command exits 2 with
    # one error line instead of a traceback (exit 1 is a paper violation)
    monkeypatch.setattr("parageo._fastgrid._pconj", lambda e, y, einv: y)
    alg = make_algebra("lagr3")
    with pytest.raises(OracleDisagreement, match="failed to converge"):
        PairSystem(alg, parse_direction(alg, "1,1,1"), 2)
    assert main(["jets", "--algebra", "lagr3", "--grid", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: direction constraint failed to converge\n"


# -- fibers of the read coordinates ---------------------------------------------


def _system_variables(system):
    """The coordinates that occur in the polynomials of Y, the jet forms
    and the curve identity."""
    polys = [*system.y.values(), *(p for order in system.jets for p in order.values())]
    polys += system.identity.values()
    return {v for p in polys for e in p for v, a in enumerate(e) if a}


# (id, type, grid, number of coordinates read out of dim p_+)
FIBER_CASES = [
    ("xxdot", "full_n", 3, 1),
    ("conf(1,2)", "full_n", 2, 3),
    ("full_flag_sl4", "full_n", 1, 1),
    ("full_flag_sl4", "grade(-2)", 1, 3),
]


@pytest.mark.parametrize("cid,tspec,grid,n_read", FIBER_CASES)
def test_expanded_stream_is_the_system_at_every_grid_point(cid, tspec, grid, n_read):
    # a fiber's item holds at each of its points: PairSystem.evaluate reads
    # nothing but the coordinates in read_coords
    alg = full_flag_sl4() if cid == "full_flag_sl4" else make_algebra(cid)
    ts = parse_type(alg, tspec)
    x = ts.default_direction()
    r_max = alg.k + 3
    system = PairSystem(alg, x, r_max)
    assert len(system.read_coords) == n_read
    member = _member_test(ts, grid_kernel(alg, x), system.y)
    stats = expand_pair_stats(ts, x, grid, r_max)
    assert len(stats) == (2 * grid + 1) ** len(alg.pplus_indices)
    for vals, y, jord, equal in stats:
        y_num, s_jord, s_equal = system.evaluate(vals, member)
        assert (y, jord, equal) == ((y_num, system.y_den), s_jord, s_equal), vals


@pytest.mark.parametrize("cid,tspec", _grid_1_cases())
def test_read_coords_are_the_variables_of_the_system(cid, tspec):
    alg = make_algebra(cid)
    ts = parse_type(alg, tspec)
    system = PairSystem(alg, ts.default_direction(), alg.k + 3)
    assert system.read_coords == tuple(sorted(_system_variables(system)))


@pytest.mark.parametrize("cid,tspec", [("conf(1,2)", "full_n"), ("lagr3", "grade(-2)")])
def test_a_dropped_read_coordinate_fails_the_routes(monkeypatch, cid, tspec):
    # with one read coordinate taken for free, the stream runs that
    # coordinate at -grid only and gives its value to every point of the
    # too-large fiber; some pair of the grid then disagrees with the kernel
    alg = make_algebra(cid)
    ts = parse_type(alg, tspec)
    x = ts.default_direction()
    read = PairSystem(alg, x, 4).read_coords
    assert len(read) == len(alg.pplus_indices)
    for dropped in read:

        def narrowed(alg, x, r_max):
            system = PairSystem(alg, x, r_max)
            system.read_coords = tuple(v for v in system.read_coords if v != dropped)
            return system

        with monkeypatch.context() as patch:
            patch.setattr("parageo.lab.PairSystem", narrowed)
            with pytest.raises(AssertionError, match=r"^\(-?\d"):
                assert_routes_agree(ts, x, 1, 4)
    assert_routes_agree(ts, x, 1, 4)


def test_family_expands_each_fiber_in_grid_order():
    # proj(3) full_n at X = (0,1,1) reads coordinates 1 and 2 only, and its
    # stabilizer lies in 3 fibers whose points interleave in grid order:
    # family_dimension's points are those of the expanded stream
    alg = make_algebra("proj(3)")
    ts = type_full(alg)
    x = parse_direction(alg, "0,1,1")
    items = list(_iter_pair_stats(ts, x, 1, alg.k + 2))
    assert items[0][4] == (0,) and sum(item[3] for item in items) == 3
    stats = expand_pair_stats(ts, x, 1, alg.k + 2)
    report = family_dimension(ts, x, 1)
    assert report.n_admissible == sum(jord is not None for _, _, jord, _ in stats)
    assert report.stabilizer_points == tuple(vals for vals, _, _, equal in stats if equal)


# -- the sympy oracle -------------------------------------------------------------


def _kept(ts, pos):
    """True when Y may be nonzero at ``pos`` and stay a member of ts."""
    g = ts.algebra.position_grade[pos[0]][pos[1]]
    return g == ts.data if ts.kind == "grade" else g < 0


def _sympy_system(sp, ts, x, r_max):
    """(Y, type, jets, identity) rebuilt in sympy, each a dict of sympy
    expressions in z0, z1, ... keyed as in ``PairSystem``."""
    alg = ts.algebra
    d = alg.matrix_dim
    zs = sp.symbols("z0:%d" % len(alg.pplus_indices))
    t = sp.Symbol("t")

    def basis(i):
        m = sp.zeros(d, d)
        for r, v in alg.basis_entries[i]:
            m[r // d, r % d] = v
        return m

    def expo(m):
        # the series of a nilpotent matrix, summed until its power vanishes
        out, power, p = sp.eye(d), sp.eye(d), 1
        while True:
            power = (power * m).applyfunc(sp.expand)
            if power.is_zero_matrix:
                return out
            out += power / sp.factorial(p)
            p += 1

    z = sp.zeros(d, d)
    for zi, idx in zip(zs, alg.pplus_indices):
        z += zi * basis(idx)
    e, einv = expo(z), expo(-z)
    xmat = sp.Matrix(d, d, lambda i, j: sp.Rational(x.matrix.coeffs[0][i][j], x.matrix.den))
    ys = sp.symbols("y0:%d" % len(alg.n_indices))
    y = sp.zeros(d, d)
    for yi, idx in zip(ys, alg.n_indices):
        y += yi * basis(idx)
    ad = (e * y * einv).applyfunc(sp.expand)
    # proj_n(Ad(exp Z) Y) = X on the forbidden positions
    (sol,) = sp.linsolve([ad[i, j] - xmat[i, j] for i, j in alg.forbidden_positions], ys)
    y = y.subs(dict(zip(ys, sol))).applyfunc(lambda c: sp.expand(sp.cancel(c)))
    a2 = (e * y * einv).applyfunc(sp.expand)
    y_polys = {(i, j): y[i, j] for i in range(d) for j in range(d) if y[i, j] != 0}
    type_polys = {pos: p for pos, p in y_polys.items() if not _kept(ts, pos)}
    jets, dm = [], (xmat - a2).applyfunc(sp.expand)
    for _ in range(r_max):
        jets.append({pos: dm[pos] for pos in alg.forbidden_positions if dm[pos] != 0})
        dm = (dm * xmat - xmat * dm).applyfunc(sp.expand)
    u = (expo(-t * a2) * expo(t * xmat)).applyfunc(sp.expand)
    identity = {}
    for i, j in alg.forbidden_positions:
        for (m,), c in sp.Poly(u[i, j], t).as_dict().items():
            if c != 0:
                identity[m, i, j] = c
    return y_polys, type_polys, jets, identity, zs


def _as_fractions(sp, expr, zs):
    return {e: Fraction(int(c.p), int(c.q)) for e, c in sp.Poly(expr, *zs).as_dict().items() if c != 0}


def _scaled(poly, den):
    return {e: Fraction(v, den) for e, v in poly.items()}


# (id, type, direction, number of type polynomials): Y - X lies in the
# grades above X's, so only a lowest-grade type has type polynomials
SYMPY_CASES = [
    ("lagr3", "full_n", "1/2,1,1", 0),
    ("xxdot", "grade(-1)", "0,0,1/2,1,0", 0),
    ("su21", "full_n", None, 0),
    ("su21", "grade(-2)", None, 8),
]


@pytest.mark.parametrize("cid,tspec,direction,n_type", SYMPY_CASES)
def test_system_is_the_sympy_rebuild(cid, tspec, direction, n_type):
    sp = pytest.importorskip("sympy")
    alg = make_algebra(cid)
    ts = parse_type(alg, tspec)
    x = ts.default_direction() if direction is None else parse_direction(alg, direction)
    r_max = alg.k + 3
    system = PairSystem(alg, x, r_max)
    y_ref, type_ref, jets_ref, identity_ref, zs = _sympy_system(sp, ts, x, r_max)

    def same(polys, refs, den):
        assert set(polys) == set(refs)
        for key, poly in polys.items():
            assert _scaled(poly, den) == _as_fractions(sp, refs[key], zs), key

    # the documented scales: y_den, a2_den x_den^r, q!^2 (a2_den x_den)^q
    q = len(alg.block_sizes) - 1
    x_den, a2_den = x.matrix.den, system.y_den * factorial(q) ** 2
    same(system.y, y_ref, system.y_den)
    type_polys = {pos: p for pos, p in system.y.items() if not _kept(ts, pos)}
    same(type_polys, type_ref, system.y_den)
    assert len(type_polys) == n_type
    assert len(system.jets) == r_max
    for r, (order, ref) in enumerate(zip(system.jets, jets_ref)):
        same(order, ref, a2_den * x_den**r)
    same(system.identity, identity_ref, factorial(q) ** 2 * (a2_den * x_den) ** q)


def test_sympy_is_not_a_runtime_import():
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "parageo"
    assert [path.name for path in src.glob("*.py") if "sympy" in path.read_text()] == []
