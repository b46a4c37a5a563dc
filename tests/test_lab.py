import tracemalloc
from fractions import Fraction
from itertools import islice

import pytest

from parageo import _fastgrid
from parageo._fastgrid import GridKernel, IntPolyMat, JetSignature, PairSystem, _jet_duals, grid_kernel
from parageo.algebra import Ad, AlgElem, bracket, group_exp, truncated_Ad
from parageo.catalog import MAX_GRID_POINTS, make_algebra
from parageo.cli import ExperimentConfig, parse_direction, run
from parageo.curves import CurveSpec, curves_equal, jet_equal, normal_coord_jet
from parageo.errors import EmptyGrid, GridTooLarge, NotAMember, NotOneGraded, OracleDisagreement
from parageo.lab import (
    check_grid,
    family_dimension,
    g0_orbit_classify,
    iter_pplus_coords,
    min_jet_order_search,
    orbit_hull_dimension,
    pair_coords,
    paper_jet_bound,
    parse_type,
    pplus_elem,
    solve_direction,
    standard_fiber,
    type_full,
    type_grade,
    type_stratum,
    verify_prop41_claim,
    ORBIT_STRATA,
    STRATUM_TYPES,
    _iter_pair_stats,
    _orbit_dim,
    _orbit_points,
)
from parageo.matrices import Mat, rank

from conftest import ALL_IDS, diag_group_elem, full_flag_sl4
from fraction_reference import (
    pair_jet_order as reference_jet_order,
    reference_orbit_points,
    reference_pair_stats,
    solve_direction as reference_solve_direction,
)
from paper_checks import (
    admissible_pairs,
    coordinate_pair_stats,
    default_direction_scan,
    double_bracket_solution,
    expand_pair_stats,
    g0_samples,
    mobius_candidate_between,
    standard_fiber_pairs,
)
from poly_reference import exp_mat, frac_matrix, orbit_jacobian


# -- type specs -----------------------------------------------------------------


def test_type_membership(lagr3, xxdot):
    full = type_full(lagr3)
    assert full.contains(lagr3.grade_basis(-1)[0])
    assert not full.contains(lagr3.grade_basis(1)[0])
    g2 = type_grade(lagr3, -2)
    assert g2.contains(lagr3.grade_basis(-2)[0])
    assert not g2.contains(lagr3.grade_basis(-1)[0])
    cyl = type_stratum(xxdot, "cylinder")
    e = xxdot.elem_from_grade_coords
    assert cyl.contains(e({-1: (3, 2, 2), -2: (1, 1)}))
    assert not cyl.contains(e({-1: (0, 1, 0), -2: (0, 1)}))
    with pytest.raises(NotAMember):
        type_stratum(lagr3, "no-such-stratum")
    with pytest.raises(NotAMember):
        type_grade(lagr3, -3)


def test_type_null_cone():
    conf = make_algebra("conf(1,2)")
    null = parse_type(conf, "null_cone")
    e = conf.elem_from_grade_coords
    assert null.contains(e({-1: (1, 1, 0)}))
    assert not null.contains(e({-1: (1, 0, 0)}))
    assert not null.contains(conf.zero_elem())


def test_type_rank_stratum():
    g = make_algebra("grass(2,2)")
    r1 = parse_type(g, "rank(1)")
    r2 = parse_type(g, "rank(2)")
    e = g.elem_from_grade_coords
    assert r1.contains(e({-1: (1, 0, 0, 0)}))
    assert r2.contains(e({-1: (1, 0, 0, 1)}))
    assert not r1.contains(e({-1: (1, 0, 0, 1)}))


def test_types_are_g0_invariant(any_algebra):
    alg = any_algebra
    specs = [type_full(alg)] + [type_grade(alg, -j) for j in range(1, alg.k + 1)]
    specs += [type_stratum(alg, name) for name in STRATUM_TYPES.get(alg.family, ())]
    if alg.family in ("grass", "proj"):
        specs.append(parse_type(alg, "rank(1)"))
    for ts in specs:
        members = [x for x in ts.grid(1)][:8]
        for g0 in g0_samples(alg):
            for x in members:
                assert ts.contains(Ad(g0, x))


def test_type_labels_rebuild_their_specs():
    # a label alone rebuilds its spec
    specs = []
    for cid in ALL_IDS:
        alg = make_algebra(cid)
        specs += [type_full(alg)] + [type_grade(alg, -j) for j in range(1, alg.k + 1)]
        specs += [type_stratum(alg, name) for name in STRATUM_TYPES.get(alg.family, ())]
    grass = make_algebra("grass(2,2)")
    specs += [parse_type(grass, "rank(%d)" % r) for r in range(3)]
    for ts in specs:
        rebuilt = parse_type(ts.algebra, ts.label)
        assert rebuilt == ts and hash(rebuilt) == hash(ts)
        assert rebuilt.label == ts.label
        assert [x.coords for x in rebuilt.grid(1)] == [x.coords for x in ts.grid(1)]


def test_grid_is_deterministic_and_exact(lagr3):
    ts = type_grade(lagr3, -1)
    first = [x.coords for x in ts.grid(1)]
    second = [x.coords for x in ts.grid(1)]
    assert first == second
    assert len(first) == 9
    with pytest.raises(EmptyGrid):
        list(ts.grid(-1))


def _named_types(alg):
    """Every type the CLI names on ``alg``: full_n, each grade(-j), each
    stratum type, and rank(r) on grass and proj."""
    names = ["full_n"] + ["grade(%d)" % -j for j in range(1, alg.k + 1)]
    names += list(STRATUM_TYPES.get(alg.family, ()))
    if alg.family in ("grass", "proj"):
        names += ["rank(%d)" % r for r in range(min(alg.meta["x_shape"]) + 1)]
    return [parse_type(alg, name) for name in names]


@pytest.mark.parametrize("cid", ALL_IDS + ["proj(3)", "grass(1,3)", "conf(2,0)", "conf(0,2)", "conf(2,2)"])
def test_default_direction_matches_full_grid_walk(cid):
    # the scan of [0, b]^m first picks what the walk of [-b, b]^m picks
    for ts in _named_types(make_algebra(cid)):
        try:
            expected = default_direction_scan(ts)
        except NotAMember:
            with pytest.raises(NotAMember):
                ts.default_direction()
        else:
            assert ts.default_direction() == expected


def test_grid_cap_fires_before_enumeration(xxdot):
    check_grid((1, 12))  # 3^12 = 531,441 points
    with pytest.raises(GridTooLarge):
        check_grid((1, 13))  # 3^13 = 1,594,323 points
    with pytest.raises(GridTooLarge):
        type_full(xxdot).grid(1000)
    with pytest.raises(GridTooLarge):
        iter_pplus_coords(xxdot, 1000)
    # grass(2,2) at radius 3: 7^4 X points and 7^4 Z points, 7^8 pairs
    grass = make_algebra("grass(2,2)")
    assert 7**4 <= MAX_GRID_POINTS < 7**8
    with pytest.raises(GridTooLarge):
        standard_fiber(type_full(grass), grid=3)
    # a product of grids with their own radii: 7^4 * 3^5 and 7^4 * 3^6
    check_grid((3, 4), (1, 5))
    with pytest.raises(GridTooLarge):
        check_grid((3, 4), (1, 6))
    with pytest.raises(EmptyGrid):
        check_grid((1, 2), (-1, 2))
    # the orbit of grade(-1) on proj(7): 3^7 X points times 3^7 Z points
    with pytest.raises(GridTooLarge):
        _orbit_points(type_grade(make_algebra("proj(7)"), -1), 1)
    with pytest.raises(EmptyGrid):
        check_grid((-1, 0))


# -- classification ---------------------------------------------------------------


def test_classify_partitions_the_grid(xxdot):
    counts = {}
    for x in type_full(xxdot).grid(1):
        counts[g0_orbit_classify(x)] = counts.get(g0_orbit_classify(x), 0) + 1
    assert sum(counts.values()) == 3**5
    assert counts["zero"] == 1
    assert counts["chain"] == 8
    assert counts["x1"] == 2
    assert counts["cylinder-a1"] == 16
    assert counts["generic"] == 96


def test_classify_is_g0_invariant(any_algebra):
    alg = any_algebra
    for x in list(type_full(alg).grid(1))[:40]:
        label = g0_orbit_classify(x)
        for g0 in g0_samples(alg):
            assert g0_orbit_classify(Ad(g0, x)) == label


# member counts of every named type on the full_n grid of radius 1
NAMED_TYPE_COUNTS = {
    "conf(1,1)": {"null_cone": 4},
    "conf(1,2)": {"null_cone": 8},
    "proj(2)": {"rank(0)": 1, "rank(1)": 8},
    "grass(2,2)": {"rank(0)": 1, "rank(1)": 32, "rank(2)": 48},
    "lagr3": {"lagrange1": 2, "lagrange2": 2, "contact-generic": 4, "chain-equiv1": 4,
              "chain-equiv2": 4, "generic": 8},
    "xxdot": {"x1": 2, "X1": 8, "contact-generic": 16, "cylinder": 72, "cylinder-a1": 24,
              "cylinder-a2": 24, "offcyl": 48, "generic": 96},
}


@pytest.mark.parametrize("cid", sorted(NAMED_TYPE_COUNTS))
def test_named_types_are_unions_of_classify_labels(cid):
    # every stratum type and known orbit is a set of labels that classify
    # returns on the full_n grid, so a typo in a table shows here
    alg = make_algebra(cid)
    seen = {g0_orbit_classify(x) for x in type_full(alg).grid(2)}
    counts = NAMED_TYPE_COUNTS[cid]
    names = set(STRATUM_TYPES.get(alg.family, ()))
    if alg.family in ("grass", "proj"):
        names = {"rank(%d)" % r for r in range(min(alg.meta["x_shape"]) + 1)}
    assert set(counts) == names
    specs = [parse_type(alg, name) for name in counts]
    assert all(ts.kind == "stratum" and ts.data <= seen for ts in specs)
    assert all(labels <= seen for labels in ORBIT_STRATA.get(alg.family, {}).values())
    assert {ts.label: len(list(ts.grid(1))) for ts in specs} == counts


def test_classify_examples(lagr3):
    conf = make_algebra("conf(1,1)")
    assert g0_orbit_classify(conf.elem_from_grade_coords({-1: (1, 1)})) == "null"
    g = make_algebra("grass(2,2)")
    assert g0_orbit_classify(g.elem_from_grade_coords({-1: (1, 0, 0, 1)})) == "rank 2"
    assert g0_orbit_classify(lagr3.elem_from_grade_coords({-1: (1, 0)})) == "lagrange1"


# -- the direction constraint ------------------------------------------------------


from hypothesis import given, settings, strategies as st


@settings(max_examples=40, deadline=None)
@given(
    zvals=st.tuples(*([st.integers(-3, 3)] * 3)),
    xvals=st.tuples(*([st.integers(-3, 3)] * 3)),
)
def test_solve_direction_roundtrip_hypothesis(zvals, xvals):
    alg = make_algebra("lagr3")
    z = pplus_elem(alg, zvals)
    x = alg.elem_from_grade_coords({-1: xvals[:2], -2: xvals[2:]})
    g = group_exp(z)
    y = solve_direction(g, x)
    assert truncated_Ad(g, y) == x


def test_solve_direction_roundtrip(any_algebra):
    alg = any_algebra
    xs = [alg.grade_basis(-1)[0], alg.grade_basis(-alg.k)[-1]]
    zvals = [(1,) * _pplus_dim(alg), tuple(range(_pplus_dim(alg))), (-1, 2) * _pplus_dim(alg)]
    for x in xs:
        for vals in zvals:
            z = pplus_elem(alg, vals[: _pplus_dim(alg)])
            g = group_exp(z)
            y = solve_direction(g, x)
            assert truncated_Ad(g, y) == x


_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@settings(max_examples=40, deadline=None)
@given(cid=st.sampled_from(ALL_IDS + ["full_flag_sl4"]), data=st.data())
def test_solve_direction_matches_fraction_reference(cid, data):
    # the IntPolyMat solve against the Fraction Mat iteration it replaced
    alg = full_flag_sl4() if cid == "full_flag_sl4" else make_algebra(cid)

    def draw(indices):
        vals = data.draw(st.lists(_FRACTIONS, min_size=len(indices), max_size=len(indices)))
        return alg.elem_at(indices, vals)

    z = draw(alg.pplus_indices)
    g = group_exp(z)
    x = draw(alg.n_indices)
    y = solve_direction(g, x)
    zm = frac_matrix(z)
    assert y == reference_solve_direction(exp_mat(zm), exp_mat(zm, -1), x)
    assert truncated_Ad(g, y) == x


@pytest.mark.parametrize("cid", ALL_IDS + ["full_flag_sl4"])
def test_solve_direction_with_g0_factor(cid):
    # truncated Ad is a P-action, so a G0 factor in g is solved exactly too;
    # proj(1) with g = diag(2, 1/2) and X the g_-1 basis vector is one case
    alg = full_flag_sl4() if cid == "full_flag_sl4" else make_algebra(cid)
    z = pplus_elem(alg, [(-1) ** i for i in range(len(alg.pplus_indices))])
    xs = [alg.grade_basis(-1)[0], alg.grade_basis(-alg.k)[-1]]
    for g0 in g0_samples(alg) if cid != "full_flag_sl4" else [diag_group_elem(alg, (2, 1, 3, Fraction(1, 6)))]:
        for g in (g0, g0 * group_exp(z), group_exp(z) * g0):
            for x in xs:
                y = solve_direction(g, x)
                assert y.in_n() and truncated_Ad(g, y) == x


def _pplus_dim(alg):
    return sum(len(alg.grade_slices[g]) for g in range(1, alg.k + 1))


def test_engine_agrees_with_reference(lagr3, xxdot):
    conf = make_algebra("conf(1,2)")
    su = make_algebra("su21")
    cases = [
        (type_full(lagr3), lagr3.elem_from_grade_coords({-1: (1, 1), -2: (1,)})),
        (type_grade(xxdot, -2), xxdot.elem_from_grade_coords({-2: (1, 0)})),
        (type_full(conf), conf.elem_from_grade_coords({-1: (1, 1, 0)})),
        (type_full(lagr3), lagr3.elem_from_grade_coords({-1: (Fraction(1, 2), -3), -2: (1,)})),
        (type_full(su), su.elem_from_grade_coords({-1: (1, Fraction(-1, 3)), -2: (2,)})),
    ]
    for ts, x in cases:
        r_max = ts.algebra.k + 2
        assert coordinate_pair_stats(ts, x, 1, r_max) == reference_pair_stats(ts, x, 1, r_max)


_SMALL_IDS = ["proj(1)", "proj(2)", "conf(1,1)", "lagr3", "su21"]


@settings(max_examples=25, deadline=None)
@given(
    cid=st.sampled_from(_SMALL_IDS),
    grade=st.integers(0, 2),
    coords=st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=3, max_size=3
    ),
)
def test_engine_agrees_with_reference_fractional_hypothesis(cid, grade, coords):
    # grade 0 draws over all of n, grade j over g_-j
    alg = make_algebra(cid)
    grade = min(grade, alg.k)
    grades = range(1, alg.k + 1) if grade == 0 else [grade]
    ts = type_full(alg) if grade == 0 else type_grade(alg, -grade)
    vals = iter(coords)
    x = alg.elem_from_grade_coords(
        {-j: [next(vals) for _ in alg.grade_slices[-j]] for j in grades}
    )
    if not x:
        return
    r_max = alg.k + 2
    assert coordinate_pair_stats(ts, x, 1, r_max) == reference_pair_stats(ts, x, 1, r_max)


def _draw_x_d0(alg, data):
    """X in n with small rational coordinates, and d0 a random integer
    matrix, zero below a random position grade so that higher jet orders
    occur."""
    n_idx = [i for i in range(alg.dim) if alg.basis_grades[i] < 0]
    xc = data.draw(st.lists(st.integers(-2, 2), min_size=len(n_idx), max_size=len(n_idx)))
    coords = [Fraction(0)] * alg.dim
    for i, v in zip(n_idx, xc):
        coords[i] = Fraction(v, data.draw(st.integers(1, 3)))
    if not any(coords):
        coords[n_idx[-1]] = Fraction(1)
    x = AlgElem(alg, coords)
    q = alg.matrix_dim
    cut = data.draw(st.integers(-q + 1, q))
    entry = st.integers(-2, 2).map(Fraction)
    d0 = Mat(
        [
            [data.draw(entry) if alg.position_grade[i][j] >= cut else Fraction(0) for j in range(q)]
            for i in range(q)
        ]
    )
    return x, d0


@settings(max_examples=150, deadline=None)
@given(cid=st.sampled_from(ALL_IDS), data=st.data())
def test_kernel_jet_order_agrees_with_reference(cid, data):
    # A2 = X - d0 / x_den on both sides
    alg = make_algebra(cid)
    x, d0 = _draw_x_d0(alg, data)
    q = alg.matrix_dim
    r_max = data.draw(st.integers(0, 6))
    kern = GridKernel(alg, x)
    x_den = x.matrix.den
    a2 = x.matrix - IntPolyMat(q, [[[int(e) for e in row] for row in d0.rows]], x_den)
    assert kern.pair_jet_order(a2, r_max) == reference_jet_order(
        alg, frac_matrix(x), frac_matrix(x) - d0.scale(Fraction(1, x_den)), r_max
    )


@settings(max_examples=100, deadline=None)
@given(cid=st.sampled_from(ALL_IDS), data=st.data())
def test_jet_duals_read_the_commutator_loop(cid, data):
    # entry (i, j) of ad(-X)^r d0, by the commutator loop d -> d X - X d,
    # is tr(F_r d0) for the pair system's dual form F_r of (i, j), at every
    # position and every order r <= 5; X is the integer matrix x_rows
    alg = make_algebra(cid)
    x, d0 = _draw_x_d0(alg, data)
    x_rows = x.matrix.coeffs[0]
    xm = Mat(x_rows)
    q = alg.matrix_dim
    positions = [(i, j) for i in range(q) for j in range(q)]
    d = d0
    for duals in islice(_jet_duals(x_rows, positions), 6):
        assert [pos for pos, _ in duals] == positions
        for (i, j), f in duals:
            assert d.rows[i][j] == sum(f[b][a] * d0.rows[a][b] for a in range(q) for b in range(q))
        d = d * xm - xm * d


def test_engine_agrees_with_reference_depth_3():
    # grade(-1) at r_max 3 has pairs of jet order 3 with unequal curves (the
    # bound ceil((k+1)/1) = 4 is attained); the full_n direction has a g_-3
    # part, so the solve needs k = 3 conjugations, and jet forms up to order 5
    alg = full_flag_sl4()
    assert alg.k == 3
    cases = [
        (type_grade(alg, -1), alg.elem_from_grade_coords({-1: (1, 1, 1)}), 3),
        (type_full(alg), alg.elem_from_grade_coords({-1: (1, 0, 1), -3: (1,)}), 6),
    ]
    outcomes = []
    for ts, x, r_max in cases:
        stats = coordinate_pair_stats(ts, x, 1, r_max)
        assert stats == reference_pair_stats(ts, x, 1, r_max)
        outcomes.append({(jord, equal) for _, _, jord, equal in stats})
    assert {(3, False), (3, True)} <= outcomes[0]
    assert (6, True) in outcomes[1]


def _conjugation_cases(xxdot):
    sl4 = full_flag_sl4()
    return [
        (sl4, sl4.elem_from_grade_coords({-1: (1, 0, 1), -3: (1,)}), 1),
        (xxdot, xxdot.elem_from_grade_coords({-1: (1, 1, 0), -2: (0, 1)}), 2),
    ]


def test_kernel_solve_takes_two_conjugations(monkeypatch, xxdot):
    # Y is the truncated action of exp(-Z) on X, one conjugation, and A2 =
    # Ad(exp Z) Y is the other, on grids where the pair system's residual
    # iteration takes k conjugations; Y is the reference's iterated solve
    conj = GridKernel.conj
    counts = []

    def counting_conj(self, *args):
        counts[-1] += 1
        return conj(self, *args)

    monkeypatch.setattr(GridKernel, "conj", counting_conj)
    for alg, x, grid in _conjugation_cases(xxdot):
        kern = grid_kernel(alg, x)
        counts.clear()
        for vals in iter_pplus_coords(alg, grid):
            counts.append(0)
            z = frac_matrix(pplus_elem(alg, vals))
            y, _ = kern.solve_direction(*kern.exp_pair(kern.combo_rows(vals)))
            assert y == reference_solve_direction(exp_mat(z), exp_mat(z, -1), x).matrix, vals
        assert counts == [2] * (2 * grid + 1) ** len(alg.pplus_indices)


def test_symbolic_solve_takes_k_conjugations(monkeypatch, xxdot):
    # the symbolic solve iterates until the residual polynomial is zero: it
    # takes as many conjugations as the slowest grid pair, k on both cases
    conj = _fastgrid._pconj
    counts = []

    def counting_conj(*args):
        counts.append(1)
        return conj(*args)

    monkeypatch.setattr(_fastgrid, "_pconj", counting_conj)
    for alg, x, _ in _conjugation_cases(xxdot):
        counts.clear()
        PairSystem(alg, x, alg.k + 2)
        assert len(counts) == alg.k


def test_su21_runs_on_kernel():
    su = make_algebra("su21")
    ts = type_grade(su, -2)
    x = su.grade_basis(-2)[0]
    assert isinstance(grid_kernel(su, x), GridKernel)
    rep = min_jet_order_search(ts, x, grid=1, r_max=4)
    assert rep.passed()
    assert rep.verdicts[2] == "confirmed"


_STRATUM_SAMPLES = {"conf(1,2)": "null_cone", "lagr3": "lagrange1", "xxdot": "cylinder"}


@pytest.mark.parametrize("cid", ALL_IDS + ["full_flag_sl4"])
def test_position_type_test_agrees_with_contains(cid):
    # the stream decides membership on the integer positions of y_num; on
    # every pair of grid 1, that verdict equals ts.contains of the AlgElem
    # read by elem_coords, and pair_coords reads the same Y
    alg = full_flag_sl4() if cid == "full_flag_sl4" else make_algebra(cid)
    names = ["full_n"] + ["grade(%d)" % -j for j in range(1, alg.k + 1)]
    names += [_STRATUM_SAMPLES[cid]] if cid in _STRATUM_SAMPLES else []
    outcomes = set()
    for name in names:
        ts = parse_type(alg, name)
        x = ts.default_direction()
        kern = grid_kernel(alg, x)
        for vals, y, jord, _ in expand_pair_stats(ts, x, 1, 2):
            yc = kern.elem_coords(*y)
            assert (jord is not None) == ts.contains(AlgElem(alg, yc)), (name, vals)
            assert pair_coords(alg, vals, y) == (pplus_elem(alg, vals).coords, yc)
            outcomes.add((name, jord is not None))
    # Y - X lies in grades above that of X, so on a depth >= 2 algebra the
    # lowest grade is the one left on both sides of the test
    lowest = "grade(%d)" % -alg.k
    assert alg.k == 1 or {(lowest, True), (lowest, False)} <= outcomes


def test_pair_coords_rejects_a_direction_off_the_span(lagr3):
    # a lone diagonal unit is not traceless, so no basis combination is it;
    # a None coordinate tuple would surface later as a TypeError
    d = lagr3.matrix_dim
    unit = [[int(i == j == 0) for j in range(d)] for i in range(d)]
    vals = (0,) * len(lagr3.pplus_indices)
    with pytest.raises(OracleDisagreement, match="left the span"):
        pair_coords(lagr3, vals, (unit, 1))


def test_grid_kernel_is_built_in_the_first_step(monkeypatch, lagr3):
    # the benchmark tracer tags a pair loop by the grid_kernel call of its
    # first step: none when the stream is created, one per jets or family run
    calls = []

    def counting(alg, x):
        calls.append(alg.name)
        return grid_kernel(alg, x)

    monkeypatch.setattr("parageo.lab.grid_kernel", counting)
    ts = type_full(lagr3)
    stream = _iter_pair_stats(ts, ts.default_direction(), 1, 3)
    assert calls == []
    next(stream)
    assert calls == ["lagr3"]
    for command in ("jets", "family"):
        calls.clear()
        _, code = run(ExperimentConfig(command=command, algebra="lagr3", type_spec="grade(-1)", grid=1))
        assert code == 0 and calls == ["lagr3"], command


# -- jet order search ---------------------------------------------------------------


def test_search_memory_does_not_grow_with_the_grid():
    # the verdict needs only counts and the first witness of each order, so
    # the peak memory of a one-worker search is the same at radius 1 (27
    # pairs) and radius 3 (343 pairs); keeping a record per pair made it
    # grow about fourfold
    ts = type_full(make_algebra("proj(3)"))
    x = ts.default_direction()
    min_jet_order_search(ts, x, grid=0)
    peaks = []
    for grid in (1, 3):
        tracemalloc.start()
        try:
            report = min_jet_order_search(ts, x, grid=grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report.n_grid == (2 * grid + 1) ** 3 and report.passed()
    assert peaks[1] <= 1.25 * peaks[0] + 16 * 1024, peaks


def test_paper_bounds(lagr3, xxdot):
    assert paper_jet_bound(type_full(make_algebra("proj(2)"))) == 2
    assert paper_jet_bound(type_grade(lagr3, -1)) == 3
    assert paper_jet_bound(type_grade(lagr3, -2)) == 2
    assert paper_jet_bound(type_grade(xxdot, -1)) == 3
    assert paper_jet_bound(type_grade(xxdot, -2)) == 2
    assert paper_jet_bound(type_full(xxdot)) == 4


def test_min_jet_order_search_proj2():
    alg = make_algebra("proj(2)")
    rep = min_jet_order_search(type_full(alg), alg.elem_from_grade_coords({-1: (1, 0)}), grid=2)
    assert rep.passed()
    assert rep.verdicts[1] == "counterexample" and rep.verdicts[2] == "confirmed"
    assert rep.empirical_sharp_order == 2
    # the witness is written as the command line reads it: Z over p_+, Y over n
    w = rep.counterexamples[1]
    z, y = alg.elem_at(alg.pplus_indices, w.z_coords), alg.elem_at(alg.n_indices, w.y_coords)
    c2 = CurveSpec.from_Z(alg, z, y)
    base = CurveSpec.base(alg, alg.elem_from_grade_coords({-1: (1, 0)}))
    assert jet_equal(base, c2, 1) and not curves_equal(base, c2)


def test_min_jet_order_search_flags_false_bounds():
    alg = make_algebra("proj(2)")
    rep = min_jet_order_search(
        type_full(alg), alg.elem_from_grade_coords({-1: (1, 0)}), grid=1, claimed_bound=1
    )
    assert not rep.passed()
    assert any("order 1" in v for v in rep.violations)


def test_min_jet_order_errors(lagr3):
    ts = type_grade(lagr3, -2)
    with pytest.raises(NotAMember):
        min_jet_order_search(ts, lagr3.grade_basis(-1)[0], grid=1)
    with pytest.raises(NotAMember):
        min_jet_order_search(ts, lagr3.zero_elem(), grid=1)
    with pytest.raises(EmptyGrid):
        min_jet_order_search(ts, lagr3.grade_basis(-2)[0], grid=-1)


def test_prop25_safety_net_small(any_algebra):
    # equal (k+2)-jets imply equal curves on a small grid, in every catalog
    alg = any_algebra
    ts = type_full(alg)
    x = ts.default_direction()
    rep = min_jet_order_search(ts, x, grid=1, r_max=alg.k + 2)
    assert rep.passed()
    assert rep.verdicts[alg.k + 2] == "confirmed"


# -- proof-claim checker ---------------------------------------------------------


def test_prop41_claim(lagr3):
    rep = verify_prop41_claim(lagr3, z_bound=1)
    assert rep.passed()
    assert rep.n_applicable > 0
    with pytest.raises(NotOneGraded):
        verify_prop41_claim(make_algebra("proj(2)"))


def test_prop41_zero_sample_is_vacuous(lagr3):
    rep = verify_prop41_claim(lagr3, x_samples=[lagr3.grade_basis(-1)[0]], z_bound=0)
    assert rep.passed() and rep.n_samples == 1 and rep.n_applicable == 1


# -- standard fiber ---------------------------------------------------------------


def test_standard_fiber_contains_zero_section():
    conf = make_algebra("conf(1,1)")
    pairs = standard_fiber_pairs(type_full(conf), 1)
    xs = {p[0] for p in pairs}
    for xc in xs:
        assert any(p[0] == xc and not any(p[1]) for p in pairs)


def _no_bracket(x, y):
    raise AssertionError("bracket called")


def test_standard_fiber_needs_one_grading(lagr3, monkeypatch):
    # the grading is checked first: before the grid bound and any bracket
    monkeypatch.setattr("parageo.lab.bracket", _no_bracket)
    for grid in (1, -1):
        with pytest.raises(NotOneGraded):
            standard_fiber(type_full(lagr3), grid=grid)


ONE_GRADED_IDS = [cid for cid in ALL_IDS if make_algebra(cid).k == 1]


def _fiber_types(alg):
    """full_n, and the named stratum types of the fiber reports."""
    names = ["full_n"]
    if alg.family == "conf":
        names.append("null_cone")
    if alg.family in ("grass", "proj"):
        names.append("rank(1)")
    return [parse_type(alg, name) for name in names]


def _assert_fiber_is_the_reference(ts, grid):
    """The engine's fiber against the direct loop: ``n_pairs`` counts the
    reference pairs, and each X's rank, in the same X order, is the rank
    of that X's reference seconds.  At grid 0 the one X is 0; from grid 1
    on the Z grid holds the g_1 basis, so the seconds span the image of
    Z -> [X,[X,Z]].  Returns the reference pairs."""
    fib = standard_fiber(ts, grid=grid)
    ref = standard_fiber_pairs(ts, grid)
    seconds = {}
    for x, second, _ in ref:
        seconds.setdefault(x, []).append(second)
    n_idx = ts.algebra.n_indices
    assert fib.n_pairs == len(ref)
    assert fib.ranks == tuple((tuple(x[i] for i in n_idx), rank(s)) for x, s in seconds.items())
    return ref


@pytest.mark.parametrize("cid", ONE_GRADED_IDS)
def test_standard_fiber_matches_direct_loop(cid):
    # the rank of [X,[X,e_i]] per X against one elem_at and two brackets
    # per pair
    for ts in _fiber_types(make_algebra(cid)):
        assert _assert_fiber_is_the_reference(ts, 1)


@pytest.mark.parametrize("cid", ONE_GRADED_IDS)
def test_standard_fiber_grid_0_is_the_zero_pair(cid):
    alg = make_algebra(cid)
    zero = alg.zero_elem()
    for ts in _fiber_types(alg):
        expect = ((zero.coords,) * 3,) if ts.contains(zero) else ()
        assert _assert_fiber_is_the_reference(ts, 0) == expect


def test_standard_fiber_negative_grid():
    conf = make_algebra("conf(1,1)")
    for ts in _fiber_types(conf):
        with pytest.raises(EmptyGrid, match="grid bound must be >= 0"):
            standard_fiber(ts, grid=-1)


def test_fiber_invariance(any_algebra):
    alg = any_algebra
    if alg.k != 1:
        return
    ts = type_full(alg)
    sample = [p for p in standard_fiber_pairs(ts, 1) if any(p[0])][:10]
    ws = [alg.grade_basis(1)[0], alg.grade_basis(1)[-1] * Fraction(-2)]
    for xc, sc, _ in sample:
        x, s = AlgElem(alg, xc), AlgElem(alg, sc)
        # exp(W), W in g_1, maps the 2-jet (Y', Y'') to (Y', Y'' + [Y',[Y',W]])
        for w in ws:
            s2 = s + bracket(x, bracket(x, w))
            assert double_bracket_solution(alg, x, 1, s2) is not None
        for g0 in g0_samples(alg):
            assert double_bracket_solution(alg, Ad(g0, x), 1, Ad(g0, s)) is not None


# -- families ---------------------------------------------------------------------


def test_family_dimension_lagr3_values(lagr3):
    lag = type_stratum(lagr3, "lagrange1")
    fr = family_dimension(lag, lagr3.elem_from_grade_coords({-1: (1, 0)}), grid=2)
    assert fr.family_dimension == 1
    assert fr.stabilizer_hull_dim == 2 and fr.stabilizer_linear
    assert fr.jet_class_count == 5  # one distinct curve per grid value of the free seed
    contact = type_grade(lagr3, -1)
    fr2 = family_dimension(contact, lagr3.elem_from_grade_coords({-1: (1, 1)}), grid=2)
    assert fr2.family_dimension == 3 and fr2.stabilizer_hull_dim == 0
    assert fr2.jet_class_count == fr2.n_admissible  # all 125 curves distinct


def test_family_stabilizer_linearity_can_fail(lagr3):
    # an admissible Z outside the 7 stabilizer points lies in their span,
    # so the family dimension is downgraded to a range
    x = lagr3.elem_at(lagr3.n_indices, (-1, -1, 0))
    fr = family_dimension(type_full(lagr3), x, grid=2)
    assert not fr.stabilizer_linear and len(fr.stabilizer_points) == 7
    assert (fr.stabilizer_hull_dim, fr.admissible_hull_dim) == (2, 3)
    assert fr.family_dimension_range == (1, 3)


def test_family_direction_must_be_member(lagr3):
    with pytest.raises(NotAMember):
        family_dimension(type_grade(lagr3, -2), lagr3.grade_basis(-1)[0], grid=1)


def test_stabilizer_members_reverify(lagr3):
    lag = type_stratum(lagr3, "lagrange1")
    x = lagr3.elem_from_grade_coords({-1: (1, 0)})
    fr = family_dimension(lag, x, grid=1)
    base = CurveSpec.base(lagr3, x)
    for flat in fr.stabilizer_points:
        z = pplus_elem(lagr3, flat)
        y = solve_direction(group_exp(z), x)
        assert curves_equal(base, CurveSpec.from_Z(lagr3, z, y))


def _assert_signature_partition_is_the_jet_partition(ts, x, grid):
    # the compiled (k+2)-jet of every admissible pair has the Y coordinates
    # of its normal_coord_jet solve, so the two partitions of the pairs agree
    alg = ts.algebra
    order = alg.k + 2
    signature = JetSignature(alg, PairSystem(alg, x, order), order)
    compiled, solved = {}, {}
    pairs = admissible_pairs(ts, x, grid)
    assert pairs
    for n, (z, y) in enumerate(pairs):
        key = signature.evaluate(tuple(int(z.coords[i]) for i in alg.pplus_indices))
        jet = normal_coord_jet(CurveSpec.from_Z(alg, z, y), order).coeffs_prefix(order)
        assert signature.coords(key) == jet[1:]
        compiled.setdefault(key, set()).add(n)
        solved.setdefault(jet, set()).add(n)
    assert sorted(map(sorted, compiled.values())) == sorted(map(sorted, solved.values()))


@pytest.mark.parametrize("cid", ALL_IDS)
def test_jet_signature_partition_on_every_catalog_type(cid):
    for ts in _named_types(make_algebra(cid)):
        try:
            x = ts.default_direction()
        except NotAMember:
            continue
        _assert_signature_partition_is_the_jet_partition(ts, x, 1)


def test_jet_signature_partition_rational_direction(xxdot):
    x = parse_direction(xxdot, "0,0,1/2,1,0")
    _assert_signature_partition_is_the_jet_partition(type_grade(xxdot, -1), x, 1)


def test_jet_signature_partition_depth_3():
    alg = full_flag_sl4()
    ts = type_full(alg)
    _assert_signature_partition_is_the_jet_partition(ts, ts.default_direction(), 1)


def test_family_counts_classes_once_per_signature_fiber(monkeypatch, lagr3):
    # lagr3 grade(-1) at grid 2: 125 admissible pairs, whose signature reads
    # one of the three p_+ coordinates, so 5 evaluations and one jet solve
    # per class
    evaluations, solves = [], []
    evaluate = JetSignature.evaluate

    def counting_evaluate(self, vals):
        evaluations.append(vals)
        return evaluate(self, vals)

    def counting_solve(c, order):
        solves.append(order)
        return normal_coord_jet(c, order)

    monkeypatch.setattr(JetSignature, "evaluate", counting_evaluate)
    monkeypatch.setattr("parageo.lab.normal_coord_jet", counting_solve)
    ts = type_grade(lagr3, -1)
    fr = family_dimension(ts, ts.default_direction(), grid=2)
    assert fr.n_admissible == 125 and fr.jet_class_count == 5
    assert len(evaluations) == 5 and len(solves) <= 5


def test_wrong_signature_value_raises(monkeypatch, lagr3):
    evaluate = JetSignature.evaluate

    def off_by_one(self, vals):
        key = evaluate(self, vals)
        return (key[0] + 1,) + key[1:]

    monkeypatch.setattr(JetSignature, "evaluate", off_by_one)
    ts = type_grade(lagr3, -1)
    with pytest.raises(OracleDisagreement):
        family_dimension(ts, ts.default_direction(), grid=2)


def test_chain_equivalence_of_strata(lagr3, xxdot):
    # the two off-diagonal strata trace exactly the chain curves (4-jet classes)
    def signatures(alg, ts, x, grid, order):
        sigs = set()
        for z, y in admissible_pairs(ts, x, grid):
            sigs.add(normal_coord_jet(CurveSpec.from_Z(alg, z, y), order).coeffs_prefix(order))
        return sigs

    x = lagr3.elem_from_grade_coords({-2: (1,)})
    chain_sigs = signatures(lagr3, type_grade(lagr3, -2), x, 1, 4)
    for name in ("chain-equiv1", "chain-equiv2"):
        assert signatures(lagr3, type_stratum(lagr3, name), x, 1, 4) == chain_sigs

    xx_x = xxdot.elem_from_grade_coords({-2: (1, 0)})
    xx_chain = signatures(xxdot, type_grade(xxdot, -2), xx_x, 1, 4)
    for name in ("cylinder-a1", "cylinder-a2"):
        assert signatures(xxdot, type_stratum(xxdot, name), xx_x, 1, 4) == xx_chain


def test_mobius_candidate_between(lagr3):
    x = lagr3.elem_from_grade_coords({-2: (1,)})
    z = lagr3.grade_basis(2)[0] * Fraction(2)
    c1 = CurveSpec.base(lagr3, x)
    c2 = CurveSpec.from_Z(lagr3, z, x)
    cand = mobius_candidate_between(c1, c2)
    assert cand is not None and cand[0] == 1 and cand[1] != 0


# -- orbit hulls -------------------------------------------------------------------


def test_orbit_dimensions(lagr3, xxdot):
    rep = orbit_hull_dimension(type_grade(xxdot, -2), grid=1)
    assert rep.passed()
    assert rep.orbit_dim == 4  # the chain cylinder
    assert rep.hull_dim == 5  # its linear span is everything
    rep2 = orbit_hull_dimension(type_grade(lagr3, -2), grid=1)
    assert rep2.passed() and rep2.orbit_dim == 3 == rep2.hull_dim


@pytest.mark.parametrize(
    "cid,tspec,grid",
    [
        ("xxdot", "grade(-2)", 1),
        ("xxdot", "grade(-1)", 1),
        ("lagr3", "grade(-2)", 2),
        ("lagr3", "full_n", 1),
        ("su21", "grade(-1)", 1),
        ("proj(2)", "full_n", 1),
        ("conf(1,1)", "null_cone", 1),
    ],
)
def test_orbit_points_match_fraction_loop(cid, tspec, grid):
    ts = parse_type(make_algebra(cid), tspec)
    points, _ = _orbit_points(ts, grid)
    assert points and points == reference_orbit_points(ts, grid)


def _six_probe_ranks(ts, grid):
    """The reference Jacobian ranks at six (Z0, X) probes: Z0 = 0 and
    Z0 = (1, ..., 1) on p_+ for each of the first two and the last nonzero
    grid members, the X that orbit_dim probes."""
    alg = ts.algebra
    zero, ones = (pplus_elem(alg, (v,) * len(alg.pplus_indices)) for v in (0, 1))
    nonzero = [x for x in ts.grid(grid) if x]
    probes = [(z0, x) for x in nonzero[:2] + nonzero[-1:] for z0 in (zero, ones)]
    return [rank(orbit_jacobian(alg, z0, x, ts.param_indices())) for z0, x in probes]


@pytest.mark.parametrize("grid", [0, 1])
@pytest.mark.parametrize(
    "cid,tspec",
    [(cid, ts.label) for cid in ALL_IDS + ["proj(4)"] for ts in _named_types(make_algebra(cid))],
)
def test_orbit_dim_is_the_six_probe_reference(cid, tspec, grid):
    # the hull only sets where the search stops, so the two searches are
    # compared at every value it can take, without sampling the orbit
    ts = parse_type(make_algebra(cid), tspec)
    ranks = _six_probe_ranks(ts, grid)
    for hull in range(len(ts.algebra.n_indices) + 1):
        best = 0
        for r in ranks:
            best = max(best, r)
            if best == hull:
                break
        assert _orbit_dim(ts, grid, hull) == best, hull
    # the hull from a basis of the X span is the rank over every orbit point
    points, hull = _orbit_points(ts, grid)
    assert hull == rank([[p.coords[i] for i in ts.algebra.n_indices] for _, _, p in points])


@pytest.mark.parametrize(
    "cid,tspec",
    [(cid, "grade(-%d)" % j) for cid in ALL_IDS for j in range(1, make_algebra(cid).k + 1)],
)
def test_orbit_dim_is_the_best_rank_over_the_grid(cid, tspec):
    # the grade types of family's orbit pass and reproduce_tables.py, at
    # the grid 1 they run: the probes reach the reference Jacobian's best
    # rank over every nonzero grid member
    alg = make_algebra(cid)
    ts = parse_type(alg, tspec)
    zero = pplus_elem(alg, (0,) * len(alg.pplus_indices))
    best = max(rank(orbit_jacobian(alg, zero, x, ts.param_indices())) for x in ts.grid(1) if x)
    assert orbit_hull_dimension(ts, grid=1).orbit_dim == best


def test_orbit_trivial_for_one_graded():
    conf = make_algebra("conf(1,1)")
    rep = orbit_hull_dimension(type_grade(conf, -1), grid=1)
    assert rep.passed()
    assert rep.orbit_dim == rep.hull_dim == 2
