from fractions import Fraction

import pytest

from parageo._fastgrid import GridKernel, _realify, grid_kernel
from parageo.algebra import Ad, AlgElem, GradedAlgebra, group_exp, truncated_Ad
from parageo.catalog import g0_samples, make_algebra
from parageo.curves import CurveSpec, curves_equal, jet_equal, normal_coord_jet
from parageo.errors import EmptyGrid, NotAMember, NotOneGraded
from parageo.lab import (
    chain_family_reparam_check,
    family_dimension,
    family_members,
    fiber_second_in_span,
    g0_orbit_classify,
    min_jet_order_search,
    mobius_candidate_between,
    orbit_hull_dimension,
    paper_jet_bound,
    pplus_action_on_2jets,
    pplus_elem,
    solve_direction,
    standard_fiber,
    type_from_token,
    type_full,
    type_grade,
    type_null_cone,
    type_rank_stratum,
    type_stratum,
    verify_prop41_claim,
    _iter_pair_stats,
    _pair_stats,
)
from parageo.matrices import Mat
from parageo.scalars import FIELD_GAUSSIAN, FIELD_RATIONAL, GaussianRational

from conftest import ALL_IDS
from fraction_reference import pair_jet_order as reference_jet_order, reference_pair_stats


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
    null = type_null_cone(conf)
    e = conf.elem_from_grade_coords
    assert null.contains(e({-1: (1, 1, 0)}))
    assert not null.contains(e({-1: (1, 0, 0)}))
    assert not null.contains(conf.zero_elem())


def test_type_rank_stratum():
    g = make_algebra("grass(2,2)")
    r1 = type_rank_stratum(g, 1)
    r2 = type_rank_stratum(g, 2)
    e = g.elem_from_grade_coords
    assert r1.contains(e({-1: (1, 0, 0, 0)}))
    assert r2.contains(e({-1: (1, 0, 0, 1)}))
    assert not r1.contains(e({-1: (1, 0, 0, 1)}))


def test_types_are_g0_invariant(any_algebra):
    alg = any_algebra
    specs = [type_full(alg)] + [type_grade(alg, -j) for j in range(1, alg.k + 1)]
    if alg.family == "conf":
        specs.append(type_null_cone(alg))
    if alg.family in ("grass", "proj"):
        specs.append(type_rank_stratum(alg, 1))
    if alg.family == "lagr3":
        specs += [type_stratum(alg, s) for s in ("lagrange1", "contact-generic", "generic")]
    if alg.family == "xxdot":
        specs += [type_stratum(alg, s) for s in ("x1", "X1", "cylinder", "generic")]
    for ts in specs:
        members = [x for x in ts.grid(1)][:8]
        for g0 in g0_samples(alg):
            for x in members:
                assert ts.contains(Ad(g0, x))


def test_type_tokens_roundtrip(lagr3, xxdot):
    for ts in (
        type_full(lagr3),
        type_grade(lagr3, -2),
        type_stratum(xxdot, "cylinder"),
        type_rank_stratum(make_algebra("grass(2,2)"), 1),
        type_null_cone(make_algebra("conf(1,1)")),
    ):
        rebuilt = type_from_token(ts.algebra, ts.token)
        assert rebuilt.label == ts.label
        for x in list(ts.grid(1))[:5]:
            assert rebuilt.contains(x)


def test_grid_is_deterministic_and_exact(lagr3):
    ts = type_grade(lagr3, -1)
    first = [x.coords for x in ts.grid(1)]
    second = [x.coords for x in ts.grid(1)]
    assert first == second
    assert len(first) == 9
    with pytest.raises(EmptyGrid):
        list(ts.grid(-1))


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
        assert list(_iter_pair_stats(ts, x, 1, r_max)) == reference_pair_stats(ts, x, 1, r_max)


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
    assert list(_iter_pair_stats(ts, x, 1, r_max)) == reference_pair_stats(ts, x, 1, r_max)


@settings(max_examples=150, deadline=None)
@given(cid=st.sampled_from(ALL_IDS), data=st.data())
def test_jet_forms_agree_with_commutator_loop(cid, data):
    # d0 is a random integer matrix, zero below a random position grade so
    # that higher jet orders occur; A2 = X - d0 / x_den on both sides
    alg = make_algebra(cid)
    gaussian = alg.field == FIELD_GAUSSIAN
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
    part = st.integers(-2, 2)
    entry = st.builds(GaussianRational, part, part) if gaussian else part.map(Fraction)
    d0 = Mat(
        [
            [data.draw(entry) if alg.position_grade[i][j] >= cut else Fraction(0) for j in range(q)]
            for i in range(q)
        ]
    )
    r_max = data.draw(st.integers(0, 6))
    kern = GridKernel(alg, x)
    _, d0_rows = _realify(d0, gaussian)
    a2_num = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(kern.x_rows, d0_rows)]
    a2 = x.matrix - d0.scale(Fraction(1, kern.x_den))
    assert kern.pair_jet_order(a2_num, kern.x_den, r_max) == reference_jet_order(
        alg, x.matrix, a2, r_max
    )


def _full_flag_sl4():
    """sl(4, R) with blocks (1,1,1,1): the |3|-graded full flag, built from
    unit matrices E_ij (of grade j - i).  Not a catalog algebra."""
    d = 4

    def unit(i, j):
        rows = [[Fraction(0)] * d for _ in range(d)]
        rows[i][j] = Fraction(1)
        return Mat(rows)

    by_grade = {g: [] for g in range(-3, 4)}
    for i in range(d):
        for j in range(d):
            if i != j:
                by_grade[j - i].append(unit(i, j))
    by_grade[0] = [unit(a, a) - unit(a + 1, a + 1) for a in range(d - 1)]
    return GradedAlgebra("sl(1,1,1,1)", "sl", {}, FIELD_RATIONAL, 3, (1, 1, 1, 1), by_grade)


def test_engine_agrees_with_reference_depth_3():
    # grade(-1) at r_max 3 has pairs of jet order 3 with unequal curves (the
    # bound ceil((k+1)/1) = 4 is attained); the full_n direction has a g_-3
    # part, so the solve needs k = 3 conjugations, and jet forms up to order 5
    alg = _full_flag_sl4()
    assert alg.k == 3
    cases = [
        (type_grade(alg, -1), alg.elem_from_grade_coords({-1: (1, 1, 1)}), 3),
        (type_full(alg), alg.elem_from_grade_coords({-1: (1, 0, 1), -3: (1,)}), 6),
    ]
    outcomes = []
    for ts, x, r_max in cases:
        stats = list(_iter_pair_stats(ts, x, 1, r_max))
        assert stats == reference_pair_stats(ts, x, 1, r_max)
        outcomes.append({(jord, equal) for _, _, jord, equal in stats})
    assert {(3, False), (3, True)} <= outcomes[0]
    assert (6, True) in outcomes[1]


def test_su21_runs_on_kernel():
    su = make_algebra("su21")
    ts = type_grade(su, -2)
    x = su.grade_basis(-2)[0]
    assert isinstance(grid_kernel(su, x), GridKernel)
    rep = min_jet_order_search(ts, x, grid=1, r_max=4)
    assert rep.passed()
    assert rep.verdicts[2] == "confirmed"


def test_workers_produce_identical_stats(lagr3):
    ts = type_full(lagr3)
    x = lagr3.elem_from_grade_coords({-1: (1, 1), -2: (1,)})
    seq = _pair_stats(ts, x, 1, 4, workers=1)
    par = _pair_stats(ts, x, 1, 4, workers=2)
    assert seq == par


# -- jet order search ---------------------------------------------------------------


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
    w = rep.counterexamples[1]
    c2 = CurveSpec.from_Z(alg, AlgElem(alg, w.z_coords), AlgElem(alg, w.y_coords))
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
    fib = standard_fiber(type_full(conf), grid=1)
    xs = {p[0] for p in fib.pairs}
    for xc in xs:
        assert any(p[0] == xc and not any(p[1]) for p in fib.pairs)


def test_standard_fiber_needs_one_grading(lagr3):
    with pytest.raises(NotOneGraded):
        standard_fiber(type_full(lagr3), grid=1)


def test_fiber_invariance(any_algebra):
    alg = any_algebra
    if alg.k != 1:
        return
    ts = type_full(alg)
    fib = standard_fiber(ts, grid=1)
    sample = [p for p in fib.pairs if any(p[0])][:10]
    ws = [alg.grade_basis(1)[0], alg.grade_basis(1)[-1] * Fraction(-2)]
    for xc, sc, _ in sample:
        x, s = AlgElem(alg, xc), AlgElem(alg, sc)
        for w in ws:
            _, s2 = pplus_action_on_2jets(w, (x, s))
            assert fiber_second_in_span(alg, x, s2)
        for g0 in g0_samples(alg):
            assert fiber_second_in_span(alg, Ad(g0, x), Ad(g0, s))


def test_pplus_action_examples(proj1):
    x = proj1.grade_basis(-1)[0]
    z = proj1.grade_basis(1)[0]
    y2 = proj1.zero_elem()
    same = pplus_action_on_2jets(proj1.zero_elem(), (x, y2))
    assert same == (x, y2)
    _, shifted = pplus_action_on_2jets(z, (x, y2))
    assert shifted == x * Fraction(-2)
    with pytest.raises(NotOneGraded):
        pplus_action_on_2jets(make_algebra("lagr3").grade_basis(1)[0], (x, y2))


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


def test_chain_reparam_family(lagr3):
    n, fails = chain_family_reparam_check(lagr3, lagr3.elem_from_grade_coords({-2: (2,)}), grid=2)
    assert n == 5 and not fails


def test_chain_equivalence_of_strata(lagr3, xxdot):
    # the two off-diagonal strata trace exactly the chain curves (4-jet classes)
    def signatures(alg, ts, x, grid, order):
        sigs = set()
        for z, y in family_members(ts, x, grid):
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


def test_orbit_trivial_for_one_graded():
    conf = make_algebra("conf(1,1)")
    rep = orbit_hull_dimension(type_grade(conf, -1), grid=1)
    assert rep.passed()
    assert rep.orbit_dim == rep.hull_dim == 2
