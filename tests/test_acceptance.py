"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every check below is an exact-arithmetic statement (zero tolerance): grid
searches use integer coordinates in [-2, 2], matrices are at most 6x6 and
polynomial degrees stay small.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see one line per criterion.
"""

import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from parageo.algebra import AlgElem, bracket
from parageo.catalog import make_algebra
from parageo.cli import ExperimentConfig, emit, run
from parageo.curves import CurveSpec
from parageo.lab import (
    family_dimension,
    min_jet_order_search,
    orbit_hull_dimension,
    pair_coords,
    standard_fiber,
    type_full,
    parse_type,
    type_grade,
    type_stratum,
    verify_prop41_claim,
)
from parageo.matrices import rank
from parageo.poly import Poly
from parageo.reparam import (
    MobiusMap,
    reparam_solve,
    schwarzian_check,
    verify_reparam,
)
from parageo.suite import lemma_suite

from conftest import ALL_IDS
from paper_checks import (
    admissible_pairs,
    chain_family_reparam_check,
    expand_pair_stats,
    mobius_candidate_between,
    projective_structure_exists,
    standard_fiber_pairs,
)


def note(num, description):
    print("ACCEPTANCE %2d PASS: %s" % (num, description))


def dirs(alg, grade_coord_sets):
    return [alg.elem_from_grade_coords(gc) for gc in grade_coord_sets]


@pytest.fixture(scope="module")
def grade_minus1_reports():
    """Shared grade(-1) searches used by criteria 4 and 5."""
    out = {}
    for cid, coord_sets in (
        ("lagr3", [{-1: (1, 1)}, {-1: (1, 0)}, {-1: (0, 2)}]),
        ("xxdot", [{-1: (1, 1, 0)}, {-1: (0, 1, 2)}, {-1: (1, 0, 0)}]),
    ):
        alg = make_algebra(cid)
        ts = type_grade(alg, -1)
        out[cid] = [min_jet_order_search(ts, x, grid=2, r_max=4) for x in dirs(alg, coord_sets)]
    return out


def test_criterion_01_lemma_identity_suite():
    total = 0
    for cid in ALL_IDS:
        rep = lemma_suite(make_algebra(cid))
        assert rep.n_checks >= 50, (cid, rep.n_checks)
        assert rep.violations == (), (cid, rep.violations[:3])
        total += rep.n_checks
    note(1, "lemma identity suite: %d exact checks, zero violations" % total)


def test_criterion_02_two_jet_determination():
    one_graded = {
        "proj(2)": [{-1: (1, 0)}, {-1: (1, 2)}],
        "grass(1,2)": [{-1: (1, 0)}, {-1: (1, 1)}],
        "conf(1,2)": [{-1: (1, 1, 0)}, {-1: (1, 0, 0)}, {-1: (0, 1, 0)}],
    }
    pairs = 0
    for cid, coord_sets in one_graded.items():
        alg = make_algebra(cid)
        ts = type_full(alg)
        saw_counterexample = False
        for x in dirs(alg, coord_sets):
            rep = min_jet_order_search(ts, x, grid=2, r_max=4)
            assert rep.passed(), (cid, rep.violations)
            assert rep.verdicts[2] == "confirmed", (cid, x.coords)
            saw_counterexample |= rep.verdicts[1] == "counterexample"
            pairs += rep.n_admissible
        assert saw_counterexample, cid
    deeper = {
        "lagr3": [{-1: (1, 1), -2: (1,)}, {-1: (1, 1)}, {-2: (1,)}, {-1: (1, 0)}],
        "xxdot": [{-1: (1, 1, 0), -2: (0, 1)}, {-2: (1, 0)}],
    }
    for cid, coord_sets in deeper.items():
        alg = make_algebra(cid)
        ts = type_full(alg)
        for x in dirs(alg, coord_sets):
            rep = min_jet_order_search(ts, x, grid=2, r_max=4)
            assert rep.passed(), (cid, rep.violations)
            assert rep.verdicts[4] == "confirmed", (cid, x.coords)
            pairs += rep.n_admissible
    note(2, "2-jet / (k+2)-jet determination over %d grid pairs" % pairs)


def test_criterion_03_chains_two_jets_and_cascade():
    checked = 0
    for cid, chain_dirs in (("lagr3", [{-2: (1,)}, {-2: (2,)}]), ("xxdot", [{-2: (1, 0)}, {-2: (1, 1)}])):
        alg = make_algebra(cid)
        ts = type_grade(alg, -alg.k)
        for x in dirs(alg, chain_dirs):
            rep = min_jet_order_search(ts, x, grid=2, r_max=4)
            assert rep.passed(), (cid, rep.violations)
            assert rep.claimed_bound == 2
            assert rep.verdicts[2] == "confirmed"
            # cascade necessity: Z is admissible (its solved Y is again a
            # chain direction, jet order not None) iff [Z_1, X] = 0
            for vals, y, jord, _ in expand_pair_stats(ts, x, 2, 4):
                zc, _ = pair_coords(alg, vals, y)
                admissible = jord is not None
                z1 = alg.elem_at(alg.grade_slices[1], AlgElem(alg, zc).grade_coords(1))
                cascade_ok = bracket(z1, x).is_zero()
                assert admissible == cascade_ok, (cid, zc)
                checked += 1
    note(3, "chains: 2-jet determination + cascade recovered on %d samples" % checked)


def test_criterion_04_grade_minus1_three_jets(grade_minus1_reports):
    for cid, reports in grade_minus1_reports.items():
        for rep in reports:
            assert rep.passed(), (cid, rep.violations)
            assert rep.claimed_bound == 3
            assert rep.verdicts[3] == "confirmed", (cid, rep.direction)
    for cid in ("lagr3", "xxdot"):
        claim = verify_prop41_claim(make_algebra(cid), z_bound=1)
        assert claim.passed(), (cid, claim.violations[:3])
        assert claim.n_applicable > 0
    note(4, "grade(-1) curves: 3-jet determination + inductive claim verified")


def test_criterion_05_rj_bound_for_xxdot(grade_minus1_reports):
    # r = 3 with j = 1 satisfies r*j >= k+1 = 3; any grid violation is a FAIL
    for rep in grade_minus1_reports["xxdot"]:
        assert rep.passed()
        assert rep.claimed_bound == 3
        assert rep.verdicts[3] == "confirmed"
    # the bound is attained: some direction needs the full 3-jet
    assert any(rep.verdicts[2] == "counterexample" for rep in grade_minus1_reports["xxdot"])
    note(5, "xxdot grade(-1) with r=3 (rj >= k+1) confirmed on the full grid")


def test_criterion_06_conformal_formulas():
    checked = 0
    for cid in ("conf(1,1)", "conf(1,2)"):
        alg = make_algebra(cid)
        signs = alg.meta["signs"]
        nn = len(signs)
        # closed form on all basis pairs (sign as the realization forces it)
        for i, xb in enumerate(alg.grade_basis(-1)):
            for j, zb in enumerate(alg.grade_basis(1)):
                lhs = bracket(xb, bracket(xb, zb))
                zx = Fraction(1) if i == j else Fraction(0)
                jzt = alg.grade_basis(-1)[j] * signs[j]
                rhs = xb * (-2 * zx) + jzt * signs[i]
                assert lhs == rhs, (cid, i, j)
                checked += 1
        # null directions: second components are multiples of X on the grid
        null = parse_type(alg, "null_cone")
        for xc, sc, _ in standard_fiber_pairs(null, 2):
            # X is nonzero, so a nonzero second component is a multiple of X
            # exactly when the two have rank 1
            assert not any(sc) or rank([xc, sc]) == 1, (cid, xc, sc)
        # so the fiber over each null X is the line through X
        assert all(r == 1 for _, r in standard_fiber(null, grid=2).ranks), cid
        # projective structure for every nonzero grid direction
        for vec in itertools.product(range(-2, 3), repeat=nn):
            if not any(vec):
                continue
            x = alg.elem_from_grade_coords({-1: vec})
            z = projective_structure_exists(alg, x, 1)
            assert z is not None and bracket(x, bracket(x, z)) == x, (cid, vec)
    note(6, "conformal closed form, null fibers, projective witnesses (%d bracket pairs)" % checked)


def test_criterion_07_grassmannian_formulas():
    for cid in ("grass(1,2)", "grass(2,2)"):
        alg = make_algebra(cid)
        for xb in alg.grade_basis(-1):
            for zb in alg.grade_basis(1):
                lhs = bracket(xb, bracket(xb, zb))
                rhs = alg.elem_from_matrix((xb.matrix * zb.matrix * xb.matrix).scale(-2))
                assert lhs == rhs, cid
    g12 = make_algebra("grass(1,2)")
    rank1 = parse_type(g12, "rank(1)")
    for xc, sc, _ in standard_fiber_pairs(rank1, 2):
        assert not any(sc) or rank([xc, sc]) == 1
    assert all(r == 1 for _, r in standard_fiber(rank1, grid=2).ranks)
    g22 = make_algebra("grass(2,2)")
    rank2 = parse_type(g22, "rank(2)")
    hull = rank([list(sc) for _, sc, _ in standard_fiber_pairs(rank2, 1)])
    assert hull == 4
    # the fiber over each rank-2 X is all of g_-1
    assert all(r == 4 for _, r in standard_fiber(rank2, grid=1).ranks)
    note(7, "Grassmannian -2XZX on all basis pairs; rank-1 fibers collinear; rank-2 hull = 4")


def test_criterion_08_reparametrization():
    alg = make_algebra("proj(1)")
    x = alg.grade_basis(-1)[0]
    z = alg.grade_basis(1)[0]
    verdict = reparam_solve(alg, x, z, x)
    assert verdict.exists
    assert verdict.map == MobiusMap(1, 0, 1, 1)
    assert verify_reparam(CurveSpec.base(alg, x), CurveSpec.from_Z(alg, z, x), verdict.map)
    random.seed(20240801)
    for _ in range(20):
        a = Fraction(random.choice([1, -1, 2, 3, -2]), random.randint(1, 4))
        b = Fraction(random.randint(-6, 6), random.randint(1, 3))
        v0 = Fraction(random.randint(-2, 2), random.randint(1, 2))
        assert schwarzian_check(MobiusMap.from_seeds(v0, a, b))
    assert not schwarzian_check(Poly((0, 1, 0, 1)))
    conf = make_algebra("conf(1,1)")
    count = 0
    for xvec in itertools.product(range(-1, 2), repeat=2):
        if not any(xvec):
            continue
        xe = conf.elem_from_grade_coords({-1: xvec})
        for zvec in itertools.product(range(-1, 2), repeat=2):
            ze = conf.elem_from_grade_coords({1: zvec})
            for a in (1, 2):
                v = reparam_solve(conf, xe, ze, xe * Fraction(a))
                if not v.exists:
                    continue
                assert schwarzian_check(v.map)
                assert verify_reparam(
                    CurveSpec.base(conf, xe),
                    CurveSpec.from_Z(conf, ze, xe * Fraction(a)),
                    v.map,
                )
                count += 1
                if count >= 25:
                    break
            if count >= 25:
                break
        if count >= 25:
            break
    assert count >= 25
    note(8, "projective reparametrizations: worked map, Schwarzian battery, %d round-trips" % count)


def test_criterion_09_family_dimensions():
    lagr3 = make_algebra("lagr3")
    # Lagrange directions: 1-dimensional families
    for stratum, direction in (("lagrange1", {-1: (1, 0)}), ("lagrange2", {-1: (0, 1)})):
        fr = family_dimension(type_stratum(lagr3, stratum), lagr3.elem_from_grade_coords(direction), grid=2)
        assert fr.family_dimension == 1 and fr.stabilizer_linear, stratum
    # generic contact: 3-dimensional
    fr = family_dimension(type_grade(lagr3, -1), lagr3.elem_from_grade_coords({-1: (1, 1)}), grid=2)
    assert fr.family_dimension == 3 and fr.stabilizer_hull_dim == 0
    # chains: the direction determines the unparametrized curve; all
    # same-direction chain curves are pairwise projectively related
    x = lagr3.elem_from_grade_coords({-2: (2,)})
    n, fails = chain_family_reparam_check(lagr3, x, grid=2)
    assert n == 5 and not fails
    members = admissible_pairs(type_grade(lagr3, -2), x, grid=2)
    for (z1, y1), (z2, y2) in itertools.combinations(members, 2):
        c1 = CurveSpec.from_Z(lagr3, z1, y1)
        c2 = CurveSpec.from_Z(lagr3, z2, y2)
        shift = lagr3.elem_at(lagr3.grade_slices[2], (z2 - z1).grade_coords(2))  # g_2 is abelian here
        v = reparam_solve(lagr3, y1, shift, y2)
        assert v.exists
        assert verify_reparam(c1, c2, v.map)
    # generic non-contact class: only affine reparametrizations on the grid
    gen = type_stratum(lagr3, "generic")
    xg = lagr3.elem_from_grade_coords({-1: (1, 1), -2: (1,)})
    base = CurveSpec.base(lagr3, xg)
    solved_b = []
    for z, y in admissible_pairs(gen, xg, grid=2):
        c2 = CurveSpec.from_Z(lagr3, z, y)
        cand = mobius_candidate_between(base, c2)
        if cand is None:
            continue
        a, b = cand
        m = MobiusMap.from_seeds(0, a, b)
        if verify_reparam(base, c2, m):
            solved_b.append(b)
            assert b == 0, (z.coords, b)
    assert solved_b, "expected at least the trivial affine seed"
    # xxdot: chain cylinder has pointwise dimension 4
    xx = make_algebra("xxdot")
    orb = orbit_hull_dimension(type_grade(xx, -2), grid=1)
    assert orb.passed() and orb.orbit_dim == 4
    # generic-direction family has the maximal dimension 5
    frx = family_dimension(
        type_stratum(xx, "generic"),
        xx.elem_from_grade_coords({-1: (1, 1, 0), -2: (0, 1)}),
        grid=2,
    )
    assert frx.family_dimension == 5 and frx.stabilizer_hull_dim == 0
    # X1-Lagrange stratum: K matches {Z1(X1) = 0} as a linear hull
    x1dir = xx.elem_from_grade_coords({-1: (0, 1, 0)})
    frk = family_dimension(type_stratum(xx, "X1"), x1dir, grid=2)
    assert frk.family_dimension == 1 and frk.stabilizer_linear
    assert frk.stabilizer_hull_dim == 4
    # p_+ flat coordinates are (z1, Z1a, Z1b, Z2a, Z2b); X1=(1,0) constrains Z1a
    for flat in frk.stabilizer_points:
        assert flat[1] == 0
    hull_rows = [list(f) for f in frk.stabilizer_points]
    expected = [
        [1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
    ]
    assert rank(hull_rows + expected) == 4
    note(9, "family dimensions: lagr3 (1,3,chains,affine-only) and xxdot (4,5,K) all match")


def test_criterion_10_byte_determinism():
    cfg = ExperimentConfig(command="verify", algebra="lagr3", suite="lemmas", grid=2)
    a = emit(run(cfg)[0], "json")
    b = emit(run(cfg)[0], "json")
    assert a == b
    cfg2 = ExperimentConfig(command="jets", algebra="xxdot", type_spec="grade(-2)", grid=2, orders=4)
    r1 = emit(run(cfg2)[0], "json")
    r2 = emit(run(cfg2)[0], "json")
    assert r1 == r2
    # and through the real process boundary
    cmd = [sys.executable, "-m", "parageo.cli", "jets", "--algebra", "proj(2)", "--grid", "1"]
    out1 = subprocess.run(cmd, capture_output=True, check=True).stdout
    out2 = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert out1 == out2 and json.loads(out1)["summary"]["pass"]
    note(10, "byte-identical reports across repeated runs (in-process and subprocess)")
