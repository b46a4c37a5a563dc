from fractions import Fraction
from math import factorial

import pytest

from parageo import curves
from parageo.algebra import Ad, AlgElem, bracket, exp_nilpotent, group_exp, normal_form_P, truncated_Ad
from parageo.catalog import make_algebra
from parageo.curves import (
    CurveSpec,
    _partitions,
    comparison,
    curve_matrix_from_coeffs,
    curves_equal,
    delta_of_exp,
    delta_series,
    jet_equal,
    normal_coord_jet,
    partition_coefficient,
    verify_delta_leibniz,
    verify_eq_2_4_1,
    verify_lemma_2_3,
    verify_lemma_2_4,
    verify_lemma_3_2,
)
from parageo._fastgrid import IntPolyMat
from parageo.errors import BadReparam, NotInNilpotentPart, NotInParabolic
from parageo.matrices import Mat
from parageo.poly import P_T, Poly
from parageo.suite import lemma_suite
from paper_checks import g0_samples
from poly_reference import ad_matrix, curve_matrix, derivative, frac_matrix, rep_matrix, to_int, to_mat


def proj1_pair():
    alg = make_algebra("proj(1)")
    x = alg.grade_basis(-1)[0]
    z = alg.grade_basis(1)[0]
    return alg, x, z, CurveSpec.base(alg, x), CurveSpec.from_Z(alg, z, x)


def test_curve_spec_validation(proj1):
    x = proj1.grade_basis(-1)[0]
    z = proj1.grade_basis(1)[0]
    with pytest.raises(NotInParabolic):
        CurveSpec(proj1, group_exp(x), x)
    with pytest.raises(NotInNilpotentPart):
        CurveSpec.base(proj1, z)
    spec = CurveSpec.from_Z(proj1, z, x)
    assert curve_matrix(spec).det() == Poly.const(Fraction(1))
    assert truncated_Ad(spec.b, spec.X) == x


def test_curve_data_must_live_in_the_given_algebra(proj1):
    # grass(1,1) has the matrix size of proj(1), but it is another algebra
    other = make_algebra("grass(1,1)")
    x = proj1.grade_basis(-1)[0]
    for b, direction in (
        (other.group_identity(), x),
        (proj1.group_identity(), other.grade_basis(-1)[0]),
    ):
        with pytest.raises(NotInParabolic, match="curve data must live in the given algebra"):
            CurveSpec(proj1, b, direction)


def test_direction_nonzero_iff_x_nonzero(lagr3):
    z = lagr3.grade_basis(1)[0]
    zero = CurveSpec.from_Z(lagr3, z, lagr3.zero_elem())
    assert truncated_Ad(zero.b, zero.X).is_zero()
    spec = CurveSpec.from_Z(lagr3, z, lagr3.grade_basis(-2)[0])
    assert truncated_Ad(spec.b, spec.X)


def test_comparison_basics():
    alg, x, z, c1, c2 = proj1_pair()
    cc = comparison(c1, c2)
    assert cc.u.truncate(0) == IntPolyMat.identity(2)
    # rep_1(t) = rep_2(t) u(t) exactly
    assert rep_matrix(c2) * to_mat(cc.u) == rep_matrix(c1)
    # delta_u(0) = Ad_b1 X1 - Ad_b2 X2
    delta0 = AlgElem(alg, tuple(p[0] for p in cc.delta_coords))
    assert delta0 == x - Ad(group_exp(z), x)
    # the worked value: -[Z,X] - 1/2 [Z,[Z,X]]
    assert delta0 == -(bracket(z, x) + bracket(z, bracket(z, x)) * Fraction(1, 2))


def test_comparison_same_curve():
    alg, x, z, c1, c2 = proj1_pair()
    cc = comparison(c1, c1)
    assert all(p.is_zero() for p in cc.delta_coords)
    assert curves_equal(c1, c1)
    assert not curves_equal(c1, c2)


def test_invariance_of_curves_under_normal_form(any_algebra):
    # c^{b0 exp Z, Y} = c^{exp(Ad_b0 Z), Ad_b0 Y}
    alg = any_algebra
    z = alg.grade_basis(1)[0] * Fraction(2)
    if alg.k >= 2:
        z = z + alg.grade_basis(2)[0]
    y = alg.grade_basis(-1)[0]
    if alg.k >= 2:
        y = y + alg.grade_basis(-2)[0] * Fraction(-1)
    for b0 in g0_samples(alg)[1:]:
        left = CurveSpec(alg, b0 * group_exp(z), y)
        right = CurveSpec.from_Z(alg, Ad(b0, z), Ad(b0, y))
        assert curves_equal(left, right)


def test_base_and_from_Z_specs_invert_nothing(monkeypatch, any_algebra):
    # every group element carries its inverse: the identity's is known,
    # exp(Z)'s is exp(-Z), and a G0 sample's was formed once at the catalog
    # boundary, so no spec takes a Fraction inverse or determinant
    def refuse(self):
        raise AssertionError("Fraction Mat inverse or determinant called")

    alg = any_algebra
    x = alg.grade_basis(-1)[0]
    z = alg.grade_basis(1)[0]
    b0 = g0_samples(alg)[1]
    monkeypatch.setattr(Mat, "inverse", refuse)
    monkeypatch.setattr(Mat, "det", refuse)
    for c in (CurveSpec.base(alg, x), CurveSpec.from_Z(alg, z, x)):
        assert normal_form_P(c.b)[0] is alg.group_identity()
        assert c.ad_polymat == to_int(ad_matrix(c))
    c = CurveSpec(alg, b0 * group_exp(z), x)
    nb0, zs = normal_form_P(c.b)
    assert nb0 == b0 and zs[0] == z
    assert c.ad_polymat == to_int(ad_matrix(c))


def test_jet_equal_examples():
    alg, x, z, c1, c2 = proj1_pair()
    assert jet_equal(c1, c1, 5)
    assert jet_equal(c1, c2, 1)
    assert not jet_equal(c1, c2, 2)
    with pytest.raises(ValueError):
        jet_equal(c1, c2, 0)


def test_jet_equal_higher_grading(lagr3):
    # a nonzero g_1 component breaks the 1-jet for chains
    x = lagr3.grade_basis(-2)[0]
    z1 = lagr3.grade_basis(1)[0]
    c1 = CurveSpec.base(lagr3, x)
    c2 = CurveSpec.from_Z(lagr3, z1, x)
    assert not jet_equal(c1, c2, 1)


def test_equal_curves_have_all_jets_equal(lagr3):
    # stabilizer members of a Lagrange direction give equal curves; their
    # jets must then agree to every order (spot-checked to 8)
    x = lagr3.grade_basis(-1)[0]
    c1 = CurveSpec.base(lagr3, x)
    equal_seen = 0
    for z in (lagr3.grade_basis(1)[1], lagr3.grade_basis(2)[0] * Fraction(2)):
        c2 = CurveSpec.from_Z(lagr3, z, x)
        assert curves_equal(c1, c2)
        assert jet_equal(c1, c2, 8)
        equal_seen += 1
    assert equal_seen == 2


def test_jet_oracle_agreement_across_catalogs(any_algebra):
    # delta-route and normal-coordinate route must agree (jet_equal raises
    # OracleDisagreement otherwise)
    alg = any_algebra
    zs = [alg.grade_basis(1)[0]]
    if alg.k >= 2:
        zs.append(alg.grade_basis(1)[0] + alg.grade_basis(2)[0] * Fraction(2))
    xs = [alg.grade_basis(-1)[0], alg.grade_basis(-alg.k)[0]]
    for z in zs:
        for x in xs:
            c1 = CurveSpec.base(alg, x)
            c2 = CurveSpec.from_Z(alg, z, x)
            for ell in (1, 2, alg.k + 2):
                jet_equal(c1, c2, ell)


def test_normal_coord_jet_examples():
    alg, x, z, c1, c2 = proj1_pair()
    nj = normal_coord_jet(c2, 3)
    assert nj.Y_coeffs[0].is_zero()
    # Y^(i)(0) = i! * Y_coeffs[i]
    assert nj.Y_coeffs[1] * factorial(1) == x
    assert nj.Y_coeffs[2] * factorial(2) == bracket(x, bracket(x, z))
    assert nj.Y_coeffs[2] * factorial(2) == x * Fraction(-2)
    base = normal_coord_jet(c1, 4)
    assert base.Y_coeffs[1] * factorial(1) == x
    assert all(base.Y_coeffs[i].is_zero() for i in (0, 2, 3, 4))


def test_normal_coord_first_coeffs_one_graded():
    # Y'(0) = X and Y''(0) = [X,[X,Z]] for every |1|-graded catalog sample
    for cid in ("proj(2)", "grass(2,2)", "conf(1,2)"):
        alg = make_algebra(cid)
        x = alg.grade_basis(-1)[0] + alg.grade_basis(-1)[-1] * Fraction(2)
        z = alg.grade_basis(1)[0] * Fraction(-1) + alg.grade_basis(1)[-1]
        nj = normal_coord_jet(CurveSpec.from_Z(alg, z, x), 2)
        assert nj.Y_coeffs[1] * factorial(1) == x
        assert nj.Y_coeffs[2] * factorial(2) == bracket(x, bracket(x, z))


def test_normal_coord_reconstruction(xxdot):
    x = xxdot.elem_from_grade_coords({-1: (1, 2, 0), -2: (0, 1)})
    z = xxdot.elem_from_grade_coords({1: (1, 0, 1), 2: (2, 0)})
    nj = normal_coord_jet(CurveSpec.from_Z(xxdot, z, x), 5)
    # factor recombines by construction (the op itself asserts it); spot-check
    # the P part stays in the block pattern
    assert nj.P_part.in_p_pattern(xxdot)


def test_lemma_2_3_series(any_algebra):
    alg = any_algebra
    zero = alg.zero_elem()
    a = alg.grade_basis(-1)[0]
    b = alg.grade_basis(-alg.k)[-1]
    assert verify_lemma_2_3([zero, a, b])
    assert verify_lemma_2_3([zero, a * Fraction(2), zero, b])


def test_lemma_2_3_rejects_non_n(proj1):
    with pytest.raises(NotInNilpotentPart):
        verify_lemma_2_3([proj1.zero_elem(), proj1.grade_basis(1)[0]])


def test_delta_of_line_is_direction(any_algebra):
    # delta(exp(tX)) = X for every basis X of n
    alg = any_algebra
    for g in range(-alg.k, 0):
        for x in alg.grade_basis(g):
            ymat = curve_matrix_from_coeffs([alg.zero_elem(), x])
            expect = frac_matrix(x).map(lambda v: Poly.const(v))
            assert to_mat(delta_of_exp(ymat)) == expect


def test_delta_of_phi_times_direction(lagr3):
    # delta(exp(phi(t) Y)) = phi'(t) Y
    phi = Poly((0, 2, 3, 1))
    y = lagr3.grade_basis(-1)[0] + lagr3.grade_basis(-2)[0]
    coeffs = [y * c for c in phi.coeffs]
    ymat = curve_matrix_from_coeffs(coeffs)
    assert to_mat(delta_of_exp(ymat)) == frac_matrix(y).scale(phi.derivative())


def test_lemma_2_3_truncation_order(lagr3):
    # for a |2|-grading the series is Y' - 1/2 [Y, Y'] on n-valued curves
    x1 = lagr3.grade_basis(-1)[0]
    x2 = lagr3.grade_basis(-2)[0]
    ymat = curve_matrix_from_coeffs([lagr3.zero_elem(), x1, x2])
    y = to_mat(ymat)
    d = derivative(y)
    trunc = d - (y * d - d * y).scale(Fraction(1, 2))
    assert to_mat(delta_of_exp(ymat)) == trunc
    assert to_mat(delta_series(ymat)) == trunc


def test_series_term_count_bound(any_algebra):
    # at most k+1 nonzero terms in the series on n-valued curves
    alg = any_algebra
    a = alg.grade_basis(-1)[0]
    b = alg.grade_basis(-1)[-1]
    ymat = curve_matrix_from_coeffs([alg.zero_elem(), a, b])
    term = ymat.derivative()
    count = 0
    while not term.is_zero():
        count += 1
        term = term * ymat - ymat * term
        if count > alg.k + 1:
            break
    assert count <= alg.k + 1


def test_delta_leibniz(any_algebra):
    alg = any_algebra
    z1 = alg.grade_basis(1)[0]
    z2 = alg.grade_basis(alg.k)[-1]
    f = exp_nilpotent(z1, P_T)
    f_inv = exp_nilpotent(z1, -P_T)
    g = exp_nilpotent(z2, Poly((0, 0, 1)))
    g_inv = exp_nilpotent(z2, Poly((0, 0, -1)))
    assert verify_delta_leibniz(f, f_inv, g, g_inv)


def test_lemma_2_4(any_algebra):
    alg = any_algebra
    x = alg.grade_basis(-1)[0] + alg.grade_basis(-alg.k)[-1]
    y = alg.grade_basis(-1)[-1]
    z = alg.grade_basis(1)[0] * Fraction(2)
    cc = comparison(CurveSpec.base(alg, x), CurveSpec.from_Z(alg, z, y))
    assert verify_lemma_2_4(cc, alg.k + 2)


def test_lemma_2_4_first_order_worked(proj1):
    alg, x, z, c1, c2 = proj1_pair()
    cc = comparison(c1, c2)
    a1 = ad_matrix(cc.c1)
    delta = to_mat(cc.delta_u)
    assert derivative(delta) == delta * a1 - a1 * delta


def test_eq_2_4_1(any_algebra):
    alg = any_algebra
    x = alg.grade_basis(-1)[0]
    z = alg.grade_basis(1)[-1]
    cc = comparison(CurveSpec.base(alg, x), CurveSpec.from_Z(alg, z, x))
    assert verify_eq_2_4_1(cc.u, cc.u_inv, [alg.zero_elem(), alg.grade_basis(-1)[-1]])
    # u = identity reduces to Y' = Y'
    ident = to_int(Mat.identity(alg.matrix_dim))
    assert verify_eq_2_4_1(ident, ident, [alg.zero_elem(), x])
    # u = exp(tZ) with constant Y, and its known inverse exp(-tZ)
    u = exp_nilpotent(z, P_T)
    assert verify_eq_2_4_1(u, exp_nilpotent(z, -P_T), [alg.grade_basis(-1)[0]])
    # a claimed inverse that is not one is rejected
    assert not verify_eq_2_4_1(u, u, [alg.grade_basis(-1)[0]])


def test_lemma_3_2(any_algebra):
    alg = any_algebra
    x = alg.grade_basis(-1)[0]
    y = alg.grade_basis(-1)[-1]
    z = alg.grade_basis(1)[0] + alg.grade_basis(alg.k)[-1]
    cc = comparison(CurveSpec.base(alg, x), CurveSpec.from_Z(alg, z, y))
    # phi = t collapses to the unreparametrized formula
    assert verify_lemma_3_2(cc, Poly((0, 1)), 4)
    assert verify_lemma_3_2(cc, Poly((0, 1, 1)), 4)
    with pytest.raises(BadReparam):
        verify_lemma_3_2(cc, Poly((1, 1)), 2)
    with pytest.raises(BadReparam):
        verify_lemma_3_2(cc, Poly((0, 0, 1)), 2)


def test_partition_coefficients():
    assert sorted(_partitions(3)) == sorted([(3,), (2, 1), (1, 1, 1)])
    assert partition_coefficient(3, (3,)) == 1
    assert partition_coefficient(3, (2, 1)) == 3
    assert partition_coefficient(3, (1, 1, 1)) == 1
    # i=4: splitting four derivative hits over the part profile
    assert partition_coefficient(4, (2, 2)) == 3
    assert partition_coefficient(4, (2, 1, 1)) == 6
    assert partition_coefficient(4, (1, 1, 1, 1)) == 1
    assert partition_coefficient(4, (3, 1)) == 4


def test_flipped_partition_sign_fails_the_suite(monkeypatch):
    # the Lemma 3.2 scalars are built from the live partition_coefficient,
    # so flipping the sign of the partition (1,) shows as reparam-derivative
    # violations, and as no other kind
    alg = make_algebra("proj(2)")
    assert lemma_suite(alg).passed()
    coefficient = curves.partition_coefficient

    def flipped(i, parts):
        c = coefficient(i, parts)
        return -c if parts == (1,) else c

    monkeypatch.setattr(curves, "partition_coefficient", flipped)
    violations = lemma_suite(alg).violations
    assert violations and all(v.startswith("reparam-derivative") for v in violations)


def test_suite_builds_the_lemma_3_2_scalars_once_per_phi(monkeypatch):
    # the suite checks 12 curves against each of its two phi and builds one
    # table per phi per run; a second run builds its tables again
    calls = []

    def counting(phi, i_max):
        calls.append((phi, i_max))
        return curves._lemma_3_2_scalars(phi, i_max)

    monkeypatch.setattr("parageo.suite._lemma_3_2_scalars", counting)
    alg = make_algebra("proj(2)")
    report = lemma_suite(alg)
    assert report.passed() and report.checks_by_family["reparam_derivatives"] == 24
    assert calls == [(Poly((0, 1, 1)), 4), (Poly((0, 2, 0, 1)), 4)]
    lemma_suite(alg)
    assert len(calls) == 4
