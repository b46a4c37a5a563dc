"""The integer polynomial matrices of the curve calculus against the
Poly-entry references of ``poly_reference``.

The unit tests hold each ``IntPolyMat`` operation to the same operation on
a ``Mat`` with ``Poly`` entries, and the one nilpotent series of
``_fastgrid`` (power list, common-denominator sum, the pattern test of a
product) to ``exp_mat`` and to "full product, then ``in_p_pattern``".  The hypothesis tests draw curve data on
the nine catalog ids and the sl(4) full flag and require both routes to
give the same comparison curve (u, its inverse, delta_u and delta_coords),
the same curve-equality verdict, the same verdict of every identity
checker and of the reparametrization check, the same normal-coordinate jet
and the same orbit-map Jacobian rank; the negative cases perturb one sample
coefficient, or flip the sign of one partition coefficient, and both
routes must return False.  One deterministic sweep also holds the
normal-coordinate jet to the reference on every id, with and without a G0
factor, at every order 1..k+3.  The fused product ``_polymul`` is held to
the sum of ``_imul`` products over every coefficient pair, and ``scale``
to the product with a scalar-identity polynomial matrix.
"""

import operator
from fractions import Fraction
from functools import lru_cache
from math import factorial
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import poly_reference as ref
from conftest import ALL_IDS, full_flag_sl4
from paper_checks import g0_samples
from parageo import curves
from parageo._fastgrid import (
    IntPolyMat,
    _iident,
    _imul,
    _int_coeffs,
    _iunit,
    exp_series,
    grid_kernel,
    nilpotent_powers,
    product_in_p_pattern,
)
from parageo import _fastgrid
from parageo.algebra import bracket, exp_nilpotent, group_exp, truncated_Ad
from parageo.catalog import make_algebra
from parageo.curves import CurveSpec, normal_coord_jet
from parageo.errors import NotNilpotent
from parageo.lab import pplus_elem
from parageo.reparam import MobiusMap, reparam_solve, verify_reparam
from parageo.matrices import Mat, rank
from parageo.poly import P_T, Poly

IDS = ALL_IDS + ["full_flag_sl4"]


@lru_cache(maxsize=None)
def algebra(cid):
    return full_flag_sl4() if cid == "full_flag_sl4" else make_algebra(cid)


def poly_mat(rows):
    return Mat(tuple(tuple(Poly(e) for e in row) for row in rows))


# -- operations ----------------------------------------------------------------

A = poly_mat([[(1, Fraction(1, 2)), (0, 0, 3)], [(Fraction(-2, 3),), ()]])
B = poly_mat([[(), (1,)], [(0, Fraction(1, 5)), (2, -1)]])


def test_round_trip_and_ring_operations():
    a, b = ref.to_int(A), ref.to_int(B)
    assert ref.to_mat(a) == A and ref.to_mat(b) == B
    assert ref.to_mat(a + b) == A + B
    assert ref.to_mat(a - b) == A - B
    assert ref.to_mat(a * b) == A * B
    assert ref.to_mat(a.derivative()) == ref.derivative(A)
    assert ref.to_mat(a.scale(Poly((Fraction(1, 3), 2)))) == A.scale(Poly((Fraction(1, 3), 2)))
    assert ref.to_mat(a.scale(Fraction(-3, 4))) == A.scale(Fraction(-3, 4))
    assert (a - a).is_zero() and (a * (b - b)).is_zero()


def test_equality_cross_multiplies_denominators():
    a = ref.to_int(A)
    doubled = IntPolyMat(a.d, [[[2 * x for x in row] for row in c] for c in a.coeffs], 2 * a.den)
    assert doubled == a and doubled.den != a.den
    assert a != ref.to_int(B)
    assert a != a + ref.to_int(Mat.identity(2)).scale(P_T**3)


def test_mismatched_sizes_raise():
    # zipping to the shorter matrix made identity(3) == identity(4) true
    # and a 2 x 2 times a 3 x 3 a malformed 2 x 3
    i2, i3, i4 = (IntPolyMat.identity(d) for d in (2, 3, 4))
    for op in (operator.eq, operator.add, operator.sub):
        with pytest.raises(ValueError):
            op(i3, i4)
    with pytest.raises(ValueError):
        i2 * i3
    with pytest.raises(ValueError):
        i3 * i2
    assert i3 == IntPolyMat.identity(3) and (i3 * i3) == i3


def test_exp_matches_poly_entry_exp(any_algebra):
    alg = any_algebra
    x = alg.grade_basis(-1)[0] + alg.grade_basis(-alg.k)[-1] * Fraction(1, 3)
    m = ref.from_mats([ref.frac_matrix(x)])
    for scale in (1, P_T, -P_T, Poly((0, 2, Fraction(1, 2)))):
        assert ref.to_mat(m.exp(scale)) == ref.exp_mat(ref.frac_matrix(x), scale)
    # exp of a polynomial curve Y(t) = t X + t^2 X'
    y = ref.from_mats(
        [ref.frac_matrix(e) for e in (alg.zero_elem(), x, alg.grade_basis(-1)[-1])]
    )
    assert ref.to_mat(y.exp()) == ref.exp_mat(ref.to_mat(y))


def test_exp_rejects_non_nilpotent():
    with pytest.raises(NotNilpotent):
        IntPolyMat.identity(3).exp(P_T)


def test_truncate_keeps_low_terms():
    a = ref.to_int(A)  # degree 2, denominator 6
    assert a.truncate(5) == a and a.truncate(2) == a
    assert ref.to_mat(a.truncate(1)) == ref.truncate(A, 1)
    assert ref.to_mat(a.truncate(0)) == ref.truncate(A, 0)
    assert a.truncate(0) == ref.from_mats([A.map(lambda e: e[0])])
    # a dropped top term leaves no trailing zero coefficient behind
    assert len(ref.to_int(B).truncate(1).coeffs) == 2
    assert ref.to_mat(a - a.truncate(1)) == A - ref.truncate(A, 1)
    assert IntPolyMat(2, []).truncate(3).is_zero()


def test_coords_and_span_check(any_algebra):
    alg = any_algebra
    x = alg.grade_basis(-1)[0] * Fraction(2, 3) + alg.grade_basis(alg.k)[-1]
    curve = ref.from_mats([ref.frac_matrix(e) for e in (x, alg.zero_elem(), x)])
    assert alg.express_poly(curve) == ref.express_poly(alg, ref.to_mat(curve))
    # the identity is not traceless, so it leaves every catalog span
    off = curve + IntPolyMat.identity(alg.matrix_dim).scale(P_T)
    assert alg.express_poly(off) is None and ref.express_poly(alg, ref.to_mat(off)) is None


# -- agreement with the Poly-entry references -----------------------------------

_VALS = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_PHI = st.tuples(_VALS.filter(bool), _VALS, _VALS).map(lambda c: Poly((0,) + c))
_PQ = st.sampled_from((Poly((0, 1)), Poly((0, 0, 1)), Poly((0, 2, 1)), Poly((0, 1, 0, 1))))


def _elem(data, alg, indices):
    """A nonzero element supported on ``indices``."""
    vals = data.draw(st.lists(_VALS, min_size=len(indices), max_size=len(indices)).filter(any))
    return alg.elem_at(indices, vals)


def _any_elem(data, alg, indices):
    """An element supported on ``indices``, possibly zero."""
    return alg.elem_at(indices, data.draw(st.lists(_VALS, min_size=len(indices), max_size=len(indices))))


def _curve_data(data):
    alg = algebra(data.draw(st.sampled_from(IDS)))
    x = _elem(data, alg, alg.n_indices)
    y = _elem(data, alg, alg.n_indices)
    z = _elem(data, alg, alg.pplus_indices)
    return alg, CurveSpec.base(alg, x), CurveSpec.from_Z(alg, z, y)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_checkers_agree_with_poly_reference(data):
    alg, c1, c2 = _curve_data(data)
    cc, rc = curves.comparison(c1, c2), ref.comparison(c1, c2)
    assert cc.delta_coords == rc.delta_coords
    assert ref.to_mat(cc.u) == rc.u and ref.to_mat(cc.u_inv) == rc.u_inv
    assert ref.to_mat(cc.delta_u) == rc.delta_u
    for a, b in ((c1, c2), (c2, c2)):
        assert curves.curves_equal(a, b) == ref.curves_equal(a, b)
    assert curves.verify_lemma_2_4(cc, alg.k + 2) is ref.verify_lemma_2_4(rc, alg.k + 2) is True
    path = [alg.zero_elem(), _elem(data, alg, alg.n_indices)]
    assert curves.verify_eq_2_4_1(cc.u, cc.u_inv, path) is True
    assert ref.verify_eq_2_4_1(rc.u, rc.u_inv, path) is True
    phi = data.draw(_PHI)
    assert curves.verify_lemma_3_2(cc, phi, 3) is ref.verify_lemma_3_2(rc, phi, 3) is True
    coeffs = [alg.zero_elem(), path[1], c1.X]
    assert curves.verify_lemma_2_3(coeffs) is ref.verify_lemma_2_3(coeffs) is True
    z1 = _elem(data, alg, alg.pplus_indices)
    z2 = _elem(data, alg, alg.pplus_indices)
    p, q = data.draw(_PQ), data.draw(_PQ)
    pairs = ((z1, p), (z1, -p), (z2, q), (z2, -q))
    polys = tuple(ref.exp_mat(ref.frac_matrix(z), s) for z, s in pairs)
    ints = tuple(exp_nilpotent(z, s) for z, s in pairs)
    assert curves.verify_delta_leibniz(*ints) is ref.verify_delta_leibniz(*polys) is True


def _perturbed(mat, i, j, eps, power):
    """``mat`` plus eps * t^power at entry (i, j)."""
    rows = [list(row) for row in mat.rows]
    rows[i][j] = rows[i][j] + Poly((0,) * power + (eps,))
    return Mat(rows)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_perturbed_inputs_fail_on_both_routes(data):
    alg, c1, c2 = _curve_data(data)
    rc = ref.comparison(c1, c2)
    d = alg.matrix_dim
    i, j = data.draw(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)))
    eps = data.draw(_VALS.filter(bool))
    power = data.draw(st.integers(0, 3))
    path = [alg.zero_elem(), c2.X]

    # a claimed inverse of u that is off by one coefficient
    bad_inv = _perturbed(rc.u_inv, i, j, eps, power)
    assert ref.verify_eq_2_4_1(rc.u, bad_inv, path) is False
    assert curves.verify_eq_2_4_1(ref.to_int(rc.u), ref.to_int(bad_inv), path) is False

    # delta_u off by eps * t^D E_ij, D two past its degree: the t^(D-1)
    # coefficient of delta_u' is then nonzero, and that of ad(-a1) delta_u is 0
    top = len(ref.to_int(rc.delta_u).coeffs)
    bad_delta = _perturbed(rc.delta_u, i, j, eps, top + 1)
    bad_rc = curves.ComparisonCurve(c1, c2, rc.u, rc.u_inv, bad_delta, rc.delta_coords)
    bad_cc = curves.ComparisonCurve(c1, c2, None, None, ref.to_int(bad_delta), None)
    assert ref.verify_lemma_2_4(bad_rc, 1) is False
    assert curves.verify_lemma_2_4(bad_cc, 1) is False

    # f^{-1} off by E = eps * t^power E_ib, with row b of Z2 nonzero: the
    # two sides then differ by g^{-1} E f g', and the lowest coefficient of
    # f g' is a nonzero multiple of Z2 (f(0) = I), so row b of f g' != 0
    z1 = _elem(data, alg, alg.pplus_indices)
    z2 = _elem(data, alg, alg.pplus_indices)
    rows = [b for b, row in enumerate(ref.frac_matrix(z2).rows) if any(row)]
    b = data.draw(st.sampled_from(rows))
    p, q = data.draw(_PQ), data.draw(_PQ)
    f, g, g_inv = (ref.exp_mat(ref.frac_matrix(z), s) for z, s in ((z1, p), (z2, q), (z2, -q)))
    bad_f_inv = _perturbed(ref.exp_mat(ref.frac_matrix(z1), -p), i, b, eps, power)
    assert ref.verify_delta_leibniz(f, bad_f_inv, g, g_inv) is False
    ints = [ref.to_int(m) for m in (f, bad_f_inv, g, g_inv)]
    assert curves.verify_delta_leibniz(*ints) is False


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_flipped_partition_sign_fails_on_both_routes(data):
    # flipping the sign of the partition (1,) changes the order-1 right-hand
    # side by 2 phi' ad(a1) delta_u, which is nonzero unless a1 and
    # delta_u commute
    alg, c1, c2 = _curve_data(data)
    rc = ref.comparison(c1, c2)
    phi = data.draw(_PHI)
    u, u_inv, a1 = ref.reparam_comparison(rc, phi)
    delta = u_inv * ref.derivative(u)
    assume(not (a1 * delta - delta * a1).is_zero())
    coefficient = curves.partition_coefficient

    def flipped(i, parts):
        c = coefficient(i, parts)
        return -c if parts == (1,) else c

    cc = curves.comparison(c1, c2)
    with mock.patch.object(curves, "partition_coefficient", flipped), mock.patch.object(
        ref, "partition_coefficient", flipped
    ):
        assert ref.verify_lemma_3_2(rc, phi, 2) is False
        assert curves.verify_lemma_3_2(cc, phi, 2) is False
    assert ref.verify_lemma_3_2(rc, phi, 2) is curves.verify_lemma_3_2(cc, phi, 2) is True


# -- the normal-coordinate jet, the reparametrization check, orbit tangents -----


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_normal_coord_jet_agrees_with_poly_reference(data):
    alg = algebra(data.draw(st.sampled_from(IDS)))
    x = _elem(data, alg, alg.n_indices)
    b = group_exp(_any_elem(data, alg, alg.pplus_indices))
    if data.draw(st.booleans()):
        b = g0_samples(alg)[-1] * b  # a G0 factor, where the catalog has one
    c = CurveSpec(alg, b, x)
    order = data.draw(st.integers(1, alg.k + 3))
    jet, rj = normal_coord_jet(c, order), ref.normal_coord_jet(c, order)
    assert jet.Y_coeffs == rj.Y_coeffs
    assert jet.coeffs_prefix(order) == rj.coeffs_prefix(order)
    assert jet.P_part == ref.to_int(rj.P_part)
    assert jet.Y_coeffs[1] == truncated_Ad(b, x)  # Y'(0) = 1! * Y_coeffs[1]


@pytest.mark.parametrize("with_g0", [False, True], ids=["pplus", "g0"])
@pytest.mark.parametrize("cid", IDS)
def test_normal_coord_jet_sweep_agrees_with_poly_reference(cid, with_g0):
    # every order 1..k+3 on X = sum (i+1) n_i and Z = sum (-1)^i/(i+1) p_i,
    # so no id and no G0 factor is left to the draws above
    alg = algebra(cid)
    x = alg.elem_at(alg.n_indices, range(1, len(alg.n_indices) + 1))
    z = alg.elem_at(alg.pplus_indices, [Fraction((-1) ** i, i + 1) for i in range(len(alg.pplus_indices))])
    b = group_exp(z)
    if with_g0:
        b = g0_samples(alg)[-1] * b
    c = CurveSpec(alg, b, x)
    for order in range(1, alg.k + 4):
        jet, rj = normal_coord_jet(c, order), ref.normal_coord_jet(c, order)
        assert jet.Y_coeffs == rj.Y_coeffs, order
        assert jet.P_part == ref.to_int(rj.P_part), order


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_verify_reparam_agrees_with_poly_reference(data):
    alg = algebra(data.draw(st.sampled_from(IDS)))
    x = _elem(data, alg, alg.grade_slices[-alg.k])
    z = _elem(data, alg, alg.pplus_indices)
    a = data.draw(_VALS.filter(bool))
    c1, c2 = CurveSpec.base(alg, x), CurveSpec.from_Z(alg, z, x * a)
    maps = [MobiusMap.from_seeds(data.draw(_VALS), a, data.draw(_VALS))]
    verdict = reparam_solve(alg, x, z, x * a)
    if verdict.exists:
        maps.append(verdict.map)
        assert verify_reparam(c1, c2, verdict.map) is True
    for m in maps:
        assert verify_reparam(c1, c2, m) == ref.verify_reparam(c1, c2, m)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_orbit_tangent_at_zero_has_the_reference_jacobian_rank(data):
    # P_+ acts linearly and invertibly on n, so the orbit map's Jacobian at
    # (Z0, X) has the rank of its tangent at (0, X): [e, X] along each p_+
    # basis element e, and the unit directions of the parameters
    alg = algebra(data.draw(st.sampled_from(IDS)))
    z0 = _any_elem(data, alg, alg.pplus_indices)
    x = _any_elem(data, alg, alg.n_indices)
    params = data.draw(st.lists(st.sampled_from(alg.n_indices), unique=True))
    vecs = [bracket(alg.basis_elem(i), x) for i in alg.pplus_indices]
    vecs += [alg.basis_elem(i) for i in params]
    tangent = [[v.coords[i] for i in alg.n_indices] for v in vecs]
    assert ref.orbit_jacobian(alg, alg.elem_at((), ()), x, params) == tangent
    assert rank(ref.orbit_jacobian(alg, z0, x, params)) == rank(tangent)


# -- the one nilpotent series and the pattern test of a product --------------

_SCALES = st.one_of(st.sampled_from((1, -1, P_T, -P_T)), _VALS, _PHI)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_series_matches_exp_mat(data):
    # a0 + t a1 + t^2 a2 with every coefficient in n, or every one in p_+,
    # is strictly block triangular, so nilpotent
    alg = algebra(data.draw(st.sampled_from(IDS)))
    part = data.draw(st.sampled_from((alg.n_indices, alg.pplus_indices)))
    coeffs = [_any_elem(data, alg, part) for _ in range(data.draw(st.integers(1, 3)))]
    scale = data.draw(_SCALES)
    a = ref.from_mats([ref.frac_matrix(e) for e in coeffs])
    expected = ref.exp_mat(ref.to_mat(a), scale)
    assert ref.to_mat(a.exp(scale)) == expected
    if len(coeffs) == 1:
        assert ref.to_mat(exp_nilpotent(coeffs[0], scale)) == expected
    # the raw routines: the power list is the reference's, and the series
    # is q! D^q exp(scale a) for D = den(scale) * den(a)
    powers = nilpotent_powers(a.coeffs)
    ref_powers = list(ref.nilpotent_powers(ref.to_mat(a)))
    assert [IntPolyMat(a.d, p, a.den**i) for i, p in enumerate(powers, 1)] == [
        ref.to_int(m) for m in ref_powers
    ]
    nums, cden = _int_coeffs(scale)
    den = cden * a.den
    raw = exp_series(a.d, powers, nums, (den,))
    assert ref.to_mat(IntPolyMat(a.d, raw, factorial(len(powers)) * den ** len(powers))) == expected


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kernel_exponentials_match_exp_mat(data):
    alg = algebra(data.draw(st.sampled_from(IDS)))
    x = _elem(data, alg, alg.n_indices)
    kern = grid_kernel(alg, x)
    vals = data.draw(st.tuples(*[st.integers(-2, 2)] * len(alg.pplus_indices)))
    z = pplus_elem(alg, vals)
    e, einv = kern.exp_pair(kern.combo_rows(vals))
    assert ref.to_mat(e) == ref.exp_mat(ref.frac_matrix(z))
    assert ref.to_mat(einv) == ref.exp_mat(ref.frac_matrix(z), -1)
    assert ref.to_mat(kern.exp_tx) == ref.exp_mat(ref.frac_matrix(x), P_T)


def test_nilpotent_powers_stop_at_the_first_zero_power(monkeypatch):
    jordan = [[int(j == i + 1) for j in range(4)] for i in range(4)]
    powers = nilpotent_powers([jordan])
    assert len(powers) == 3 and powers[-1] == [[[0, 0, 0, 1], [0] * 4, [0] * 4, [0] * 4]]
    assert nilpotent_powers([]) == [] and exp_series(2, [], (0, 1), (1,)) == [_iident(2)]
    # a^2, a^3 and the zero a^4 are formed, and no power after it
    calls = []
    polymul = _fastgrid._polymul
    monkeypatch.setattr(_fastgrid, "_polymul", lambda a, b: calls.append(1) or polymul(a, b))
    assert nilpotent_powers([jordan]) == powers and len(calls) == 3


def test_nilpotent_powers_reject_non_nilpotent(any_algebra):
    with pytest.raises(NotNilpotent):
        nilpotent_powers([_iident(3)])
    # the polynomial argument [[0, t], [t, 0]] squares to t^2 I
    with pytest.raises(NotNilpotent):
        nilpotent_powers([[[0, 0], [0, 0]], [[0, 1], [1, 0]]])
    h = any_algebra.grade_basis(0)[0]
    with pytest.raises(NotNilpotent):
        exp_nilpotent(h, P_T)
    with pytest.raises(NotNilpotent):
        list(ref.nilpotent_powers(ref.frac_matrix(h)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pattern_product_is_full_product_then_pattern(data):
    alg, c1, c2 = _curve_data(data)
    forbidden = alg.forbidden_positions
    for a, b in ((c1, c2), (c2, c1), (c2, c2)):
        left, right = b.ad_polymat.exp(-P_T), a.ad_polymat.exp(P_T)
        product = left * right
        assert product_in_p_pattern(left.coeffs, right.coeffs, forbidden) == product.in_p_pattern(alg)
        assert curves.curves_equal(a, b) == product.in_p_pattern(alg)
    # exp(-tA) exp(tA) = I; bump the right factor by eps t^p E_ij at one
    # forbidden (i, j): as the left factor is I at t = 0, the t^p
    # coefficient of the product is then eps at (i, j)
    left, right = c2.ad_polymat.exp(-P_T), c2.ad_polymat.exp(P_T)
    assert product_in_p_pattern(left.coeffs, right.coeffs, forbidden)
    i, j = data.draw(st.sampled_from(forbidden))
    power = data.draw(st.integers(0, 3))
    eps = data.draw(_VALS.filter(bool))
    bumped = ref.to_int(_perturbed(ref.to_mat(right), i, j, eps, power))
    assert not product_in_p_pattern(left.coeffs, bumped.coeffs, forbidden)
    assert not (left * bumped).in_p_pattern(alg)


# -- the fused product and scale ----------------------------------------------


def reference_polymul(a, b):
    """The product of two integer matrix polynomials as the sum over every
    coefficient pair (p, q) of _imul(a_p, b_q) into the t^(p+q) coefficient,
    trailing zero coefficients dropped."""
    if not (a and b):
        return []
    d = len(a[0])
    out = [[[0] * d for _ in range(d)] for _ in range(len(a) + len(b) - 1)]
    for p, ap in enumerate(a):
        for q, bq in enumerate(b):
            out[p + q] = [[x + y for x, y in zip(r, s)] for r, s in zip(out[p + q], _imul(ap, bq))]
    while out and not any(map(any, out[-1])):
        out.pop()
    return out


# mostly zero entries, so zero rows and zero coefficients occur
_ENTRY = st.sampled_from((0, 0, 0, 1, -1, 2, -3))


def _int_poly(data, d):
    """An integer d x d matrix polynomial of 0..3 coefficients (none is the
    zero factor), any of them zero, the last one too."""
    n = data.draw(st.integers(0, 3))
    return [[[data.draw(_ENTRY) for _ in range(d)] for _ in range(d)] for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_polymul_matches_the_pairwise_sum(data):
    d = data.draw(st.integers(1, 4))
    a, b = _int_poly(data, d), _int_poly(data, d)
    assert _fastgrid._polymul(a, b) == reference_polymul(a, b)


def test_polymul_cases():
    e12, e21 = _iunit(2, 0, 1), _iunit(2, 1, 0)
    zero = [[0, 0], [0, 0]]
    # constant x constant
    assert _fastgrid._polymul([e12], [e21]) == [[[1, 0], [0, 0]]]
    assert _fastgrid._polymul([e12], [e12]) == []
    # the top coefficient e12 * e12 = 0 cancels
    a, b = [_iident(2), e12], [e21, e12]
    assert _fastgrid._polymul(a, b) == reference_polymul(a, b) == [e21, [[1, 1], [0, 0]]]
    # unequal lengths, an inner zero coefficient, zero factors
    a, b = [e12, zero, e21], [_iident(2, 2)]
    assert _fastgrid._polymul(a, b) == reference_polymul(a, b) == [[[0, 2], [0, 0]], zero, [[0, 0], [2, 0]]]
    assert _fastgrid._polymul(b, a) == reference_polymul(b, a)
    assert _fastgrid._polymul(a, []) == _fastgrid._polymul([], a) == _fastgrid._polymul(a, [zero]) == []


_SCALARS = st.one_of(st.just(0), _VALS, st.tuples(_VALS, _VALS, _VALS).map(Poly))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_scale_is_the_product_with_a_scalar_identity(data):
    d = data.draw(st.integers(1, 4))
    m = IntPolyMat(d, _int_poly(data, d), data.draw(st.integers(1, 6)))
    c = data.draw(_SCALARS)
    nums, cden = _int_coeffs(c)
    scalar = IntPolyMat(d, [_iident(d, n) for n in nums], cden)
    # both reduce the same integers by the same gcd, so even the
    # representations agree
    assert repr(m.scale(c)) == repr(m * scalar)
    assert m.scale(c) == scalar * m
