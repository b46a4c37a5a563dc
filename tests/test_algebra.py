import itertools
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from parageo.algebra import (
    Ad,
    AlgElem,
    GradedAlgebra,
    GroupElem,
    bracket,
    exp_nilpotent,
    group_exp,
    normal_form_P,
    truncated_Ad,
)
from parageo._fastgrid import IntPolyMat
from parageo.catalog import make_algebra
from parageo.errors import (
    AlgebraMismatch,
    BadParams,
    NotInNilpotentPart,
    NotInParabolic,
    NotNilpotent,
    UnknownCatalogName,
)
from parageo.matrices import Mat, rank
from parageo.poly import P_T, Poly

from conftest import ALL_IDS, block_flag_sl, diag_group_elem, frame_extractor, full_flag_sl4
from fraction_reference import exhaustive_jacobi_violations, reference_build
from paper_checks import SU21_FORM, g0_samples, group_elem, realified, validate_group_matrix
from poly_reference import (
    basis_mats,
    const_mat,
    exp_mat,
    express,
    express_poly,
    frac_matrix,
    log_unipotent,
    position_part,
    to_int,
    to_mat,
    vectorize,
)

EXPECTED_GRADE_DIMS = {
    "proj(1)": {-1: 1, 0: 1, 1: 1},
    "proj(2)": {-1: 2, 0: 4, 1: 2},
    "grass(1,2)": {-1: 2, 0: 4, 1: 2},
    "grass(2,2)": {-1: 4, 0: 7, 1: 4},
    "conf(1,1)": {-1: 2, 0: 2, 1: 2},
    "conf(1,2)": {-1: 3, 0: 4, 1: 3},
    "lagr3": {-2: 1, -1: 2, 0: 2, 1: 2, 2: 1},
    "su21": {-2: 1, -1: 2, 0: 2, 1: 2, 2: 1},
    "xxdot": {-2: 2, -1: 3, 0: 5, 1: 3, 2: 2},
}


def test_catalog_dimensions(any_algebra):
    dims = {g: len(any_algebra.grade_slices[g]) for g in range(-any_algebra.k, any_algebra.k + 1)}
    assert dims == EXPECTED_GRADE_DIMS[any_algebra.name]


def test_grading_jacobi_nilpotency_exhaustive(any_algebra):
    assert any_algebra.structure_violations() == []


def _jacobi_violations(alg):
    return [v for v in alg.structure_violations() if v.startswith("Jacobi")]


@pytest.mark.parametrize("cid", ALL_IDS + ["full_flag_sl4"])
def test_sparse_and_exhaustive_jacobi_pass(cid):
    alg = full_flag_sl4() if cid == "full_flag_sl4" else make_algebra(cid)
    assert _jacobi_violations(alg) == []
    assert exhaustive_jacobi_violations(alg) == []


@pytest.mark.parametrize("cid", ["xxdot", "conf(1,2)", "lagr3"])
@pytest.mark.parametrize("which", [0, -1])
def test_doubled_structure_constant_breaks_both_jacobi_checks(cid, which, monkeypatch):
    # double c_ij^m and its antisymmetric partner c_ji^m, for the first
    # or the last nonzero constant with i < j (on the cached catalog
    # algebra, so monkeypatch puts the table back)
    alg = make_algebra(cid)
    table = [list(row) for row in alg.bracket_table]
    nonzero = [
        (i, j, m)
        for i in range(alg.dim)
        for j in range(i + 1, alg.dim)
        for m, c in enumerate(table[i][j])
        if c
    ]
    i, j, m = nonzero[which]
    doubled = list(table[i][j])
    doubled[m] *= 2
    table[i][j] = tuple(doubled)
    table[j][i] = tuple(-c for c in doubled)
    monkeypatch.setattr(alg, "bracket_table", tuple(tuple(row) for row in table))
    sparse = _jacobi_violations(alg)
    assert sparse and len(set(sparse)) == len(sparse)
    assert exhaustive_jacobi_violations(alg)


def test_catalog_errors():
    with pytest.raises(UnknownCatalogName):
        make_algebra("borel(3)")
    with pytest.raises(BadParams):
        make_algebra("proj(0)")
    with pytest.raises(BadParams):
        make_algebra("conf(1,0)")
    with pytest.raises(BadParams):
        make_algebra("grass(0,2)")
    with pytest.raises(BadParams):
        make_algebra("lagr3(1)")


def test_bracket_examples(proj1):
    x = proj1.grade_basis(-1)[0]
    z = proj1.grade_basis(1)[0]
    assert bracket(x, x).is_zero()
    assert bracket(x, bracket(x, z)) == x * Fraction(-2)


def test_bracket_mismatch(proj1, lagr3):
    with pytest.raises(AlgebraMismatch):
        bracket(proj1.grade_basis(-1)[0], lagr3.grade_basis(-1)[0])


def test_grade_components_recombine(any_algebra):
    alg = any_algebra
    x = alg.elem(tuple(Fraction(i - 2) for i in range(alg.dim)))
    total = alg.zero_elem()
    parts = {g: alg.elem_at(alg.grade_slices[g], x.grade_coords(g)) for g in range(-alg.k, alg.k + 1)}
    for part in parts.values():
        total = total + part
    assert total == x
    assert parts[-1].in_n()


def test_exp_nilpotent_examples(lagr3, proj1):
    assert to_mat(exp_nilpotent(lagr3.zero_elem(), P_T)) == Mat.identity(3)
    e31 = lagr3.grade_basis(-2)[0]
    m = exp_nilpotent(e31, P_T)
    assert to_mat(m).rows[2][0] == P_T
    assert to_mat(m * exp_nilpotent(e31, -P_T)) == Mat.identity(3)
    with pytest.raises(NotNilpotent):
        h = proj1.grade_basis(0)[0]
        exp_nilpotent(h, P_T)


def test_ad_matches_finite_series(any_algebra):
    alg = any_algebra
    for g in range(1, alg.k + 1):
        for z in alg.grade_basis(g)[:2]:
            gexp = group_exp(z * Fraction(2))
            for idx in range(alg.dim):
                x = alg.basis_elem(idx)
                series = alg.zero_elem()
                term = x
                p = 0
                while term:
                    series = series + term * Fraction(1)
                    p += 1
                    term = bracket(z * Fraction(2), term) * Fraction(1, p)
                assert Ad(gexp, x) == series


def test_ad_of_product_of_exponentials(lagr3):
    z1 = lagr3.grade_basis(1)[0] + lagr3.grade_basis(1)[1] * Fraction(2)
    z2 = lagr3.grade_basis(2)[0] * Fraction(-1)
    g = group_exp(z1) * group_exp(z2)
    for idx in range(lagr3.dim):
        x = lagr3.basis_elem(idx)
        assert Ad(g, x) == Ad(group_exp(z1), Ad(group_exp(z2), x))


def test_ad_of_product_depth_3():
    alg = full_flag_sl4()
    z1 = alg.grade_basis(1)[0] + alg.grade_basis(1)[1] * Fraction(2)
    z2 = alg.grade_basis(2)[1] * Fraction(1, 2) + alg.grade_basis(3)[0] * Fraction(-1)
    g0 = diag_group_elem(alg, (2, Fraction(1, 3), -1, Fraction(-3, 2)))
    g = g0 * group_exp(z1) * group_exp(z2)
    for idx in range(alg.dim):
        x = alg.basis_elem(idx)
        assert Ad(g, x) == Ad(g0, Ad(group_exp(z1), Ad(group_exp(z2), x)))


def _in_G0(g):
    """True when the matrix of g is block diagonal."""
    mat = const_mat(g.mat)
    return mat == position_part(g.algebra, mat, lambda grade: grade == 0)


def test_g0_preserves_grading(any_algebra):
    alg = any_algebra
    for g0 in g0_samples(alg):
        assert _in_G0(g0)
        assert validate_group_matrix(alg, const_mat(g0.mat))
        for g in range(-alg.k, alg.k + 1):
            for b in alg.grade_basis(g):
                assert Ad(g0, b).in_grade(g)


def test_truncated_ad_trivial_for_one_graded():
    alg = make_algebra("conf(1,2)")
    z = alg.grade_basis(1)[0] + alg.grade_basis(1)[2]
    g = group_exp(z)
    for y in alg.grade_basis(-1):
        assert truncated_Ad(g, y) == y


def test_truncated_ad_xxdot_formula(xxdot):
    # (x1, X1, X2) -> (x1 + Z1(X2), X1 - z1 X2, X2)
    e = xxdot.elem_from_grade_coords
    y = e({-1: (5, 1, 2), -2: (3, 4)})
    z = e({1: (7, 2, -1), 2: (1, 1)})
    out = truncated_Ad(group_exp(z), y)
    assert out == e({-1: (5 + (2 * 3 - 1 * 4), 1 - 7 * 3, 2 - 7 * 4), -2: (3, 4)})


def test_truncated_ad_is_an_action(lagr3, xxdot):
    for alg in (lagr3, xxdot, full_flag_sl4()):
        z1 = alg.grade_basis(1)[0] + alg.grade_basis(alg.k)[0] * Fraction(2)
        z2 = alg.grade_basis(1)[-1] * Fraction(-1) + alg.grade_basis(alg.k)[-1]
        b1, b2 = group_exp(z1), group_exp(z2)
        for i in range(alg.dim):
            if alg.basis_grades[i] >= 0:
                continue
            y = alg.basis_elem(i)
            assert truncated_Ad(b1 * b2, y) == truncated_Ad(b1, truncated_Ad(b2, y))


def test_truncated_ad_preconditions(lagr3):
    z = lagr3.grade_basis(1)[0]
    x = lagr3.grade_basis(-1)[0]
    with pytest.raises(NotInNilpotentPart):
        truncated_Ad(group_exp(z), z)
    lower = group_exp(x)
    with pytest.raises(NotInParabolic):
        truncated_Ad(lower, x)


def test_normal_form_roundtrip(any_algebra):
    alg = any_algebra
    zs_parts = []
    for g in range(1, alg.k + 1):
        zpart = alg.grade_basis(g)[0] * Fraction(2)
        if len(alg.grade_slices[g]) > 1:
            zpart = zpart + alg.grade_basis(g)[1] * Fraction(-1)
        zs_parts.append(zpart)
    for b0 in g0_samples(alg):
        b = b0
        for z in zs_parts:
            b = b * group_exp(z)
        nb0, zs = normal_form_P(b)
        assert nb0.mat == b0.mat
        assert list(zs) == zs_parts


def test_normal_form_roundtrip_depth_3():
    # Z_1, Z_2, Z_3 in grades 1..3 of the |3|-graded full flag, behind the
    # identity and behind a G0 factor
    alg = full_flag_sl4()
    zs_parts = []
    for g in (1, 2, 3):
        idx = alg.grade_slices[g]
        zs_parts.append(alg.elem_at(idx, [Fraction(g + i, 1 + i) * (-1) ** i for i in range(len(idx))]))
    g0 = diag_group_elem(alg, (2, Fraction(1, 3), -1, Fraction(-3, 2)))
    for b0 in (alg.group_identity(), g0):
        b = b0
        for z in zs_parts:
            b = b * group_exp(z)
        nb0, zs = normal_form_P(b)
        assert nb0 == b0 and list(zs) == zs_parts
        assert _in_G0(b0) and not _in_G0(b) and b.in_P()


def test_group_exp_known_inverse_depth_3():
    alg = full_flag_sl4()
    z = alg.elem_at(alg.pplus_indices, [(-1) ** i * Fraction(i + 1, 2) for i in range(6)])
    g = group_exp(z)
    assert g.inv_mat == group_exp(z * -1).mat
    assert g.inverse() == group_exp(z * -1)
    assert const_mat(g.mat) == exp_mat(frac_matrix(z))
    assert const_mat(g.inv_mat) == exp_mat(frac_matrix(z), -1)
    assert g * g.inverse() == g.inverse() * g == alg.group_identity()


def test_normal_form_identity_and_g0(lagr3):
    ident = lagr3.group_identity()
    b0, zs = normal_form_P(ident)
    assert b0.mat == IntPolyMat.identity(3) and all(z.is_zero() for z in zs)
    blockdiag = g0_samples(lagr3)[1]
    b0, zs = normal_form_P(blockdiag)
    assert b0.mat == blockdiag.mat and all(z.is_zero() for z in zs)


def test_normal_form_rejects_non_parabolic(lagr3):
    x = lagr3.grade_basis(-1)[0]
    with pytest.raises(NotInParabolic):
        normal_form_P(group_exp(x))


def test_log_unipotent_inverts_exp(lagr3):
    z = lagr3.grade_basis(1)[0] + lagr3.grade_basis(2)[0] * Fraction(3)
    m = const_mat(exp_nilpotent(z, Fraction(1)))
    assert express(lagr3, log_unipotent(m)) == z.coords


# -- the worked closed-form bracket identities ---------------------------------


def conf_vec_elem(alg, vec):
    out = alg.zero_elem()
    for v, b in zip(vec, alg.grade_basis(-1)):
        out = out + b * v
    return out


@pytest.mark.parametrize("cid", ["conf(1,1)", "conf(1,2)"])
def test_conf_iterated_bracket_closed_form(cid):
    """[X,[X,Z]] = -2 Z(X) X + |X|^2 J Z^t over all basis pairs and combos."""
    alg = make_algebra(cid)
    signs = alg.meta["signs"]
    nn = len(signs)
    vecs = list(itertools.product((-1, 0, 1, 2), repeat=nn))
    for xv in vecs[:16]:
        for i, zb in enumerate(alg.grade_basis(1)):
            x = conf_vec_elem(alg, [Fraction(v) for v in xv])
            lhs = bracket(x, bracket(x, zb))
            zx = Fraction(xv[i])
            norm = sum(s * Fraction(v) * Fraction(v) for s, v in zip(signs, xv))
            jzt = [Fraction(0)] * nn
            jzt[i] = signs[i]
            rhs = x * (-2 * zx) + conf_vec_elem(alg, jzt) * norm
            assert lhs == rhs


@pytest.mark.xfail(strict=True, reason="the printed closed form carries a sign typo "
                   "in the |X|^2 J Z^t term; the realization forces the opposite sign")
def test_conf_iterated_bracket_printed_sign():
    alg = make_algebra("conf(1,1)")
    signs = alg.meta["signs"]
    x = conf_vec_elem(alg, [Fraction(1), Fraction(0)])
    zb = alg.grade_basis(1)[0]
    lhs = bracket(x, bracket(x, zb))
    jzt = [signs[0], Fraction(0)]
    rhs = x * Fraction(-2) + conf_vec_elem(alg, jzt) * Fraction(-1)
    assert lhs == rhs


def test_conf_null_direction_gives_multiple(any_algebra):
    alg = any_algebra
    if alg.family != "conf":
        return
    signs = alg.meta["signs"]
    if all(s > 0 for s in signs) or all(s < 0 for s in signs):
        return
    # a null vector: one +1 slot and one -1 slot
    i = signs.index(Fraction(1))
    j = signs.index(Fraction(-1))
    vec = [Fraction(0)] * len(signs)
    vec[i] = vec[j] = Fraction(1)
    x = conf_vec_elem(alg, vec)
    for zb in alg.grade_basis(1):
        out = bracket(x, bracket(x, zb))
        assert out.is_zero() or rank([x.coords, out.coords]) == 1


@pytest.mark.parametrize("cid", ["grass(1,2)", "grass(2,2)", "proj(2)"])
def test_grass_iterated_bracket_is_minus_2xzx(cid):
    alg = make_algebra(cid)
    for xb in alg.grade_basis(-1):
        for zb in alg.grade_basis(1):
            x = xb + alg.grade_basis(-1)[0] * Fraction(2)
            lhs = bracket(x, bracket(x, zb))
            rhs = alg.elem_from_matrix((x.matrix * zb.matrix * x.matrix).scale(-2))
            assert lhs == rhs


def test_su21_structure():
    alg = make_algebra("su21")
    u1, u2 = alg.grade_basis(-1)
    v = alg.grade_basis(-2)[0]
    assert bracket(u1, u2) == v * Fraction(-2)
    # contact grading: the g_-1 bracket onto g_-2 is nondegenerate
    assert bracket(u1, u1).is_zero() and bracket(u2, u2).is_zero()


# -- su21 against its complex basis ------------------------------------------

# The su(2,1) basis as complex 3x3 matrices {(row, col): (re, im)}, grades
# ascending as in the catalog: v | u1, u2 | h1, h2 | z1, z2 | w.
_SU21_COMPLEX = [
    {(2, 0): (0, 1)},
    {(1, 0): (1, 0), (2, 1): (-1, 0)},
    {(1, 0): (0, 1), (2, 1): (0, 1)},
    {(0, 0): (1, 0), (2, 2): (-1, 0)},
    {(0, 0): (0, 1), (1, 1): (0, -2), (2, 2): (0, 1)},
    {(0, 1): (1, 0), (1, 2): (-1, 0)},
    {(0, 1): (0, 1), (1, 2): (0, 1)},
    {(0, 2): (0, 1)},
]


def _cmul(a, b):
    """Product of complex 3x3 matrices given as {(row, col): (re, im)}."""
    out = {}
    for (i, m), (ar, ai) in a.items():
        for (m2, j), (br, bi) in b.items():
            if m == m2:
                re, im = out.get((i, j), (0, 0))
                out[i, j] = (re + ar * br - ai * bi, im + ar * bi + ai * br)
    return out


def _ccomb(terms):
    """sum c * m over the (rational c, complex matrix m) pairs, zeros dropped."""
    out = {}
    for c, m in terms:
        for k, (re, im) in m.items():
            ore, oim = out.get(k, (0, 0))
            out[k] = (ore + c * re, oim + c * im)
    return {k: v for k, v in out.items() if any(v)}


def _su21_coords(m):
    """Coordinates of a complex matrix over _SU21_COMPLEX, or None.

    Each basis matrix owns one (position, part) that no other basis matrix
    touches, with value 1 there: v Im(2,0), u1 Re(1,0), u2 Im(1,0),
    h1 Re(0,0), h2 Im(0,0), z1 Re(0,1), z2 Im(0,1), w Im(0,2).
    """
    owned = [
        ((2, 0), 1),
        ((1, 0), 0),
        ((1, 0), 1),
        ((0, 0), 0),
        ((0, 0), 1),
        ((0, 1), 0),
        ((0, 1), 1),
        ((0, 2), 1),
    ]
    coords = tuple(Fraction(m.get(pos, (0, 0))[part]) for pos, part in owned)
    if _ccomb(zip(coords, _SU21_COMPLEX)) != _ccomb([(1, m)]):
        return None
    return coords


def test_su21_bracket_table_matches_complex_basis():
    alg = make_algebra("su21")
    assert alg.block_sizes == (2, 2, 2)
    table = tuple(
        tuple(_su21_coords(_ccomb([(1, _cmul(a, b)), (-1, _cmul(b, a))])) for b in _SU21_COMPLEX)
        for a in _SU21_COMPLEX
    )
    assert alg.bracket_table == table
    # E_10 is not in su(2,1): the span check rejects it
    assert _su21_coords({(1, 0): (1, 0)}) is None


def test_su21_group_membership():
    alg = make_algebra("su21")
    one, i1 = (1, 0), (0, 1)
    # diag(i, -1, i): preserves the form, complex determinant 1
    assert validate_group_matrix(alg, realified({(0, 0): i1, (1, 1): (-1, 0), (2, 2): i1}))
    # diag(1, i, 1): preserves the form, complex determinant i
    assert not validate_group_matrix(alg, realified({(0, 0): one, (1, 1): i1, (2, 2): one}))
    # complex conjugation: preserves the realified form, not complex-linear
    conj = Mat([[Fraction((-1) ** i) if i == j else Fraction(0) for j in range(6)] for i in range(6)])
    assert conj.transpose() * SU21_FORM * conj == SU21_FORM
    assert not validate_group_matrix(alg, conj)
    # diag(2, 1/2, 1): complex-linear, determinant 1, does not preserve the form
    half = (Fraction(1, 2), 0)
    assert not validate_group_matrix(alg, realified({(0, 0): (2, 0), (1, 1): half, (2, 2): one}))


def test_known_inverses_take_no_determinant(monkeypatch, lagr3):
    # every group element past the user-matrix entry carries its inverse:
    # the identity, exp(Z), products, inverses and the normal form's G0 part
    def refuse(self):
        raise AssertionError("Fraction Mat determinant or inverse called")

    z = lagr3.grade_basis(1)[0] + lagr3.grade_basis(2)[0] * Fraction(1, 2)
    g0 = g0_samples(lagr3)[1]
    monkeypatch.setattr(Mat, "det", refuse)
    monkeypatch.setattr(Mat, "inverse", refuse)
    ident = block_flag_sl(1, 2).group_identity()
    assert ident.mat == ident.inv_mat == IntPolyMat.identity(3)
    g = group_exp(z)
    assert g.mat * g.inv_mat == IntPolyMat.identity(3)
    h = g.inverse()
    assert h.mat == g.inv_mat and h.inv_mat == g.mat
    b0, zs = normal_form_P(g0 * g)
    assert b0 == g0 and zs[0] + zs[1] == z
    with pytest.raises(AssertionError, match="Fraction Mat"):
        group_elem(lagr3, const_mat(g0.mat))


def test_group_elem_constructor_rejects_bad_inverses(lagr3):
    g = group_exp(lagr3.grade_basis(1)[0] + lagr3.grade_basis(2)[0] * Fraction(1, 2))
    assert GroupElem(lagr3, g.mat, g.inv_mat) == g
    for mat, inv in (
        (g.mat, g.mat),  # a wrong inverse
        (IntPolyMat(3, []), g.inv_mat),  # singular: the zero matrix
        (g.mat.scale(P_T), g.inv_mat),  # not constant
        (IntPolyMat.identity(4), IntPolyMat.identity(4)),  # wrong size
    ):
        with pytest.raises(ValueError):
            GroupElem(lagr3, mat, inv)
    # group_elem validates and inverts a user matrix once
    with pytest.raises(ValueError, match="not in the group"):
        group_elem(lagr3, [[Fraction(2), 0, 0], [0, Fraction(1), 0], [0, 0, Fraction(1)]])
    diag = group_elem(lagr3, [[Fraction(2), 0, 0], [0, Fraction(1, 2), 0], [0, 0, Fraction(1)]])
    assert const_mat(diag.inv_mat) == const_mat(diag.mat).inverse()


def test_group_elem_hash_agrees_with_eq(lagr3):
    g = group_exp(lagr3.grade_basis(1)[0] * Fraction(1, 3))
    # the same matrices over a non-reduced common denominator
    scaled = GroupElem(
        lagr3,
        IntPolyMat(3, [[[6 * x for x in row] for row in g.mat.coeffs[0]]], 6 * g.mat.den),
        IntPolyMat(3, [[[4 * x for x in row] for row in g.inv_mat.coeffs[0]]], 4 * g.inv_mat.den),
    )
    assert scaled == g and hash(scaled) == hash(g)
    assert len({g, scaled, g.inverse(), g * g.inverse(), lagr3.group_identity()}) == 3


def test_equality_needs_the_same_algebra(proj1):
    # grass(1,1) has the matrix size and coordinates of proj(1)
    grass = make_algebra("grass(1,1)")
    assert proj1.basis_elem(0).coords == grass.basis_elem(0).coords
    assert proj1.basis_elem(0) != grass.basis_elem(0)
    assert proj1.group_identity().mat == grass.group_identity().mat
    assert proj1.group_identity() != grass.group_identity()


def test_values_are_immutable(proj1):
    from parageo.curves import CurveSpec, comparison, normal_coord_jet
    from parageo.lab import type_full
    from parageo.reparam import MobiusMap

    x = proj1.grade_basis(-1)[0]
    spec = CurveSpec.base(proj1, x)
    for obj, attr in (
        (x, "coords"),
        (group_exp(x), "mat"),
        (Poly((1, 2)), "coeffs"),
        (Mat.identity(2), "rows"),
        (type_full(proj1), "label"),
        (spec, "X"),
        (comparison(spec, spec), "u"),
        (normal_coord_jet(spec, 2), "Y_coeffs"),
        (MobiusMap(1, 0, 0, 1), "a"),
    ):
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)
        # no new attribute either; a frozen slots dataclass raises TypeError
        # for a name that is not a field (its __setattr__ calls super() with
        # the class from before the slots were added)
        with pytest.raises((AttributeError, TypeError)):
            obj.extra = None


# -- the sparse build against the dense reference ----------------------------


# block flags outside the catalog, built by the catalog's sl builder
SL_BLOCKS = {"sl(1,1,1,1)": (1, 1, 1, 1), "sl(1,2,1)": (1, 2, 1), "sl(2,1,1)": (2, 1, 1)}


@pytest.mark.parametrize("cid", ALL_IDS + list(SL_BLOCKS))
def test_build_agrees_with_dense_reference(cid):
    alg = block_flag_sl(*SL_BLOCKS[cid]) if cid in SL_BLOCKS else make_algebra(cid)
    pivots, extractor, table = reference_build(alg)
    # the integer frame, read as Fractions, against the cofactor extractor
    assert frame_extractor(alg) == (pivots, extractor)
    # each basis matrix as its nonzero integer entries, positions ascending
    for entries in alg.basis_entries:
        positions = [r for r, _ in entries]
        assert positions == sorted(set(positions))
        assert all(type(v) is int and v for _, v in entries)
    # repr compares the entry types as well as the values
    assert repr(alg.bracket_table) == repr(table)
    grades = alg.basis_grades
    assert (alg.n_indices, alg.pplus_indices) == (
        tuple(i for i, g in enumerate(grades) if g < 0),
        tuple(i for i, g in enumerate(grades) if g > 0),
    )


@pytest.mark.parametrize("cid", ["sl(1,2,1)", "sl(2,1,1)"])
def test_block_flag_sl_structure(cid):
    assert block_flag_sl(*SL_BLOCKS[cid]).structure_violations() == []


def test_non_integral_basis_fails_at_construction():
    # sl(3) with blocks (1, 2); the first g_-1 matrix E_10 carries 1/2
    by_grade = {
        -1: [{(1, 0): Fraction(1, 2)}, {(2, 0): 1}],
        0: [{(0, 0): 1, (1, 1): -1}, {(1, 1): 1, (2, 2): -1}, {(1, 2): 1}, {(2, 1): 1}],
        1: [{(0, 1): 1}, {(0, 2): 1}],
    }
    with pytest.raises(ValueError, match="basis matrix 0 is not integral"):
        GradedAlgebra("half", "sl", {}, 1, (1, 2), by_grade)
    # an entry at a position of grade 1 in a g_-1 matrix
    by_grade[-1][0] = {(1, 0): 1, (0, 1): 1}
    with pytest.raises(ValueError, match="basis matrix 0 leaves grade -1"):
        GradedAlgebra("mixed", "sl", {}, 1, (1, 2), by_grade)
    # with 1 in its place, the same entries build the catalog's sl basis
    by_grade[-1][0] = {(1, 0): 1}
    whole = GradedAlgebra("whole", "sl", {}, 1, (1, 2), by_grade)
    assert whole.basis_entries == block_flag_sl(1, 2).basis_entries


def test_bracket_table_memory_is_one_slot_per_coordinate():
    # the table holds dim^3 coordinates, almost all 0: a shared zero costs
    # a tuple slot (8 bytes), a fresh Fraction per zero about 40 bytes more
    tracemalloc.start()
    try:
        alg = block_flag_sl(1, 5)  # a new build, not the cached catalog one
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert alg.dim == 35 and live < 24 * alg.dim**3


_RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def _off_span_positions(alg):
    """Vectorized positions whose unit vector lies outside the span: those
    no basis matrix reaches, and the diagonal ones (every basis matrix is
    traceless, so a lone diagonal entry is not in g)."""
    assert all(m.trace() == 0 for m in basis_mats(alg))
    vecs = [vectorize(m) for m in basis_mats(alg)]
    d = alg.matrix_dim
    diagonal = {i * d + i for i in range(d)}
    unreached = {r for r in range(len(vecs[0])) if not any(v[r] for v in vecs)}
    return sorted(diagonal | unreached)


def _perturb(alg, mat, r, eps):
    """mat plus eps at vectorized position r."""
    i, j = divmod(r, alg.matrix_dim)
    rows = [list(row) for row in mat.rows]
    rows[i][j] = rows[i][j] + eps
    return Mat(rows)


# the catalog ids and the |3|-graded full flag, built once
_EXPRESS_ALGEBRAS = {cid: make_algebra(cid) for cid in ALL_IDS} | {"full_flag_sl4": full_flag_sl4()}


@settings(max_examples=60, deadline=None)
@given(cid=st.sampled_from(list(_EXPRESS_ALGEBRAS)), data=st.data())
def test_express_round_trip_and_off_span(cid, data):
    alg = _EXPRESS_ALGEBRAS[cid]
    coords = tuple(data.draw(st.lists(_RATIONALS, min_size=alg.dim, max_size=alg.dim)))
    elem = AlgElem(alg, coords)
    mat = frac_matrix(elem)
    assert alg.express(elem.matrix) == coords
    # the integer matrix: the same entries over their least denominator
    assert const_mat(elem.matrix) == mat
    assert elem.matrix.den == lcm(*(e.denominator for row in mat.rows for e in row))
    assert alg.elem_from_matrix(elem.matrix) == elem
    # eps at one off-span position of the integer matrix
    r = data.draw(st.sampled_from(_off_span_positions(alg)))
    eps = data.draw(_RATIONALS.filter(bool))
    d = alg.matrix_dim
    unit = [[0] * d for _ in range(d)]
    unit[r // d][r % d] = eps.numerator
    assert alg.express(elem.matrix + IntPolyMat(d, [unit], eps.denominator)) is None


def test_express_rejects_a_curve(lagr3):
    line = lagr3.grade_basis(-1)[0].matrix.scale(P_T)
    with pytest.raises(ValueError, match="constant matrix"):
        lagr3.express(line)
    assert lagr3.express_poly(line)[lagr3.grade_slices[-1][0]] == P_T
    assert lagr3.express(IntPolyMat(3, [])) == lagr3.zero_elem().coords


@settings(max_examples=40, deadline=None)
@given(cid=st.sampled_from(list(_EXPRESS_ALGEBRAS)), data=st.data())
def test_express_poly_round_trip_and_off_span(cid, data):
    # curves of degree <= 2 in g
    alg = _EXPRESS_ALGEBRAS[cid]
    quadratic = st.lists(_RATIONALS, min_size=3, max_size=3).map(Poly)
    coords = tuple(data.draw(st.lists(quadratic, min_size=alg.dim, max_size=alg.dim)))
    mat = Mat.zero(alg.matrix_dim)
    for c, b in zip(coords, basis_mats(alg)):
        mat = mat + b.scale(c)
    assert alg.express_poly(to_int(mat)) == express_poly(alg, mat) == coords
    r = data.draw(st.sampled_from(_off_span_positions(alg)))
    eps = data.draw(quadratic.filter(bool))
    off = _perturb(alg, mat, r, eps)
    assert alg.express_poly(to_int(off)) is express_poly(alg, off) is None


@settings(max_examples=60, deadline=None)
@given(
    cid=st.sampled_from(ALL_IDS),
    side=st.sampled_from((-1, 1)),
    scale=st.sampled_from((P_T, -P_T, Poly((1, 0, 1)))),
    data=st.data(),
)
def test_exp_mat_scale_is_exp_of_scaled_matrix(cid, side, scale, data):
    # exp_mat(a, s) takes powers of the constant matrix a; exp_mat(a.scale(s))
    # takes powers of a Poly-entry matrix; both are exp(s a), for a in n or
    # p_+, and so is the integer series of exp_nilpotent
    alg = make_algebra(cid)
    idxs = [i for g in range(1, alg.k + 1) for i in alg.grade_slices[side * g]]
    coords = [Fraction(0)] * alg.dim
    vals = data.draw(st.lists(_RATIONALS, min_size=len(idxs), max_size=len(idxs)))
    for i, c in zip(idxs, vals):
        coords[i] = c
    elem = AlgElem(alg, tuple(coords))
    a = frac_matrix(elem)
    assert exp_mat(a, scale) == exp_mat(a.scale(scale)) == to_mat(exp_nilpotent(elem, scale))
