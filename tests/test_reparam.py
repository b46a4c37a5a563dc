import itertools
import random
from fractions import Fraction

import pytest

from parageo.algebra import bracket
from parageo.catalog import make_algebra
from parageo.curves import CurveSpec, curves_equal
from parageo.errors import NotApplicableGrading, PoleAtOrigin, ZeroVelocity
from parageo.poly import Poly
from parageo.reparam import (
    MobiusMap,
    reparam_solve,
    schwarzian_check,
    verify_reparam,
)
from paper_checks import projective_structure_exists, taylor_seed_expand
from poly_reference import frac_matrix


def test_mobius_basics():
    m = MobiusMap.from_seeds(0, 1, -2)
    assert m == MobiusMap(1, 0, 1, 1)
    assert m.seeds() == (Fraction(0), Fraction(1), Fraction(-2))
    # canonical projective scaling: D becomes 1
    aff = MobiusMap(6, 4, 0, 2)
    assert (aff.a, aff.b, aff.c, aff.d) == (3, 2, 0, 1)
    with pytest.raises(ZeroVelocity):
        MobiusMap.from_seeds(0, 0, 1)
    with pytest.raises(ValueError):
        MobiusMap(1, 2, 1, 2)  # AD - BC = 0


def test_mobius_seed_roundtrip():
    random.seed(7)
    for _ in range(20):
        v0 = Fraction(random.randint(-3, 3), random.randint(1, 4))
        a = Fraction(random.choice([1, 2, -1, 3, -2]), random.randint(1, 3))
        b = Fraction(random.randint(-4, 4), random.randint(1, 3))
        m = MobiusMap.from_seeds(v0, a, b)
        assert m.seeds() == (v0, a, b)


def test_closed_form_matches_seeds():
    # with phi(0)=0: phi(t) = a t (1 - (b/2a) t)^{-1} as identical maps
    for a, b in ((Fraction(1), Fraction(-2)), (Fraction(2), Fraction(3)), (Fraction(-1), Fraction(1))):
        m = MobiusMap.from_seeds(0, a, b)
        assert m == MobiusMap(a, 0, -b / (2 * a), 1)


def test_reparam_solve_proj1_worked_example():
    alg = make_algebra("proj(1)")
    x = alg.grade_basis(-1)[0]
    z = alg.grade_basis(1)[0]
    verdict = reparam_solve(alg, x, z, x)
    assert verdict.exists
    assert verdict.map == MobiusMap(1, 0, 1, 1)
    c1 = CurveSpec.base(alg, x)
    c2 = CurveSpec.from_Z(alg, z, x)
    assert verify_reparam(c1, c2, verdict.map)
    # wrong acceleration seed must fail the exact identity
    assert not verify_reparam(c1, c2, MobiusMap.from_seeds(0, 1, -1))


def test_reparam_affine_case():
    alg = make_algebra("proj(1)")
    x = alg.grade_basis(-1)[0]
    verdict = reparam_solve(alg, x, alg.zero_elem(), x * Fraction(3))
    assert verdict.exists and verdict.map.c == 0
    assert verdict.map.seeds() == (Fraction(0), Fraction(3), Fraction(0))


def test_reparam_failure_reasons():
    alg = make_algebra("grass(2,2)")
    e = alg.grade_basis(-1)
    x1 = e[0]
    x_other = e[1]
    z = alg.grade_basis(1)[0]
    v = reparam_solve(alg, x1, z, x_other)
    assert not v.exists and "multiple" in v.failure_reason
    v0 = reparam_solve(alg, alg.zero_elem(), z, alg.zero_elem())
    assert not v0.exists and v0.failure_reason == "zero direction"
    # rank-2 direction with a Z whose bracket is not proportional
    x2 = e[0] + e[3]
    v2 = reparam_solve(alg, x2, z, x2)
    assert not v2.exists and "not a multiple" in v2.failure_reason


def test_reparam_identity_map_reduces_to_curve_equality():
    alg = make_algebra("proj(1)")
    x = alg.grade_basis(-1)[0]
    z = alg.grade_basis(1)[0]
    c1 = CurveSpec.base(alg, x)
    c2 = CurveSpec.from_Z(alg, z, x)
    ident = MobiusMap(1, 0, 0, 1)
    assert verify_reparam(c1, c1, ident)
    assert verify_reparam(c1, c2, ident) == curves_equal(c1, c2)


def test_reparam_pole_at_origin():
    alg = make_algebra("proj(1)")
    x = alg.grade_basis(-1)[0]
    c1 = CurveSpec.base(alg, x)
    bad = MobiusMap(1, 1, 1, 0)  # pole at t=0
    with pytest.raises(PoleAtOrigin):
        verify_reparam(c1, c1, bad)


def test_reparam_grade_k_cascade(lagr3):
    x = lagr3.grade_basis(-2)[0] * Fraction(2)
    zk = lagr3.grade_basis(2)[0] * Fraction(3)
    verdict = reparam_solve(lagr3, x, zk, x)
    assert verdict.exists
    assert verdict.map.seeds() == (Fraction(0), Fraction(1), Fraction(-12))
    assert verify_reparam(CurveSpec.base(lagr3, x), CurveSpec.from_Z(lagr3, zk, x), verdict.map)
    bad = reparam_solve(lagr3, x, lagr3.grade_basis(1)[0] + zk, x)
    assert not bad.exists and "cascade" in bad.failure_reason
    with pytest.raises(NotApplicableGrading):
        reparam_solve(lagr3, lagr3.grade_basis(-1)[0], zk, lagr3.grade_basis(-1)[0])


def test_schwarzian():
    assert schwarzian_check(MobiusMap(5, 0, 0, 1))
    assert schwarzian_check(MobiusMap.from_seeds(0, 1, -2))
    assert not schwarzian_check(Poly((0, 1, 0, 1)))  # t + t^3
    random.seed(11)
    for _ in range(20):
        a = Fraction(random.choice([1, -1, 2, 3]), random.randint(1, 3))
        b = Fraction(random.randint(-5, 5), random.randint(1, 3))
        v0 = Fraction(random.randint(-2, 2))
        assert schwarzian_check(MobiusMap.from_seeds(v0, a, b))


def test_projective_structure_witness():
    conf = make_algebra("conf(1,1)")
    for vec in itertools.product(range(-2, 3), repeat=2):
        if vec == (0, 0):
            continue
        x = conf.elem_from_grade_coords({-1: vec})
        z = projective_structure_exists(conf, x, 1)
        assert z is not None and z.in_grade(1)
        assert bracket(x, bracket(x, z)) == x
    assert projective_structure_exists(conf, conf.zero_elem(), 1) is None


def test_projective_structure_grade_k(lagr3):
    x = lagr3.grade_basis(-2)[0] * Fraction(2)
    z = projective_structure_exists(lagr3, x, 2)
    assert z is not None and bracket(x, bracket(x, z)) == x


def test_projective_structure_pseudoinverse_pattern():
    # invertible X in grass(2,2): Z = -1/2 X^{-1} works
    alg = make_algebra("grass(2,2)")
    e = alg.grade_basis(-1)
    x = e[0] + e[3]  # identity block
    z = projective_structure_exists(alg, x, 1)
    assert z is not None
    assert bracket(x, bracket(x, z)) == x
    zc = z.grade_coords(1)
    assert zc == (Fraction(-1, 2), Fraction(0), Fraction(0), Fraction(-1, 2))


def test_taylor_seed_expand():
    assert taylor_seed_expand(1, -2, 5) == [Fraction(v) for v in (1, -1, 1, -1, 1)]
    assert taylor_seed_expand(2, 0, 3) == [Fraction(2), Fraction(0), Fraction(0)]
    # generic seeds match the derivative recursion values / (i+1)!
    a, b = Fraction(2), Fraction(3)
    coeffs = taylor_seed_expand(a, b, 6)
    from math import factorial

    for i in range(2, 6):
        derivative = Fraction(factorial(i + 1), 2**i) * b**i / a ** (i - 1)
        assert coeffs[i] == derivative / factorial(i + 1)
    with pytest.raises(ZeroVelocity):
        taylor_seed_expand(0, 1, 3)


def test_solve_then_verify_battery():
    # every positive verdict verifies exactly and satisfies the Schwarzian
    conf = make_algebra("conf(1,1)")
    import itertools

    count = 0
    for vec in itertools.product(range(-1, 2), repeat=2):
        if vec == (0, 0):
            continue
        x = conf.zero_elem()
        for v, bb in zip(vec, conf.grade_basis(-1)):
            x = x + bb * Fraction(v)
        for zvec in itertools.product(range(-1, 2), repeat=2):
            z = conf.zero_elem()
            for v, bb in zip(zvec, conf.grade_basis(1)):
                z = z + bb * Fraction(v)
            for a in (Fraction(1), Fraction(2)):
                verdict = reparam_solve(conf, x, z, x * a)
                if not verdict.exists:
                    continue
                count += 1
                assert schwarzian_check(verdict.map)
                c1 = CurveSpec.base(conf, x)
                c2 = CurveSpec.from_Z(conf, z, x * a)
                assert verify_reparam(c1, c2, verdict.map)
    assert count >= 25


# -- an oracle for verify_reparam by evaluation at sample points -------------
#
# u(t) = exp(-t X2) exp(-Z) exp(phi(t) X1) is evaluated at rational points
# with plain Fraction matrices, sharing no code with the polynomial route.
# D^q u is a polynomial matrix of degree at most 2(d-1), d the matrix size,
# and u(t0) = D(t0)^-q (D^q u)(t0) away from the pole, so the forbidden
# entries of D^q u vanish identically iff they vanish at 2d-1 sample points.


def _fmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _fexp(m, s):
    """exp(s m) for a nilpotent Fraction matrix m: the series up to m^(d-1)."""
    d = len(m)
    acc = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    term = acc
    for p in range(1, d):
        term = [[s * e / p for e in row] for row in _fmul(term, m)]
        acc = [[x + y for x, y in zip(ra, rt)] for ra, rt in zip(acc, term)]
    return acc


def _oracle_in_p(alg, x1, z, x2, m):
    d = alg.matrix_dim
    block = [b for b, size in enumerate(alg.block_sizes) for _ in range(size)]
    forbidden = [(i, j) for i in range(d) for j in range(d) if block[i] > block[j]]
    mx1, mx2, mz = ([list(row) for row in frac_matrix(v).rows] for v in (x1, x2, z))
    exp_neg_z = _fexp(mz, Fraction(-1))
    points = (Fraction(v, 2) for v in range(-4 * d, 4 * d))
    samples = [t0 for t0 in points if m.c * t0 + m.d][: 2 * d - 1]
    assert len(samples) == 2 * d - 1
    for t0 in samples:
        phi_t0 = (m.a * t0 + m.b) / (m.c * t0 + m.d)
        u = _fmul(_fmul(_fexp(mx2, -t0), exp_neg_z), _fexp(mx1, phi_t0))
        if any(u[i][j] for i, j in forbidden):
            return False
    return True


def _combos(basis, vectors):
    out = []
    for vec in vectors:
        elem = basis[0] * Fraction(0)
        for v, bj in zip(vec, basis):
            elem = elem + bj * Fraction(v)
        out.append(elem)
    return out


@pytest.mark.parametrize("name", ["proj(1)", "conf(1,1)", "conf(1,2)", "lagr3", "su21"])
def test_verify_reparam_matches_sampling_oracle(name):
    alg = make_algebra(name)
    k = alg.k
    low = alg.grade_basis(-k)
    top = alg.grade_basis(k)
    pplus = [b for g in range(1, k + 1) for b in alg.grade_basis(g)]
    xs = [low[0]] + ([low[0] - low[-1]] if len(low) > 1 else [])
    zs = [alg.zero_elem(), top[0], top[-1] * Fraction(-3, 2), top[0] + top[-1]]
    zs += _combos(pplus, [[1] * len(pplus), [(-1) ** i * (i + 1) for i in range(len(pplus))]])
    solved = agreed_true = agreed_false = 0
    for x in xs:
        for z in zs:
            for a in (Fraction(1), Fraction(-2)):
                c1 = CurveSpec.base(alg, x)
                c2 = CurveSpec.from_Z(alg, z, x * a)
                verdict = reparam_solve(alg, x, z, x * a)
                b = verdict.map.seeds()[2] if verdict.exists else Fraction(1)
                maps = [
                    MobiusMap.from_seeds(0, a, b + 1),
                    MobiusMap.from_seeds(0, a, b / 3 - 1),
                    MobiusMap.from_seeds(Fraction(1, 2), a, b),
                ]
                if verdict.exists:
                    solved += 1
                    maps.append(verdict.map)
                    assert verify_reparam(c1, c2, verdict.map)
                for m in maps:
                    expected = _oracle_in_p(alg, x, z, x * a, m)
                    assert verify_reparam(c1, c2, m) == expected, (name, x, z, a, m)
                    if expected:
                        agreed_true += 1
                    else:
                        agreed_false += 1
    assert solved >= 4 and agreed_true >= solved and agreed_false >= 3 * solved
