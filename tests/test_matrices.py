import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from parageo.algebra import exp_nilpotent
from parageo.matrices import Mat, echelon, rank, remainder, rref
from parageo.poly import P_T, Poly
from parageo.scalars import GaussianRational
from paper_checks import solve_linear
from poly_reference import cofactor_inverse, exp_mat, to_mat

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=6)
gaussians = st.builds(GaussianRational, fractions, fractions)


def frac_mat(n, entries=fractions):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n).map(Mat)


def leibniz_det(m):
    n = m.dim
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= m.rows[i][perm[i]]
        total += sign * prod
    return total


@settings(max_examples=60)
@given(frac_mat(4))
def test_det_against_permanent_oracle(m):
    assert m.det() == leibniz_det(m)


@settings(max_examples=40)
@given(st.one_of(frac_mat(3), frac_mat(3, gaussians)))
def test_inverse_identity(m):
    # a third row equal to the sum of the first two makes any matrix singular
    r0, r1, _ = m.rows
    with pytest.raises(ZeroDivisionError):
        Mat((r0, r1, tuple(a + b for a, b in zip(r0, r1)))).inverse()
    if not m.det():
        with pytest.raises(ZeroDivisionError):
            m.inverse()
        return
    inv = m.inverse()
    assert m * inv == Mat.identity(3) and inv * m == Mat.identity(3)
    assert inv == cofactor_inverse(m)


def test_exp_inverse_is_exp_minus(any_algebra):
    # I + t E21 = exp(t E21) has inverse I - t E21
    e21 = Mat([[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]])
    one, zero = Poly((1,)), Poly()
    assert exp_mat(e21, P_T) == Mat([[one, zero], [P_T, one]])
    assert exp_mat(e21, -P_T) == Mat([[one, zero], [-P_T, one]])
    assert exp_mat(e21, P_T) * exp_mat(e21, -P_T) == Mat([[one, zero], [zero, one]])
    # any catalog exp(tX) has det 1 and inverse exp(-tX)
    alg = any_algebra
    ident = Mat.identity(alg.matrix_dim)
    for grade in range(-alg.k, 0):
        for x in alg.grade_basis(grade)[:2]:
            m = to_mat(exp_nilpotent(x, P_T))
            det = m.det()
            assert det == 1 or det == Poly.const(Fraction(1))
            assert m * to_mat(exp_nilpotent(x, -P_T)) == ident


def test_solve_linear():
    a = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]]
    assert solve_linear(a, [Fraction(4), Fraction(6)]) == (Fraction(2), Fraction(2))
    # inconsistent system
    assert solve_linear([[Fraction(1)], [Fraction(1)]], [Fraction(0), Fraction(1)]) is None


def test_rref_pivots():
    red, piv = rref([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
    assert piv == [0, 1]
    assert red[0][0] == 1 and red[1][1] == 1


sparse = st.one_of(st.just(Fraction(0)), fractions)


@st.composite
def row_lists(draw):
    """Rows of one width with zero rows, repeated rows and combinations of
    earlier rows mixed in, often more rows than columns."""
    width = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(("drawn", "zero", "repeat", "combination")))
        if kind == "zero" or (kind != "drawn" and not rows):
            rows.append([Fraction(0)] * width)
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combination":
            a, b, u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows)), draw(fractions), draw(fractions)
            rows.append([u * x + v * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(sparse, min_size=width, max_size=width)))
    return width, rows


@settings(max_examples=150, deadline=None)
@given(row_lists())
def test_rank_is_the_rref_pivot_count(drawn):
    _, rows = drawn
    assert rank(rows) == len(rref(rows)[1])
    kept = echelon(rows)
    # each kept row is 1 at its pivot and 0 at the pivots kept before it,
    # and every input row reduces to zero against the kept rows
    for k, (c, row) in enumerate(kept):
        assert row[c] == 1 and not any(row[p] for p, _ in kept[:k])
    assert not any(any(remainder(row, kept)) for row in rows)


@settings(max_examples=150, deadline=None)
@given(row_lists(), st.data())
def test_remainder_is_zero_iff_the_row_adds_no_rank(drawn, data):
    width, k = drawn
    row = data.draw(st.one_of(
        st.lists(sparse, min_size=width, max_size=width),
        st.sampled_from(k) if k else st.nothing(),
    ))
    in_span = not any(remainder(row, echelon(k)))
    assert in_span == (rank(k + [row]) == rank(k))


def test_reduction_edge_cases():
    zero, one, two = Fraction(0), Fraction(1), Fraction(2)
    assert echelon([]) == [] and rank([]) == 0
    assert rank([[zero, zero], [zero, zero]]) == 0
    # more rows than columns: the scan stops at the second pivot
    tall = [[one, two], [two, one], [one, one], [zero, zero]]
    assert [c for c, _ in echelon(tall)] == [0, 1] and rank(tall) == 2
    assert rank([[one, two], [one, two], [two, 2 * two]]) == 1
    assert not any(remainder([zero, zero], [])) and any(remainder([one, zero], []))


def _as_fractions(rows):
    return [[Fraction(a) for a in row] for row in rows]


@pytest.mark.parametrize(
    "rows",
    [
        # a float quotient rounds 10**17 + 1 to 10**17 and loses the rank
        [[10**17, 1], [10**17 + 1, 1]],
        # a lead of 3 makes thirds, which a float holds only approximately
        [[3, 1, 2], [6, 1, 0], [9, 2, 2], [0, 7, -1]],
    ],
    ids=["huge", "small"],
)
def test_echelon_is_exact_on_int_rows(rows):
    frac_rows = _as_fractions(rows)
    assert echelon(rows) == echelon(frac_rows)
    assert rank(rows) == rank(frac_rows) == len(rref(frac_rows)[1])
    for row in rows:
        assert not any(remainder(row, echelon(rows)))


@pytest.mark.parametrize(
    "rows",
    [[[10**17, 1], [10**17 + 1, 1]], [[3, 1], [1, 1]]],
    ids=["huge", "small"],
)
def test_rref_is_exact_on_int_rows(rows):
    # a float quotient loses the second pivot of the huge rows and writes
    # the small rows' thirds as floats; a Fraction lead does neither
    red, piv = rref(rows)
    assert piv == [0, 1]
    assert red == [(1, 0), (0, 1)]
    assert not any(isinstance(x, float) for row in red for x in row)
    assert (red, piv) == rref(_as_fractions(rows))
