from fractions import Fraction
from math import lcm

import pytest

from parageo._fastgrid import IntPolyMat
from parageo.algebra import GroupElem
from parageo.catalog import _build_sl, make_algebra
from parageo.poly import Poly

ALL_IDS = [
    "proj(1)",
    "proj(2)",
    "grass(1,2)",
    "grass(2,2)",
    "conf(1,1)",
    "conf(1,2)",
    "lagr3",
    "su21",
    "xxdot",
]


@pytest.fixture(params=ALL_IDS)
def any_algebra(request):
    return make_algebra(request.param)


@pytest.fixture
def lagr3():
    return make_algebra("lagr3")


@pytest.fixture
def xxdot():
    return make_algebra("xxdot")


@pytest.fixture
def proj1():
    return make_algebra("proj(1)")


def block_flag_sl(*blocks):
    """sl(sum(blocks), R) graded by the block flag ``blocks``, from the
    catalog's sl builder.  Not a catalog algebra."""
    return _build_sl("sl(%s)" % ",".join(map(str, blocks)), "sl", {}, blocks)


def full_flag_sl4():
    """sl(4, R) with blocks (1,1,1,1): the |3|-graded full flag."""
    return block_flag_sl(1, 1, 1, 1)


def diag_group_elem(alg, vals):
    """The diagonal GroupElem diag(vals) with its inverse, for an algebra
    outside the catalog (its group matrices have no validator)."""
    d = alg.matrix_dim

    def diag(entries):
        entries = [Fraction(e) for e in entries]
        den = lcm(*(e.denominator for e in entries))
        rows = [[int(e * den) if i == j else 0 for j in range(d)] for i, e in enumerate(entries)]
        return IntPolyMat(d, [rows], den)

    return GroupElem(alg, diag(vals), diag([1 / Fraction(v) for v in vals]))


def frame_extractor(alg):
    """(pivot rows, extractor rows) of an algebra's integer frame, read as
    ``Fraction``s: the positions its extractor terms read, ascending, and
    each coordinate's terms over them divided by ``extract_scale``."""
    pivots = tuple(sorted({r for terms in alg.extract_terms for _, r in terms}))
    rows = []
    for terms in alg.extract_terms:
        by_row = {r: c for c, r in terms}
        rows.append(tuple(Fraction(by_row.get(r, 0), alg.extract_scale) for r in pivots))
    return pivots, tuple(rows)


def dense_bracket_table(alg):
    """``bracket_table`` as dim x dim tuples of dim ``Fraction``s: entry
    [i][j][m] is the coefficient of b_m in [b_i, b_j], each sparse integer
    constant divided by ``extract_scale`` and every other slot 0."""
    n, zero = alg.dim, Fraction(0)
    table = []
    for row in alg.bracket_table:
        dense_row = []
        for entry in row:
            coords = [zero] * n
            for m, c in entry:
                coords[m] = Fraction(c, alg.extract_scale)
            dense_row.append(tuple(coords))
        table.append(tuple(dense_row))
    return tuple(table)


def poly_coords(alg, per_degree):
    """One ``Poly`` per basis coordinate of an ``express_poly`` result (one
    coordinate tuple per power of t), an interior zero coefficient as the
    int 0: the shape in which the curve-layer digests were pinned."""
    return tuple(Poly(tuple(row[m] or 0 for row in per_degree)) for m in range(alg.dim))
