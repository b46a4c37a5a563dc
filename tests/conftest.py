from fractions import Fraction

import pytest

from parageo.algebra import GradedAlgebra
from parageo.catalog import make_algebra
from parageo.matrices import Mat

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


def full_flag_sl4():
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
    return GradedAlgebra("sl(1,1,1,1)", "sl", {}, 3, (1, 1, 1, 1), by_grade)
