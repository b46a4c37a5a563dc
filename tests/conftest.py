import pytest

from parageo.catalog import _build_sl, make_algebra

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
