"""Catalog of |k|-graded matrix Lie algebra realizations.

Families:

* ``proj(m)``   sl(m+1, R), stabilizer of a line; |1|-graded.
* ``grass(n,m)`` sl(n+m, R), stabilizer of R^n, blocks (n, m); |1|-graded.
* ``conf(p,q)`` o(p+1, q+1) in the 3-block form (1, p+q, 1); |1|-graded.
* ``lagr3``     sl(3, R) with the Borel subalgebra; |2|-graded contact.
* ``su21``      su(2,1), realified, blocks (2,2,2); |2|-graded.
* ``xxdot``     sl(4, R) with blocks (1,1,2); |2|-graded.

proj, grass, lagr3 and xxdot are sl(d, R) with a block-flag parabolic and
share one builder, ``_build_sl``, which reads the basis off the block sizes
alone: d = sum(blocks), k = len(blocks) - 1, and position (i, j) has grade
block(j) - block(i).  Each grade g != 0 gets the unit matrices E_ij at its
positions in row-major order; g_0 gets E_aa - E_(a+1)(a+1) first, then the
E_ij inside the diagonal blocks in row-major order.  So grass/proj put the
X block in the lower left (an m x n matrix), and xxdot splits n into x1
(scalar), X1, X2 (2-vectors).  The per-grade coordinate orderings, which
the lab's classifiers rely on, are noted next to each family's entry.

conf and su21 keep hand-written bases.  conf realizes vectors X as
first-column entries paired with -X^t J in the last row.

su(2,1) is written as complex 3x3 matrices and realified at build time:
each entry a + bi becomes the real 2x2 block [[a, -b], [b, a]].
Realification is an injective ring homomorphism, so brackets, grades and
the P block pattern carry over exactly, and every catalog algebra has
integer entries.  Its reports keep the field and matrix dimension of the
complex realization, from its meta "labels".

Every basis matrix, and each invariant form in a meta (conf's and su21's
"form", su21's "complex_structure"), is given as its nonzero integer
entries {(row, col): int}.  The forms define the group G; no command
takes a group matrix, so the membership test that reads them lives with
the tests (``tests/paper_checks.py``).
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Callable, NamedTuple

from .algebra import GradedAlgebra
from .errors import BadParams, UnknownCatalogName


def _realified(entries):
    """The nonzero entries {(row, col): int} of the real matrix of the
    complex matrix whose nonzero entries are {(row, col): (re, im)}:
    a + bi becomes [[a, -b], [b, a]]."""
    out = {}
    for (r, c), (a, b) in entries.items():
        for (i, j), v in (((0, 0), a), ((0, 1), -b), ((1, 0), b), ((1, 1), a)):
            if v:
                out[2 * r + i, 2 * c + j] = v
    return out


# -- builders -----------------------------------------------------------------


def _build_sl(name, family, params, blocks, meta=None):
    """sl(sum(blocks), R) graded by the block flag ``blocks``, with the
    basis rule of the module docstring."""
    d = sum(blocks)
    k = len(blocks) - 1
    block = [b for b, size in enumerate(blocks) for _ in range(size)]
    by_grade = {g: [] for g in range(-k, k + 1)}
    by_grade[0] = [{(a, a): 1, (a + 1, a + 1): -1} for a in range(d - 1)]
    for i in range(d):
        for j in range(d):
            if i != j:
                by_grade[block[j] - block[i]].append({(i, j): 1})
    return GradedAlgebra(name, family, params, k, blocks, by_grade, meta=meta)


def _build_grass(n, m):
    if n < 1 or m < 1:
        raise BadParams("grass(n,m) needs n,m >= 1; got (%d,%d)" % (n, m))
    name = "grass(%d,%d)" % (n, m)
    return _build_sl(name, "grass", {"n": n, "m": m}, (n, m), {"x_shape": (m, n)})


def _build_proj(m):
    if m < 1:
        raise BadParams("proj(m) needs m >= 1; got %d" % m)
    return _build_sl("proj(%d)" % m, "proj", {"n": 1, "m": m}, (1, m), {"x_shape": (m, 1)})


def _build_conf(p, q):
    if p < 0 or q < 0 or p + q < 2:
        raise BadParams("conf(p,q) needs p,q >= 0 and p+q >= 2; got (%d,%d)" % (p, q))
    nn = p + q
    d = nn + 2
    signs = (1,) * p + (-1,) * q
    neg = [{(1 + i, 0): 1, (d - 1, 1 + i): -signs[i]} for i in range(nn)]
    g0 = [{(0, 0): 1, (d - 1, d - 1): -1}]
    for i in range(nn):
        for j in range(i + 1, nn):
            g0.append({(1 + i, 1 + j): 1, (1 + j, 1 + i): -signs[i] * signs[j]})
    pos = [{(0, 1 + i): 1, (1 + i, d - 1): -signs[i]} for i in range(nn)]
    form = {(0, d - 1): 1, (d - 1, 0): 1}
    form.update(((1 + i, 1 + i), s) for i, s in enumerate(signs))
    return GradedAlgebra(
        "conf(%d,%d)" % (p, q),
        "conf",
        {"p": p, "q": q},
        1,
        (1, nn, 1),
        {-1: neg, 0: g0, 1: pos},
        meta={"signs": signs, "form": form},
    )


def _build_su21():
    # real basis of su(2,1) for the Hermitian form J~ = antidiag(1,1,1),
    # written as complex 3x3 matrices and realified; all structure
    # constants are rational over this basis
    d = 3
    one, i1 = (1, 0), (0, 1)
    v = _realified({(2, 0): i1})
    u1 = _realified({(1, 0): one, (2, 1): (-1, 0)})
    u2 = _realified({(1, 0): i1, (2, 1): i1})
    h1 = _realified({(0, 0): one, (2, 2): (-1, 0)})
    h2 = _realified({(0, 0): i1, (1, 1): (0, -2), (2, 2): i1})
    z1 = _realified({(0, 1): one, (1, 2): (-1, 0)})
    z2 = _realified({(0, 1): i1, (1, 2): i1})
    w = _realified({(0, 2): i1})
    return GradedAlgebra(
        "su21",
        "su21",
        {},
        2,
        (2, 2, 2),
        {-2: [v], -1: [u1, u2], 0: [h1, h2], 1: [z1, z2], 2: [w]},
        meta={
            "form": _realified({(0, 2): one, (1, 1): one, (2, 0): one}),
            "complex_structure": _realified({(a, a): i1 for a in range(d)}),
            "labels": {"field": "gaussian", "matrix_dim": d},
        },
    )


class Family(NamedTuple):
    """One catalog family: the row of the ``catalog`` report, and how to
    build one of its algebras."""

    signature: str
    description: str
    representative: str  # the id whose algebra the catalog report describes
    build: Callable[..., GradedAlgebra]
    n_params: int
    matrix_dim: Callable[..., int]  # from the parameters


CATALOG = {
    "proj": Family("proj(m)", "projective structures: sl(m+1,R), stabilizer of a line",
                   "proj(2)", _build_proj, 1, lambda m: m + 1),
    "grass": Family("grass(n,m)", "almost Grassmannian: sl(n+m,R), stabilizer of R^n",
                    "grass(2,2)", _build_grass, 2, lambda n, m: n + m),
    "conf": Family("conf(p,q)", "conformal: o(p+1,q+1), stabilizer of a null line",
                   "conf(1,2)", _build_conf, 2, lambda p, q: p + q + 2),
    # n-coordinates: g_-2 = (z at E31), g_-1 = (x at E21, y at E32)
    "lagr3": Family("lagr3", "Lagrangian contact: sl(3,R) with Borel parabolic",
                    "lagr3", lambda: _build_sl("lagr3", "lagr3", {}, (1, 1, 1)), 0, lambda: 3),
    "su21": Family("su21", "CR sphere: su(2,1), Gaussian rational realization",
                   "su21", _build_su21, 0, lambda: 6),
    # n-coordinates: g_-2 = X2 (2-vector at rows 2,3 of column 0),
    # g_-1 = (x1 at E10, X1 at rows 2,3 of column 1)
    "xxdot": Family("xxdot", "x-x-dot: sl(4,R), flag R^1 in R^2 in R^4",
                    "xxdot", lambda: _build_sl("xxdot", "xxdot", {}, (1, 1, 2)), 0, lambda: 4),
}

_ID_RE = re.compile(r"^\s*([a-z0-9]+)\s*(?:\(\s*([0-9]+(?:\s*,\s*[0-9]+)*)\s*\))?\s*$")

# Largest matrix dimension the catalog builds; an id past it fails fast
# with BadParams.  Measured at this limit (Python 3.11, shared 2-core x86
# host, one run each): `verify --suite all` takes 3.5 s on proj(10) and
# 2.4 s on grass(5,6) (dim g = 120), and `jets --grid 1` 13.0 s on proj(10)
# (59,049 pairs); each peaks at 20-21 MB, a bare interpreter at 13.6 MB.
# proj(11), past the limit, builds in 1.4 s at a 21.1 MB peak, so the
# limit is no longer set by builds but by grids: a grid search costs about
# (2R+1)^dim(p_+) pairs, which this limit does not bound (dim p_+ of
# grass(n,m) is nm, and proj(11) at --grid 1 has 177,147 pairs).
MAX_MATRIX_DIM = 11

# Most points one grid visits: (2R+1)^m for radius R over m coordinates
# (X points times Z points for the standard fiber); a larger grid fails
# with GridTooLarge before any point is produced.  One process on a 2-core
# x86-64 host ran `jets xxdot --type full_n --grid 3 --orders 4` (16,807
# pairs) in 1.1-1.4 s and `jets proj(10) --grid 1` (59,049) in 12.8 s, so
# 10^6 pairs take about 1-4 minutes; the limit admits the latter.
MAX_GRID_POINTS = 10**6

# Highest jet order a search accepts.  ad(X) lowers the grade, so
# ad(X)^(2k+1) vanishes on g and every order past 2k+1 gets the verdict of
# order 2k+1.  The grading depth k is below the matrix dimension, so this
# admits 2k+1 for every catalog algebra, and every order in use (4, and
# the default k+3).
MAX_JET_ORDER = 2 * MAX_MATRIX_DIM


def parse_catalog_id(text):
    """Parse 'conf(1,2)' into ('conf', (1, 2)).

    Raises UnknownCatalogName, or BadParams for a parameter literal too
    long to pass the MAX_MATRIX_DIM guard of the build.
    """
    m = _ID_RE.match(text)
    if not m:
        raise UnknownCatalogName("cannot parse catalog id %r" % text)
    family = m.group(1)
    if family not in CATALOG:
        raise UnknownCatalogName("unknown catalog family %r" % family)
    literals = [x.strip().lstrip("0") for x in m.group(2).split(",")] if m.group(2) else []
    # every family's matrix dimension is at least each of its parameters,
    # so a literal with more digits than MAX_MATRIX_DIM fails the guard
    # anyway; reject it before int() spends time on it (or hits the
    # int-string digit limit)
    if any(len(x) > len(str(MAX_MATRIX_DIM)) for x in literals):
        raise BadParams(
            "%s: parameter too large; the catalog builds matrix dimension at most %d"
            % (family, MAX_MATRIX_DIM)
        )
    return family, tuple(int(x or "0") for x in literals)


_PARAM_COUNTS = ("no parameters", "one parameter", "two parameters")


@lru_cache(maxsize=None)
def _make(family, params):
    fam = CATALOG.get(family)
    if fam is None:
        raise UnknownCatalogName("unknown catalog family %r" % family)
    if len(params) != fam.n_params:
        raise BadParams("%s takes %s, got %r" % (family, _PARAM_COUNTS[fam.n_params], params))
    dim = fam.matrix_dim(*params)
    if dim > MAX_MATRIX_DIM:
        raise BadParams(
            "%s(%s) has matrix dimension %d; the catalog builds at most %d"
            % (family, ",".join(map(str, params)), dim, MAX_MATRIX_DIM)
        )
    return fam.build(*params)


def make_algebra(name, *params):
    """Construct (and cache) a catalog algebra from its id.

    Accepts either make_algebra("conf(1,2)") or make_algebra("conf", 1, 2).
    """
    if params:
        return _make(name, tuple(int(p) for p in params))
    return _make(*parse_catalog_id(name))
