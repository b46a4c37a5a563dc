"""The exact integer engine: one nilpotent exponential, the grid pair
step and polynomial matrices.

Every nilpotent exponential of the library is one series on raw integer
rows: ``nilpotent_powers`` lists the nonzero powers of an integer matrix
polynomial and ``exp_series`` sums them over one common denominator for a
scale N(t)/D.  ``product_in_p_pattern`` decides every curve identity
"left * right stays in the block pattern of P" from the forbidden entries
of the product only.  ``IntPolyMat.exp`` (so ``exp_nilpotent`` and
``group_exp``, and so every exponential of ``GridKernel``) and the
cleared series of ``verify_reparam`` are that series.

``IntPolyMat`` (at the end of this module) is the library's one matrix
type, constant or polynomial: the matrix of an algebra
element (``AlgElem.matrix``, summed on the algebra's integer
``basis_entries``), a group element and its inverse, Ad and the normal
form of P, comparison curves, the lemma identity checkers and the
normal-coordinate jet of ``curves``, the reparametrization check, the
grid kernel, and the orbit points, orbit probes and Prop. 4.1
conjugations of ``lab`` run on it.  Coordinates are read through the
algebra's one integer frame, built with the algebra:
``GradedAlgebra.express_poly`` gives one ``Fraction`` coordinate tuple per
coefficient of a curve, t^0 first, and ``express`` is its constant case.
Its product ``_polymul`` sparsifies each coefficient of the right factor
once and adds every product of two nonzero entries straight into its
output coefficient; ``IntPolyMat.scale`` convolves a scalar polynomial's
integer coefficients with the matrix coefficients, with no scalar
matrix built.

Every grid search (``jets`` and ``family``), for every catalog algebra and
every rational base direction, runs its pairs on ``PairSystem``: with X
fixed, every quantity of the pair step is a polynomial in the p_+ grid
coordinates z, so the step is built once per search as sparse integer
polynomials ({exponent tuple: int} dicts) and evaluated by an
interpreted term loop once per fiber: the grid points that agree on the
coordinates the system reads (``PairSystem.read_coords``) share every
value of the step.  The system works on plain ints with a
tracked positive denominator and no gcd: grid points have integer
coordinates, every catalog basis is integral, and a base direction X is
carried as ``x_den * X`` for the lcm ``x_den`` of its entries'
denominators (the reduced ``X.matrix``).  Scaling by a positive integer
never changes whether an entry vanishes, so every pattern test is exact.
``GridKernel``, the same step as ``IntPolyMat`` arithmetic at one grid
point by other algorithms, is the system's oracle: the stream of ``lab``
reruns it on the first pair of each outcome.  A pair leaves the system
as integers: ``lab`` tests the type of Y on its matrix positions, and
``GridKernel.elem_coords`` builds Fraction coordinates only for a stratum
type's classification.

``family`` counts jet classes on a ``JetSignature``, built once per
search from the system's A2: the normal-coordinate jet Y_1, ..., Y_(k+2)
of the curve exp(t A2) P as sparse integer polynomials in z, each Y_j
over one positive denominator, so the integer tuple of their values at a
grid point is its (k+2)-jet class.  It is evaluated once per fiber of
the coordinates it reads itself, and ``curves.normal_coord_jet`` re-solves
the first pair of each class as its oracle.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import accumulate, islice, repeat, zip_longest
from math import factorial, gcd, lcm

from .errors import NotNilpotent, OracleDisagreement
from .poly import Poly


def _imul(a, b):
    """Integer matrix product, skipping the zero entries of both factors."""
    n = len(b[0])
    b_sparse = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * n
        for x, b_row in zip(row, b_sparse):
            if x:
                for j, y in b_row:
                    acc[j] += x * y
        out.append(acc)
    return out


def _isub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _iscale(a, c):
    return [[c * x for x in row] for row in a]


def _iident(d, one=1):
    rows = [[0] * d for _ in range(d)]
    for i, row in enumerate(rows):
        row[i] = one
    return rows


def _iunit(d, i, j):
    """The d x d unit matrix E_ij."""
    return [[1 if (a, b) == (i, j) else 0 for b in range(d)] for a in range(d)]


def _is_zero(a):
    return not any(map(any, a))


def _iadd_into(acc, b, c=1):
    """acc += c * b in place, skipping the zero rows and entries of b."""
    for acc_row, b_row in zip(acc, b):
        if any(b_row):
            for j, y in enumerate(b_row):
                if y:
                    acc_row[j] += c * y


# -- the one nilpotent exponential ---------------------------------------------
# A matrix polynomial is the list of its integer d x d coefficients, trailing
# zeros dropped; a scalar polynomial is the tuple of its integer coefficients.


def _polymul(a, b):
    """The product of two integer matrix polynomials, in one pass: each
    nonzero entry x of a_p at (i, m) adds x times the sparse row m of each
    b_q into row i of the t^(p+q) coefficient."""
    if not (a and b):
        return []
    if len(a) == 1 and len(b) == 1:
        out = [_imul(a[0], b[0])]
    else:
        d = len(a[0])
        # b_rows[m]: (q, the nonzero (j, y) of row m of b_q) for each q
        b_rows = [[] for _ in range(d)]
        for q, bq in enumerate(b):
            for m, row in enumerate(bq):
                sparse = [(j, y) for j, y in enumerate(row) if y]
                if sparse:
                    b_rows[m].append((q, sparse))
        out = [[[0] * d for _ in range(d)] for _ in range(len(a) + len(b) - 1)]
        for p, ap in enumerate(a):
            for i, row in enumerate(ap):
                for m, x in enumerate(row):
                    if x:
                        for q, sparse in b_rows[m]:
                            acc = out[p + q][i]
                            for j, y in sparse:
                                acc[j] += x * y
    while out and _is_zero(out[-1]):
        out.pop()
    return out


def nilpotent_powers(a):
    """[a, a^2, ..., a^q], the nonzero powers of a nilpotent integer matrix
    polynomial a, stopping at the first zero power.  Raises NotNilpotent
    when a^d != 0, d the matrix size."""
    powers = []
    power = a
    while power:
        powers.append(power)
        if len(powers) == len(a[0]):
            raise NotNilpotent("matrix is not nilpotent")
        power = _polymul(power, a)
    return powers


@lru_cache(maxsize=1024)
def _series_scalars(q, num, den):
    """(q!/p!) num^p den^(q-p) for p = 0..q; a search meets few (q, num, den)."""
    num, den = Poly(num), Poly(den)
    return tuple(
        tuple(factorial(q) // factorial(p) * int(c) for c in (num**p * den ** (q - p)).coeffs)
        for p in range(q + 1)
    )


def exp_series(d, powers, num, den):
    """q! den^q exp((num/den) a) = sum_p (q!/p!) num^p den^(q-p) a^p, an
    integer matrix polynomial, from ``powers = nilpotent_powers(a)`` (q its
    length) and integer coefficient tuples num, den (den != 0)."""
    scalars = _series_scalars(len(powers), num, den)
    out = [_iident(d, s) for s in scalars[0]]
    for power, scalar in zip(powers, scalars[1:]):
        for i, s in enumerate(scalar):
            if not s:
                continue
            for j, m in enumerate(power, i):
                if j < len(out):
                    _iadd_into(out[j], m, s)
                else:
                    out.extend([[0] * d for _ in range(d)] for _ in range(j - len(out)))
                    out.append(_iscale(m, s))
    while out and _is_zero(out[-1]):
        out.pop()
    return out


def product_in_p_pattern(left, right, forbidden):
    """True when every coefficient of the matrix polynomial left * right
    vanishes at the forbidden positions, the only entries formed."""
    d = len(left[0]) if left else 0
    nl, nr = len(left), len(right)
    for r in range(nl + nr - 1):
        pairs = [(left[p], right[r - p]) for p in range(max(0, r - nr + 1), min(r, nl - 1) + 1)]
        for i, j in forbidden:
            if sum(lm[i][m] * rm[m][j] for lm, rm in pairs for m in range(d)):
                return False
    return True


class GridKernel:
    """The pair step of one algebra and one base direction X as plain
    ``IntPolyMat`` arithmetic at one grid point: the pair system's oracle.

    Y is the truncated action of exp(-Z) on X, read off one conjugation
    (truncated Ad is an action of P on n), and the jet order takes
    commutators with X; the pair system iterates on the residual and
    composes linear forms instead.  exp(tX) is built once."""

    def __init__(self, alg, x):
        self.alg = alg
        self.x = x.matrix
        self.exp_tx = self.x.exp(Poly((0, 1)))

    def combo_rows(self, vals):
        """The constant matrix of the p_+ element Z with the given grid coordinates."""
        return self.alg.elem_at(self.alg.pplus_indices, vals).matrix

    def exp_pair(self, z):
        """(exp Z, exp -Z)."""
        return z.exp(), z.exp(-1)

    def elem_coords(self, rows, den):
        """Fraction coordinates of the algebra element rows / den, read by
        ``GradedAlgebra.express`` with its span check."""
        coords = self.alg.express(IntPolyMat(self.alg.matrix_dim, [rows], den))
        if coords is None:
            raise OracleDisagreement("a solved direction left the span of the basis")
        return coords

    def solve_direction(self, e, einv):
        """(Y, A2): Y = proj_n(Ad(exp -Z) X) and its conjugate A2 =
        Ad(exp Z) Y, whose negative-grade part must be X's."""
        y = self.alg.position_part(self.conj(einv, e, self.x), lambda g: g < 0)
        a2 = self.conj(e, einv, y)
        if not (self.x - a2).in_p_pattern(self.alg):
            raise OracleDisagreement("truncated Ad(exp Z) does not map the solved Y to X")
        return y, a2

    def conj(self, e, einv, y):
        """e y einv."""
        return e * y * einv

    def pair_jet_order(self, a2, r_max):
        """Consecutive orders r < r_max with ad(-X)^r (X - A2) in p."""
        d = self.x - a2
        for order in range(r_max):
            if not d.in_p_pattern(self.alg):
                return order
            d = d * self.x - self.x * d
        return r_max

    def curves_equal(self, a2):
        """Exact polynomial identity: exp(-t A2) exp(tX) in the P pattern."""
        left = a2.exp(Poly((0, -1))).coeffs
        return product_in_p_pattern(left, self.exp_tx.coeffs, self.alg.forbidden_positions)


def grid_kernel(alg, x):
    """The GridKernel of an algebra and a base direction in it."""
    return GridKernel(alg, x)


# -- the pair system -----------------------------------------------------------
# A polynomial in the p_+ grid coordinates z is a dict {exponent tuple: int}
# with no zero values; a polynomial matrix is a dict {(i, j): polynomial}
# holding its nonzero entries only.


def _plinear(terms):
    """The polynomial sum of c * p over the pairs (c, p) of ``terms``."""
    acc = {}
    for c, p in terms:
        for e, v in p.items():
            acc[e] = acc.get(e, 0) + c * v
    return {e: v for e, v in acc.items() if v}


def _pmul(a, b):
    """The polynomial a * b."""
    out = {}
    for ea, va in a.items():
        for eb, vb in b.items():
            e = tuple(map(int.__add__, ea, eb))
            out[e] = out.get(e, 0) + va * vb
    return {e: v for e, v in out.items() if v}


def _mlinear(parts):
    """The polynomial matrix with the entries sum c * p over the pairs
    (c, p) that ``parts`` lists per position."""
    return {pos: p for pos, terms in parts.items() for p in (_plinear(terms),) if p}


def _mcombine(terms):
    """The polynomial matrix sum of c * m over the pairs (c, m) of ``terms``."""
    parts = {}
    for c, m in terms:
        for pos, p in m.items():
            parts.setdefault(pos, []).append((c, p))
    return _mlinear(parts)


def _mmul(a, b):
    """The product of two polynomial matrices."""
    b_rows = {}
    for (m, j), p in b.items():
        b_rows.setdefault(m, []).append((j, p))
    parts = {}
    for (i, m), p in a.items():
        for j, r in b_rows.get(m, ()):
            parts.setdefault((i, j), []).append((1, _pmul(p, r)))
    return _mlinear(parts)


def _ppowers(m, q, ident, mul=_mmul):
    """[I, m, m^2, ..., m^q] of a polynomial matrix m, I = ``ident``."""
    return list(accumulate(repeat(m, q), mul, initial=ident))


def _pexp(powers, sign=1, den=1):
    """q! den^q exp(sign m / den) = sum_p (q!/p!) sign^p den^(q-p) m^p, an
    integer polynomial matrix, from ``powers = _ppowers(m, q, ...)`` of a
    polynomial matrix m with m^(q+1) = 0."""
    q = len(powers) - 1
    qf = factorial(q)
    return _mcombine((sign**p * (qf // factorial(p)) * den ** (q - p), m) for p, m in enumerate(powers))


def _pconj(e, y, einv):
    """The polynomial matrix e * y * einv: one symbolic conjugation."""
    return _mmul(_mmul(e, y), einv)


def _jet_duals(x_rows, positions):
    """Yield, for r = 0, 1, ..., the dual forms of jet order r: the pairs
    (pos, F_r) with F_r = ad(X)^r E_ji for each pos = (i, j), X the integer
    matrix x_rows.  Entry (i, j) of ad(-X)^r d0 is tr(E_ji ad(-X)^r d0) =
    tr(F_r d0) = sum_ab F_r[b][a] d0[a][b], for every matrix d0."""
    duals = [(pos, _iunit(len(x_rows), pos[1], pos[0])) for pos in positions]
    while True:
        yield duals
        duals = [(pos, _isub(_imul(x_rows, f), _imul(f, x_rows))) for pos, f in duals]


class PairSystem:
    """The grid pair step of one algebra, one base direction X and the jet
    orders below r_max, as integer polynomials in the p_+ grid coordinates z.

    The build runs the pair step once on polynomial matrices, from the
    algebra's ``basis_entries`` and block pattern and X's reduced matrix
    x_rows / x_den:

    - Z(z) = sum z_i B_i, and q! exp(+-Z) = sum_p (q!/p!) (+-Z)^p
      (``_pexp``) with q = len(block_sizes) - 1, so every power of a
      strictly block triangular matrix that can be nonzero is summed;
    - ``y``: Y = y / y_den by a residual iteration, which must reach a
      zero residual polynomial within k conjugations (``_pconj``);
    - A2 = a2 / a2_den, a2 = q! exp(Z) y q! exp(-Z), a2_den = q!^2 y_den,
      kept for the ``JetSignature`` of the same search;
    - ``jets[r]``: the forbidden entries (i, j) of ad(-X)^r d0, d0 = X - A2,
      read by the dual linear forms of ``_jet_duals``, times a2_den x_den^r;
    - ``identity``: the forbidden entries (m, i, j) of the t^m coefficient
      of exp(-t A2) exp(t X), times q!^2 (a2_den x_den)^q.

    Each keeps its nonzero polynomials only.  The positive constant scales
    never change whether a value vanishes, so every decision read off the
    system is exact.  ``evaluate`` runs the step at one grid point: each
    polynomial is a list of (coefficient, monomial) terms, and the
    monomials are built stage by stage (Y, then one stage per jet order,
    then the identity), each as an earlier monomial times one coordinate,
    so a pair pays only for the stages its verdict reads.  ``read_coords``
    is the sorted tuple of the coordinates that any monomial reads: the
    value of ``evaluate`` depends on no other coordinate of ``vals``.
    """

    def __init__(self, alg, x, r_max):
        self.d = d = alg.matrix_dim
        nv = len(alg.pplus_indices)
        q = len(alg.block_sizes) - 1
        qf = factorial(q)
        xm = x.matrix
        x_den, x_rows = xm.den, (xm.coeffs or [_iident(d, 0)])[0]
        forbidden = alg.forbidden_positions
        z = {}
        for v, idx in enumerate(alg.pplus_indices):
            var = tuple(int(u == v) for u in range(nv))
            for r, b in alg.basis_entries[idx]:
                z.setdefault(divmod(r, d), []).append((b, {var: 1}))
        ident = {(i, i): {(0,) * nv: 1} for i in range(d)}
        powers = _ppowers(_mlinear(z), q, ident)
        e, einv = _pexp(powers), _pexp(powers, -1)
        # Y by the residual iteration: each conjugation raises the lowest
        # grade of the residual by one, so it vanishes within k of them;
        # the residual is d0 = X - A2 on the forbidden positions
        x_poly = {(i, j): {(0,) * nv: v} for i, row in enumerate(x_rows) for j, v in enumerate(row) if v}
        s2 = qf * qf
        y, y_den = x_poly, x_den
        for _ in range(alg.k):
            a2, a2_den = _pconj(e, y, einv), y_den * s2
            d0 = _mcombine(((a2_den // x_den, x_poly), (-1, a2)))
            resid = {pos: d0[pos] for pos in forbidden if pos in d0}
            if not resid:
                break
            y, y_den = _mcombine(((s2, y), (1, resid))), a2_den
        else:
            raise OracleDisagreement("direction constraint failed to converge")
        self.y, self.y_den = y, y_den
        self.a2, self.a2_den = a2, a2_den
        self.jets = [
            _mlinear({pos: [(f[b][a], p) for (a, b), p in d0.items() if f[b][a]] for pos, f in duals})
            for duals in islice(_jet_duals(x_rows, forbidden), r_max)
        ]
        # the curve identity: the t^m coefficient of q! a2_den^q exp(-t A2)
        # times q! x_den^q exp(t X) is sum_{p+r=m} left_p right_r
        left = _ppowers(a2, q, ident)
        right, power = [], _iident(d)
        for r in range(q + 1):
            right.append(_iscale(power, qf // factorial(r) * x_den ** (q - r)))
            power = _imul(power, x_rows)
        forbidden_set = set(forbidden)
        parts = {}
        for p, power in enumerate(left):
            scale = (-1) ** p * (qf // factorial(p)) * a2_den ** (q - p)
            for (i, c), poly in power.items():
                for r, rows in enumerate(right):
                    for j, v in enumerate(rows[c]):
                        if v and (i, j) in forbidden_set:
                            parts.setdefault((p + r, i, j), []).append((scale * v, poly))
        self.identity = _mlinear(parts)
        self._compile()

    def _compile(self):
        """The monomial stages and term lists that ``evaluate`` reads."""
        monos = _Monomials()
        self._y_stage = monos.stage(self.y.values())
        self._y_positions = tuple(self.y)
        # an order with no nonzero form adds no monomial and passes at every point
        self._jet_stages = [(r, *monos.stage(order.values())) for r, order in enumerate(self.jets) if order]
        self._identity_stage = monos.stage(self.identity.values())
        self.read_coords = monos.read_coords()

    def evaluate(self, vals, member):
        """(y_num, jet order, equal) at the grid point ``vals``: Y =
        y_num / y_den, the jet order None when ``member(y_num, y_den)`` is
        false, and equal the curve identity, read only at jet order r_max."""
        mono = [1]
        steps, terms = self._y_stage
        _extend(mono, steps, vals)
        y_num = [[0] * self.d for _ in range(self.d)]
        for (i, j), term in zip(self._y_positions, terms):
            y_num[i][j] = _value(mono, term)
        if not member(y_num, self.y_den):
            return y_num, None, False
        for r, steps, terms in self._jet_stages:
            _extend(mono, steps, vals)
            if any(_value(mono, term) for term in terms):
                return y_num, r, False
        steps, terms = self._identity_stage
        _extend(mono, steps, vals)
        return y_num, len(self.jets), not any(_value(mono, term) for term in terms)


class _Monomials:
    """The monomials of a set of compiled polynomials, numbered in build
    order from 1 = monomial 0: each other one is an earlier monomial times
    one coordinate, a step (earlier monomial, coordinate)."""

    def __init__(self):
        self._index = {}
        self._steps = []

    def _number(self, e):
        if not any(e):
            return 0
        m = self._index.get(e)
        if m is None:
            v = max(u for u, a in enumerate(e) if a)
            self._steps.append((self._number(e[:v] + (e[v] - 1,) + e[v + 1 :]), v))
            m = self._index[e] = len(self._steps)
        return m

    def stage(self, polys):
        """(steps, terms): the steps of the monomials that ``polys`` adds,
        and each polynomial as (coefficients, monomial numbers)."""
        start = len(self._steps)
        terms = [(tuple(p.values()), tuple(map(self._number, p))) for p in polys]
        return self._steps[start:], terms

    def read_coords(self):
        """The sorted coordinates that any monomial reads: each is the last
        step of one of its factors."""
        return tuple(sorted({v for _, v in self._steps}))


def _extend(mono, steps, vals):
    """Append the values at ``vals`` of one stage's monomials."""
    for earlier, v in steps:
        mono.append(mono[earlier] * vals[v])


def _value(mono, term):
    """The value of one compiled polynomial (coefficients, monomials)."""
    coeffs, monos = term
    return sum(map(operator.mul, coeffs, map(mono.__getitem__, monos)))


# -- the jet-class signature ---------------------------------------------------


def _tpart(m, keep, positions):
    """The entries of a polynomial matrix m at ``positions``, with only the
    terms whose degree in the last variable, t, passes ``keep``."""
    out = {}
    for pos in positions:
        kept = {e: v for e, v in m.get(pos, {}).items() if keep(e[-1])}
        if kept:
            out[pos] = kept
    return out


class JetSignature:
    """The normal-coordinate jet Y_1, ..., Y_order of the curve exp(t A2) P
    of a ``PairSystem``, as integer polynomials in the p_+ grid coordinates
    z.  exp(t A2) P is the admissible curve exp(Z) exp(tY) P, so the value
    at a grid point is the jet class of its curve.

    The build is the degree-by-degree solve of ``curves.normal_coord_jet``
    on the system's polynomial matrices, with t as one more variable and
    each power of Y truncated in t at ``order``.  With A2 = a2 / a2_den and
    s = t / a2_den, exp(t A2) = exp(s a2), so the solve runs on a2 in s and
    the s^j coefficient of Y is a2_den^j Y_j.  Y(s) is carried as y / y_den
    with the gcd of its coefficients and y_den divided out: at degree j,
    q! y_den^q exp(-Y) (``_pexp``) times q! exp(s a2) has the s^j
    coefficient q!^2 y_den^q Y_j on the negative-grade positions.

    Y_j = ``polys[j - 1]`` / ``dens[j - 1]``, a polynomial matrix over a
    positive integer.  A matrix Y_j matches its basis coordinates one to
    one, so two grid points have the same jet exactly when ``evaluate``
    gives them the same integer tuple.  ``read_coords`` are the
    coordinates that any monomial reads: ``evaluate`` depends on no other
    coordinate of ``vals``.
    """

    def __init__(self, alg, system, order):
        self.alg = alg
        nv = len(alg.pplus_indices)
        q = len(alg.block_sizes) - 1
        qf = factorial(q)
        ident = {(i, i): {(0,) * (nv + 1): 1} for i in range(alg.matrix_dim)}

        def mul(a, b):
            product = _mmul(a, b)
            return _tpart(product, lambda deg: deg <= order, product)

        s_a2 = {pos: {e + (1,): v for e, v in p.items()} for pos, p in system.a2.items()}
        m = _pexp(_ppowers(s_a2, q, ident))
        y, y_den = {}, 1
        for j in range(1, order + 1):
            step = _mmul(_pexp(_ppowers(y, q, ident, mul), -1, y_den), m)
            # y_den divides the new denominator, q >= 1
            den = qf * qf * y_den**q
            yj = _tpart(step, j.__eq__, alg.forbidden_positions)
            y, y_den = _mreduced(_mcombine(((den // y_den, y), (1, yj))), den)
        self.polys, self.dens = [], []
        for j in range(1, order + 1):
            yj = {pos: {e[:-1]: v for e, v in p.items()} for pos, p in _tpart(y, j.__eq__, y).items()}
            yj, den = _mreduced(yj, y_den * system.a2_den**j)
            self.polys.append(yj)
            self.dens.append(den)
        monos = _Monomials()
        self._stage = monos.stage(p for yj in self.polys for p in yj.values())
        self.read_coords = monos.read_coords()

    def evaluate(self, vals):
        """The integer values at the grid point ``vals`` of every nonzero
        entry of every y_j, in order: the jet class of the point."""
        mono = [1]
        steps, terms = self._stage
        _extend(mono, steps, vals)
        return tuple(_value(mono, term) for term in terms)

    def coords(self, key):
        """The Fraction coordinates of Y_1, ..., Y_order from the value
        ``key`` of ``evaluate``, read by ``GradedAlgebra.express``."""
        d = self.alg.matrix_dim
        values = iter(key)
        out = []
        for yj, den in zip(self.polys, self.dens):
            rows = [[0] * d for _ in range(d)]
            for (i, j), v in zip(yj, values):
                rows[i][j] = v
            out.append(self.alg.express(IntPolyMat(d, [rows], den)))
        return tuple(out)


def _mreduced(m, den):
    """(m / g, den / g) for the gcd g of den and every coefficient of the
    polynomial matrix m."""
    g = gcd(den, *(v for p in m.values() for v in p.values()))
    return {pos: {e: v // g for e, v in p.items()} for pos, p in m.items()}, den // g


# -- polynomial matrices -------------------------------------------------------


def _int_coeffs(c):
    """(nums, den): the integer coefficients of den * c for a rational or a
    Poly c, den the least positive integer that clears c."""
    cs = c.coeffs if isinstance(c, Poly) else (c,)
    den = lcm(*(x.denominator for x in cs))
    return tuple(x.numerator * (den // x.denominator) for x in cs), den


def _reduced(d, coeffs, den):
    """The IntPolyMat sum_p t^p coeffs[p] / den with the gcd of its entries
    and den divided out."""
    g = den
    for c in coeffs:
        for row in c:
            g = gcd(g, *row)
            if g == 1:
                return IntPolyMat(d, coeffs, den)
    return IntPolyMat(d, [[[x // g for x in row] for row in c] for c in coeffs], den // g)


class IntPolyMat:
    """An exact polynomial matrix sum_p t^p C_p / den over the rationals.

    Each coefficient C_p is a d x d integer matrix (a list of int rows,
    never changed once built) and den > 0 is one common denominator.
    Trailing zero coefficients are dropped, so the zero matrix has no
    coefficients, and a product divides out the gcd of its entries and
    denominator.  A product is ``_polymul``, one sparse pass that
    accumulates each entry product straight into its coefficient, and
    ``scale`` convolves the scalar's integer coefficients with the matrix
    coefficients.  Products, sums and equality (which cross-multiplies the
    denominators) raise ``ValueError`` on operands of another size.
    ``GradedAlgebra.express_poly`` reads one coordinate tuple per C_p /
    den, and ``express`` those of a constant.  The repr is the constructor
    call: d, the integer coefficients and den.
    """

    __slots__ = ("d", "coeffs", "den")

    def __init__(self, d, coeffs, den=1):
        coeffs = list(coeffs)
        while coeffs and _is_zero(coeffs[-1]):
            coeffs.pop()
        self.d = d
        self.coeffs = tuple(coeffs)
        self.den = den

    @classmethod
    def identity(cls, d):
        return cls(d, [_iident(d)])

    def is_zero(self):
        return not self.coeffs

    def _same_size(self, other):
        if self.d != other.d:
            raise ValueError("matrix sizes differ: %d and %d" % (self.d, other.d))

    def _combine(self, other, sign):
        self._same_size(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        zero = [[0] * self.d] * self.d
        return IntPolyMat(
            self.d,
            [
                [[fa * x + fb * y for x, y in zip(ra, rb)] for ra, rb in zip(ca, cb)]
                for ca, cb in zip_longest(self.coeffs, other.coeffs, fillvalue=zero)
            ],
            den,
        )

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, other):
        self._same_size(other)
        return _reduced(self.d, _polymul(self.coeffs, other.coeffs), self.den * other.den)

    def scale(self, c):
        """c * self for a rational or a Poly c: the convolution of c's
        integer coefficients with the matrix coefficients."""
        nums, cden = _int_coeffs(c)
        d = self.d
        out = [[[0] * d for _ in range(d)] for _ in range(len(self.coeffs) + len(nums) - 1)]
        for p, cp in enumerate(self.coeffs):
            for q, s in enumerate(nums):
                if s:
                    _iadd_into(out[p + q], cp, s)
        return _reduced(d, out, self.den * cden)

    def truncate(self, order):
        """The terms of degree <= order."""
        return IntPolyMat(self.d, self.coeffs[: order + 1], self.den)

    def derivative(self):
        return IntPolyMat(self.d, [_iscale(c, p) for p, c in enumerate(self.coeffs)][1:], self.den)

    def exp(self, scale=1):
        """exp(scale * self) of a nilpotent self, scale a rational or a Poly.

        ``exp_series`` over its one common denominator, reduced once at the
        end.  Raises NotNilpotent when self^d != 0.
        """
        nums, cden = _int_coeffs(scale)
        den = cden * self.den
        powers = nilpotent_powers(self.coeffs)
        q = len(powers)
        return _reduced(self.d, exp_series(self.d, powers, nums, (den,)), factorial(q) * den**q)

    def __eq__(self, other):
        if not isinstance(other, IntPolyMat):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        # equal matrices have the same reduced form
        r = _reduced(self.d, self.coeffs, self.den)
        return hash((r.den, tuple(tuple(map(tuple, c)) for c in r.coeffs)))

    def in_p_pattern(self, alg):
        """True when every coefficient vanishes at the forbidden positions."""
        return all(not c[i][j] for c in self.coeffs for i, j in alg.forbidden_positions)

    def __repr__(self):
        return "IntPolyMat(%d, %r, %d)" % (self.d, list(self.coeffs), self.den)
