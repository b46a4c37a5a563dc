"""The exact integer engine: one nilpotent exponential, the grid pair
step and polynomial matrices.

Every nilpotent exponential of the library is one series on raw integer
rows: ``nilpotent_powers`` lists the nonzero powers of an integer matrix
polynomial and ``exp_series`` sums them over one common denominator for a
scale N(t)/D.  ``product_in_p_pattern`` decides every curve identity
"left * right stays in the block pattern of P" from the forbidden entries
of the product only.  ``IntPolyMat.exp`` (so ``exp_nilpotent`` and
``group_exp``), the kernel's exp(+-Z), exp(tX) and exp(-t A2), and the
cleared series of ``verify_reparam`` are that series.

``IntPolyMat`` (at the end of this module) is the library's one matrix
type, constant or polynomial: the matrix of an algebra
element (``AlgElem.matrix``, summed on the algebra's integer
``basis_entries``), a group element and its inverse, Ad and the normal
form of P, comparison curves, the lemma identity checkers and the
normal-coordinate jet of ``curves``, the reparametrization check, and the
orbit points, orbit probes and Prop. 4.1 conjugations of ``lab`` run on
it.  Coordinates are read through the algebra's one integer frame, built
with the algebra (``GradedAlgebra.express`` for a constant, ``express_poly``
for a curve; ``GridKernel`` reads the same extractor terms).

Every grid search (``jets`` and ``family``) runs its pairs on
``GridKernel``, for every catalog algebra and every rational base
direction, on plain-int matrices with a tracked positive denominator and no
gcd: grid points have integer coordinates, every catalog basis is
integral, and a base direction X is carried as ``x_den * X`` for the lcm
``x_den`` of its entries' denominators (the reduced ``X.matrix``).  Scaling
by a positive integer never changes whether an entry vanishes, so every
pattern test is exact.
One pair costs one ``exp_pair`` (one power list, both series) and at most
k conjugations inside ``solve_direction``, whose conjugate A2 = Ad(exp Z) Y
is reused by the jet test and the curve identity.  The jet test makes no
matrix product: the forbidden entries of ad(-X)^r d0 are integer linear
forms in the entries of d0, built once per order r.  Products skip the
zero entries of both factors, since grid matrices are mostly zeros.
A pair leaves the kernel as integers: ``lab`` tests the type of Y on its
matrix positions, and ``elem_coords`` builds Fraction coordinates only
for a stratum type's classification.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import factorial, gcd, lcm

from .errors import NotNilpotent
from .poly import Poly

_F0 = Fraction(0)


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
    """The product of two integer matrix polynomials."""
    if not (a and b):
        return []
    if len(a) == 1 and len(b) == 1:
        out = [_imul(a[0], b[0])]
    else:
        d = len(a[0])
        out = [[[0] * d for _ in range(d)] for _ in range(len(a) + len(b) - 1)]
        for p, ap in enumerate(a):
            for q, bq in enumerate(b):
                _iadd_into(out[p + q], _imul(ap, bq))
    while out and _is_zero(out[-1]):
        out.pop()
    return out


def nilpotent_powers(a, index=None):
    """[a, a^2, ..., a^q], the nonzero powers of a nilpotent integer matrix
    polynomial a, stopping at the first zero power.  A known nilpotency
    index (a^index = 0) saves forming that power; without one, raises
    NotNilpotent when a^d != 0, d the matrix size."""
    powers = []
    power = a
    while power:
        powers.append(power)
        if len(powers) + 1 == index:
            break
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


def exp_series(d, powers, num, den=(1,)):
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
    """Exact integer engine for one algebra and one rational base direction."""

    def __init__(self, alg, x):
        self.alg = alg
        self.d = d = alg.matrix_dim
        # the nilpotency index of every matrix exponentiated here: each is
        # strictly block triangular (Z, X) or conjugate to one (A2)
        self.terms = len(alg.block_sizes)
        self.forbidden = alg.forbidden_positions
        xm = x.matrix
        self.x_den, self.x_rows = xm.den, (xm.coeffs or [_iident(d, 0)])[0]
        self.extract_scale, self.extract_terms = alg.extract_scale, alg.extract_terms
        # nonzero entries (i, j, value) of each p_+ basis matrix
        self.pplus_entries = [
            [(r // d, r % d, v) for r, v in alg.basis_entries[idx]] for idx in alg.pplus_indices
        ]
        powers = nilpotent_powers([self.x_rows], self.terms)
        self.exp_x_coeffs = exp_series(d, powers, (0, 1), (self.x_den,))  # a multiple of exp(tX)
        # jet forms of ad(-X)^r, built on demand; see _jet_forms
        self._forms = []
        self._duals = [_iunit(d, j, i) for i, j in self.forbidden]

    def combo_rows(self, vals):
        """Integer matrix of the p_+ element with the given grid coordinates."""
        d = self.d
        acc = [[0] * d for _ in range(d)]
        for v, entries in zip(vals, self.pplus_entries):
            if v:
                for i, j, b in entries:
                    acc[i][j] += v * b
        return acc

    # -- scaled integer primitives ------------------------------------------

    def exp_pair(self, z_rows):
        """(num(exp Z), num(exp -Z), den) from one power list of Z, with
        den = q! for q the last nonzero power."""
        powers = nilpotent_powers([z_rows], self.terms)
        (pos,) = exp_series(self.d, powers, (1,))
        (neg,) = exp_series(self.d, powers, (-1,))
        return pos, neg, factorial(len(powers))

    def elem_coords(self, rows, den):
        """Fraction coordinates of an integer-scaled algebra element."""
        flat = [v for row in rows for v in row]
        denom = den * self.extract_scale
        out = []
        for terms in self.extract_terms:
            num = sum(c * flat[r] for c, r in terms)
            out.append(Fraction(num, denom) if num else _F0)
        return tuple(out)

    def solve_direction(self, e_num, einv_num, e_den):
        """Y with proj_n(Ad(exp Z) Y) = X, and its conjugate A2 = Ad(exp Z) Y.

        Returns (y_num, y_den, a2_num, a2_den): Y = y_num / y_den, and A2 =
        a2_num / a2_den is the unprojected conjugate that the converged
        iteration has formed with ``conj``.  The residual X - proj_n(A2)
        lives on the forbidden positions only, because X lies in n.  Each
        conjugation raises the lowest grade of the residual by at least one,
        so it vanishes after at most k conjugations.
        """
        s2 = e_den * e_den
        x_rows, x_den = self.x_rows, self.x_den
        y_num, y_den = x_rows, x_den
        for _ in range(self.alg.k):
            a2_num, a2_den = self.conj(e_num, einv_num, e_den, y_num, y_den)
            x_scale = a2_den // x_den
            resid = [
                (i, j, v)
                for i, j in self.forbidden
                for v in (x_scale * x_rows[i][j] - a2_num[i][j],)
                if v
            ]
            if not resid:
                return y_num, y_den, a2_num, a2_den
            y_num = _iscale(y_num, s2)
            for i, j, v in resid:
                y_num[i][j] += v
            y_den = a2_den
        raise ArithmeticError("direction constraint failed to converge")

    def conj(self, e_num, einv_num, e_den, y_num, y_den):
        """Ad(exp Z) applied to Y, integer-scaled."""
        return _imul(_imul(e_num, y_num), einv_num), y_den * e_den * e_den

    def pair_jet_order(self, a2_num, a2_den, r_max):
        """Consecutive orders r < r_max with ad(-X)^r d0 in p, d0 = X - A2."""
        x_scale = a2_den // self.x_den
        d0 = [
            x_scale * x - a
            for x_row, a_row in zip(self.x_rows, a2_num)
            for x, a in zip(x_row, a_row)
        ]
        for order in range(r_max):
            for form in self._jet_forms(order):
                if sum(c * d0[f] for f, c in form):
                    return order
        return r_max

    def _jet_forms(self, r):
        """The nonzero integer linear forms, on the flat d0, of the forbidden
        entries of ad(-X)^r d0.

        Entry (i, j) of D is tr(E_ji D), and tr(F (D X - X D)) =
        tr((X F - F X) D), so the form of entry (i, j) at order r is read
        off the dual matrix F_r = ad(X)^r E_ji, built once per order.
        """
        forms = self._forms
        d = self.d
        x_rows = self.x_rows
        while len(forms) <= r:
            duals = self._duals
            order_forms = []
            for f in duals:
                form = tuple((a * d + b, f[b][a]) for a in range(d) for b in range(d) if f[b][a])
                if form:
                    order_forms.append(form)
            forms.append(order_forms)
            self._duals = [_isub(_imul(x_rows, f), _imul(f, x_rows)) for f in duals]
        return forms[r]

    def curves_equal(self, a2_num, a2_den):
        """Exact polynomial identity: exp(-t A2) exp(t A1) in the P pattern."""
        left = exp_series(self.d, nilpotent_powers([a2_num], self.terms), (0, -1), (a2_den,))
        return product_in_p_pattern(left, self.exp_x_coeffs, self.forbidden)


def grid_kernel(alg, x):
    """The GridKernel of an algebra and a base direction in it."""
    return GridKernel(alg, x)


# -- polynomial matrices -------------------------------------------------------


def _int_coeffs(c):
    """(nums, den): the integer coefficients of den * c for a rational or a
    Poly c, den the least positive integer that clears c."""
    cs = [Fraction(x) for x in (c.coeffs if isinstance(c, Poly) else (c,))]
    den = lcm(*(x.denominator for x in cs))
    return tuple(int(x * den) for x in cs), den


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
    denominator.  Products convolve ``_imul``; equality cross-multiplies
    the denominators; ``GradedAlgebra.express`` and ``express_poly`` read
    coordinates.  The repr is the constructor call: d, the integer
    coefficients and den.
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

    def _combine(self, other, sign):
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
        return _reduced(self.d, _polymul(self.coeffs, other.coeffs), self.den * other.den)

    def scale(self, c):
        """c * self for a rational or a Poly c."""
        nums, cden = _int_coeffs(c)
        scalar = [_iident(self.d, n) for n in nums]
        return _reduced(self.d, _polymul(self.coeffs, scalar), self.den * cden)

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
