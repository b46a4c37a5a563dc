"""The exact integer engine: grid pairs and polynomial matrices.

``IntPolyMat`` (at the end of this module) is the one polynomial-matrix
type of the library: comparison curves, curve equality, the lemma identity
checkers and the normal-coordinate jet of ``curves``, the
reparametrization check of ``reparam`` and the orbit probes of ``lab`` all
run on it.  It shares ``_imul`` with the grid kernel below, and both read
coordinates through the algebra's one integer extractor
(``GradedAlgebra.integer_frame``; ``GradedAlgebra.express_poly`` for an
``IntPolyMat``).

Every grid search (``jets``, ``family`` and their worker fan-out) runs its
pairs here, for every catalog algebra and every rational base direction.
The per-pair work (exponentials, conjugation, the direction solve, jet
derivatives at 0, and the polynomial curve-equality check) runs on
plain-int matrices with a tracked positive denominator:

* grid points have integer coordinates and every catalog basis has
  integral matrix entries;
* a base direction X is carried as the integer matrix ``x_den * X``, where
  the direction denominator ``x_den`` is the lcm of the denominators of
  X's entries.  Every catalog algebra has rational entries (su21 is
  realified at build time), so the forbidden positions are the algebra's
  own.

Scaling by a positive integer never changes whether an entry vanishes, so
every block-pattern test is exact.

One pair costs one ``exp_pair`` (both series, stopped at the first zero
power) and at most k conjugations inside ``solve_direction``; the
conjugate A2 = Ad(exp Z) Y of the converged iteration is returned with Y
and reused by the jet test and the curve identity.  The jet test makes no
matrix product: the forbidden entries of ad(-X)^r d0 are integer linear
forms in the entries of d0, built once per order r and cached.  Products
skip the zero entries of both factors, since grid matrices are mostly
zeros.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import factorial, gcd, lcm

from .errors import NotNilpotent
from .matrices import Mat
from .poly import Poly

_F0 = Fraction(0)


def _integral(mat):
    """(den, rows): the least positive den making den * mat integral, and
    the integer rows of den * mat."""
    rows = [[Fraction(e) for e in row] for row in mat.rows]
    den = lcm(*(e.denominator for row in rows for e in row))
    return den, tuple(tuple(int(e * den) for e in row) for row in rows)


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
    return [[one if i == j else 0 for j in range(d)] for i in range(d)]


def _iunit(d, i, j):
    """The d x d unit matrix E_ij."""
    return [[1 if (a, b) == (i, j) else 0 for b in range(d)] for a in range(d)]


def _is_zero(a):
    return not any(map(any, a))


class GridKernel:
    """Exact integer engine for one algebra and one rational base direction."""

    def __init__(self, alg, x):
        self.alg = alg
        self.d = d = alg.matrix_dim
        # the exponential series length is the block count n: every matrix
        # exponentiated here is strictly block triangular (Z in p_+, X in
        # n) or conjugate to one (A2 = Ad(exp Z) Y with Y in n), so its
        # n-th power is zero.  n = k+1, except for the conformal 3-block
        # form (1, p+q, 1), where k = 1 and n = 3
        self.terms = len(alg.block_sizes)
        self.forbidden = alg.forbidden_positions
        self.x_den, self.x_rows = _integral(x.matrix)
        self.extract_scale, self.extract_terms, basis = alg.integer_frame()
        # nonzero entries (i, j, value) of each p_+ basis matrix
        self.pplus_entries = [[(r // d, r % d, v) for r, v in basis[idx]] for idx in alg.pplus_indices]
        self.exp_x_coeffs = self._exp_poly_coeffs(self.x_rows, 1, self.x_den)
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
        """(num(exp Z), num(exp -Z), den) with den = (n-1)!, n = terms."""
        den = factorial(self.terms - 1)
        pos_acc = _iident(self.d, den)
        neg_acc = _iident(self.d, den)
        power = z_rows
        for p in range(1, self.terms):
            if p > 1:
                power = _imul(power, z_rows)
            if _is_zero(power):
                break
            c = den // factorial(p)
            c_neg = -c if p % 2 else c
            for pos_row, neg_row, row in zip(pos_acc, neg_acc, power):
                for j, v in enumerate(row):
                    if v:
                        pos_row[j] += c * v
                        neg_row[j] += c_neg * v
        return pos_acc, neg_acc, den

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

    def _exp_poly_coeffs(self, a_rows, num_scale, den_scale):
        """Coefficient matrices of exp(t A/den_scale) * common positive scale.

        coeff of t^p is A^p num_scale^p / (p! den_scale^p); scaled by
        (q-1)! * den_scale^(q-1) everything is integral.
        """
        q = self.terms
        coeffs = [_iident(self.d, factorial(q - 1) * den_scale ** (q - 1))]
        power = a_rows
        for p in range(1, q):
            if p > 1:
                power = _imul(power, a_rows)
            if _is_zero(power):
                break
            c = (factorial(q - 1) // factorial(p)) * (num_scale**p) * den_scale ** (q - 1 - p)
            coeffs.append(_iscale(power, c))
        return coeffs

    def curves_equal(self, a2_num, a2_den):
        """Exact polynomial identity: exp(-t A2) exp(t A1) in the P pattern.

        Only the forbidden entries of each t^r coefficient are formed.
        """
        left = self._exp_poly_coeffs(a2_num, -1, a2_den)
        right = self.exp_x_coeffs
        d = self.d
        for r in range(len(left) + len(right) - 1):
            pairs = [
                (left[p], right[r - p])
                for p in range(max(0, r - len(right) + 1), min(r, len(left) - 1) + 1)
            ]
            for i, j in self.forbidden:
                if sum(lm[i][m] * rm[m][j] for lm, rm in pairs for m in range(d)):
                    return False
        return True


def grid_kernel(alg, x):
    """The GridKernel of an algebra and a base direction in it."""
    return GridKernel(alg, x)


# -- polynomial matrices -------------------------------------------------------


def _iadd_into(acc, b, c=1):
    """acc += c * b in place."""
    for acc_row, b_row in zip(acc, b):
        for j, y in enumerate(b_row):
            if y:
                acc_row[j] += c * y


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
    the denominators; ``GradedAlgebra.express_poly`` reads coordinates.
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

    @classmethod
    def from_mats(cls, mats):
        """sum_p t^p mats[p] for constant rational Mats of one size."""
        ints = [_integral(m) for m in mats]
        den = lcm(*(dn for dn, _ in ints))
        return cls(mats[0].nrows, [_iscale(rows, den // dn) for dn, rows in ints], den)

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
        d = self.d
        a, b = self.coeffs, other.coeffs
        out = [[[0] * d for _ in range(d)] for _ in range(len(a) + len(b) - 1)]
        for p, ap in enumerate(a):
            for q, bq in enumerate(b):
                _iadd_into(out[p + q], _imul(ap, bq))
        return _reduced(d, out, self.den * other.den)

    def scale(self, c):
        """c * self for a rational or a Poly c."""
        cs = [Fraction(x) for x in (c.coeffs if isinstance(c, Poly) else (c,))]
        cden = lcm(*(x.denominator for x in cs))
        nums = [int(x * cden) for x in cs]
        d = self.d
        out = [[[0] * d for _ in range(d)] for _ in range(len(self.coeffs) + len(nums) - 1)]
        for p, cp in enumerate(self.coeffs):
            for i, num in enumerate(nums):
                if num:
                    _iadd_into(out[p + i], cp, num)
        return _reduced(d, out, self.den * cden)

    def truncate(self, order):
        """The terms of degree <= order."""
        return IntPolyMat(self.d, self.coeffs[: order + 1], self.den)

    def derivative(self):
        return IntPolyMat(self.d, [_iscale(c, p) for p, c in enumerate(self.coeffs)][1:], self.den)

    def exp(self, scale=1):
        """exp(scale * self) of a nilpotent self, scale a rational or a Poly.

        The finite series I + sum_p scale^p self^p / p!, stopped at the
        first zero power.  Raises NotNilpotent when self^d != 0.
        """
        acc = IntPolyMat.identity(self.d)
        power = self
        scale_pow = 1
        for p in range(1, self.d):
            if power.is_zero():
                return acc
            scale_pow = scale_pow * scale
            acc = acc + power.scale(scale_pow * Fraction(1, factorial(p)))
            power = power * self
        if not power.is_zero():
            raise NotNilpotent("matrix is not nilpotent")
        return acc

    def __eq__(self, other):
        if not isinstance(other, IntPolyMat):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        fa, fb = other.den, self.den
        return all(
            fa * x == fb * y
            for ca, cb in zip(self.coeffs, other.coeffs)
            for ra, rb in zip(ca, cb)
            for x, y in zip(ra, rb)
        )

    __hash__ = None

    def in_p_pattern(self, alg):
        """True when every coefficient vanishes at the forbidden positions."""
        return all(not c[i][j] for c in self.coeffs for i, j in alg.forbidden_positions)

    def to_mat(self):
        """The same matrix as a Mat with Poly entries."""
        d, den = self.d, self.den
        return Mat(
            tuple(
                tuple(Poly(tuple(Fraction(c[i][j], den) for c in self.coeffs)) for j in range(d))
                for i in range(d)
            )
        )

    def __repr__(self):
        return "IntPolyMat(%s)" % self.to_mat()
