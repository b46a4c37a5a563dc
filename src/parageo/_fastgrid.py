"""The exact integer engine of every p_+ grid search.

Every grid search (``jets``, ``family`` and their worker fan-out) runs its
pairs here, for every catalog algebra and every rational base direction.
The per-pair work (exponentials, conjugation, the direction solve, jet
derivatives at 0, and the polynomial curve-equality check) runs on
plain-int matrices with a tracked positive denominator:

* grid points have integer coordinates and every catalog basis has
  integral matrix entries;
* a base direction X is carried as the integer matrix ``x_den * X``, where
  the direction denominator ``x_den`` is the lcm of the denominators of
  X's entries;
* over the Gaussian field (su21) each entry a + bi is realified as the 2x2
  integer block [[a, -b], [b, a]].  Realification is an injective ring
  homomorphism, so exponentials, conjugation and the P block pattern carry
  over exactly; the forbidden positions and position grades are the 2x2
  blow-ups of the algebra's own.

Scaling by a positive integer never changes whether an entry vanishes, so
every block-pattern test is exact.

One pair costs one ``exp_pair`` (both series, stopped at the first zero
power) and at most k + 1 conjugations inside ``solve_direction``; the
conjugate A2 = Ad(exp Z) Y of the converged iteration is returned with Y
and reused by the jet test and the curve identity.  The jet test makes no
matrix product: the forbidden entries of ad(-X)^r d0 are integer linear
forms in the entries of d0, built once per order r and cached.  Products
skip the zero entries of both factors, since grid matrices are mostly
zeros.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .scalars import FIELD_GAUSSIAN, scalar_re_im

_F0 = Fraction(0)


def _realify(mat, gaussian):
    """(den, rows): the least positive den making den * mat integral, and
    the integer rows of den * mat (Gaussian entries as 2x2 real blocks)."""
    parts = [[scalar_re_im(e) for e in row] for row in mat.rows]
    den = lcm(*(p.denominator for row in parts for re_im in row for p in re_im))
    if not gaussian:
        return den, tuple(tuple(int(re * den) for re, _ in row) for row in parts)
    rows = []
    for row in parts:
        top, bottom = [], []
        for re, im in row:
            a, b = int(re * den), int(im * den)
            top += (a, -b)
            bottom += (b, a)
        rows += (tuple(top), tuple(bottom))
    return den, tuple(rows)


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
        gaussian = alg.field == FIELD_GAUSSIAN
        blow = 2 if gaussian else 1
        # series length: every nilpotent element N of g has N^q = 0
        self.q = alg.matrix_dim
        self.d = d = blow * alg.matrix_dim
        grade = alg.position_grade
        self.forbidden = tuple(
            (i, j) for i in range(d) for j in range(d) if grade[i // blow][j // blow] < 0
        )
        self.x_den, self.x_rows = _realify(x.matrix, gaussian)
        basis_rows = []
        for idx, b in enumerate(alg.basis):
            den, rows = _realify(b, gaussian)
            if den != 1:
                raise ValueError("%s: basis matrix %d is not integral" % (alg.name, idx))
            basis_rows.append(rows)
        # nonzero entries (i, j, value) of each p_+ basis matrix
        self.pplus_entries = [
            [(i, j, v) for i, row in enumerate(basis_rows[idx]) for j, v in enumerate(row) if v]
            for g in range(1, alg.k + 1)
            for idx in alg.grade_slices[g]
        ]
        self._build_extract(blow)
        self.exp_x_coeffs = self._exp_poly_coeffs(self.x_rows, 1, self.x_den)
        # jet forms of ad(-X)^r, built on demand; see _jet_forms
        self._forms = []
        self._duals = [_iunit(d, j, i) for i, j in self.forbidden]

    def _build_extract(self, blow):
        # integer-scaled copy of the algebra's pivot-row coordinate extractor;
        # a pivot row of the re/im-split vectorization maps to the entry of
        # the realified matrix that holds that part
        alg = self.alg
        scale = lcm(*(Fraction(e).denominator for row in alg._extractor.rows for e in row))
        flat = []
        for pr in alg._pivot_rows:
            if blow == 1:
                flat.append(pr)
            else:
                ij, part = divmod(pr, 2)
                i, j = divmod(ij, self.q)
                flat.append((2 * i + part) * self.d + 2 * j)
        self.extract_scale = scale
        self.extract_terms = [
            [(int(e * scale), r) for e, r in zip(row, flat) if e] for row in alg._extractor.rows
        ]

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
        """(num(exp Z), num(exp -Z), den) with den = (q-1)!."""
        den = factorial(self.q - 1)
        pos_acc = _iident(self.d, den)
        neg_acc = _iident(self.d, den)
        power = z_rows
        for p in range(1, self.q):
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
        lives on the forbidden positions only, because X lies in n.
        """
        s2 = e_den * e_den
        x_rows, x_den = self.x_rows, self.x_den
        y_num, y_den = x_rows, x_den
        for _ in range(self.alg.k + 1):
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
        q = self.q
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
