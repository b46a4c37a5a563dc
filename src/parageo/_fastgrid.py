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
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .scalars import FIELD_GAUSSIAN, scalar_re_im


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
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def _iadd(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _isub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _iscale(a, c):
    return tuple(tuple(c * x for x in row) for row in a)


def _iident(d, one=1):
    return tuple(tuple(one if i == j else 0 for j in range(d)) for i in range(d))


def _is_zero(a):
    return all(not x for row in a for x in row)


def _commute_right(d_rows, x_rows):
    # ad(-X) step: D X - X D
    return _isub(_imul(d_rows, x_rows), _imul(x_rows, d_rows))


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
        self.position_grade = tuple(
            tuple(grade[i // blow][j // blow] for j in range(d)) for i in range(d)
        )
        self.forbidden = tuple(
            (i, j) for i in range(d) for j in range(d) if self.position_grade[i][j] < 0
        )
        self.x_den, self.x_rows = _realify(x.matrix, gaussian)
        self.basis_rows = []
        for idx, b in enumerate(alg.basis):
            den, rows = _realify(b, gaussian)
            if den != 1:
                raise ValueError("%s: basis matrix %d is not integral" % (alg.name, idx))
            self.basis_rows.append(rows)
        self.pplus_idx = [i for g in range(1, alg.k + 1) for i in alg.grade_slices[g]]
        self._build_extract(blow)
        self.exp_x_coeffs = self._exp_poly_coeffs(self.x_rows, 1, self.x_den)

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
        for v, idx in zip(vals, self.pplus_idx):
            if not v:
                continue
            b = self.basis_rows[idx]
            for i in range(d):
                row = b[i]
                for j in range(d):
                    if row[j]:
                        acc[i][j] += v * row[j]
        return tuple(tuple(r) for r in acc)

    # -- scaled integer primitives ------------------------------------------

    def exp_pair(self, z_rows):
        """(num(exp Z), num(exp -Z), den) with den = (q-1)!."""
        den = factorial(self.q - 1)
        pos_acc = _iident(self.d, den)
        neg_acc = _iident(self.d, den)
        power = None
        for p in range(1, self.q):
            power = z_rows if power is None else _imul(power, z_rows)
            if _is_zero(power):
                break
            c = den // factorial(p)
            term = _iscale(power, c)
            pos_acc = _iadd(pos_acc, term)
            neg_acc = _iadd(neg_acc, term) if p % 2 == 0 else _isub(neg_acc, term)
        return pos_acc, neg_acc, den

    def _negproj(self, rows):
        d = self.d
        grade = self.position_grade
        return tuple(
            tuple(rows[i][j] if grade[i][j] < 0 else 0 for j in range(d)) for i in range(d)
        )

    def elem_coords(self, rows, den):
        """Fraction coordinates of an integer-scaled algebra element."""
        flat = [v for row in rows for v in row]
        denom = den * self.extract_scale
        return tuple(
            Fraction(sum(c * flat[r] for c, r in terms), denom)
            for terms in self.extract_terms
        )

    def solve_direction(self, e_num, einv_num, e_den):
        """Y with proj_n(Ad Y) = X; returns (num, den)."""
        s2 = e_den * e_den
        y_num, y_den = self.x_rows, self.x_den
        for _ in range(self.alg.k + 1):
            img = self._negproj(_imul(_imul(e_num, y_num), einv_num))
            img_den = y_den * s2
            resid = _isub(_iscale(self.x_rows, img_den // self.x_den), img)
            if _is_zero(resid):
                return y_num, y_den
            y_num = _iadd(_iscale(y_num, s2), resid)
            y_den = img_den
        raise ArithmeticError("direction constraint failed to converge")

    def conj(self, e_num, einv_num, e_den, y_num, y_den):
        """Ad(exp Z) applied to Y, integer-scaled."""
        return _imul(_imul(e_num, y_num), einv_num), y_den * e_den * e_den

    def pair_jet_order(self, a2_num, a2_den, r_max):
        d0 = _isub(_iscale(self.x_rows, a2_den // self.x_den), a2_num)
        order = 0
        d_rows = d0
        while order < r_max and self._in_p(d_rows):
            order += 1
            d_rows = _commute_right(d_rows, self.x_rows)
        return order

    def _in_p(self, rows):
        return all(not rows[i][j] for i, j in self.forbidden)

    def _exp_poly_coeffs(self, a_rows, num_scale, den_scale):
        """Coefficient matrices of exp(t A/den_scale) * common positive scale.

        coeff of t^p is A^p num_scale^p / (p! den_scale^p); scaled by
        (q-1)! * den_scale^(q-1) everything is integral.
        """
        q = self.q
        coeffs = [_iident(self.d, factorial(q - 1) * den_scale ** (q - 1))]
        power = _iident(self.d)
        for p in range(1, q):
            power = _imul(power, a_rows)
            if _is_zero(power):
                break
            c = (factorial(q - 1) // factorial(p)) * (num_scale**p) * den_scale ** (q - 1 - p)
            coeffs.append(_iscale(power, c))
        return coeffs

    def curves_equal(self, a2_num, a2_den):
        """Exact polynomial identity: exp(-t A2) exp(t A1) in the P pattern."""
        left = self._exp_poly_coeffs(a2_num, -1, a2_den)
        right = self.exp_x_coeffs
        deg = len(left) + len(right) - 2
        for r in range(deg + 1):
            acc = None
            for p in range(max(0, r - len(right) + 1), min(r, len(left) - 1) + 1):
                term = _imul(left[p], right[r - p])
                acc = term if acc is None else _iadd(acc, term)
            if acc is not None and not self._in_p(acc):
                return False
        return True


def grid_kernel(alg, x):
    """The GridKernel of an algebra and a base direction in it."""
    return GridKernel(alg, x)
