"""Exact square matrices over any of the library's rings.

``Mat`` is entry-agnostic: entries may be Fraction, GaussianRational, Poly or
RatFun, and all operations go through the entries' own exact arithmetic.
Determinants use Laplace expansion memoized over column masks, which is
exact over any commutative ring.  The memo holds up to 2^n minors per
determinant: cheap for the group and polynomial matrices of the curve
checks (at most 6x6), but ``inverse`` (n^2 such determinants for the
adjugate) also inverts the dim x dim coordinate extractor of every algebra
build, 35 x 35 for proj(5), where it stays affordable only because the
catalog bases are mostly zeros (about a quarter of that build's time).
Row reduction (rref / kernel / solve) is for field entries only.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DeterminantNotOne


class Mat:
    """Immutable square (or rectangular) matrix with exact entries."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in rows))

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @classmethod
    def identity(cls, n):
        one, zero = Fraction(1), Fraction(0)
        return cls(tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, n, m=None):
        m = n if m is None else m
        z = Fraction(0)
        return cls(tuple((z,) * m for _ in range(n)))

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    @property
    def dim(self):
        if self.nrows != self.ncols:
            raise ValueError("dim requested for a non-square matrix")
        return self.nrows

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.shape == other.shape and all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def __hash__(self):
        return hash(self.rows)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __add__(self, other):
        return Mat(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def __sub__(self, other):
        return Mat(
            tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def __neg__(self):
        return Mat(tuple(tuple(-a for a in r) for r in self.rows))

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.ncols != other.nrows:
                raise ValueError("incompatible shapes %s * %s" % (self.shape, other.shape))
            cols = tuple(zip(*other.rows))
            return Mat(
                tuple(
                    tuple(_dot(row, col) for col in cols)
                    for row in self.rows
                )
            )
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        return Mat(tuple(tuple(c * a for a in r) for r in self.rows))

    def map(self, f):
        return Mat(tuple(tuple(f(a) for a in r) for r in self.rows))

    def transpose(self):
        return Mat(tuple(zip(*self.rows)))

    def trace(self):
        return sum(self.rows[i][i] for i in range(self.dim))

    def is_zero(self):
        return all(not a for r in self.rows for a in r)

    def derivative(self):
        """Entrywise formal derivative; scalar entries are constants."""
        return self.map(
            lambda e: e.derivative() if hasattr(e, "derivative") else Fraction(0)
        )

    def truncate(self, order):
        """Entrywise series truncation; scalar entries pass through."""
        return self.map(lambda e: e.truncate(order) if hasattr(e, "truncate") else e)

    def eval(self, x):
        return Mat(tuple(tuple(_eval_entry(a, x) for a in r) for r in self.rows))

    def det(self):
        n = self.dim
        if n == 0:
            return Fraction(1)
        rows = self.rows
        memo = {}
        full = (1 << n) - 1

        def minor(i, mask):
            if i == n:
                return Fraction(1)
            key = mask
            got = memo.get(key)
            if got is not None:
                return got
            total = 0
            sign = 1
            for j in range(n):
                bit = 1 << j
                if not (mask & bit):
                    continue
                e = rows[i][j]
                if e:
                    total = total + sign * e * minor(i + 1, mask & ~bit)
                # sign alternates over the *available* columns only
                sign = -sign
            memo[key] = total
            return total

        return minor(0, full) + Fraction(0) * rows[0][0]

    def adjugate(self):
        """Classical adjugate: self * adj = det * identity, exactly."""
        n = self.dim
        cof = []
        for i in range(n):
            row = []
            for j in range(n):
                sub = Mat(
                    tuple(
                        tuple(self.rows[r][c] for c in range(n) if c != j)
                        for r in range(n)
                        if r != i
                    )
                )
                sign = 1 if (i + j) % 2 == 0 else -1
                row.append(sign * sub.det())
            cof.append(row)
        return Mat(cof).transpose()

    def inverse(self):
        """Exact inverse over a field (entries must support division)."""
        d = self.det()
        if not d:
            raise ZeroDivisionError("singular matrix")
        return self.adjugate().map(lambda e: e / d)

    def nilpotency_index(self, max_power=None):
        """Smallest q >= 1 with self**q = 0, or None if not nilpotent.

        A nilpotent d x d matrix always satisfies M**d = 0, so powers are
        only tried up to the dimension (cheap and exact).
        """
        limit = max_power if max_power is not None else self.dim
        p = self
        for q in range(1, limit + 1):
            if p.is_zero():
                return q
            p = p * self
        return None

    def __str__(self):
        return "[%s]" % "; ".join(", ".join(str(a) for a in r) for r in self.rows)

    __repr__ = __str__


def _dot(row, col):
    acc = 0
    for a, b in zip(row, col):
        if a and b:
            acc = acc + a * b
    return acc + Fraction(0) * row[0] if isinstance(acc, int) else acc


def _eval_entry(e, x):
    return e.eval(x) if hasattr(e, "eval") else e


def mat_inverse_unimodular(m):
    """Adjugate inverse for det(m) = 1; exact over Poly/RatFun entries too.

    Raises DeterminantNotOne when the determinant is not the constant 1.
    """
    d = m.det()
    if d != 1:
        raise DeterminantNotOne("determinant is %s, not 1" % (d,))
    return m.adjugate()


def rref(rows):
    """Reduced row echelon form over a field; returns (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        pr = None
        for i in range(r, nr):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return [tuple(row) for row in rows], pivots


def kernel_basis(m):
    """Exact basis of the null space of a scalar matrix; [] iff injective."""
    if isinstance(m, Mat):
        rows = m.rows
    else:
        rows = tuple(tuple(r) for r in m)
    if not rows:
        return []
    nc = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return basis


def solve_linear(a_rows, b):
    """One exact solution x of A x = b, or None when inconsistent."""
    if not a_rows:
        return ()
    rows = [list(r) + [bv] for r, bv in zip(a_rows, b)]
    nc = len(a_rows[0])
    red, pivots = rref(rows)
    if nc in pivots:
        return None
    x = [Fraction(0)] * nc
    for r, pc in enumerate(pivots):
        x[pc] = red[r][-1]
    return tuple(x)


def rank(rows):
    return len(rref(rows)[1])
