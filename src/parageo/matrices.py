"""Exact square matrices over any of the library's rings.

``Mat`` is entry-agnostic: entries may be Fraction, Poly or any other
exact commutative ring element (the tests' su21 group check takes one
complex determinant), and all operations go through the entries' own exact
arithmetic.  A Fraction 0 stands for the zero of any entry ring, and
``scale`` keeps a zero entry as it is.  Determinants use Laplace expansion
memoized over column masks, which is exact over any commutative ring; the
memo holds up to 2^n minors.  Row reduction is for field entries only:
``inverse`` is the right half of rref([M | I]), taken once per user group
matrix, and every rank and span test runs on ``echelon``, which reduces
one row at a time and stops once every column has a pivot.  The curve
code inverts no polynomial matrix: every inverse it needs is known in
closed form, as exp(-Z), exp(-tA) or exp(-Y(t)).

Which engine runs where: ``Mat`` is the oracles' type.  The test
references compute on ``Mat``s with ``Fraction`` or ``Poly`` entries, and
the tests' user-style group matrices are ``Fraction`` ``Mat``s, validated
and converted to integers under ``tests/``.  No other package module
names ``Mat``, and no command of the command line constructs one: the
catalog builds each basis matrix as its integer entries, ``GradedAlgebra``
reads them into one integer coordinate frame (two ``rref`` calls on
the integer entries), and every other matrix, constant or polynomial, is an
integer ``_fastgrid.IntPolyMat`` (elements, group elements, Ad, the normal
form, every nilpotent exponential, the curves, identities, jets, orbits,
Prop. 4.1 and the grid kernel), and every grid pair runs on the integer
polynomials of ``_fastgrid.PairSystem``.
"""

from __future__ import annotations

from fractions import Fraction


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
        return Mat(tuple(tuple(c * a if a else a for a in r) for r in self.rows))

    def map(self, f):
        return Mat(tuple(tuple(f(a) for a in r) for r in self.rows))

    def transpose(self):
        return Mat(tuple(zip(*self.rows)))

    def trace(self):
        return sum(self.rows[i][i] for i in range(self.dim))

    def is_zero(self):
        return all(not a for r in self.rows for a in r)

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

    def inverse(self):
        """Exact inverse over a field: the right half of rref([M | I])."""
        n = self.dim
        ident = Mat.identity(n).rows
        reduced, pivots = rref([row + e for row, e in zip(self.rows, ident)])
        if pivots != list(range(n)):
            raise ZeroDivisionError("singular matrix")
        return Mat(row[n:] for row in reduced)

    def __str__(self):
        return "[%s]" % "; ".join(", ".join(str(a) for a in r) for r in self.rows)

    __repr__ = __str__


def _dot(row, col):
    acc = 0
    for a, b in zip(row, col):
        if a and b:
            acc = acc + a * b
    return acc + Fraction(0) * row[0] if isinstance(acc, int) else acc


def rref(rows):
    """Reduced row echelon form over a field; returns (rows, pivot columns).
    An int lead becomes a Fraction, so int rows divide exactly."""
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
        if isinstance(lead, int):
            lead = Fraction(lead)
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


def remainder(row, kept):
    """``row`` with the pivot column of each ``echelon`` row cleared in
    turn: zero iff the row lies in their span."""
    for c, e in kept:
        f = row[c]
        if f:
            row = [a - f * b if b else a for a, b in zip(row, e)]
    return row


def echelon(rows):
    """(pivot column, row) pairs spanning ``rows`` over a field.  Each row's
    nonzero remainder against the rows kept so far is kept, scaled to 1 at
    its first nonzero column, so it is zero at every earlier pivot.  The
    lead is a Fraction, so int rows divide exactly.  The scan stops once
    every column has a pivot."""
    kept = []
    for row in rows:
        rest = remainder(row, kept)
        c = next((j for j, a in enumerate(rest) if a), None)
        if c is not None:
            lead = Fraction(rest[c])
            kept.append((c, [a / lead for a in rest]))
            if len(kept) == len(rest):
                break
    return kept


def rank(rows):
    return len(echelon(rows))
