"""|k|-graded matrix Lie algebras with parabolic structure.

A ``GradedAlgebra`` is a concrete matrix realization: a basis of constant
matrices organized by grade -k..k, together with the block structure of the
flag the parabolic stabilizes.  Row/column weights induced by the blocks
assign a grade to every matrix position; each basis matrix of grade i
occupies only positions of grade i, which makes membership tests (in p, in
n, in a single grade) exact coordinate-vanishing tests and makes the
P / G0 block patterns simple position tests on group matrices.

Matrix entries and coordinates are rationals.  A complex realization is
realified by the catalog before it gets here (su(2,1) as 2x2 real blocks),
so the coordinates of a matrix are read off its entries directly.

The catalog gives each basis matrix as its nonzero integer entries
{(row, col): int}, read at construction into ``basis_entries`` (a
non-integer entry or one off the matrix's grade raises ``ValueError``).
Two ``rref`` calls on the integer entries (the only ``Fraction`` arithmetic
of the build) give one integer frame: the extractor terms over one scale.
Past that every constant matrix is an integer ``IntPolyMat``: an
element's matrix (summed on the basis entries), a ``GroupElem``'s matrix
and inverse, and the Ad and normal-form products.  One integer reader
with its span check always on gives the coordinates of ``express`` (a
constant matrix), ``express_poly`` (each coefficient of a curve) and of
every commutator in the bracket table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from ._fastgrid import IntPolyMat, _imul, _isub, _reduced, nilpotent_powers
from .errors import (
    AlgebraMismatch,
    NotInNilpotentPart,
    NotInParabolic,
    NotNilpotent,
)
from .matrices import rref
from .poly import Poly

_ZERO = Fraction(0)
_ONE = Fraction(1)


class GradedAlgebra:
    """A |k|-graded matrix Lie algebra from the catalog.

    ``n_indices`` and ``pplus_indices`` are the basis indices of n = g_-
    and of p_+ = g_+, grades ascending: the coordinate order of a direction
    X in n and of a grid point Z in p_+.
    """

    def __init__(self, name, family, params, k, block_sizes, basis_by_grade, meta=None):
        self.name = name
        self.family = family
        self.params = dict(params)
        self.k = k
        self.block_sizes = tuple(block_sizes)
        self.meta = dict(meta or {})
        self.matrix_dim = sum(block_sizes)

        # consecutive blocks differ by weight 1, descending left to right
        nblocks = len(self.block_sizes)
        weights = []
        for b, size in enumerate(self.block_sizes):
            weights.extend([nblocks - 1 - b] * size)

        d = self.matrix_dim
        self.position_grade = tuple(
            tuple(weights[i] - weights[j] for j in range(d)) for i in range(d)
        )
        self.forbidden_positions = tuple(
            (i, j) for i in range(d) for j in range(d) if self.position_grade[i][j] < 0
        )

        # the basis, grades ascending: each matrix as its nonzero integer
        # entries (r, v) at row-major positions r = i*d + j
        entries, grades, self.grade_slices = [], [], {}
        for grade in range(-k, k + 1):
            start = len(entries)
            for m in basis_by_grade.get(grade, ()):
                for (i, j), v in m.items():
                    if not isinstance(v, int):
                        raise ValueError("%s: basis matrix %d is not integral" % (name, len(entries)))
                    if self.position_grade[i][j] != grade:
                        raise ValueError("%s: basis matrix %d leaves grade %d" % (name, len(entries), grade))
                entries.append(tuple(sorted((i * d + j, v) for (i, j), v in m.items())))
            self.grade_slices[grade] = range(start, len(entries))
            grades.extend([grade] * (len(entries) - start))
        self.basis_entries = tuple(entries)
        self.basis_grades = tuple(grades)
        self.dim = len(entries)
        self.n_indices = tuple(i for i, g in enumerate(self.basis_grades) if g < 0)
        self.pplus_indices = tuple(i for i, g in enumerate(self.basis_grades) if g > 0)

        self._build_frame()
        self._build_bracket_table()
        ident = IntPolyMat.identity(d)
        self._identity = GroupElem(self, ident, ident)

    # -- construction helpers ------------------------------------------------

    def _build_frame(self):
        # Let B have one column per basis matrix, flattened row-major (entry
        # (i, j) at r = i*d + j).  The rows R of B taken greedily while they
        # stay independent are the pivot columns of rref(B^T); coords of v
        # in span(B) are inv(B[R]) @ v[R], and inv(B[R]) is the right half
        # of rref([B[R] | I])
        n = self.dim
        vecs = [[0] * self.matrix_dim**2 for _ in range(n)]
        for vec, entries in zip(vecs, self.basis_entries):
            for r, v in entries:
                vec[r] = v
        chosen = rref(vecs)[1]
        if len(chosen) != n:
            raise ValueError("%s: basis matrices are linearly dependent" % self.name)
        augmented = [
            [vec[r] for vec in vecs] + [int(c == i) for c in range(n)] for i, r in enumerate(chosen)
        ]
        inverse = [row[n:] for row in rref(augmented)[0]]
        # the integer frame: coordinate m of a matrix with row-major entries
        # v is sum(c * v[r] for c, r in extract_terms[m]) / extract_scale;
        # catalog bases are almost all unit matrices, so the terms are short
        scale = lcm(*(e.denominator for row in inverse for e in row))
        self.extract_scale = scale
        self.extract_terms = tuple(
            tuple((int(e * scale), r) for r, e in zip(chosen, row) if e) for row in inverse
        )

    def _build_bracket_table(self):
        # [b_i, b_j] on the integer basis, for i <= j only: the (j, i) entry
        # is the exact negative, since the coordinates are linear in the
        # matrix; most coordinates are 0, so they share one zero
        d, n = self.matrix_dim, self.dim
        mats = [[[0] * d for _ in range(d)] for _ in range(n)]
        for rows, entries in zip(mats, self.basis_entries):
            for r, v in entries:
                rows[r // d][r % d] = v
        zeros = (_ZERO,) * n
        table = [[zeros] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                comm = _isub(_imul(mats[i], mats[j]), _imul(mats[j], mats[i]))
                if not any(map(any, comm)):
                    continue
                nums = self._read([v for row in comm for v in row])
                if nums is None:
                    raise ValueError("%s: bracket of basis pair leaves the span" % self.name)
                table[i][j] = tuple(Fraction(c, self.extract_scale) if c else _ZERO for c in nums)
                table[j][i] = tuple(-c if c else _ZERO for c in table[i][j])
        self.bracket_table = tuple(tuple(row) for row in table)

    # -- coordinates ---------------------------------------------------------

    def _read(self, flat):
        """The integer coordinates (times ``extract_scale``) of the integer
        matrix with row-major entries ``flat``, or None off the span."""
        nums = [sum(c * flat[r] for c, r in terms) for terms in self.extract_terms]
        # span check: sum_m nums[m] B_m must equal scale * flat everywhere
        acc = [0] * len(flat)
        for num, entries in zip(nums, self.basis_entries):
            if num:
                for r, v in entries:
                    acc[r] += num * v
        scale = self.extract_scale
        return nums if all(a == scale * v for a, v in zip(acc, flat)) else None

    def express(self, pm):
        """Coordinates of a constant IntPolyMat ``pm`` over the basis, or
        None when pm leaves the span of the basis."""
        if len(pm.coeffs) > 1:
            raise ValueError("express reads a constant matrix; use express_poly for a curve")
        flat = [v for c in pm.coeffs for row in c for v in row] or [0] * pm.d**2
        nums = self._read(flat)
        den = self.extract_scale * pm.den
        return None if nums is None else tuple(Fraction(c, den) if c else _ZERO for c in nums)

    def express_poly(self, pm):
        """Poly coordinates of an IntPolyMat curve ``pm`` in g, or None
        when some coefficient leaves the span of the basis."""
        nums = []
        for c in pm.coeffs:
            cn = self._read([v for row in c for v in row])
            if cn is None:
                return None
            nums.append(cn)
        # a zero coefficient is the int 0, as Poly arithmetic leaves it (P_T
        # is Poly((0, 1))), so these Polys repr like the Poly-entry ones
        den = self.extract_scale * pm.den
        return tuple(
            Poly(tuple(Fraction(cn[m], den) if cn[m] else 0 for cn in nums)) for m in range(self.dim)
        )

    # -- element constructors ------------------------------------------------

    def elem(self, coords):
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != self.dim:
            raise ValueError("expected %d coordinates, got %d" % (self.dim, len(coords)))
        return AlgElem(self, coords)

    def zero_elem(self):
        return AlgElem(self, (_ZERO,) * self.dim)

    def elem_at(self, indices, vals):
        """The element with Fraction(v) at each basis index and 0 elsewhere."""
        coords = [_ZERO] * self.dim
        for i, v in zip(indices, vals, strict=True):
            coords[i] = Fraction(v)
        return AlgElem(self, tuple(coords))

    def basis_elem(self, idx):
        return self.elem_at((idx,), (_ONE,))

    def grade_basis(self, grade):
        return [self.basis_elem(i) for i in self.grade_slices[grade]]

    def elem_from_matrix(self, pm):
        """The element whose matrix is the constant IntPolyMat ``pm``, or
        None when pm leaves the span of the basis."""
        coords = self.express(pm)
        return None if coords is None else AlgElem(self, coords)

    def elem_from_grade_coords(self, grade_coords):
        """Element from {grade: coordinate list} over the per-grade bases."""
        indices, vals = [], []
        for grade, gvals in grade_coords.items():
            sl = self.grade_slices[grade]
            if len(gvals) != len(sl):
                raise ValueError("grade %d expects %d coordinates" % (grade, len(sl)))
            indices.extend(sl)
            vals.extend(gvals)
        return self.elem_at(indices, vals)

    def group_identity(self):
        """The identity of G, its inverse known."""
        return self._identity

    # -- bracket through the structure table ---------------------------------

    def bracket_coords(self, cx, cy):
        out = [_ZERO] * self.dim
        table = self.bracket_table
        for i, a in enumerate(cx):
            if not a:
                continue
            for j, b in enumerate(cy):
                if not b:
                    continue
                ab = a * b
                for m, c in enumerate(table[i][j]):
                    if c:
                        out[m] += ab * c
        return tuple(out)

    def position_part(self, pm, keep):
        """The IntPolyMat ``pm`` with every entry whose position grade
        fails ``keep`` set to 0."""
        grades = self.position_grade
        return IntPolyMat(
            pm.d,
            [
                [[x if keep(g) else 0 for x, g in zip(row, grow)] for row, grow in zip(c, grades)]
                for c in pm.coeffs
            ],
            pm.den,
        )

    # -- structural invariants ------------------------------------------------

    def structure_violations(self):
        """Grading, Jacobi and nilpotency checks over the basis.

        Jacobi is checked as "ad is a representation": [ad b_i, ad b_j] =
        sum_m c_ij^m ad b_m for i < j, column by column on the sparse
        structure constants c of ``bracket_table``.  Returns a list of
        human-readable violation strings (empty = pass); a Jacobi failure
        names its pair (i, j) once.
        """
        bad = []
        n = self.dim
        for i in range(n):
            gi_ = self.basis_grades[i]
            if abs(gi_) >= 1:
                try:
                    nilpotent_powers(self.basis_elem(i).matrix.coeffs)
                except NotNilpotent:
                    bad.append("basis[%d] of grade %d is not nilpotent" % (i, gi_))
            for j in range(n):
                gj = self.basis_grades[j]
                target = gi_ + gj
                for m, c in enumerate(self.bracket_table[i][j]):
                    if c and self.basis_grades[m] != target:
                        bad.append(
                            "[g_%d, g_%d] leaks into grade %d (basis %d,%d)"
                            % (gi_, gj, self.basis_grades[m], i, j)
                        )
        # sparse[i][l] = nonzero (m, c) of [b_i, b_l], the column l of ad b_i
        sparse = [[[(m, c) for m, c in enumerate(col) if c] for col in row] for row in self.bracket_table]

        def apply(i, col):
            # ad b_i applied to the vector with nonzero entries ``col``
            out = {}
            for a, c in col:
                for m, e in sparse[i][a]:
                    out[m] = out.get(m, 0) + c * e
            return out

        for i in range(n):
            for j in range(i + 1, n):
                cij = sparse[i][j]
                for col in range(n):
                    lhs = apply(i, sparse[j][col])
                    for m, c in apply(j, sparse[i][col]).items():
                        lhs[m] = lhs.get(m, 0) - c
                    for m, c in cij:
                        for a, e in sparse[m][col]:
                            lhs[a] = lhs.get(a, 0) - c * e
                    if any(lhs.values()):
                        bad.append("Jacobi fails on basis pair (%d,%d)" % (i, j))
                        break
        return bad

    def describe(self):
        # a realified algebra reports the field and size of the complex
        # realization it was built from (its meta "labels")
        return {
            "name": self.name,
            "family": self.family,
            "params": dict(self.params),
            "field": "rational",
            "matrix_dim": self.matrix_dim,
            "depth": self.k,
            "grade_dims": {str(g): len(self.grade_slices[g]) for g in range(-self.k, self.k + 1)},
            **self.meta.get("labels", {}),
        }

    def __repr__(self):
        return "GradedAlgebra(%s)" % self.name


@dataclass(frozen=True, slots=True)
class AlgElem:
    """An element of g as exact coordinates over the grade-organized basis.

    Equal when the algebra is the same object and the coordinates agree.
    """

    algebra: GradedAlgebra
    coords: tuple
    _mat: IntPolyMat | None = field(default=None, init=False, compare=False)

    @property
    def matrix(self):
        """sum_m c_m B_m as a constant IntPolyMat, from the algebra's
        ``basis_entries``, over its least common denominator."""
        if self._mat is None:
            alg = self.algebra
            d = alg.matrix_dim
            den = lcm(*(c.denominator for c in self.coords))
            rows = [[0] * d for _ in range(d)]
            for c, entries in zip(self.coords, alg.basis_entries):
                if c:
                    num = c.numerator * (den // c.denominator)
                    for r, v in entries:
                        rows[r // d][r % d] += num * v
            object.__setattr__(self, "_mat", _reduced(d, [rows], den))
        return self._mat

    def __add__(self, other):
        _same_algebra(self, other)
        return AlgElem(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        _same_algebra(self, other)
        return AlgElem(self.algebra, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return AlgElem(self.algebra, tuple(-a for a in self.coords))

    def __mul__(self, c):
        return AlgElem(self.algebra, tuple(a * c for a in self.coords))

    __rmul__ = __mul__

    def is_zero(self):
        return not any(self.coords)

    def __bool__(self):
        return any(bool(c) for c in self.coords)

    def grade_coords(self, grade):
        return tuple(self.coords[i] for i in self.algebra.grade_slices[grade])

    def _supported_on(self, indices):
        """True when every coordinate outside ``indices`` vanishes: the
        nonzero coordinates inside are all the nonzero ones."""
        coords = self.coords
        return sum(map(bool, coords)) == sum(1 for i in indices if coords[i])

    def in_grade(self, grade):
        return self._supported_on(self.algebra.grade_slices[grade])

    def in_n(self):
        return self._supported_on(self.algebra.n_indices)

    def in_p_plus(self):
        return self._supported_on(self.algebra.pplus_indices)

    def negative_part(self):
        idx = self.algebra.n_indices
        return self.algebra.elem_at(idx, (self.coords[i] for i in idx))

    def __repr__(self):
        return "AlgElem(%s; %s)" % (self.algebra.name, ", ".join(str(c) for c in self.coords))


@dataclass(frozen=True, slots=True)
class GroupElem:
    """An element of G: a constant IntPolyMat and its inverse, checked to
    multiply to I, so no matrix is ever inverted.  Equal on (algebra, mat)."""

    algebra: GradedAlgebra
    mat: IntPolyMat
    inv_mat: IntPolyMat = field(compare=False)

    def __post_init__(self):
        mat, inv_mat, d = self.mat, self.inv_mat, self.algebra.matrix_dim
        if not (mat.d == inv_mat.d == d and len(mat.coeffs) == len(inv_mat.coeffs) == 1):
            raise ValueError("group element needs two constant %d x %d matrices" % (d, d))
        if mat * inv_mat != IntPolyMat.identity(d):
            raise ValueError("group element matrix times its inverse is not I")

    def inverse(self):
        return GroupElem(self.algebra, self.inv_mat, self.mat)

    def __mul__(self, other):
        _same_algebra(self, other)
        return GroupElem(self.algebra, self.mat * other.mat, other.inv_mat * self.inv_mat)

    def in_P(self):
        return self.mat.in_p_pattern(self.algebra)

    def __repr__(self):
        return "GroupElem(%s; %s)" % (self.algebra.name, self.mat)


def _same_algebra(a, b):
    if a.algebra is not b.algebra:
        raise AlgebraMismatch(
            "operands live in different algebras: %s vs %s" % (a.algebra.name, b.algebra.name)
        )


# -- operations ---------------------------------------------------------------


def bracket(x, y):
    """Lie bracket [x, y] through the cached structure table."""
    _same_algebra(x, y)
    return AlgElem(x.algebra, x.algebra.bracket_coords(x.coords, y.coords))


def exp_nilpotent(x, scale=1):
    """exp(scale * x) for nilpotent x and a rational or Poly scale, as an
    ``IntPolyMat``: the one nilpotent series of ``_fastgrid`` on the
    integer matrix of x.  Raises NotNilpotent when x^d != 0."""
    return x.matrix.exp(scale)


def group_exp(x):
    """exp(x) as a GroupElem for nilpotent x, with its inverse exp(-x)."""
    return GroupElem(x.algebra, exp_nilpotent(x), exp_nilpotent(x, -1))


def Ad(g, x):
    """Adjoint action g x g^{-1} expressed in basis coordinates."""
    _same_algebra(g, x)
    out = x.algebra.elem_from_matrix(g.mat * x.matrix * g.inv_mat)
    if out is None:
        raise ValueError("Ad image leaves the algebra span; matrix is not in G")
    return out


def truncated_Ad(g, y):
    """The P-action on g/p = n: Ad(g, y) projected to n along p."""
    _same_algebra(g, y)
    if not g.in_P():
        raise NotInParabolic("group element is not block upper triangular")
    if not y.in_n():
        raise NotInNilpotentPart("element has components outside n")
    return Ad(g, y).negative_part()


def normal_form_P(b):
    """Unique factorization b = b0 exp(Z_1) ... exp(Z_k) with b0 in G0.

    Returns (b0, (Z_1, ..., Z_k)); raises NotInParabolic when b is not in P
    or the unipotent part does not exponentiate from p_+.
    """
    alg = b.algebra
    if not b.in_P():
        raise NotInParabolic("group element is not block upper triangular")
    ident = alg.group_identity()
    # b and b^-1 are block upper triangular, so the block diagonal part of
    # b^-1 is the inverse of that of b: no determinant is needed
    b0_mat = alg.position_part(b.mat, lambda g: g == 0)
    if b0_mat == ident.mat:
        b0 = ident
    else:
        b0 = GroupElem(alg, b0_mat, alg.position_part(b.inv_mat, lambda g: g == 0))
    v = b0.inv_mat * b.mat
    zs = []
    for grade in range(1, alg.k + 1):
        z = alg.elem_from_matrix(alg.position_part(v, lambda g: g == grade))
        if z is None or not (z.is_zero() or z.in_grade(grade)):
            raise NotInParabolic("unipotent part leaves exp(p_+)")
        zs.append(z)
        v = exp_nilpotent(z, -1) * v
    if v != ident.mat:
        raise NotInParabolic("residual unipotent part after extracting all grades")
    return b0, tuple(zs)
