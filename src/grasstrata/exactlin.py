"""Exact linear algebra over the rationals.

Every predicate downstream (membership, rank, direct sum) is an exact zero
test, so floating point never appears.  Inside, the arithmetic is integer:
matrix entries are stored as int (Fraction only where not integral).  One
fraction-free elimination serves rank, echelon forms, kernels, projectors and
determinants; all maximal minors of a matrix come from one Laplace expansion
along its rows, each minor an integer sum over minors one row smaller.
Rationals appear only at the edges: parsed input, projections, determinants,
minors and scale factors.  Subspaces are stored canonically: the RREF
of any spanning set with each row rescaled to coprime integers.  Two equal
subspaces therefore compare equal as plain tuples, which is what the lattice
deduplication relies on.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm, prod
from operator import mul

Rational = Fraction


def _exact(x) -> int | Fraction:
    """x as an int when it is integral, else as a Fraction."""
    if type(x) is int:
        return x
    q = x if isinstance(x, Fraction) else Fraction(x)
    return q.numerator if q.denominator == 1 else q


def vector(entries: Iterable) -> tuple[int | Fraction, ...]:
    return tuple(_exact(x) for x in entries)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dot product needs equal lengths")
    return sum(map(mul, u, v))


class Value:
    """Base of the package's immutable value types.  A subclass sets its
    attributes once, in __init__, through _set; assigning or deleting one
    later raises AttributeError.  Equality and hash go over the attributes
    named in _fields, as a tuple, between instances of one class, and so
    does repr.  Instances have a __dict__, so they pickle as they are."""

    _fields: tuple[str, ...] = ()

    def _set(self, **values) -> None:
        # attribute by attribute: reading __dict__ would give each instance
        # a dict object of its own
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({body})"


class RationalMatrix(Value):
    """Immutable matrix of exact numbers; cols is stored so 0-row matrices keep
    a width.  Build it with matrix() to get integral entries stored as int."""

    _fields = ("entries", "cols")

    def __init__(self, entries: tuple[tuple[int | Fraction, ...], ...],
                 cols: int) -> None:
        if cols < 0:
            raise ValueError("negative column count")
        for row in entries:
            if len(row) != cols:
                raise ValueError(
                    f"row of length {len(row)} in a {cols}-column matrix")
        self._set(entries=entries, cols=cols)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    def transpose(self) -> "RationalMatrix":
        if not self.entries:
            return RationalMatrix(((),) * self.cols, 0)
        return RationalMatrix(tuple(zip(*self.entries)), self.rows)

    def times_vector(self, v: Sequence) -> tuple[int | Fraction, ...]:
        w = vector(v)
        if len(w) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(dot(row, w) for row in self.entries)

    def times(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        cols = other.transpose().entries
        return matrix([[dot(r, c) for c in cols] for r in self.entries],
                      other.cols)


def matrix(rows: Iterable[Iterable], cols: int | None = None) -> RationalMatrix:
    rs = tuple(tuple(_exact(x) for x in row) for row in rows)
    if cols is None:
        if not rs:
            raise ValueError("cols is required for a matrix with no rows")
        cols = len(rs[0])
    return RationalMatrix(rs, cols)


def identity(n: int) -> RationalMatrix:
    return RationalMatrix(
        tuple(tuple(1 if i == j else 0 for j in range(n))
              for i in range(n)), n)


def vstack(top: RationalMatrix, bottom: RationalMatrix) -> RationalMatrix:
    if top.cols != bottom.cols:
        raise ValueError("column counts differ")
    return RationalMatrix(top.entries + bottom.entries, top.cols)


def _integral_rows(rows) -> list[list[int]]:
    """Each row times the lcm of its denominators."""
    out = []
    for row in rows:
        if all(type(x) is int for x in row):
            out.append(list(row))
        else:
            den = lcm(*(x.denominator for x in row))
            out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def _eliminate(M: RationalMatrix) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of M's rows, each
    first multiplied by the lcm of its denominators.  Returns the rows, the
    pivot columns, the common pivot value d and the sign of the row swaps:
    rows[:len(pivots)] are d times the reduced row echelon form and any rows
    below are zero.  Every division is exact, since each entry is a minor of
    the row-permuted input (Sylvester's identity)."""
    rows = _integral_rows(M.entries)
    pivots: list[int] = []
    d = sign = 1
    for c in range(M.cols):
        pr = len(pivots)
        hit = next((i for i in range(pr, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        if hit != pr:
            rows[pr], rows[hit] = rows[hit], rows[pr]
            sign = -sign
        top = rows[pr]
        p = top[c]
        for i, row in enumerate(rows):
            f = row[c]
            if i != pr and (f or p != d):  # else the step leaves row as is
                rows[i] = [(p * a - f * b) // d for a, b in zip(row, top)]
        pivots.append(c)
        d = p
        if pr + 1 == len(rows):
            break
    return rows, pivots, d, sign


def rref(M: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Reduced row echelon form of M plus the 0-based pivot columns."""
    rows, pivots, d, _ = _eliminate(M)
    return (matrix([[Fraction(x, d) for x in row] for row in rows], M.cols),
            tuple(pivots))


def rank(M: RationalMatrix) -> int:
    return len(_eliminate(M)[1])


def primitive_vector(v: Sequence) -> tuple[tuple[int, ...], Fraction]:
    """Rescale a nonzero rational vector to coprime integer entries with a
    positive first nonzero entry.  Returns (scaled, c) where scaled = c * v."""
    w = vector(v)
    if all(x == 0 for x in w):
        raise ValueError("cannot rescale the zero vector")
    den = lcm(*(x.denominator for x in w))
    ints = [x.numerator * (den // x.denominator) for x in w]
    g = gcd(*ints)
    if next(x for x in w if x != 0) < 0:
        g = -g
    return tuple(y // g for y in ints), Fraction(den, g)


class Subspace(Value):
    """A linear subspace of Q^n held by its canonical basis matrix.

    Equality of Subspace values is equality of sets: canonicalization makes
    the representative unique, so comparing fields is correct.
    """

    _fields = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: RationalMatrix) -> None:
        if basis.cols != ambient_dim:
            raise ValueError("basis width does not match the ambient dimension")
        self._set(ambient_dim=ambient_dim, basis=basis)

    @property
    def dim(self) -> int:
        return self.basis.rows

    @cached_property
    def pivot_rows(self) -> tuple[tuple[int, tuple], ...]:
        """(first nonzero column, row) for each basis row, found once per
        value: the pivot rows of a basis in row echelon form."""
        return tuple((next(c for c, x in enumerate(row) if x), row)
                     for row in self.basis.entries)


def canonical_subspace(M: RationalMatrix) -> Subspace:
    """Row space of M in canonical form (RREF rows made coprime integers).

    The eliminated rows are d times the RREF rows, whose pivots are 1, so
    dividing by the row gcd with the sign of d gives the coprime rows."""
    rows, pivots, d, _ = _eliminate(M)
    basis = []
    for row in rows[:len(pivots)]:
        g = gcd(*row) if d > 0 else -gcd(*row)
        basis.append(tuple(x // g for x in row))
    return Subspace(M.cols, RationalMatrix(tuple(basis), M.cols))


def span(vectors: Iterable[Iterable], ambient_dim: int) -> Subspace:
    return canonical_subspace(matrix(vectors, cols=ambient_dim))


def zero_subspace(n: int) -> Subspace:
    return Subspace(n, RationalMatrix((), n))


def full_space(n: int) -> Subspace:
    return canonical_subspace(identity(n))


def kernel(M: RationalMatrix) -> Subspace:
    """The solution space {v : Mv = 0}, canonicalized.  Free column f gives
    the solution d at f, minus column f of d * RREF at the pivot columns."""
    R, pivots, d, _ = _eliminate(M)
    taken = set(pivots)
    rows = []
    for f in range(M.cols):
        if f in taken:
            continue
        v = [0] * M.cols
        v[f] = d
        for i, p in enumerate(pivots):
            v[p] = -R[i][f]
        rows.append(tuple(v))
    return canonical_subspace(RationalMatrix(tuple(rows), M.cols))


def det(M: RationalMatrix) -> Fraction:
    """Determinant via integer-preserving elimination; the 0x0 matrix gives 1."""
    if M.rows != M.cols:
        raise ValueError("determinant of a non-square matrix")
    _, pivots, d, sign = _eliminate(M)
    if len(pivots) < M.rows:
        return Fraction(0)
    scale = prod(lcm(*(x.denominator for x in row)) for row in M.entries)
    return Fraction(sign * d, scale)


def minor(M: RationalMatrix, row_set: Sequence[int],
          col_set: Sequence[int]) -> Fraction:
    """Determinant of the submatrix picked by 1-based row and column lists.

    Both lists must be strictly increasing; empty lists give the empty minor 1.
    """
    if len(row_set) != len(col_set):
        raise ValueError("row and column selections differ in size")
    for name, idx, bound in (("row", row_set, M.rows),
                             ("column", col_set, M.cols)):
        if any(not 1 <= i <= bound for i in idx):
            raise ValueError(f"{name} index out of range")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError(f"{name} indices must be strictly increasing")
    sub = RationalMatrix(
        tuple(tuple(M.entries[i - 1][j - 1] for j in col_set) for i in row_set),
        len(col_set))
    return det(sub)


def maximal_minors(M: RationalMatrix) -> dict[tuple[int, ...], int | Fraction]:
    """Every maximal minor of M, keyed by its 1-based column subset in
    lexicographic order, as an int where it is integral; a 0-row matrix
    gives the empty minor, {(): 1}.

    Laplace expansion along the rows, one at a time: the minor of the first
    j rows on columns S is the signed sum, over the columns c of S, of row
    j's entry at c times the minor of the first j - 1 rows on S - c.  Minors
    are kept by column subset from one row count to the next, so all of
    them take sum_j C(n, j) * j integer products.  Rows are made integral
    first, as for elimination, and their scale factors divided out once."""
    level = {(): 1}
    for j, row in enumerate(_integral_rows(M.entries)):
        nxt = {}
        for S in combinations(range(1, M.cols + 1), j + 1):
            total = 0
            for t, c in enumerate(S):
                if row[c - 1]:
                    term = row[c - 1] * level[S[:t] + S[t + 1:]]
                    total += -term if (j + t) & 1 else term
            nxt[S] = total
        level = nxt
    scale = prod(lcm(*(x.denominator for x in row)) for row in M.entries)
    if scale == 1:
        return level
    return {S: _exact(Fraction(v, scale)) for S, v in level.items()}


def orth_complement(U: Subspace) -> Subspace:
    return kernel(U.basis)


def intersect(U: Subspace, V: Subspace) -> Subspace:
    if U.ambient_dim != V.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return kernel(vstack(orth_complement(U).basis, orth_complement(V).basis))


def subspace_sum(U: Subspace, V: Subspace) -> Subspace:
    if U.ambient_dim != V.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return canonical_subspace(vstack(U.basis, V.basis))


def echelon_extend(pivot_rows: list, vectors: Iterable[Sequence]) -> list:
    """pivot_rows, (pivot column, row) pairs of which each row vanishes at
    the pivots before it, then the nonzero residuals of vectors, each
    reduced fraction-free against the rows so far: a residual is zero iff
    its vector lies in their span.  The input list is not changed."""
    out = list(pivot_rows)
    for u in vectors:
        for p, row in out:
            f = u[p]
            if f:
                u = [row[p] * a - f * b for a, b in zip(u, row)]
        p = next((c for c, x in enumerate(u) if x), None)
        if p is not None:
            out.append((p, u))
    return out


def intersection_dim(U: Subspace, V: Subspace) -> int:
    """dim of the intersection, without building it.

    Needs V's basis in row echelon form, as every canonical_subspace and
    zero_subspace value is: U's rows extend V's pivot rows (echelon_extend),
    and each row that leaves a nonzero residual is one dimension less.
    V's pivots are cached on V, so a flat's are found once per run."""
    if U.ambient_dim != V.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return U.dim + V.dim - len(echelon_extend(V.pivot_rows, U.basis.entries))


def is_direct_sum_full(U: Subspace, V: Subspace) -> bool:
    """True iff U + V is direct and fills the whole ambient space."""
    if U.ambient_dim != V.ambient_dim:
        raise ValueError("ambient dimensions differ")
    if U.dim + V.dim != U.ambient_dim:
        return False
    return det(vstack(U.basis, V.basis)) != 0


def contains_vector(U: Subspace, v: Sequence) -> bool:
    w = vector(v)
    if len(w) != U.ambient_dim:
        raise ValueError("vector length does not match ambient dimension")
    return rank(vstack(U.basis, RationalMatrix((w,), U.ambient_dim))) == U.dim


def is_subspace_of(U: Subspace, V: Subspace) -> bool:
    if U.ambient_dim != V.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return all(contains_vector(V, row) for row in U.basis.entries)


def projector(U: Subspace) -> tuple[RationalMatrix, int]:
    """(P, d) with P = d * B^T (B B^T)^-1 B, an integer multiple of the
    orthogonal projection onto U, for U's basis B with rows made integral.

    One elimination of [B B^T | B] leaves d * [I | (B B^T)^-1 B]; the Gram
    matrix is invertible because basis rows are independent.  P is
    symmetric, P P = d P, and its row space is U.  The zero subspace gets
    the zero matrix and d = 1."""
    n = U.ambient_dim
    if U.dim == 0:
        return RationalMatrix(((0,) * n,) * n, n), 1
    B = _integral_rows(U.basis.entries)
    k = len(B)
    aug = [[dot(r, s) for s in B] + r for r in B]
    rows, pivots, d, _ = _eliminate(RationalMatrix(tuple(map(tuple, aug)), k + n))
    if pivots != list(range(k)):
        raise ValueError("basis rows are dependent")
    X = [row[k:] for row in rows]  # d * (B B^T)^-1 B
    Xcols = list(zip(*X))
    return RationalMatrix(tuple(tuple(dot(b, x) for x in Xcols)
                                for b in zip(*B)), n), d


def project(U: Subspace, v: Sequence) -> tuple[Fraction, ...]:
    """Orthogonal projection of v onto U, computed exactly as P v / d for
    (P, d) = projector(U).  The zero subspace projects everything to the
    zero vector."""
    w = vector(v)
    if len(w) != U.ambient_dim:
        raise ValueError("vector length does not match ambient dimension")
    P, d = projector(U)
    return tuple(Fraction(x, d) for x in P.times_vector(w))
