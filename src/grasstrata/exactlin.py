"""Exact linear algebra over the integers.

Every predicate downstream (membership, rank, direct sum) is an exact zero
test, so floating point never appears.  A matrix is a tuple of rows, each a
tuple of ints; matrix() and vector() reject any other entry, a float or a
Fraction included, because det and the minors depend on scale.  Functions
read a matrix's width from its rows, so a function whose result needs the
width of a matrix that may have no rows takes it as an argument:
canonical_subspace(rows, n) and kernel(rows, n).  A rational row reaches
the package only through the file parser (arrangement.read_rows), which
clears its denominators, as a hyperplane or a span is the same for every
multiple of a row.  One fraction-free elimination serves rank, echelon
forms, kernels, projectors and determinants, and a kernel comes out
canonical from one elimination of the matrix with its columns reversed.
All maximal minors of a matrix come from one Laplace expansion along its
rows, each minor an integer sum over minors one row smaller.  A Fraction
appears only in project's result.  Subspaces are stored canonically: the
RREF of any spanning set with each row rescaled to coprime integers.  Two
equal subspaces therefore compare equal as plain tuples, which is what the
lattice deduplication relies on."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import combinations
from math import gcd
from operator import mul


def vector(entries: Iterable) -> tuple[int, ...]:
    """entries as a tuple; ValueError unless each is of type int (a bool
    is not)."""
    v = tuple(entries)
    for x in v:
        if type(x) is not int:
            raise ValueError(f"entry {x!r} is not an int")
    return v


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise ValueError("dot product needs equal lengths")
    return sum(map(mul, u, v))


class Value:
    """Base of the package's immutable value types and their one constructor,
    which sets the attributes named in _fields and then _extra, by position
    only; a wrong count raises TypeError, and so does a keyword.  A type
    that checks its arguments does so in its own __init__, then calls this
    one.  Assigning or deleting an attribute later raises AttributeError.
    Equality, hash and repr go over the _fields attributes, as a tuple,
    between instances of one class; _extra ones are stored but left out.
    Instances have a __dict__, so they pickle as they are."""

    _fields: tuple[str, ...] = ()
    _extra: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        names = self._fields + self._extra
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes {', '.join(names)}, "
                            "by position")
        # attribute by attribute, in one order: reading __dict__ would give
        # each instance a dict object of its own
        for name, value in zip(names, values):
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


def matrix(rows: Iterable[Iterable], cols: int) -> tuple[tuple[int, ...], ...]:
    """The rows as a tuple of int tuples; ValueError unless every entry is
    an int and every row has cols entries."""
    rs = tuple(map(vector, rows))
    for row in rs:
        if len(row) != cols:
            raise ValueError(
                f"row of length {len(row)} in a {cols}-column matrix")
    return rs


def _eliminate(M: Sequence[Sequence[int]]
               ) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of M's rows.
    Returns the rows, the pivot columns, the common pivot value d and the
    sign of the row swaps: rows[:len(pivots)] are d times the reduced row
    echelon form and any rows below are zero.  Every division is exact,
    since each entry is a minor of the row-permuted input (Sylvester's
    identity)."""
    rows = [list(row) for row in M]
    nrows = len(rows)
    pivots: list[int] = []
    d = sign = 1
    for c in range(len(rows[0]) if rows else 0):
        pr = hit = len(pivots)
        while hit < nrows and not rows[hit][c]:
            hit += 1
        if hit == nrows:
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
        if pr + 1 == nrows:
            break
    return rows, pivots, d, sign


def rank(M: Sequence[Sequence[int]]) -> int:
    return len(_eliminate(M)[1])


def primitive(v: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """(w, g) with v = g * w, for w the integer vector v divided by the gcd
    of its entries, signed so that its first nonzero entry is positive; the
    zero vector gives (v, 0).  Unchecked: v must hold ints."""
    g = gcd(*v)
    if g and next(x for x in v if x) < 0:
        g = -g
    return (tuple([x // g for x in v]) if g else tuple(v)), g


def primitive_vector(v: Sequence) -> tuple[tuple[int, ...], int]:
    """primitive(v) for a nonzero vector of ints; ValueError otherwise."""
    w, g = primitive(vector(v))
    if not g:
        raise ValueError("cannot rescale the zero vector")
    return w, g


class Subspace(Value):
    """A linear subspace of Q^n held by its canonical basis rows.

    Equality of Subspace values is equality of sets: canonicalization makes
    the representative unique, so comparing fields is correct.
    """

    _fields = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int,
                 basis: tuple[tuple[int, ...], ...], /) -> None:
        if ambient_dim < 0:
            raise ValueError("negative ambient dimension")
        for row in basis:
            if len(row) != ambient_dim:
                raise ValueError(
                    "basis width does not match the ambient dimension")
        super().__init__(ambient_dim, basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def pivot_rows(self) -> tuple[tuple[int, tuple], ...]:
        """(first nonzero column, row) for each basis row, found once per
        value: the pivot rows of a basis in row echelon form."""
        return tuple((next(c for c, x in enumerate(row) if x), row)
                     for row in self.basis)


def canonical_subspace(M: Sequence[Sequence[int]], n: int) -> Subspace:
    """Row space in Q^n of the rows M, in canonical form (RREF rows made
    coprime integers).

    The eliminated rows are d times the RREF rows, whose pivots are 1, so
    each row's first nonzero entry is d, and primitive gives the coprime
    rows."""
    rows, pivots, _, _ = _eliminate(M)
    return Subspace(n, tuple([primitive(row)[0] for row in rows[:len(pivots)]]))


def span(vectors: Iterable[Iterable], ambient_dim: int) -> Subspace:
    """The span of integer vectors; a rational one needs its denominators
    cleared first, which leaves the span as it is."""
    return canonical_subspace(matrix(vectors, ambient_dim), ambient_dim)


def zero_subspace(n: int) -> Subspace:
    return Subspace(n, ())


def full_space(n: int) -> Subspace:
    return Subspace(n, tuple([tuple([int(i == j) for j in range(n)])
                              for i in range(n)]))


def kernel(M: Sequence[Sequence[int]], n: int) -> Subspace:
    """The solution space {v in Q^n : Mv = 0} of the rows M, canonicalized,
    from one elimination of M with its columns reversed.  Free column f
    gives the solution d at f, minus column f of d * RREF at the pivot
    columns, which is nonzero only at pivots right of f in M's order; so
    these rows, by increasing f, are d times the kernel's RREF, made coprime
    as in canonical_subspace."""
    if any(len(row) != n for row in M):
        raise ValueError(f"kernel in Q^{n} of rows of another length")
    R, pivots, d, _ = _eliminate([row[::-1] for row in M])
    taken = set(pivots)
    basis = []
    for f in range(n - 1, -1, -1):  # column n - 1 - f of M
        if f in taken:
            continue
        v = [0] * n
        v[f] = d
        for i, p in enumerate(pivots):
            v[p] = -R[i][f]
        basis.append(primitive(v[::-1])[0])
    return Subspace(n, tuple(basis))


def det(M: Sequence[Sequence[int]]) -> int:
    """Determinant via integer-preserving elimination; the 0x0 matrix gives 1."""
    if any(len(row) != len(M) for row in M):
        raise ValueError("determinant of a non-square matrix")
    _, pivots, d, sign = _eliminate(M)
    return sign * d if len(pivots) == len(M) else 0


def minor(M: Sequence[Sequence[int]], row_set: Sequence[int],
          col_set: Sequence[int]) -> int:
    """Determinant of the submatrix picked by 1-based row and column lists.

    Both lists must be strictly increasing; empty lists give the empty minor 1.
    """
    if len(row_set) != len(col_set):
        raise ValueError("row and column selections differ in size")
    for name, idx, bound in (("row", row_set, len(M)),
                             ("column", col_set, len(M[0]) if M else 0)):
        if any(not 1 <= i <= bound for i in idx):
            raise ValueError(f"{name} index out of range")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError(f"{name} indices must be strictly increasing")
    return det([[M[i - 1][j - 1] for j in col_set] for i in row_set])


def maximal_minors(M: Sequence[Sequence[int]]) -> dict[tuple[int, ...], int]:
    """Every maximal minor of M, keyed by its 1-based column subset in
    lexicographic order; a 0-row matrix gives the empty minor, {(): 1}.

    Laplace expansion along the rows, one at a time: the minor of the first
    j rows on columns S is the signed sum, over the columns c of S, of row
    j's entry at c times the minor of the first j - 1 rows on S - c.  Minors
    are kept by column subset from one row count to the next, so all of
    them take sum_j C(n, j) * j integer products."""
    level = {(): 1}
    for j, row in enumerate(M):
        nxt = {}
        for S in combinations(range(1, len(row) + 1), j + 1):
            total = 0
            for t, c in enumerate(S):
                if row[c - 1]:
                    term = row[c - 1] * level[S[:t] + S[t + 1:]]
                    total += -term if (j + t) & 1 else term
            nxt[S] = total
        level = nxt
    return level


def orth_complement(U: Subspace) -> Subspace:
    return kernel(U.basis, U.ambient_dim)


def subspace_sum(U: Subspace, V: Subspace) -> Subspace:
    if U.ambient_dim != V.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return canonical_subspace(U.basis + V.basis, U.ambient_dim)


def _append_residuals(fixed: Sequence, vectors: Iterable[Sequence],
                      out: list) -> None:
    """Reduce each vector fraction-free against the (pivot column, row)
    pairs of fixed, then of out, each row zero at the pivots before it, and
    append its residual to out unless it is 0, i.e. in the rows' span."""
    for u in vectors:
        for rows in (fixed, out):
            for p, row in rows:
                f = u[p]
                if f:
                    c = row[p]
                    u = [c * a - f * b for a, b in zip(u, row)]
        for p, x in enumerate(u):
            if x:
                out.append((p, u))
                break


def echelon_extend(pivot_rows: list, vectors: Iterable[Sequence]) -> list:
    """pivot_rows, (pivot column, row) pairs of which each row vanishes at
    the pivots before it, then the nonzero residuals of vectors, each
    reduced fraction-free against the rows so far.  The input list is not
    changed."""
    out = list(pivot_rows)
    _append_residuals((), vectors, out)
    return out


def intersection_dim(U: Subspace, V: Subspace) -> int:
    """dim of the intersection, without building it.

    Needs V's basis in row echelon form, as every canonical_subspace and
    zero_subspace value is: U's rows are reduced against V's pivot rows and
    the residuals so far, and each nonzero residual is one dimension less.
    V's pivots are cached on V, so a flat's are found once per run."""
    if U.ambient_dim != V.ambient_dim:
        raise ValueError("ambient dimensions differ")
    found: list = []
    _append_residuals(V.pivot_rows, U.basis, found)
    return U.dim - len(found)


def projector(U: Subspace) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(P, d) with P = d * B^T (B B^T)^-1 B, an integer multiple of the
    orthogonal projection onto U, for U's basis B, as a tuple of rows.

    One elimination of [B B^T | B] leaves d * [I | (B B^T)^-1 B]; the Gram
    matrix is invertible because basis rows are independent.  P is
    symmetric, P P = d P, and its row space is U.  The zero subspace gets
    n zero rows and d = 1."""
    n = U.ambient_dim
    if U.dim == 0:
        return ((0,) * n,) * n, 1
    B = U.basis
    k = len(B)
    aug = [tuple([sum(map(mul, r, s)) for s in B]) + r for r in B]
    rows, pivots, d, _ = _eliminate(aug)
    if pivots != list(range(k)):
        raise ValueError("basis rows are dependent")
    X = [row[k:] for row in rows]  # d * (B B^T)^-1 B
    Xcols = list(zip(*X))
    return tuple([tuple([sum(map(mul, b, x)) for x in Xcols])
                  for b in zip(*B)]), d


def project(U: Subspace, v: Sequence) -> tuple:
    """Orthogonal projection of the integer vector v onto U, as Fractions
    P v / d for (P, d) = projector(U).  The zero subspace projects
    everything to the zero vector.  No command calls it."""
    from fractions import Fraction
    w = vector(v)
    if len(w) != U.ambient_dim:
        raise ValueError("vector length does not match ambient dimension")
    P, d = projector(U)
    return tuple(Fraction(dot(row, w), d) for row in P)
