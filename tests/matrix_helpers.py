"""Matrix helpers for the tests.

The Fraction oracles (rref_reference and the canonical forms, kernels and
projections built on it) share no code with the package: textbook
Gauss-Jordan over Fractions.  awkward_matrix draws the inputs they are
compared on, with fractional rows; cleared turns those into the integer
rows the package takes, and row_lcms gives the factors that clearing
multiplied each row by.  The rest are package-side conveniences that only
tests use: reduced row echelon form from the package's own elimination,
membership and containment tests, intersections and direct sums, products
and transposes, an arrangement's hyperplanes, and the order relation of a
RankedLattice.  A matrix is a tuple of int rows, as in the package.
"""

from fractions import Fraction
from math import gcd, lcm

from grasstrata.exactlin import (
    _eliminate,
    det,
    dot,
    kernel,
    matrix,
    orth_complement,
    rank,
    vector,
)


def rref_reference(rows, cols):
    """Independent RREF oracle: textbook Gauss-Jordan over Fractions.
    Returns the reduced rows (zero rows kept at the bottom) and pivots."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    pr = 0
    for c in range(cols):
        hit = next((i for i in range(pr, len(rows)) if rows[i][c] != 0), None)
        if hit is None:
            continue
        rows[pr], rows[hit] = rows[hit], rows[pr]
        pv = rows[pr][c]
        if pv != 1:
            rows[pr] = [x / pv for x in rows[pr]]
        for i, row in enumerate(rows):
            if i != pr and row[c] != 0:
                f = row[c]
                rows[i] = [a - f * b for a, b in zip(row, rows[pr])]
        pivots.append(c)
        pr += 1
        if pr == len(rows):
            break
    return rows, pivots


def primitive_reference(row):
    """Coprime integers with a positive leading entry, proportional to row."""
    den = 1
    for x in row:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in row]
    g = 0
    for y in ints:
        g = gcd(g, y)
    if next(y for y in ints if y) < 0:
        g = -g
    return tuple(y // g for y in ints)


def canonical_reference(rows, cols):
    R, pivots = rref_reference(rows, cols)
    return tuple(primitive_reference(R[i]) for i in range(len(pivots)))


def gram_coordinates(basis, v):
    """The coordinates y, over Fractions, of the orthogonal projection of v
    onto the span of the independent rows basis, in that basis: the
    solution of the Gram system (B B^T) y = B v, by rref_reference."""
    B = [[Fraction(x) for x in row] for row in basis]
    aug = [[sum(a * b for a, b in zip(r, s)) for s in B]
           + [sum(a * b for a, b in zip(r, v))] for r in B]
    R, _ = rref_reference(aug, len(B) + 1)
    return tuple(R[i][-1] for i in range(len(B)))


def project_reference(basis, v):
    """Orthogonal projection of v onto the span of the independent rows
    basis: y B for y = gram_coordinates(basis, v), over Fractions."""
    y = gram_coordinates(basis, v)
    return tuple(sum((c * row[j] for c, row in zip(y, basis)), Fraction(0))
                 for j in range(len(v)))


def kernel_reference(rows, cols):
    R, pivots = rref_reference(rows, cols)
    out = []
    for f in range(cols):
        if f not in pivots:
            v = [Fraction(0)] * cols
            v[f] = Fraction(1)
            for i, p in enumerate(pivots):
                v[p] = -R[i][f]
            out.append(v)
    return canonical_reference(out, cols)


def awkward_matrix(rng):
    """Random rows mixing integer and fractional entries, with zero rows,
    duplicated and dependent rows thrown in; 0 rows or 0 columns allowed."""
    cols = rng.randint(0, 5)
    rows = []
    for _ in range(rng.randint(0, 5)):
        kind = rng.randrange(5)
        if kind == 0 or not rows:
            rows.append([Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 6]))
                         for _ in range(cols)])
        elif kind == 1:
            rows.append([Fraction(0)] * cols)
        elif kind == 2:
            rows.append(list(rng.choice(rows)))
        else:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2)
            rows.append([s * x + t * y for x, y in zip(a, b)])
    return rows, cols


def row_lcms(rows):
    """The lcm of the denominators of each row of rationals."""
    return [lcm(*[Fraction(x).denominator for x in row]) for row in rows]


def cleared(rows):
    """Each row of rationals times the lcm of its denominators, as ints:
    the same row space, in entries that matrix() takes."""
    return [[int(x * c) for x in row] for row, c in zip(rows, row_lcms(rows))]


def rref(M):
    """Reduced row echelon form of M, as rows of Fractions, plus the 0-based
    pivot columns, from the package's own elimination."""
    rows, pivots, d, _ = _eliminate(M)
    return (tuple(tuple(Fraction(x, d) for x in row) for row in rows),
            tuple(pivots))


def contains_vector(U, v):
    w = vector(v)
    if len(w) != U.ambient_dim:
        raise ValueError("vector length does not match ambient dimension")
    return rank(U.basis + (w,)) == U.dim


def is_subspace_of(U, V):
    if U.ambient_dim != V.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return all(contains_vector(V, row) for row in U.basis)


def hyperplane(arr, label):
    """The hyperplane of an arrangement's normal number label (from 1)."""
    return kernel([arr.normals[label - 1]], arr.ambient_dim)


def intersect(U, V):
    if U.ambient_dim != V.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return kernel(orth_complement(U).basis + orth_complement(V).basis,
                  U.ambient_dim)


def is_direct_sum_full(U, V):
    """True iff U + V is direct and fills the whole ambient space."""
    if U.ambient_dim != V.ambient_dim:
        raise ValueError("ambient dimensions differ")
    if U.dim + V.dim != U.ambient_dim:
        return False
    return det(U.basis + V.basis) != 0


def is_leq(L, i, j):
    """Whether i <= j in the RankedLattice L: the atoms below i all lie
    below j."""
    return L.atoms[i] & ~L.atoms[j] == 0


def transpose(M):
    """The transpose of a matrix with at least one row."""
    return tuple(zip(*M))


def times(A, B):
    """The matrix product A B, for B with at least one row."""
    if any(len(r) != len(B) for r in A):
        raise ValueError("inner dimensions do not match")
    cols = transpose(B)
    return matrix([[dot(r, c) for c in cols] for r in A], len(cols))
