"""Pluecker coordinates, adjoint hyperplanes and defect subspaces.

A k-subspace U of Q^n has a vector of k x k minors indexed by the k-subsets
of columns; it determines U up to scale.  Each flat X of rank k contributes
one hyperplane H(X) in that coordinate space, with coefficient at subset I
given by the signed complementary minor

    a_I(X) = (-1)^(k(k+1)/2 + sum(I)) * minor of X's basis on columns [n] - I.

Collecting H(X) over all rank-k flats gives the k-adjoint arrangement of A.
The sign makes the pairing with a Pluecker vector a Laplace expansion of a
stacked determinant, so vanishing detects failure of a direct sum.  Both
vectors come from one exactlin.maximal_minors pass over a basis, a Laplace
expansion that yields every maximal minor at once.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
from fractions import Fraction

from .arrangement import (
    Arrangement,
    Flat,
    center,
    intersection_lattice,
    self_check,
)
from .exactlin import (
    RationalMatrix,
    Subspace,
    Value,
    canonical_subspace,
    intersection_dim,
    kernel,
    matrix,
    maximal_minors,
    orth_complement,
    primitive_vector,
    projector,
    subspace_sum,
    vstack,
)


class KSubsetIndex(Value):
    """The lexicographically ordered k-subsets of {1..n}; fixes coordinate
    positions in R^(n choose k) for everything in this module.  _pos maps
    each subset to its position and stays out of equality."""

    _fields = ("n", "k", "subsets")

    def __init__(self, n: int, k: int, subsets: tuple[tuple[int, ...], ...],
                 _pos: dict) -> None:
        self._set(n=n, k=k, subsets=subsets, _pos=_pos)

    def __len__(self) -> int:
        return len(self.subsets)

    def position(self, subset: Sequence[int]) -> int:
        try:
            return self._pos[tuple(subset)]
        except KeyError:
            raise ValueError(f"{tuple(subset)} is not a {self.k}-subset of "
                             f"1..{self.n}") from None


@functools.lru_cache(maxsize=None)
def k_subset_index(n: int, k: int) -> KSubsetIndex:
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    subs = tuple(itertools.combinations(range(1, n + 1), k))
    return KSubsetIndex(n, k, subs, {s: i for i, s in enumerate(subs)})


def minor_vector(M: RationalMatrix) -> tuple[int | Fraction, ...]:
    """All maximal minors of M over the lex ordered column subsets, raw
    (no canonicalization).  A 0-row matrix gives the single empty minor 1."""
    idx = k_subset_index(M.cols, M.rows)
    minors = maximal_minors(M)
    return tuple(minors[I] for I in idx.subsets)


class PlueckerVector(Value):
    """Canonicalized minor vector of a subspace.  coords = scale * raw minors;
    scale is kept for sign-sensitive checks but ignored by equality."""

    _fields = ("index", "coords")

    def __init__(self, index: KSubsetIndex, coords: tuple[int, ...],
                 scale: Fraction) -> None:
        self._set(index=index, coords=coords, scale=scale)


def pluecker_vector(U: Subspace) -> PlueckerVector:
    """Pluecker coordinates of U from its canonical basis.  The zero subspace
    gets the single-entry vector (1): the empty minor convention."""
    raw = minor_vector(U.basis)
    coords, c = primitive_vector(raw)
    return PlueckerVector(k_subset_index(U.ambient_dim, U.dim), coords, c)


class AdjointHyperplane(Value):
    """H(X) for a rank-k flat X: signed complementary minors of X's basis,
    canonicalized.  coords pairing with eval_adjoint is zero exactly when the
    argument lies on the hyperplane.  scale stays out of equality."""

    _fields = ("source", "index", "coeffs")

    def __init__(self, source: Flat, index: KSubsetIndex,
                 coeffs: tuple[int, ...], scale: Fraction) -> None:
        self._set(source=source, index=index, coeffs=coeffs, scale=scale)


def adjoint_hyperplane(X: Flat, k: int) -> AdjointHyperplane:
    n = X.subspace.ambient_dim
    if X.rank != k:
        raise ValueError(f"flat has rank {X.rank}, expected {k}")
    minors = maximal_minors(X.subspace.basis)
    idx = k_subset_index(n, k)
    half = (k * (k + 1)) // 2
    raw = []
    for I in idx.subsets:
        comp = tuple(j for j in range(1, n + 1) if j not in I)
        sign = -1 if (half + sum(I)) % 2 else 1
        raw.append(sign * minors[comp])
    coeffs, c = primitive_vector(raw)
    return AdjointHyperplane(X, idx, coeffs, c)


@functools.lru_cache(maxsize=None)
def k_adjoint(arr: Arrangement, k: int) -> tuple[AdjointHyperplane, ...]:
    """One adjoint hyperplane per rank-k flat, in lattice order.  Empty for
    k = n by definition, and when no rank-k flats exist."""
    n = arr.ambient_dim
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}, got {k}")
    if k == n:
        return ()
    flats = intersection_lattice(arr).by_rank(k)
    out = tuple(adjoint_hyperplane(X, k) for X in flats)
    # distinct flats must give distinct hyperplanes (coeffs are canonical,
    # so proportional means equal)
    self_check(len({h.coeffs for h in out}) == len(out),
               "adjoint construction produced coinciding hyperplanes")
    return out


@functools.lru_cache(maxsize=None)
def _center_perp(arr: Arrangement) -> Subspace:
    return orth_complement(center(arr))


@functools.lru_cache(maxsize=None)
def defect_subspace(arr: Arrangement, U: Subspace) -> Subspace:
    """The part of U the arrangement can see: U meet S for S = U-perp +
    T-perp and center T, computed as intersect(U, S) is, the kernel of
    U-perp stacked on S-perp, with U-perp taken once.  Cross-checked
    against the span of the projections of the normals onto U; the two
    routes must agree, and the dimension must be dim U - dim(U meet T)."""
    if U.ambient_dim != arr.ambient_dim:
        raise ValueError("ambient dimensions differ")
    U_perp = orth_complement(U)
    S = subspace_sum(U_perp, _center_perp(arr))
    direct = kernel(vstack(U_perp.basis, orth_complement(S).basis))
    # P is symmetric, so the rows of normals * P are d times the projections
    P, _ = projector(U)
    projected = canonical_subspace(
        matrix(arr.normals, cols=arr.ambient_dim).times(P))
    self_check(direct == projected, "defect subspace routes disagree")
    self_check(direct.dim == U.dim - intersection_dim(U, center(arr)),
               "defect dimension off")
    return direct


def eval_adjoint(h: AdjointHyperplane, p: PlueckerVector) -> int:
    """Pair an adjoint hyperplane with a Pluecker vector; zero iff the
    vector lies on the hyperplane."""
    if (h.index.n, h.index.k) != (p.index.n, p.index.k):
        raise ValueError("mismatched Pluecker coordinate spaces")
    return sum(a * x for a, x in zip(h.coeffs, p.coords))
