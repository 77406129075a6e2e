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
from operator import mul

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
    dot,
    intersection_dim,
    kernel,
    maximal_minors,
    orth_complement,
    primitive_vector,
    projector,
    vstack,
    zero_subspace,
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


def minor_vector(M: RationalMatrix) -> tuple[int, ...]:
    """All maximal minors of M over the lex ordered column subsets, raw
    (no canonicalization).  A 0-row matrix gives the single empty minor 1."""
    idx = k_subset_index(M.cols, M.rows)
    minors = maximal_minors(M)
    return tuple(minors[I] for I in idx.subsets)


class PlueckerVector(Value):
    """Canonicalized minor vector of a subspace: raw minors = divisor *
    coords, for the signed integer divisor, which is kept for sign-sensitive
    checks but ignored by equality."""

    _fields = ("index", "coords")

    def __init__(self, index: KSubsetIndex, coords: tuple[int, ...],
                 divisor: int) -> None:
        self._set(index=index, coords=coords, divisor=divisor)


def pluecker_vector(U: Subspace) -> PlueckerVector:
    """Pluecker coordinates of U from its canonical basis.  The zero subspace
    gets the single-entry vector (1): the empty minor convention."""
    raw = minor_vector(U.basis)
    coords, g = primitive_vector(raw)
    return PlueckerVector(k_subset_index(U.ambient_dim, U.dim), coords, g)


class AdjointHyperplane(Value):
    """H(X) for a rank-k flat X: signed complementary minors of X's basis,
    canonicalized: the raw coefficients are divisor * coeffs.  coeffs pairing
    with eval_adjoint is zero exactly when the argument lies on the
    hyperplane.  divisor stays out of equality."""

    _fields = ("source", "index", "coeffs")

    def __init__(self, source: Flat, index: KSubsetIndex,
                 coeffs: tuple[int, ...], divisor: int) -> None:
        self._set(source=source, index=index, coeffs=coeffs, divisor=divisor)


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
    coeffs, g = primitive_vector(raw)
    return AdjointHyperplane(X, idx, coeffs, g)


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
    T-perp and center T, computed as the kernel of U-perp stacked on
    S-perp, with U-perp taken once.  S-perp is U meet T, the kernel of
    U-perp stacked on T-perp, and 0 without an elimination when T is 0.  Cross-checked against the span of the projections of the
    normals onto U; the two routes must agree, and the dimension must be
    dim U - dim(U meet T)."""
    n = arr.ambient_dim
    if U.ambient_dim != n:
        raise ValueError("ambient dimensions differ")
    U_perp, T_perp = orth_complement(U), _center_perp(arr)
    S_perp = (kernel(vstack(U_perp.basis, T_perp.basis)) if T_perp.dim < n
              else zero_subspace(n))
    direct = kernel(vstack(U_perp.basis, S_perp.basis))
    # P is symmetric and integral, so a . (row j of P) is entry j of d times
    # the projection of normal a
    P, _ = projector(U)
    projected = canonical_subspace(RationalMatrix(tuple(
        [tuple([sum(map(mul, a, p)) for p in P.entries]) for a in arr.normals]), n))
    self_check(direct == projected, "defect subspace routes disagree")
    self_check(direct.dim == U.dim - intersection_dim(U, center(arr)),
               "defect dimension off")
    return direct


def eval_adjoint(h: AdjointHyperplane, p: PlueckerVector) -> int:
    """Pair an adjoint hyperplane with a Pluecker vector; zero iff the
    vector lies on the hyperplane."""
    if (h.index.n, h.index.k) != (p.index.n, p.index.k):
        raise ValueError("mismatched Pluecker coordinate spaces")
    return dot(h.coeffs, p.coords)
