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
from operator import mul

from .arrangement import (
    Arrangement,
    Flat,
    center,
    intersection_lattice,
    self_check,
)
from .exactlin import (
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
    zero_subspace,
)


@functools.lru_cache(maxsize=None)
def k_subsets(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The lexicographically ordered k-subsets of {1..n}; fixes coordinate
    positions in R^(n choose k) for everything in this module."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return tuple(itertools.combinations(range(1, n + 1), k))


class PlueckerVector(Value):
    """Canonicalized minor vector of a k-subspace of Q^n, with coordinates
    at k_subsets(n, k): raw minors = divisor * coords, for the signed
    integer divisor, which is kept for sign-sensitive checks but ignored by
    equality.  n and k stay in equality, as every zero subspace has the
    coordinates (1)."""

    _fields = ("n", "k", "coords")
    _extra = ("divisor",)


def pluecker_vector(U: Subspace) -> PlueckerVector:
    """Pluecker coordinates of U from its canonical basis.  The zero subspace
    gets the single-entry vector (1): the empty minor convention.  The
    minors come keyed in the order of k_subsets."""
    coords, g = primitive_vector(maximal_minors(U.basis).values())
    return PlueckerVector(U.ambient_dim, U.dim, coords, g)


class AdjointHyperplane(Value):
    """H(X) for a rank-k flat X of Q^n: signed complementary minors of X's
    basis at k_subsets(n, k), canonicalized: the raw coefficients are
    divisor * coeffs.  coeffs pairing with eval_adjoint is zero exactly when
    the argument lies on the hyperplane.  divisor stays out of equality."""

    _fields = ("source", "coeffs")
    _extra = ("divisor",)


def adjoint_hyperplane(X: Flat, k: int) -> AdjointHyperplane:
    n = X.subspace.ambient_dim
    if X.rank != k:
        raise ValueError(f"flat has rank {X.rank}, expected {k}")
    minors = maximal_minors(X.subspace.basis)
    half = (k * (k + 1)) // 2
    # in order, the complements of the k-subsets are the (n - k)-subsets,
    # which minors holds in order, reversed
    coeffs, g = primitive_vector([
        -m if (half + sum(I)) % 2 else m
        for I, m in zip(k_subsets(n, k), reversed(minors.values()), strict=True)])
    return AdjointHyperplane(X, coeffs, g)


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


@functools.lru_cache(maxsize=0)  # keeps nothing; stays until ROADMAP item 2
def defect_subspace(arr: Arrangement, U: Subspace) -> Subspace:
    """The part of U the arrangement can see: U meet S for S = U-perp +
    T-perp and center T, computed as the kernel of U-perp stacked on
    S-perp, with U-perp taken once.  S-perp is U meet T, the kernel of
    U-perp stacked on T-perp, and 0 without an elimination when T is 0.
    Cross-checked against the span of the projections of the normals onto
    U; the two routes must agree, and the dimension must be
    dim U - dim(U meet T)."""
    n = arr.ambient_dim
    if U.ambient_dim != n:
        raise ValueError("ambient dimensions differ")
    U_perp, T_perp = orth_complement(U), _center_perp(arr)
    S_perp = (kernel(U_perp.basis + T_perp.basis, n) if T_perp.dim < n
              else zero_subspace(n))
    direct = kernel(U_perp.basis + S_perp.basis, n)
    # P is symmetric and integral, so a . (row j of P) is entry j of d times
    # the projection of normal a
    P, _ = projector(U)
    projected = canonical_subspace(
        [[sum(map(mul, a, p)) for p in P] for a in arr.normals], n)
    self_check(direct == projected, "defect subspace routes disagree")
    self_check(direct.dim == U.dim - intersection_dim(U, center(arr)),
               "defect dimension off")
    return direct


def eval_adjoint(h: AdjointHyperplane, p: PlueckerVector) -> int:
    """Pair an adjoint hyperplane with a Pluecker vector; zero iff the
    vector lies on the hyperplane."""
    if (h.source.subspace.ambient_dim, h.source.rank) != (p.n, p.k):
        raise ValueError("mismatched Pluecker coordinate spaces")
    return dot(h.coeffs, p.coords)
