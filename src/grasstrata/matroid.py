"""Matroids of projected normals, restriction lattices, lattice isomorphism.

For a subspace U the hyperplane normals project to vectors inside U; the
rank of a label set I is the dimension of the span of its projections.
That rank function always agrees with dim U - dim(U meet the flat of I),
which is self-checked at construction time.  The full rank table over all
subsets is materialized (ground sets stay small here), so the matroid
axioms can be checked outright.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

from .arrangement import (
    Arrangement,
    GuardExceeded,
    IntersectionLattice,
    intersection_lattice,
    restriction,
    self_check,
)
from .exactlin import (
    Subspace,
    intersection_dim,
    kernel,
    matrix,
    primitive_vector,
    project,
    rank as matrix_rank,
)

MAX_GROUND = 16
MAX_LATTICE = 64


def _mask_labels(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@dataclass(frozen=True)
class Matroid:
    """Rank table indexed by bitmask over ground set {1..m} (bit j is j+1).

    Stratum labels compare matroids as labeled objects: the table itself,
    with loops and parallel elements kept, is the identity.
    """

    ground_size: int
    rank_table: tuple[int, ...]

    def __post_init__(self) -> None:
        m = self.ground_size
        if m > MAX_GROUND:
            raise ValueError(f"ground set of size {m} exceeds {MAX_GROUND}")
        if len(self.rank_table) != 1 << m:
            raise ValueError("rank table must cover every subset")
        _check_rank_axioms(m, self.rank_table)

    @property
    def rank(self) -> int:
        return self.rank_table[-1]

    def subset_rank(self, labels: Iterable[int]) -> int:
        mask = 0
        for e in labels:
            if not 1 <= e <= self.ground_size:
                raise ValueError(f"element {e} outside the ground set")
            mask |= 1 << (e - 1)
        return self.rank_table[mask]


def _check_rank_axioms(m: int, table: tuple[int, ...]) -> None:
    if table[0] != 0:
        raise ValueError("empty set must have rank 0")
    for S in range(1 << m):
        rS = table[S]
        out = [e for e in range(m) if not S >> e & 1]
        for e in out:
            rSe = table[S | 1 << e]
            if not rS <= rSe <= rS + 1:
                raise ValueError(
                    f"unit increase fails at {_mask_labels(S)} with {e + 1}")
        # local exchange form of submodularity
        for a in range(len(out)):
            for b in range(a + 1, len(out)):
                e, f = 1 << out[a], 1 << out[b]
                if table[S | e] + table[S | f] < table[S | e | f] + rS:
                    raise ValueError(
                        f"submodularity fails at {_mask_labels(S)} with "
                        f"{out[a] + 1}, {out[b] + 1}")
    if m <= 8:
        # small enough to check the global form over all subset pairs too
        for S in range(1 << m):
            for T in range(1 << m):
                if table[S | T] + table[S & T] > table[S] + table[T]:
                    raise ValueError(
                        f"submodularity fails for {_mask_labels(S)} and "
                        f"{_mask_labels(T)}")


@functools.lru_cache(maxsize=None)
def _mask_flat(arr: Arrangement, mask: int) -> Subspace:
    """Intersection of the hyperplanes with labels in mask (R^n for 0)."""
    rows = [arr.normals[i] for i in range(arr.size) if mask >> i & 1]
    return kernel(matrix(rows, cols=arr.ambient_dim))


@functools.lru_cache(maxsize=None)
def matroid_from(arr: Arrangement, U: Subspace) -> Matroid:
    """The labeled matroid of U: ranks of spans of projected normals.

    Checked against the second description of the same rank function,
    dim U - dim(U meet the intersection of the chosen hyperplanes);
    exhaustively for small ground sets, on sampled subsets beyond.
    """
    if U.ambient_dim != arr.ambient_dim:
        raise ValueError("ambient dimensions differ")
    m = arr.size
    if m > MAX_GROUND:
        raise ValueError(f"{m} hyperplanes exceed the guard of {MAX_GROUND}")
    # ranks ignore row scaling: make each projection coprime integers once
    betas = []
    for a in arr.normals:
        b = project(U, a)
        betas.append(primitive_vector(b)[0] if any(b) else b)
    table = []
    for mask in range(1 << m):
        rows = [betas[i] for i in range(m) if mask >> i & 1]
        table.append(matrix_rank(matrix(rows, cols=arr.ambient_dim)))
    mat = Matroid(m, tuple(table))
    bad = [_mask_labels(mask) for mask in _rank_check_masks(m)
           if table[mask] != U.dim - intersection_dim(U, _mask_flat(arr, mask))]
    self_check(not bad, f"projection ranks and flat ranks disagree on {bad}")
    return mat


def _rank_check_masks(m: int) -> Iterable[int]:
    if m <= 10:
        return range(1 << m)
    masks = {0, (1 << m) - 1}
    masks.update(1 << i for i in range(m))
    state = 0x9E3779B97F4A7C15
    for _ in range(256):
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        masks.add(state % (1 << m))
    return sorted(masks)


def bases(mat: Matroid) -> frozenset[frozenset[int]]:
    """All maximal independent sets; for rank 0 this is {empty set}."""
    r = mat.rank
    out = []
    for mask in range(1 << mat.ground_size):
        if mask.bit_count() == r and mat.rank_table[mask] == r:
            out.append(frozenset(_mask_labels(mask)))
    return frozenset(out)


def loops(mat: Matroid) -> frozenset[int]:
    return frozenset(e for e in range(1, mat.ground_size + 1)
                     if mat.rank_table[1 << (e - 1)] == 0)


@dataclass(frozen=True)
class RankedLattice:
    """A graded poset with opaque elements: ranks plus the order relation,
    the latter as one bitmask per element (bit j set iff i <= j)."""

    ranks: tuple[int, ...]
    leq: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.ranks)

    def is_leq(self, i: int, j: int) -> bool:
        return bool(self.leq[i] >> j & 1)


def ranked_lattice(lat: IntersectionLattice) -> RankedLattice:
    """Forget the geometry of an intersection lattice, keep order and rank."""
    size = len(lat.flats)
    ranks = tuple(f.rank for f in lat.flats)
    leq = []
    for i in range(size):
        bits = 0
        for j in range(size):
            if lat.leq(i, j):
                bits |= 1 << j
        leq.append(bits)
    return RankedLattice(ranks, tuple(leq))


def restriction_lattice(arr: Arrangement, U: Subspace) -> RankedLattice:
    return ranked_lattice(intersection_lattice(restriction(arr, U)))


def _profiles(L: RankedLattice) -> list[tuple]:
    """Per element: rank plus, for every rank level, how many elements lie
    above and below.  Isomorphism invariant, used to prune the search."""
    levels = sorted(set(L.ranks))
    out = []
    for i in range(L.size):
        above = tuple(sum(1 for j in range(L.size)
                          if L.ranks[j] == r and L.is_leq(i, j))
                      for r in levels)
        below = tuple(sum(1 for j in range(L.size)
                          if L.ranks[j] == r and L.is_leq(j, i))
                      for r in levels)
        out.append((L.ranks[i], above, below))
    return out


def lattice_isomorphic(L1: RankedLattice, L2: RankedLattice) -> bool:
    """Exact search for a rank-preserving order isomorphism."""
    if max(L1.size, L2.size) > MAX_LATTICE:
        raise GuardExceeded(
            f"lattice with more than {MAX_LATTICE} elements")
    if L1.size != L2.size or sorted(L1.ranks) != sorted(L2.ranks):
        return False
    p1, p2 = _profiles(L1), _profiles(L2)
    if sorted(p1) != sorted(p2):
        return False
    order = sorted(range(L1.size), key=lambda i: (p1[i], i))
    candidates = [[j for j in range(L2.size) if p2[j] == p1[i]]
                  for i in range(L1.size)]
    mapping: dict[int, int] = {}
    used = set()

    def extend(pos: int) -> bool:
        if pos == len(order):
            return True
        i = order[pos]
        for j in candidates[i]:
            if j in used:
                continue
            ok = all(L1.is_leq(i, a) == L2.is_leq(j, b) and
                     L1.is_leq(a, i) == L2.is_leq(b, j)
                     for a, b in mapping.items())
            if ok:
                mapping[i] = j
                used.add(j)
                if extend(pos + 1):
                    return True
                del mapping[i]
                used.remove(j)
        return False

    return extend(0)
