"""Matroids of traced normals, restriction lattices, lattice isomorphism.

For a subspace U with basis matrix B, hyperplane i leaves the trace B a_i
in Q^dim U, and the rank of a label set I is the dimension of the span of
its traces (the same as for the orthogonal projections B^T (B B^T)^-1 B a_i,
since B^T (B B^T)^-1 is injective).  That rank equals
dim U - dim(U meet X_I), so it only depends on the flat X_I: a matroid is
stored with the intersection lattice as one rank per flat, checked against
the second description at the top flat (strata.labels checks every flat).
Ranks are taken in lattice order, each from a lower cover's echelon rows
and the traces the flat adds, and a flat above a flat of rank dim U gets
rank dim U without a reduction, so the checks below see constant ranks there.
The axioms are checked on the lattice: rank 0 at the bottom, a step of 0
or 1 on every cover, and keep(F) inside keep(G) on every cover F < G, where
keep(F) holds the hyperplanes j with r(F join j) = r(F).  Given unit steps,
that is r(G join G') + r(F) <= r(G) + r(G') for every two covers G, G' of
every flat F (closure monotonicity; Oxley, Matroid Theory, 1.4).  The
lattice of flats is geometric, so these local axioms imply the axioms for
r(S) := r(closure of S) on all subsets, read through the closure table.
The 2^m subset table is only built on request.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from operator import mul

from . import arrangement
from .arrangement import (
    Arrangement,
    GuardExceeded,
    IntersectionLattice,
    SelfCheckFailed,
    intersection_lattice,
    restriction,
    self_check,
)
from .exactlin import Subspace, Value, echelon_extend, intersection_dim

MAX_GROUND = 16


def _mask_labels(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


class Matroid(Value):
    """Ranks on the flats of an intersection lattice, in its flat order.

    Stratum labels compare matroids as labeled objects: on one arrangement,
    two matroids are equal iff their rank vectors are, loops and parallel
    elements included; the lattice stays out of equality.
    """

    _fields = ("ranks",)

    def __init__(self, lattice: IntersectionLattice,
                 ranks: tuple[int, ...]) -> None:
        if len(ranks) != len(lattice.flats):
            raise ValueError("need exactly one rank per flat")
        _check_rank_axioms(lattice, ranks)
        self._set(lattice=lattice, ranks=ranks)

    @property
    def ground_size(self) -> int:
        return self.lattice.ground_size

    @property
    def rank(self) -> int:
        return self.ranks[-1]

    def subset_rank(self, labels: Iterable[int]) -> int:
        mask = 0
        for e in labels:
            if not 1 <= e <= self.ground_size:
                raise ValueError(f"element {e} outside the ground set")
            mask |= 1 << (e - 1)
        return self.ranks[self.lattice.closure(mask)]

    @property
    def rank_table(self) -> tuple[int, ...]:
        """The rank of every subset, indexed by bitmask (bit j is label
        j + 1), read through the closure map."""
        if self.ground_size > MAX_GROUND:
            raise GuardExceeded(f"a rank table over {self.ground_size} "
                                f"hyperplanes exceeds the guard of {MAX_GROUND}")
        return tuple(self.ranks[self.lattice.closure(mask)]
                     for mask in range(1 << self.ground_size))


def _check_rank_axioms(lat: IntersectionLattice, r: tuple[int, ...]) -> None:
    if r[0] != 0:
        raise ValueError("the bottom flat must have rank 0")
    gens, up = lat.gens, lat.up
    for a, b in lat.covers:
        if not r[a] <= r[b] <= r[a] + 1:
            raise ValueError(f"unit increase fails from flat {_mask_labels(gens[a])}"
                             f" to {_mask_labels(gens[b])}")
    # keep[a]: the hyperplanes j with r(a join j) = r(a)
    keep = [sum(1 << j for j, c in enumerate(row) if r[c] == r[a])
            for a, row in enumerate(up)]
    for a, b in lat.covers:
        lost = keep[a] & ~keep[b]
        if lost:
            c = up[a][lost.bit_length() - 1]
            raise ValueError(f"submodularity fails for flats {_mask_labels(gens[b])}"
                             f" and {_mask_labels(gens[c])}")


@functools.lru_cache(maxsize=None)
def matroid_from(arr: Arrangement, U: Subspace) -> Matroid:
    """The labeled matroid of U: on every flat F, rank{B a_i : i in F},
    inferred as dim U above a flat where it already is dim U.

    Checked at the top flat against the second description of the same rank
    function, dim U - dim(U meet X_F), and against the matroid axioms.
    """
    if U.ambient_dim != arr.ambient_dim:
        raise ValueError("ambient dimensions differ")
    # through the module, so a traced run books this lattice as the
    # arrangement's own and restriction_lattice's calls as restrictions
    lat = arrangement.intersection_lattice(arr)
    gens, B = lat.gens, U.basis.entries
    traces = [[sum(map(mul, row, a)) for row in B] for a in arr.normals]
    rows: dict[int, list] = {0: []}

    def rank(b: int, a: int) -> int:
        # the echelon rows (at most dim U) of flat b's traces: those of its
        # lower cover a, extended by the traces of the hyperplanes b adds
        rows[b] = echelon_extend(rows[a], [traces[j - 1] for j in
                                           _mask_labels(gens[b] & ~gens[a])])
        return len(rows[b])

    # a flat above one of full trace rank dim U has rank dim U too
    ranks = lat.fill_up(rank, U.dim)
    self_check(ranks[-1] == U.dim - intersection_dim(U, lat.top().subspace),
               "the trace rank of the center disagrees with its flat rank")
    try:
        return Matroid(lat, ranks)
    except ValueError as e:
        raise SelfCheckFailed(f"trace ranks are no matroid: {e}") from None


def bases(mat: Matroid) -> frozenset[frozenset[int]]:
    """All maximal independent sets; for rank 0 this is {empty set}."""
    r = mat.rank
    table = mat.rank_table
    return frozenset(frozenset(_mask_labels(mask)) for mask in range(len(table))
                     if mask.bit_count() == r and table[mask] == r)


def loops(mat: Matroid) -> frozenset[int]:
    return frozenset(e for e in range(1, mat.ground_size + 1)
                     if mat.subset_rank([e]) == 0)


class RankedLattice(Value):
    """A graded lattice with opaque elements: ranks plus the order relation,
    the latter as one bitmask per element (bit j set iff i <= j).  Nothing
    checks that it is a lattice but lattice_isomorphic, which needs one."""

    _fields = ("ranks", "leq")

    def __init__(self, ranks: tuple[int, ...], leq: tuple[int, ...]) -> None:
        self._set(ranks=ranks, leq=leq)

    @property
    def size(self) -> int:
        return len(self.ranks)

    def is_leq(self, i: int, j: int) -> bool:
        return bool(self.leq[i] >> j & 1)

    @functools.cached_property
    def join_irreducibles(self) -> tuple | None:
        """The join-irreducibles, the elements with one lower cover, and per
        element x the bitmask J(x) of those below x; None unless x <= y iff
        J(x) is a subset of J(y), as in every finite lattice: x = join J(x).

        Made once per lattice, as the half of lattice_isomorphic that reads
        one lattice: the sorted ranks and profiles (a join-irreducible's
        rank and count of elements above it on each rank), each one's
        profile, the join-irreducibles sorted by profile, finish (finish[t]
        holds the rank of x and the positions in that order of J(x) for each
        x whose J(x) ends at position t - 1) and the rank of each J(x)."""
        ranks, leq, size = self.ranks, self.leq, self.size
        down = [0] * size
        for i, row in enumerate(leq):
            while row:
                down[(row & -row).bit_length() - 1] |= 1 << i
                row &= row - 1
        # one lower cover iff the elements strictly below have a greatest one
        downs = set(down)
        ji = [x for x, d in enumerate(down) if d & ~(1 << x) in downs]
        J = [sum(1 << j for j in ji if d >> j & 1) for d in down]
        above = [functools.reduce(int.__and__, [leq[j] for j in ji if m >> j & 1],
                                  (1 << size) - 1) for m in J]
        if len(set(J)) < size or above != list(leq):
            return None
        levels = [sum(1 << i for i, r in enumerate(ranks) if r == level)
                  for level in sorted(set(ranks))]
        profile = {j: (ranks[j],) + tuple((leq[j] & m).bit_count() for m in levels)
                   for j in ji}
        order = sorted(profile, key=profile.get)
        finish: list[list] = [[] for _ in range(len(order) + 1)]
        for x, m in enumerate(J):
            ps = [t for t, a in enumerate(order) if m >> a & 1]
            finish[max(ps, default=-1) + 1].append((ranks[x], ps))
        return ((sorted(ranks), sorted(profile.values())), profile, order, finish,
                {m: ranks[y] for y, m in enumerate(J)})


def ranked_lattice(lat: IntersectionLattice) -> RankedLattice:
    """Forget the geometry of an intersection lattice, keep order and rank."""
    leq = tuple(sum(1 << j for j, h in enumerate(lat.gens) if g & ~h == 0)
                for g in lat.gens)
    return RankedLattice(tuple(f.rank for f in lat.flats), leq)


def restriction_lattice(arr: Arrangement, U: Subspace) -> RankedLattice:
    return ranked_lattice(intersection_lattice(restriction(arr, U)))


def lattice_isomorphic(L1: RankedLattice, L2: RankedLattice) -> bool:
    """Exact search for a rank-preserving order isomorphism of two lattices:
    False if only one of them is a lattice, ValueError if neither is.

    x <= y iff J(x) is a subset of J(y), so an isomorphism is a bijection of
    join-irreducibles that takes each J(x) to a J(y) of the rank of x.  The
    search maps one join-irreducible per level, to one of the same rank and
    counts above, and looks x's image up when the last of J(x) is mapped.
    What it reads of one lattice alone is prepared once per lattice
    (RankedLattice.join_irreducibles).  Restriction lattices are geometric:
    their join-irreducibles are their atoms, at most one per hyperplane.  No
    size cap; the worst case left is non-isomorphic lattices whose atoms
    share all counts, where the search can backtrack exponentially in the
    number of atoms."""
    j1, j2 = L1.join_irreducibles, L2.join_irreducibles
    if j1 is None and j2 is None:
        raise ValueError("neither order is a lattice")
    if j1 is None or j2 is None or j1[0] != j2[0]:
        return False
    (_, p1, order, finish, _), (_, p2, _, _, rank_of) = j1, j2
    candidates = [[1 << j for j in p2 if p2[j] == p1[a]] for a in order]

    def extend(image: tuple[int, ...]) -> bool:
        # image[t] is the bit of order[t]'s image in L2
        t = len(image)
        if any(rank_of.get(sum(image[p] for p in ps)) != r for r, ps in finish[t]):
            return False
        return t == len(order) or any(extend(image + (bit,))
                                      for bit in candidates[t] if bit not in image)

    return extend(())
