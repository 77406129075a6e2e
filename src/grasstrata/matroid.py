"""Matroids of traced normals, restriction lattices, lattice isomorphism.

For a subspace U with basis matrix B, hyperplane i leaves the trace B a_i
in Q^dim U, and the rank of a label set I is the dimension of the span of
its traces (the same as for the orthogonal projections B^T (B B^T)^-1 B a_i,
since B^T (B B^T)^-1 is injective).  That rank equals
dim U - dim(U meet X_I), so it only depends on the flat X_I: a matroid is
stored with the intersection lattice as one rank per flat, checked against
the second description at the top flat (strata.labels checks every flat).
Ranks are taken in lattice order, each from a lower cover's echelon rows
and the traces the flat adds (IntersectionLattice.lower_steps).  They rise
to r(top) = dim U - dim(U meet center), and a flat above one of rank
r(top) gets it without a reduction.  The axioms are checked on the lattice:
rank 0 at the bottom, a step of 0 or 1 on every cover, and keep(F) inside
keep(G) on every cover F < G, where keep(F) holds the hyperplanes j with
r(F join j) = r(F), read off the lattice's cover groups.  Given unit steps,
that is r(G join G') + r(F) <= r(G) + r(G') for every two covers G, G' of
every flat F (closure monotonicity; Oxley, Matroid Theory, 1.4), and a
cover into the full-rank region, where keep is every hyperplane, is
skipped.  The lattice of flats is geometric, so these local axioms imply
the axioms for r(S) := r(closure of S) on all subsets.  Matroid.subset_rank
reads that rank through IntersectionLattice.closure; no command calls it.

Being geometric, the lattice is atomistic: a flat is fixed by the atoms
(hyperplanes) below it, so a restriction lattice is held as its atom sets
(RankedLattice).  It is the lattice of flats of the trace matroid, so with
its atoms named by hyperplanes of the arrangement, subspaces of one matroid
label have equal restriction lattices, not just isomorphic ones.
lattice_isomorphic, a search that maps atoms only, is on no command's path.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from operator import mul

from . import arrangement
from .arrangement import (
    Arrangement,
    IntersectionLattice,
    SelfCheckFailed,
    _trace_names,
    intersection_lattice,
    self_check,
    set_bits,
)
from .exactlin import Subspace, Value, echelon_extend, intersection_dim


class Matroid(Value):
    """Ranks on the flats of an intersection lattice, in its flat order.

    Stratum labels compare matroids as labeled objects: on one arrangement,
    two matroids are equal iff their rank vectors are, loops and parallel
    elements included; the lattice stays out of equality.
    """

    _fields = ("ranks",)
    _extra = ("lattice",)

    def __init__(self, lattice: IntersectionLattice,
                 ranks: tuple[int, ...], /) -> None:
        if len(ranks) != len(lattice.flats):
            raise ValueError("need exactly one rank per flat")
        _check_rank_axioms(lattice, ranks)
        super().__init__(ranks, lattice)

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


def _check_rank_axioms(lat: IntersectionLattice, r: tuple[int, ...]) -> None:
    def name(a: int) -> tuple[int, ...]:  # flat a's generators, for messages
        return tuple(sorted(lat.flats[a].generators))

    if r[0] != 0:
        raise ValueError("the bottom flat must have rank 0")
    gens, R = lat.gens, r[-1]
    # keep[a]: the hyperplanes j with r(a join j) = r(a), those of a and
    # of each cover of a that keeps its rank
    keep = []
    for a, groups in enumerate(lat.cover_groups):
        mask = gens[a]
        for c, group in groups:
            if not r[a] <= r[c] <= r[a] + 1:
                raise ValueError(f"unit increase fails from flat {name(a)} to {name(c)}")
            if r[c] == r[a]:
                mask |= group
        keep.append(mask)
    for a, b in lat.covers:
        lost = r[b] < R and keep[a] & ~keep[b]
        if lost:  # name the cover of a inside the highest lost hyperplane
            high = 1 << lost.bit_length() - 1
            c = next(c for c, group in lat.cover_groups[a] if group & high)
            raise ValueError(f"submodularity fails for flats {name(b)} and {name(c)}")


@functools.lru_cache(maxsize=0)  # keeps nothing; stays until ROADMAP item 2
def matroid_from(arr: Arrangement, U: Subspace) -> Matroid:
    """The labeled matroid of U: on every flat F, rank{B a_i : i in F},
    inferred as r(top), the rank of all traces, above a flat of rank r(top).

    Checked at the top flat against the second description of the same rank
    function, dim U - dim(U meet X_F), and against the matroid axioms.
    """
    if U.ambient_dim != arr.ambient_dim:
        raise ValueError("ambient dimensions differ")
    # through the module, so a traced run books this lattice as the
    # arrangement's own and restriction_lattice's calls as restrictions
    lat = arrangement.intersection_lattice(arr)
    steps, B = lat.lower_steps, U.basis
    traces = [[sum(map(mul, row, a)) for row in B] for a in arr.normals]
    rows: dict[int, list] = {0: []}

    def rank(b: int, a: int) -> int:
        # the echelon rows (at most dim U) of flat b's traces: those of its
        # lower cover a, extended by the traces of the hyperplanes b adds
        rows[b] = echelon_extend(rows[a], [traces[j] for j in steps[b][1]])
        return len(rows[b])

    ranks = lat.fill_up(rank, len(echelon_extend([], traces)))
    self_check(ranks[-1] == U.dim - intersection_dim(U, lat.top().subspace),
               "the trace rank of the center disagrees with its flat rank")
    try:
        return Matroid(lat, ranks)
    except ValueError as e:
        raise SelfCheckFailed(f"trace ranks are no matroid: {e}") from None


def loops(mat: Matroid) -> frozenset[int]:
    """The hyperplanes j with B a_j = 0: those whose atom, the cover of the
    bottom they lead to, has rank 0."""
    return frozenset(j + 1 for c, group in mat.lattice.cover_groups[0]
                     if mat.ranks[c] == 0 for j in set_bits(group))


class RankedLattice(Value):
    """A ranked atomistic lattice with opaque elements: atoms[x] is the
    bitmask of the atoms below x, and x <= y iff atoms[x] is a subset of
    atoms[y].  ValueError unless there is one atom set per rank, the sets
    are distinct, and the empty set (the bottom) and the singleton of every
    bit they use (the atoms) are among them.  Nothing checks that joins
    exist: lattice_isomorphic does not need them."""

    _fields = ("ranks", "atoms")

    def __init__(self, ranks: tuple[int, ...], atoms: tuple[int, ...], /) -> None:
        if len(ranks) != len(atoms):
            raise ValueError("need exactly one atom set per rank")
        if len(set(atoms)) < len(atoms):
            raise ValueError("two elements have the same atom set")
        singletons = sum(m for m in atoms if m & (m - 1) == 0)
        if 0 not in atoms or functools.reduce(int.__or__, atoms, 0) & ~singletons:
            raise ValueError("need the empty atom set and every bit's singleton")
        super().__init__(ranks, atoms)

    @property
    def size(self) -> int:
        return len(self.ranks)

    @functools.cached_property
    def search_data(self) -> tuple:
        """What lattice_isomorphic reads of this lattice alone, made once:
        the sorted ranks and atom profiles (the sorted ranks of the elements
        above an atom), each atom's profile, the atoms sorted by profile,
        finish (finish[t] holds the rank of x and the positions in that
        order of x's atoms, for each x whose last atom is at position t - 1)
        and the rank of each atom set."""
        ranks, atoms = self.ranks, self.atoms
        bits = [tuple(set_bits(m)) for m in atoms]
        profile = {js[0]: [] for js in bits if len(js) == 1}
        for r, js in zip(ranks, bits):
            for j in js:
                profile[j].append(r)
        for p in profile.values():
            p.sort()
        order = sorted(profile, key=profile.get)
        position = {j: t for t, j in enumerate(order)}
        finish: list[list] = [[] for _ in range(len(order) + 1)]
        for r, js in zip(ranks, bits):
            ps = sorted(position[j] for j in js)
            finish[max(ps, default=-1) + 1].append((r, ps))
        return ((sorted(ranks), sorted(profile.values())), profile, order, finish,
                dict(zip(atoms, ranks)))


def restriction_lattice(arr: Arrangement, U: Subspace) -> RankedLattice:
    """The intersection lattice of the restriction of arr to U, labeled by
    arr: each restricted hyperplane is the class of hyperplanes of arr with
    one nonzero primitive trace on U, and its atom is the bit of the first
    of them.  Elements come in (rank, atoms) order.  So two subspaces with
    one matroid label, whose traces have the same loops, parallel classes
    and flats, get equal values."""
    first = _trace_names(arr, U)
    names = tuple(first.values())
    lat = intersection_lattice(Arrangement(U.dim, tuple(first)))
    elements = sorted((f.rank, sum(1 << names[i] for i in set_bits(g)))
                      for f, g in zip(lat.flats, lat.gens))
    return RankedLattice(*map(tuple, zip(*elements)))


def lattice_isomorphic(L1: RankedLattice, L2: RankedLattice) -> bool:
    """Exact search for a rank-preserving order isomorphism.

    An isomorphism takes atoms to atoms, so it is a bijection of atoms that
    takes each atom set of L1 to an atom set of L2 of the same rank.  The
    search maps the atoms one at a time, each to an unused one of the same
    profile, and looks x's image up when the last of x's atoms is mapped.
    The unused images of a profile form one pool: taking pool[i] swaps it
    to the end and pops it, giving it back pushes it and swaps it home, so
    each step is O(1).  The choices sit on a stack, not in recursion, so any
    number of atoms fits.  What it reads of one lattice alone is prepared
    once per lattice (RankedLattice.search_data).  No size cap; the worst
    case left is non-isomorphic lattices whose atoms share all counts, where
    the search can backtrack exponentially in the number of atoms."""
    d1, d2 = L1.search_data, L2.search_data
    if d1[0] != d2[0]:
        return False
    (_, p1, order, finish, _), (_, p2, _, _, rank_of) = d1, d2
    pools: dict[tuple[int, ...], list[int]] = {}
    for j, p in p2.items():
        pools.setdefault(tuple(p), []).append(1 << j)
    pool_of = [pools[tuple(p1[a])] for a in order]
    image: list[int] = []  # image[t] is the bit of order[t]'s image in L2
    tried: list[int] = []  # tried[t] counts the images tried for order[t]
    while True:
        if all(rank_of.get(sum(image[p] for p in ps)) == r
               for r, ps in finish[len(image)]):
            if len(image) == len(order):
                return True
            tried.append(0)
        # the next image at the deepest open position, giving back the one
        # it holds, and backtracking past each position whose pool is spent
        while tried:
            pool, i = pool_of[len(tried) - 1], tried[-1]
            if len(image) == len(tried):
                pool.append(image.pop())
                pool[i - 1], pool[-1] = pool[-1], pool[i - 1]
            if i < len(pool):
                break
            tried.pop()
        else:
            return False
        pool[i], pool[-1] = pool[-1], pool[i]
        image.append(pool.pop())
        tried[-1] = i + 1
