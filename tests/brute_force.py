"""Brute-force references for the lattice and the labels the package
computes on flats.

The lattice reference intersects every flat with every hyperplane until
nothing new appears, reads generators off dot products and finds covers by
comparing every pair of flats.  The matroid reference takes the rank of
the orthogonal projections of the normals on every one of the 2^m subsets
and checks the matroid axioms on that whole table; the per-flat references
take one elimination per flat, with no value inferred from another flat's,
for the trace ranks and the overlap dimensions; the pairwise reference
checks per-flat ranks on every incomparable pair of flats.  The Schubert
reference walks every maximal chain and takes the overlap dimension of
each flat on it; label_jumps reads the same jump positions off a Schubert
label's per-flat dimensions, and subset_bases the bases off a matroid's
per-flat ranks.  The defect reference spans the Fraction projections of
the normals, by the Gram solve of matrix_helpers.  The essentialization
writes the normals in the canonical basis E of the span of the normals,
and maps a subspace U to the pair (i, W): i = dim(U meet center) and W
the coordinates, in E, of the projection of U's defect.  The isomorphism
reference tries every rank-preserving bijection of two ranked lattices.
Tests compare the package's lattice, per-flat labels, defect subspaces,
axiom check and isomorphism search against them.
"""

import itertools

from grasstrata.arrangement import (
    Flat,
    build_arrangement,
    intersection_lattice,
    maximal_chains,
)
from grasstrata.exactlin import (
    Subspace,
    dot,
    full_space,
    intersection_dim,
    matrix,
    project,
    rank,
)
from matrix_helpers import (
    canonical_reference,
    cleared,
    gram_coordinates,
    hyperplane,
    intersect,
    is_leq,
    project_reference,
)


def reference_lattice(arr):
    """(flats, covers) of the intersection lattice: flats sorted by rank and
    canonical basis, covers the index pairs (a, b) with b one rank above a
    and inside it."""
    n = arr.ambient_dim
    whole = full_space(n)
    seen = {whole}
    frontier = [whole]
    while frontier:
        nxt = []
        for X in frontier:
            for i in range(1, arr.size + 1):
                Y = intersect(X, hyperplane(arr, i))
                if Y not in seen:
                    seen.add(Y)
                    nxt.append(Y)
        frontier = nxt
    flats = sorted(
        (Flat(S, n - S.dim, frozenset(
            i for i in range(1, arr.size + 1)
            if all(dot(row, arr.normals[i - 1]) == 0 for row in S.basis)))
         for S in seen),
        key=lambda f: (f.rank, f.subspace.basis))
    covers = tuple(
        (a, b) for a, fa in enumerate(flats) for b, fb in enumerate(flats)
        if fb.rank == fa.rank + 1 and fa.generators <= fb.generators)
    return tuple(flats), covers


def mask_labels(mask):
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def projection_rank_table(arr, U):
    """rank of {project(U, a_i) : i in S} for every subset S, by bitmask
    (bit j is hyperplane j + 1)."""
    m = arr.size
    betas = cleared([project(U, a) for a in arr.normals])
    return tuple(
        rank(matrix([betas[i] for i in range(m) if mask >> i & 1],
                    cols=arr.ambient_dim))
        for mask in range(1 << m))


def check_rank_axioms(m, table):
    """Raise ValueError unless table is a matroid rank function on {1..m}:
    rank 0 on the empty set, unit increase, and submodularity, locally
    everywhere and for every pair of subsets when m <= 8."""
    if len(table) != 1 << m:
        raise ValueError("rank table must cover every subset")
    if table[0] != 0:
        raise ValueError("empty set must have rank 0")
    for S in range(1 << m):
        rS = table[S]
        out = [e for e in range(m) if not S >> e & 1]
        for e in out:
            if not rS <= table[S | 1 << e] <= rS + 1:
                raise ValueError(
                    f"unit increase fails at {mask_labels(S)} with {e + 1}")
        for a in range(len(out)):
            for b in range(a + 1, len(out)):
                e, f = 1 << out[a], 1 << out[b]
                if table[S | e] + table[S | f] < table[S | e | f] + rS:
                    raise ValueError(
                        f"submodularity fails at {mask_labels(S)} with "
                        f"{out[a] + 1}, {out[b] + 1}")
    if m <= 8:
        for S in range(1 << m):
            for T in range(1 << m):
                if table[S | T] + table[S & T] > table[S] + table[T]:
                    raise ValueError(
                        f"submodularity fails for {mask_labels(S)} and "
                        f"{mask_labels(T)}")


def check_pairwise_axioms(lat, r):
    """Raise ValueError unless r, one rank per flat of lat, is 0 at the
    bottom, steps by 0 or 1 on every cover and has
    r(a join b) + r(a meet b) <= r(a) + r(b) for every incomparable pair of
    flats.  The join is the closure of the union; the meet is the flat of
    the common hyperplanes, since an intersection of closed sets is closed."""
    if r[0] != 0:
        raise ValueError("the bottom flat must have rank 0")
    for a, b in lat.covers:
        if not r[a] <= r[b] <= r[a] + 1:
            raise ValueError(f"unit increase fails from flat {a} to {b}")
    gens = lat.gens
    index = {g: a for a, g in enumerate(gens)}
    for a, b in itertools.combinations(range(len(gens)), 2):
        common = gens[a] & gens[b]
        if common == gens[a] or common == gens[b]:
            continue
        if r[lat.closure(gens[a] | gens[b])] + r[index[common]] > r[a] + r[b]:
            raise ValueError(f"submodularity fails for flats {a} and {b}")


def full_ranks(arr, U):
    """The trace rank rank{B a_i : i in F} of every flat F, in flat order,
    one elimination per flat."""
    traces = [tuple(dot(row, a) for row in U.basis) for a in arr.normals]
    return tuple(rank(matrix([traces[i - 1] for i in f.generators],
                             cols=U.dim))
                 for f in intersection_lattice(arr).flats)


def full_dims(arr, U):
    """dim(U meet X) for every flat X, in flat order, one elimination of
    the stacked bases per flat."""
    return tuple(U.dim + f.subspace.dim
                 - rank(U.basis + f.subspace.basis)
                 for f in intersection_lattice(arr).flats)


def walked_jumps(arr, U):
    """Per maximal chain (center, ..., R^n), in maximal_chains order, the
    positions where dim(U meet chain flat) goes up."""
    out = []
    for ch in maximal_chains(intersection_lattice(arr)):
        dims = [intersection_dim(U, f.subspace) for f in ch]
        out.append(tuple(l for l in range(1, len(ch))
                         if dims[l] > dims[l - 1]))
    return tuple(out)


def label_jumps(arr, dims):
    """Per maximal chain, in maximal_chains order, the positions where the
    overlap dimension goes up, read off the Schubert label dims."""
    lat = intersection_lattice(arr)
    dim_at = dict(zip(lat.flats, dims))
    return tuple(tuple(l for l in range(1, len(ch))
                       if dim_at[ch[l]] > dim_at[ch[l - 1]])
                 for ch in maximal_chains(lat))


def subset_bases(mat):
    """All bases of a matroid: the subsets of size mat.rank whose rank,
    read through subset_rank, is mat.rank; {empty set} for rank 0."""
    r = mat.rank
    return frozenset(frozenset(I) for I in itertools.combinations(
        range(1, mat.ground_size + 1), r) if mat.subset_rank(I) == r)


def defect_reference(arr, U):
    """The span of the orthogonal projections of the normals onto U, from
    project_reference and canonical_reference: no code shared with
    pluecker.defect_subspace or exactlin.projector."""
    n = arr.ambient_dim
    rows = [project_reference(U.basis, a) for a in arr.normals]
    return Subspace(n, canonical_reference(rows, n))


def essential_basis(arr):
    """E: the canonical basis of the span of the normals, the orthogonal
    complement of the center, as integer rows."""
    return canonical_reference(arr.normals, arr.ambient_dim)


def essentialize(arr):
    """ess(A) in Q^r, r = rank A: the normals E a_j in hyperplane order.  A
    normal lies in the span of E, so E a_j is not zero, and E is injective
    there, so distinct hyperplanes stay distinct."""
    E = essential_basis(arr)
    return build_arrangement(len(E), [[dot(e, a) for e in E]
                                      for a in arr.normals])


def essential_pair(arr, U):
    """(i, W) for U: i = dim(U meet center), and W in Q^r the span of the
    coordinates, in E, of the projections to the span of E of the defect
    V = defect_reference(arr, U).  The normals lie in that span, so
    a_j . v = (E a_j) . w for each v of V and its coordinates w."""
    E = essential_basis(arr)
    V = defect_reference(arr, U)
    rows = cleared([gram_coordinates(E, v) for v in V.basis])
    W = Subspace(len(E), canonical_reference(rows, len(E)))
    if W.dim != V.dim:
        raise ValueError("the projection to the span of E is not injective "
                         "on the defect")
    return U.dim - V.dim, W


def brute_isomorphic(L1, L2):
    """Whether some rank-preserving bijection between two RankedLattices
    preserves the order both ways, trying every one."""
    levels = sorted(set(L1.ranks) | set(L2.ranks))
    src = [[i for i, r in enumerate(L1.ranks) if r == lv] for lv in levels]
    dst = [[j for j, r in enumerate(L2.ranks) if r == lv] for lv in levels]
    if [len(b) for b in src] != [len(b) for b in dst]:
        return False
    for images in itertools.product(*map(itertools.permutations, dst)):
        f = {}
        for block, image in zip(src, images):
            f.update(zip(block, image))
        if all(is_leq(L1, i, j) == is_leq(L2, f[i], f[j]) for i in f for j in f):
            return True
    return False
