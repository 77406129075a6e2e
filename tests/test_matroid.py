import itertools
import random

import pytest

from brute_force import (
    brute_isomorphic,
    check_pairwise_axioms,
    check_rank_axioms,
    subset_bases,
)
from grasstrata.arrangement import (
    build_arrangement,
    center,
    intersection_lattice,
)
from grasstrata.exactlin import (
    canonical_subspace,
    full_space,
    kernel,
    matrix,
    project,
    rank,
    span,
)
from grasstrata.matroid import (
    Matroid,
    RankedLattice,
    lattice_isomorphic,
    loops,
    matroid_from,
    ranked_lattice,
    restriction_lattice,
)
from grasstrata.pluecker import defect_subspace
from grasstrata.sampling import sample_subspace, structured_subspaces
from matrix_helpers import cleared, intersect, is_direct_sum_full, is_leq


def braid3():
    return build_arrangement(3, [(1, -1, 0), (1, 0, -1), (0, 1, -1)])


def braid(n):
    return build_arrangement(n, [[(j == a) - (j == b) for j in range(n)]
                                 for a, b in itertools.combinations(range(n), 2)])


def boolean(n):
    return build_arrangement(n, [[1 if j == i else 0 for j in range(n)]
                                 for i in range(n)])


def nonessential3():
    return build_arrangement(3, [(1, 0, 0), (0, 1, 0)])


def random_subspace(rng, n, k):
    while True:
        M = matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)],
                   cols=n)
        U = canonical_subspace(M, n)
        if U.dim == k:
            return U


def permuted(L, perm):
    """Relabel a RankedLattice by perm (element i becomes perm[i])."""
    size = L.size
    ranks = [0] * size
    leq = [0] * size
    for i in range(size):
        ranks[perm[i]] = L.ranks[i]
        bits = 0
        for j in range(size):
            if is_leq(L, i, j):
                bits |= 1 << perm[j]
        leq[perm[i]] = bits
    return RankedLattice(tuple(ranks), tuple(leq))


def from_covers(ranks, covers):
    """The RankedLattice whose order is generated by covers, pairs i < j."""
    up = [1 << i for i in range(len(ranks))]
    for _ in ranks:
        for i, j in covers:
            up[i] |= up[j]
    return RankedLattice(tuple(ranks), tuple(up))


# ---------------------------------------------------------------- matroids


def test_matroid_braid3_line():
    mat = matroid_from(braid3(), span([[1, 0, 0]], 3))
    assert mat.rank == 1
    assert loops(mat) == frozenset({3})
    assert subset_bases(mat) == frozenset({frozenset({1}), frozenset({2})})
    assert mat.subset_rank([1, 2]) == 1
    assert mat.subset_rank([3]) == 0
    assert mat.subset_rank([]) == 0


def test_matroid_center_is_all_loops():
    arr = braid3()
    mat = matroid_from(arr, center(arr))
    assert mat.rank == 0
    assert loops(mat) == frozenset({1, 2, 3})
    assert subset_bases(mat) == frozenset({frozenset()})


def test_matroid_boolean_full_space():
    mat = matroid_from(boolean(2), full_space(2))
    assert mat.rank == 2
    assert subset_bases(mat) == frozenset({frozenset({1, 2})})
    assert loops(mat) == frozenset()


def test_matroid_guard_and_errors():
    # bad subset tables on one and on two hyperplanes, read on the flats:
    # the lattice check refuses each one, as the subset check does
    one = intersection_lattice(build_arrangement(1, [(1,)]))
    two = intersection_lattice(boolean(2))
    with pytest.raises(ValueError):
        Matroid(one, (0, 1, 0))  # more ranks than flats
    for tables, table in ((one, (1, 1)),  # empty set rank nonzero
                          (one, (0, 2)),  # unit increase
                          (two, (0, 0, 0, 1))):  # submodularity
        with pytest.raises(ValueError):
            check_rank_axioms(tables.ground_size, table)
        with pytest.raises(ValueError):
            Matroid(tables, tuple(table[g] for g in tables.gens))
    with pytest.raises(ValueError):
        mat = matroid_from(boolean(2), full_space(2))
        mat.subset_rank([5])


def test_local_check_agrees_with_pairwise_reference():
    # on the benchmark arrangements, for the true ranks of random and
    # structured 2- and 3-subspaces and every change of one flat's rank by
    # 1: the check on the covers of a flat refuses exactly what the check
    # on every incomparable pair of flats refuses
    rng = random.Random(71)
    outcomes = set()
    for arr in (braid(5), boolean(6)):
        lat = intersection_lattice(arr)
        for k in (2, 3):
            for U in [random_subspace(rng, arr.ambient_dim, k),
                      rng.choice(structured_subspaces(arr, k, 0))]:
                ranks = matroid_from(arr, U).ranks
                trials = [ranks] + [ranks[:a] + (ranks[a] + d,) + ranks[a + 1:]
                                    for a in range(len(ranks)) for d in (-1, 1)]
                for r in trials:
                    try:
                        check_pairwise_axioms(lat, r)
                        reference = "matroid"
                    except ValueError as e:
                        reference = str(e).split()[0]
                    try:
                        Matroid(lat, r)
                        local_ok = True
                    except ValueError:
                        local_ok = False
                    assert local_ok == (reference == "matroid"), r
                    outcomes.add(reference)
    assert {"matroid", "unit", "submodularity"} <= outcomes


def test_rank_table_guard_only():
    # 17 planes in general position: the per-flat matroid needs no guard
    arr = build_arrangement(3, [(1, t, t * t) for t in range(1, 18)])
    mat = matroid_from(arr, span([[1, 0, 0], [0, 1, 0]], 3))
    assert mat.rank == 2
    assert loops(mat) == frozenset()
    assert mat.subset_rank([1, 2, 3]) == 2


def test_rank_table_has_both_descriptions():
    # span of projections on one side, codimension of the trace on the other
    rng = random.Random(61)
    for arr in (braid3(), boolean(3), nonessential3()):
        n = arr.ambient_dim
        for _ in range(8):
            U = random_subspace(rng, n, rng.randint(0, n))
            mat = matroid_from(arr, U)
            for size in range(arr.size + 1):
                for I in itertools.combinations(range(1, arr.size + 1), size):
                    betas = cleared([project(U, arr.normal(i)) for i in I])
                    lhs = rank(matrix(betas, cols=n))
                    flat = kernel(matrix([arr.normal(i) for i in I], cols=n), n)
                    rhs = U.dim - intersect(U, flat).dim
                    assert mat.subset_rank(I) == lhs == rhs


def test_basis_triple_equivalence():
    # bases == right-sized independent projection sets
    #       == right-sized direct-sum complements of the defect
    rng = random.Random(67)
    for arr in (braid3(), boolean(3), nonessential3()):
        n = arr.ambient_dim
        for k in (1, 2):
            for _ in range(6):
                U = random_subspace(rng, n, k)
                mat = matroid_from(arr, U)
                V = defect_subspace(arr, U)
                target = V.dim
                assert mat.rank == target
                B = subset_bases(mat)
                for size in range(arr.size + 1):
                    for I in itertools.combinations(range(1, arr.size + 1),
                                                    size):
                        s1 = frozenset(I) in B
                        betas = cleared([project(U, arr.normal(i)) for i in I])
                        s2 = size == target and rank(
                            matrix(betas, cols=n)) == size
                        flat = kernel(matrix([arr.normal(i) for i in I],
                                             cols=n), n)
                        s3 = size == target and is_direct_sum_full(V, flat)
                        assert s1 == s2 == s3


# ---------------------------------------------------------------- lattices


def test_restriction_lattice_examples():
    arr = braid3()
    generic = kernel(((1, 1, 1),), 3)
    L = restriction_lattice(arr, generic)
    assert L.size == 5
    assert sorted(L.ranks) == [0, 1, 1, 1, 2]

    L2 = restriction_lattice(arr, center(arr))
    assert L2.size == 1
    assert L2.ranks == (0,)

    L3 = restriction_lattice(boolean(2), span([[1, 1]], 2))
    assert L3.size == 2
    assert sorted(L3.ranks) == [0, 1]


def test_ranked_lattice_order():
    L = ranked_lattice(intersection_lattice(braid3()))
    bottom = L.ranks.index(0)
    top = L.ranks.index(2)
    for j in range(L.size):
        assert is_leq(L, bottom, j)
        assert is_leq(L, j, top)
    assert not is_leq(L, top, bottom)


def test_lattice_isomorphic_basics():
    arr = braid3()
    generic = restriction_lattice(arr, kernel(((1, 1, 1),), 3))
    assert lattice_isomorphic(generic, generic)

    other = restriction_lattice(arr, span([[1, 0, 0], [0, 1, 0]], 3))
    assert lattice_isomorphic(generic, other)

    two_atoms = ranked_lattice(intersection_lattice(
        build_arrangement(2, [(1, 0), (0, 1)])))
    assert not lattice_isomorphic(generic, two_atoms)


def test_lattice_isomorphic_relabeling_invariance():
    rng = random.Random(71)
    # the last is the 82-element restriction of braid n = 6 to a 3-subspace
    big = restriction_lattice(braid(6), sample_subspace(6, 3, 5, 0, 0))
    assert big.size == 82
    for L in (ranked_lattice(intersection_lattice(braid3())),
              ranked_lattice(intersection_lattice(boolean(3))), big):
        perm = list(range(L.size))
        for _ in range(5):
            rng.shuffle(perm)
            assert lattice_isomorphic(L, permuted(L, list(perm)))


def test_lattice_isomorphic_symmetry():
    a = restriction_lattice(braid3(), kernel(((1, 1, 1),), 3))
    b = restriction_lattice(braid3(), span([[1, 1, 0], [0, 0, 1]], 3))
    assert lattice_isomorphic(a, b) == lattice_isomorphic(b, a)


def test_distinguishes_nonisomorphic_same_size():
    # chain of length 3 vs a diamond with an extra top: same sizes, ranks kept
    chain = RankedLattice((0, 1, 2), (0b111, 0b110, 0b100))
    vee = RankedLattice((0, 1, 1), (0b111, 0b010, 0b100))
    assert not lattice_isomorphic(chain, vee)


def test_lattice_isomorphic_on_1024_elements():
    # the lattice of the coordinate arrangement in Q^10, as large as the
    # 1014-element restriction lattices verify --k 9 compares there: one
    # level per atom, not per element, stays far from the recursion limit
    L = ranked_lattice(intersection_lattice(boolean(10)))
    assert L.size == 1024
    perm = list(range(L.size))
    random.Random(73).shuffle(perm)
    assert lattice_isomorphic(L, permuted(L, perm))


def test_lattice_isomorphic_beyond_atoms():
    # lattices with join-irreducibles above rank 1, each against every
    # other one and against relabelings, as brute force says
    lattices = [
        from_covers((0, 1, 2, 3), [(0, 1), (1, 2), (2, 3)]),
        from_covers((0, 1, 2, 1, 3), [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]),
        from_covers((0, 1, 2, 2, 3), [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)]),
        from_covers([s.bit_count() for s in range(8)],
                    [(s, s | 1 << b) for s in range(8) for b in range(3)
                     if not s >> b & 1]),
        # the product of two 3-chains, (i, j) as 3 i + j
        from_covers([i + j for i in range(3) for j in range(3)],
                    [(3 * i + j, 3 * i + j + 1) for i in range(3) for j in range(2)]
                    + [(3 * i + j, 3 * i + j + 3) for i in range(2) for j in range(3)]),
    ]
    rng = random.Random(79)
    pool = lattices + [permuted(L, rng.sample(range(L.size), L.size))
                       for L in lattices for _ in range(2)]
    outcomes = set()
    for L1, L2 in itertools.product(pool, repeat=2):
        expected = brute_isomorphic(L1, L2)
        assert lattice_isomorphic(L1, L2) == expected
        outcomes.add(expected)
    assert outcomes == {False, True}
