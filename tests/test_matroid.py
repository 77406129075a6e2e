import itertools
import random

import pytest

from brute_force import check_pairwise_axioms, check_rank_axioms
from grasstrata.arrangement import (
    GuardExceeded,
    build_arrangement,
    center,
    intersection_lattice,
)
from grasstrata.exactlin import (
    canonical_subspace,
    full_space,
    intersect,
    is_direct_sum_full,
    kernel,
    matrix,
    project,
    rank,
    span,
)
from grasstrata.matroid import (
    Matroid,
    RankedLattice,
    bases,
    lattice_isomorphic,
    loops,
    matroid_from,
    ranked_lattice,
    restriction_lattice,
)
from grasstrata.pluecker import defect_subspace
from grasstrata.sampling import sample_subspace, structured_subspaces


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
        U = canonical_subspace(M)
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
            if L.is_leq(i, j):
                bits |= 1 << perm[j]
        leq[perm[i]] = bits
    return RankedLattice(tuple(ranks), tuple(leq))


# ---------------------------------------------------------------- matroids


def test_matroid_braid3_line():
    mat = matroid_from(braid3(), span([[1, 0, 0]], 3))
    assert mat.rank == 1
    assert loops(mat) == frozenset({3})
    assert bases(mat) == frozenset({frozenset({1}), frozenset({2})})
    assert mat.subset_rank([1, 2]) == 1
    assert mat.subset_rank([3]) == 0
    assert mat.subset_rank([]) == 0


def test_matroid_center_is_all_loops():
    arr = braid3()
    mat = matroid_from(arr, center(arr))
    assert mat.rank == 0
    assert loops(mat) == frozenset({1, 2, 3})
    assert bases(mat) == frozenset({frozenset()})


def test_matroid_boolean_full_space():
    mat = matroid_from(boolean(2), full_space(2))
    assert mat.rank == 2
    assert bases(mat) == frozenset({frozenset({1, 2})})
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
    # 1: the check on two covers of a flat refuses exactly what the check
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
    # 17 planes in general position: the per-flat matroid needs no guard,
    # only its table over all 2^17 subsets is refused
    arr = build_arrangement(3, [(1, t, t * t) for t in range(1, 18)])
    mat = matroid_from(arr, span([[1, 0, 0], [0, 1, 0]], 3))
    assert mat.rank == 2
    assert loops(mat) == frozenset()
    assert mat.subset_rank([1, 2, 3]) == 2
    with pytest.raises(GuardExceeded):
        mat.rank_table


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
                    betas = [project(U, arr.normal(i)) for i in I]
                    lhs = rank(matrix(betas, cols=n))
                    flat = kernel(matrix([arr.normal(i) for i in I], cols=n))
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
                B = bases(mat)
                for size in range(arr.size + 1):
                    for I in itertools.combinations(range(1, arr.size + 1),
                                                    size):
                        s1 = frozenset(I) in B
                        betas = [project(U, arr.normal(i)) for i in I]
                        s2 = size == target and rank(
                            matrix(betas, cols=n)) == size
                        flat = kernel(matrix([arr.normal(i) for i in I],
                                             cols=n))
                        s3 = size == target and is_direct_sum_full(V, flat)
                        assert s1 == s2 == s3


# ---------------------------------------------------------------- lattices


def test_restriction_lattice_examples():
    arr = braid3()
    generic = kernel(matrix([[1, 1, 1]]))
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
        assert L.is_leq(bottom, j)
        assert L.is_leq(j, top)
    assert not L.is_leq(top, bottom)


def test_lattice_isomorphic_basics():
    arr = braid3()
    generic = restriction_lattice(arr, kernel(matrix([[1, 1, 1]])))
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
    a = restriction_lattice(braid3(), kernel(matrix([[1, 1, 1]])))
    b = restriction_lattice(braid3(), span([[1, 1, 0], [0, 0, 1]], 3))
    assert lattice_isomorphic(a, b) == lattice_isomorphic(b, a)


def test_distinguishes_nonisomorphic_same_size():
    # chain of length 3 vs a diamond with an extra top: same sizes, ranks kept
    chain = RankedLattice((0, 1, 2), (0b111, 0b110, 0b100))
    vee = RankedLattice((0, 1, 1), (0b111, 0b010, 0b100))
    assert not lattice_isomorphic(chain, vee)
