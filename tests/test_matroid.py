import itertools
import operator
import os
import random
import tracemalloc

import pytest

import grasstrata.arrangement
import grasstrata.matroid
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
    load_arrangement,
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


def lattice_order(arr):
    """The intersection lattice of arr as a RankedLattice: a flat's atoms
    are its generators."""
    lat = intersection_lattice(arr)
    return RankedLattice(tuple(f.rank for f in lat.flats), lat.gens)


def permuted(L, rng):
    """L with its elements and its atoms relabeled by random permutations."""
    perm = rng.sample(range(L.size), L.size)
    m = max(L.atoms).bit_length()
    bit = rng.sample(range(m), m)
    ranks, atoms = [0] * L.size, [0] * L.size
    for i, (r, a) in enumerate(zip(L.ranks, L.atoms)):
        ranks[perm[i]] = r
        atoms[perm[i]] = sum(1 << bit[j] for j in range(m) if a >> j & 1)
    return RankedLattice(tuple(ranks), tuple(atoms))


DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")


def lines_1200():
    return build_arrangement(2, [(1, t) for t in range(1, 1201)])


def inside_hyperplane(arr, j, k, i):
    """A k-subspace of hyperplane j + 1 from the i-th sample of Q^(n-1)."""
    K = kernel(matrix([arr.normals[j]], cols=arr.ambient_dim), arr.ambient_dim)
    C = sample_subspace(arr.ambient_dim - 1, k, 3, 0, i)
    return canonical_subspace([[sum(c * row[t] for c, row in zip(crow, K.basis))
                                for t in range(arr.ambient_dim)]
                               for crow in C.basis], arr.ambient_dim)


def loop_cases():
    """(arrangement, subspace) pairs with and without loops."""
    arrs = [load_arrangement(os.path.join(DATA, f)) for f in sorted(os.listdir(DATA))
            if f != "line_e1.txt"]
    for arr in arrs + [build_arrangement(3, [])]:
        n = arr.ambient_dim
        for k in range(n + 1):
            yield from ((arr, sample_subspace(n, k, 5, 0, i)) for i in range(3))
            yield from ((arr, U) for U in structured_subspaces(arr, k))
            if k < n:
                yield from ((arr, inside_hyperplane(arr, j, k, j))
                            for j in range(arr.size))
    lines = lines_1200()
    for i in range(3):
        yield lines, sample_subspace(2, 1, 5, 0, i)
    for j in (0, 1, 599, 1199):
        yield lines, inside_hyperplane(lines, j, 1, 0)
    yield lines, full_space(2)
    yield lines, sample_subspace(2, 0, 5, 0, 0)


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
    # loops, read off the atoms, are the hyperplanes with B a_j = 0: on
    # every data/ arrangement at every k, on random and structured samples
    # and samples inside a hyperplane, on the empty arrangement and on the
    # 1,200 lines (1, t) of Q^2
    for arr, U in loop_cases():
        zero = {j for j, a in enumerate(arr.normals, 1)
                if not any(sum(map(operator.mul, row, a)) for row in U.basis)}
        assert loops(matroid_from(arr, U)) == zero, (arr.normals, U.basis)


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


def test_axiom_messages_name_the_failing_flats():
    # the coordinate lattice of Q^3: flats (), (1,), (2,), (3,), (1, 2),
    # (1, 3), (2, 3), (1, 2, 3) in flat order
    lat = intersection_lattice(boolean(3))
    with pytest.raises(ValueError) as e:
        Matroid(lat, (0, 0, 0, 0, 0, 0, 0, 2))
    assert str(e.value) == "unit increase fails from flat (1, 2) to (1, 2, 3)"
    # every hyperplane keeps the bottom's rank 0, but (1,) has rank 0 and
    # rank 1 on (1, 2) and (1, 3): it loses 2 and 3, and the message names
    # the cover of the bottom inside the highest one
    with pytest.raises(ValueError) as e:
        Matroid(lat, (0, 0, 0, 0, 1, 1, 1, 2))
    assert str(e.value) == "submodularity fails for flats (1,) and (3,)"
    # (3,) keeps rank 1 on hyperplane 2, but its cover (1, 3) does not
    with pytest.raises(ValueError) as e:
        Matroid(lat, (0, 1, 1, 1, 2, 1, 1, 2))
    assert str(e.value) == "submodularity fails for flats (1, 3) and (2, 3)"


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
                    betas = cleared([project(U, arr.normals[i - 1]) for i in I])
                    lhs = rank(matrix(betas, cols=n))
                    flat = kernel(matrix([arr.normals[i - 1] for i in I], cols=n), n)
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
                        betas = cleared([project(U, arr.normals[i - 1]) for i in I])
                        s2 = size == target and rank(
                            matrix(betas, cols=n)) == size
                        flat = kernel(matrix([arr.normals[i - 1] for i in I],
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


def test_restriction_lattice_names_atoms_by_hyperplanes():
    # the line x1 = x2 lies in hyperplane 1 (a loop) and meets hyperplanes
    # 2 and 3 in one point, so its one atom is named by hyperplane 2
    assert restriction_lattice(braid3(), span([[1, 1, 0]], 3)) == \
        RankedLattice((0, 1), (0, 0b010))
    # a generic plane: three atoms, in (rank, atoms) order
    assert restriction_lattice(braid3(), kernel(((1, 1, 1),), 3)) == \
        RankedLattice((0, 1, 1, 1, 2), (0, 0b001, 0b010, 0b100, 0b111))


def test_restriction_lattice_traces_each_hyperplane_once(monkeypatch):
    # the restricted arrangement and its atom names come from one trace per
    # normal on U's basis; the traces that build the restricted lattice
    # itself, on its own flats, are not counted
    trace, build = grasstrata.arrangement._primitive_trace, intersection_lattice
    traced, building = [], []

    def counted_trace(rows, a):
        if not building:
            traced.append((rows, a))
        return trace(rows, a)

    def counted_build(arr):
        building.append(arr)
        try:
            return build(arr)
        finally:
            building.pop()

    for module in (grasstrata.arrangement, grasstrata.matroid):
        for attr, value in list(vars(module).items()):
            if value is trace:
                monkeypatch.setattr(module, attr, counted_trace)
            elif value is build:
                monkeypatch.setattr(module, attr, counted_build)
    cases = [(arr, U) for arr, U in loop_cases() if U.dim > 0]
    cases += [(boolean(6), sample_subspace(6, k, 5, 0, k)) for k in (2, 3, 6)]
    for arr, U in cases:
        traced.clear()
        restriction_lattice(arr, U)
        assert traced == [(U.basis, a) for a in arr.normals], (arr.normals, U.basis)


def test_ranked_lattice_order():
    L = lattice_order(braid3())
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

    two_atoms = lattice_order(build_arrangement(2, [(1, 0), (0, 1)]))
    assert not lattice_isomorphic(generic, two_atoms)


def test_lattice_isomorphic_relabeling_invariance():
    rng = random.Random(71)
    # the last is the 82-element restriction of braid n = 6 to a 3-subspace
    big = restriction_lattice(braid(6), sample_subspace(6, 3, 5, 0, 0))
    assert big.size == 82
    for L in (lattice_order(braid3()),
              lattice_order(boolean(3)), big):
        for _ in range(5):
            assert lattice_isomorphic(L, permuted(L, rng))


def test_lattice_isomorphic_symmetry():
    a = restriction_lattice(braid3(), kernel(((1, 1, 1),), 3))
    b = restriction_lattice(braid3(), span([[1, 1, 0], [0, 0, 1]], 3))
    assert lattice_isomorphic(a, b) == lattice_isomorphic(b, a)


def test_distinguishes_nonisomorphic_same_size():
    # one element of rank 2 above two of the three atoms or above all
    # three: same sizes and ranks
    ranks = (0, 1, 1, 1, 2)
    line = RankedLattice(ranks, (0, 0b001, 0b010, 0b100, 0b011))
    plane = RankedLattice(ranks, (0, 0b001, 0b010, 0b100, 0b111))
    assert not lattice_isomorphic(line, plane)
    assert lattice_isomorphic(line, line) and lattice_isomorphic(plane, plane)


def test_lattice_isomorphic_on_1024_elements():
    # the lattice of the coordinate arrangement in Q^10, as large as the
    # 1014-element restriction lattices verify --k 9 compares there, with
    # one search level per atom
    L = lattice_order(boolean(10))
    assert L.size == 1024
    assert lattice_isomorphic(L, permuted(L, random.Random(73)))


def test_lattice_isomorphic_on_1100_atoms():
    # a search level per atom, on a stack: 1100 lines in the plane compare
    # with a relabeling far beyond the recursion limit
    m = 1100
    L = RankedLattice((0,) + (1,) * m + (2,),
                      (0,) + tuple(1 << j for j in range(m)) + ((1 << m) - 1,))
    assert lattice_isomorphic(L, permuted(L, random.Random(83)))


def test_lattice_isomorphic_memory_stays_bounded():
    # two restriction lattices of 300 lines in the plane, whose atoms share
    # one profile: the atoms share one list of candidate images, where one
    # list per atom would hold 90,000 big ints
    lines = [build_arrangement(2, [(1, s * t) for t in range(1, 301)])
             for s in (1, -1)]
    L1, L2 = (restriction_lattice(arr, full_space(2)) for arr in lines)
    L1.search_data, L2.search_data  # made once per lattice, outside the trace
    tracemalloc.start()
    try:
        assert lattice_isomorphic(L1, L2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_lattice_isomorphic_beyond_atoms():
    # B_3, every element above rank 1 the join of its atoms, against its
    # relabelings and against B_3 with the ranks of a coatom and the top
    # swapped, as brute force says
    cube = RankedLattice(tuple(s.bit_count() for s in range(8)), tuple(range(8)))
    swapped = RankedLattice((0, 1, 1, 3, 1, 2, 2, 2), tuple(range(8)))
    rng = random.Random(79)
    pool = [cube, swapped] + [permuted(L, rng) for L in (cube, swapped)
                              for _ in range(2)]
    outcomes = set()
    for L1, L2 in itertools.product(pool, repeat=2):
        expected = brute_isomorphic(L1, L2)
        assert lattice_isomorphic(L1, L2) == expected
        outcomes.add(expected)
    assert outcomes == {False, True}
