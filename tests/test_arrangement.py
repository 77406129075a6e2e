import functools
import itertools
import random
from pathlib import Path

import pytest

import grasstrata.arrangement
from grasstrata.arrangement import (
    Arrangement,
    build_arrangement,
    center,
    chain_count,
    format_arrangement,
    intersection_lattice,
    is_essential,
    load_arrangement,
    maximal_chains,
    parse_arrangement,
    restriction,
)
from grasstrata.exactlin import (
    full_space,
    intersection_dim,
    kernel,
    matrix,
    span,
    vector,
    zero_subspace,
)
from grasstrata.sampling import sample_subspace

from brute_force import reference_lattice
from matrix_helpers import hyperplane, intersect, is_subspace_of


DATA = Path(__file__).resolve().parent.parent / "data"


def braid3():
    return build_arrangement(3, [(1, -1, 0), (1, 0, -1), (0, 1, -1)])


def braid(n):
    return build_arrangement(n, [[(j == a) - (j == b) for j in range(n)]
                                 for a, b in itertools.combinations(range(n), 2)])


def data_arrangements():
    return [load_arrangement(p) for p in sorted(DATA.glob("*.txt"))
            if p.name != "line_e1.txt"]  # that one is a subspace file


def boolean(n):
    rows = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    return build_arrangement(n, rows)


def nonessential3():
    return build_arrangement(3, [(1, 0, 0), (0, 1, 0)])


def subset_intersection_oracle(arr):
    """Exhaustive oracle: the set of subspaces cut out by every subset of
    hyperplanes, computed straight from the normals."""
    out = set()
    for size in range(arr.size + 1):
        for S in itertools.combinations(range(arr.size), size):
            rows = [arr.normals[i] for i in S]
            out.add(kernel(matrix(rows, cols=arr.ambient_dim), arr.ambient_dim))
    return out


# ------------------------------------------------------------ construction


def test_build_canonicalizes():
    arr = build_arrangement(3, [(2, -2, 0), (-1, 0, 1), (0, 1, -1)])
    assert arr.normals[0] == vector((1, -1, 0))
    assert arr.normals[1] == vector((1, 0, -1))
    assert arr.normals[2] == vector((0, 1, -1))
    assert arr == braid3()


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build_arrangement(2, [(2, 0), (1, 0)])  # scalar multiples, same set
    with pytest.raises(ValueError):
        build_arrangement(2, [(0, 0)])
    with pytest.raises(ValueError):
        build_arrangement(2, [(1, 0, 0)])
    # rows are taken up to scale, but only as ints
    with pytest.raises(ValueError, match="normal 2: entry 0.5 is not an int"):
        build_arrangement(2, [(1, 0), (0.5, 1)])


def test_arrangement_checks_its_normals():
    # built by hand, not through build_arrangement: a zero normal, a normal
    # longer than the ambient dimension and a repeated normal are refused
    # before any lattice is built
    for normals, problem in [(((0, 0), (1, 0)), "normal 1: zero vector"),
                             (((1, 0, 0),), "normal 1: expected 2 entries, got 3"),
                             (((1, 0), (1, 0)), "normal 2: duplicate hyperplane"),
                             (((2, 0),), "normal 1: not primitive"),
                             (((0, -1),), "normal 1: not primitive"),
                             (((1, 0), [0, 1]), "normal 2: list, not a tuple"),
                             (((1, True),), "normal 1: entry True is not an int")]:
        with pytest.raises(ValueError, match=problem):
            intersection_lattice(Arrangement(2, normals))
    # build_arrangement canonicalizes first and keeps its messages
    assert build_arrangement(2, [[-2, 0], [0, 3]]) == Arrangement(2, ((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="normal 2: zero vector"):
        build_arrangement(2, [(1, 0), (0, 0)])
    with pytest.raises(ValueError, match="normal 1: expected 2 entries, got 3"):
        build_arrangement(2, [(1, 0, 0), (0.5, 1)])


def test_hyperplane_subspaces():
    # the atoms of the lattice are the hyperplanes, each generated by its own
    arr = boolean(2)
    assert hyperplane(arr, 1) == span([[0, 1]], 2)
    assert hyperplane(arr, 2) == span([[1, 0]], 2)
    assert [(f.subspace, f.generators) for f in intersection_lattice(arr).by_rank(1)] \
        == [(hyperplane(arr, 1), {1}), (hyperplane(arr, 2), {2})]


# ---------------------------------------------------------------- lattice


def test_braid3_lattice():
    lat = intersection_lattice(braid3())
    assert len(lat.flats) == 5
    assert [f.rank for f in lat.flats] == [0, 1, 1, 1, 2]
    assert lat.rank == 2
    assert lat.flats[0].subspace == full_space(3)
    assert lat.top().subspace == span([[1, 1, 1]], 3)
    assert lat.top().generators == frozenset({1, 2, 3})


def test_empty_arrangement_lattice():
    arr = build_arrangement(3, [])
    lat = intersection_lattice(arr)
    assert len(lat.flats) == 1
    assert lat.rank == 0
    assert lat.flats[0].subspace == full_space(3)


def test_boolean_lattice_counts():
    for n in (2, 3):
        lat = intersection_lattice(boolean(n))
        assert len(lat.flats) == 2 ** n
        for r in range(n + 1):
            # coordinate subspaces: one flat per subset of axes
            assert len(lat.by_rank(r)) == len(
                list(itertools.combinations(range(n), r)))


def test_lattice_matches_subset_oracle():
    for arr in (braid3(), boolean(3), nonessential3(),
                build_arrangement(4, [(1, 1, 1, 1), (1, -1, 2, 0),
                                      (2, 0, -1, 1), (0, 1, 1, -2),
                                      (3, -2, 1, 1)])):
        lat = intersection_lattice(arr)
        assert {f.subspace for f in lat.flats} == subset_intersection_oracle(arr)
        for f in lat.flats:
            assert f.rank == arr.ambient_dim - f.subspace.dim
            # generators realize the flat and form a closure
            assert kernel(matrix([arr.normals[i - 1] for i in sorted(f.generators)],
                                 cols=arr.ambient_dim),
                          arr.ambient_dim) == f.subspace


def test_lattice_closed_under_hyperplane_intersection():
    for arr in (braid3(), boolean(3), nonessential3()):
        lat = intersection_lattice(arr)
        subs = {f.subspace for f in lat.flats}
        for f in lat.flats:
            for i in range(1, arr.size + 1):
                assert intersect(f.subspace, hyperplane(arr, i)) in subs


def test_covers_are_adjacent_rank_inclusions():
    lat = intersection_lattice(braid3())
    for a, b in lat.covers:
        assert lat.flats[b].rank == lat.flats[a].rank + 1
        assert is_subspace_of(lat.flats[b].subspace, lat.flats[a].subspace)
    # three hyperplanes above R^3, and T above each hyperplane
    assert len(lat.covers) == 6


# ----------------------------------------------------------------- center


def test_center_examples():
    assert center(braid3()) == span([[1, 1, 1]], 3)
    assert center(boolean(3)) == zero_subspace(3)
    assert center(build_arrangement(3, [])) == full_space(3)
    assert is_essential(boolean(3))
    assert not is_essential(braid3())
    assert center(nonessential3()) == span([[0, 0, 1]], 3)


# ------------------------------------------------------------ restriction


def test_restriction_braid3_to_sum_zero_plane():
    U = kernel(((1, 1, 1),), 3)
    res = restriction(braid3(), U)
    assert res.ambient_dim == 2
    assert res.size == 3


def test_restriction_dedups_traces():
    U = span([[1, 1]], 2)
    res = restriction(boolean(2), U)
    assert res.ambient_dim == 1
    assert res.size == 1
    assert res.normals == (vector((1,)),)
    assert type(res.normals[0][0]) is int


def test_restriction_inside_center_is_empty():
    arr = braid3()
    res = restriction(arr, center(arr))
    assert res.ambient_dim == 1
    assert res.size == 0


def test_restriction_to_full_space_is_identity():
    arr = braid3()
    assert restriction(arr, full_space(3)) == arr


def test_restriction_rejects_zero_subspace():
    with pytest.raises(ValueError):
        restriction(braid3(), zero_subspace(3))


# ---------------------------------------------------------------- chains


def test_braid3_chains():
    lat = intersection_lattice(braid3())
    chains = maximal_chains(lat)
    assert len(chains) == 3
    middles = set()
    for ch in chains:
        assert len(ch) == 3
        assert ch[0] == lat.top()
        assert ch[-1] == lat.flats[0]
        middles.add(ch[1].generators)
    assert middles == {frozenset({1}), frozenset({2}), frozenset({3})}


def test_empty_arrangement_single_chain():
    lat = intersection_lattice(build_arrangement(3, []))
    chains = maximal_chains(lat)
    assert chains == ((lat.flats[0],),)


def test_boolean3_chain_count():
    lat = intersection_lattice(boolean(3))
    assert len(maximal_chains(lat)) == 6  # complete coordinate flags


def test_chain_gradedness():
    for arr in (braid3(), boolean(3), nonessential3()):
        lat = intersection_lattice(arr)
        r = lat.rank
        n = arr.ambient_dim
        for ch in maximal_chains(lat):
            assert len(ch) == r + 1
            for j, f in enumerate(ch):
                assert f.dim == n - r + j


def test_chain_count_matches_enumeration():
    for arr in data_arrangements() + [braid(5), braid(6)]:
        lat = intersection_lattice(arr)
        assert chain_count(lat) == len(maximal_chains(lat))
    assert chain_count(intersection_lattice(braid(6))) == 2700


def test_intersection_lattice_against_subspaces():
    # closures and joins agree with intersecting the subspaces
    for arr in data_arrangements() + [braid(4), nonessential3(),
                                      build_arrangement(2, [])]:
        t = intersection_lattice(arr)
        flats = t.flats
        for mask in range(1 << arr.size):
            rows = [arr.normals[i] for i in range(arr.size) if mask >> i & 1]
            X = kernel(matrix(rows, cols=arr.ambient_dim), arr.ambient_dim)
            assert flats[t.closure(mask)].subspace == X
        for mask in (1 << arr.size, -1):  # a bit outside the ground set
            with pytest.raises(ValueError):
                t.closure(mask)
        for a, b in itertools.combinations(range(len(flats)), 2):
            if t.gens[a] & ~t.gens[b] == 0 or t.gens[b] & ~t.gens[a] == 0:
                continue
            assert flats[t.closure(t.gens[a] | t.gens[b])].subspace == intersect(
                flats[a].subspace, flats[b].subspace)


def moment4(m):
    # the normals (1, t, t^2, t^3) for t = 1..m: every four independent
    return build_arrangement(4, [[t ** e for e in range(4)]
                                 for t in range(1, m + 1)])


def check_cover_groups(arr, lat):
    # flat a meets hyperplane j + 1 in flat c, for every (c, mask) in
    # cover_groups[a] and every bit j of mask
    for a, groups in enumerate(lat.cover_groups):
        for c, mask in groups:
            for j in range(mask.bit_length()):
                if mask >> j & 1:
                    assert intersect(lat.flats[a].subspace, hyperplane(arr, j + 1)) \
                        == lat.flats[c].subspace


def test_coatoms_take_the_center_without_traces(monkeypatch):
    # a flat one dimension above the center is covered by the center alone:
    # above a nonzero center (braid5, nonessential3), on 60 lines in Q^2,
    # where every line is a coatom, and where the bottom is one
    traces = []
    trace = grasstrata.arrangement._primitive_trace
    monkeypatch.setattr(grasstrata.arrangement, "_primitive_trace",
                        lambda B, a: traces.append(a) or trace(B, a))
    lines = build_arrangement(2, [(1, t) for t in range(1, 61)])
    assert len(intersection_lattice.__wrapped__(lines).flats) == 62
    assert len(traces) == 60  # the bottom's, one per line
    for arr in (load_arrangement(DATA / "braid5.txt"),
                load_arrangement(DATA / "nonessential3.txt"),
                lines, build_arrangement(3, [(1, 2, 3)])):
        lat = intersection_lattice(arr)
        flats, covers = reference_lattice(arr)
        assert (lat.flats, lat.covers) == (flats, covers)
        assert lat.top().subspace == center(arr)
        check_cover_groups(arr, lat)


def test_lattice_equals_reference_on_larger_lattices():
    # covers built in one integer step, against intersecting subspaces, on
    # lattices of 65 to 203 flats; and overlap dimensions read against the
    # pivots each flat caches, for several subspaces per flat
    for arr in (braid(6), boolean(6), moment4(7)):
        lat = intersection_lattice(arr)
        flats, covers = reference_lattice(arr)
        assert lat.flats == flats
        assert lat.covers == covers
        assert lat.gens == tuple(sum(1 << (i - 1) for i in f.generators)
                                 for f in flats)
        check_cover_groups(arr, lat)
        n = arr.ambient_dim
        for k in range(1, n):
            U = sample_subspace(n, k, 2, seed=11, index=k)
            for f in lat.flats:
                assert intersection_dim(U, f.subspace) == \
                    intersect(U, f.subspace).dim


def test_walk_tables_match_their_definitions():
    # lower_steps[b]: b's last lower cover a, and the hyperplanes of b
    # outside a; cover_groups[a]: the hyperplanes outside gens[a], one group
    # per cover of a, in order; ground_size: the number of hyperplanes
    arrs = data_arrangements() + [braid(6), boolean(6), moment4(7),
                                  build_arrangement(2, [])]
    arrs.append(restriction(braid(5), span([[1, 2, 0, 0, 0], [0, 0, 1, 3, 5],
                                            [0, 1, 0, 0, 1]], 5)))
    for arr in arrs:
        lat = intersection_lattice(arr)
        m, gens = arr.size, lat.gens
        assert lat.ground_size == m
        below = [0] * len(gens)
        for a, b in lat.covers:
            below[b] = a
        assert lat.lower_steps == tuple(
            (below[b], tuple(j for j in range(m)
                             if gens[b] >> j & 1 and not gens[below[b]] >> j & 1))
            for b in range(len(gens)))
        assert all(added for _, added in lat.lower_steps[1:])
        for a, groups in enumerate(lat.cover_groups):
            outside = (1 << m) - 1 & ~gens[a]
            masks = [mask for _, mask in groups]
            assert sum(mask.bit_count() for mask in masks) == outside.bit_count()
            assert functools.reduce(int.__or__, masks, 0) == outside
            assert all(masks)
            assert [c for c, _ in groups] == sorted(
                b for x, b in lat.covers if x == a)


def test_chain_order_deterministic():
    lat = intersection_lattice(braid3())
    assert maximal_chains(lat) == maximal_chains(lat)


# ------------------------------------------------------------ text format


def test_parse_round_trip():
    arr = braid3()
    assert parse_arrangement(format_arrangement(arr)) == arr


def test_parse_comments_and_fractions():
    text = """
    # a two line arrangement
    2
    1/2 -1/2   # gets scaled to (1, -1)
    0 3
    """
    arr = parse_arrangement(text)
    assert arr.normals == (vector((1, -1)), vector((0, 1)))
    assert all(type(x) is int for w in arr.normals for x in w)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_arrangement("2\n1 2 3\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_arrangement("2\n1 x\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_arrangement("2 3\n")
    with pytest.raises(ValueError, match="dimension"):
        parse_arrangement("# nothing here\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_arrangement("2\n1 0\n2 0\n")


def test_random_arrangements_graded(tmp_path):
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(2, 4)
        rows = []
        for _ in range(rng.randint(1, 4)):
            v = [rng.randint(-2, 2) for _ in range(n)]
            if any(v):
                rows.append(v)
        try:
            arr = build_arrangement(n, rows)
        except ValueError:
            continue  # duplicates are fine to skip here
        lat = intersection_lattice(arr)
        assert {f.subspace for f in lat.flats} == subset_intersection_oracle(arr)
        path = tmp_path / "arr.txt"
        path.write_text(format_arrangement(arr))
        from grasstrata.arrangement import load_arrangement
        assert load_arrangement(path) == arr
