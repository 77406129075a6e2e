"""Property tests of the intersection lattice, the per-flat matroid and
Schubert labels and the lattice isomorphism search against the brute-force
references in brute_force.py, on small random arrangements and their
restrictions.

Random draws meet loops, parallel traces, non-essential centers, k = 0 and
k = n now and then; each of these is also pinned by an explicit example.
"""

import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import grasstrata.arrangement
import grasstrata.matroid
import grasstrata.strata
from brute_force import (
    brute_isomorphic,
    check_rank_axioms,
    full_dims,
    full_ranks,
    label_jumps,
    mask_labels,
    projection_rank_table,
    reference_lattice,
    walked_jumps,
)
from grasstrata.arrangement import (
    build_arrangement,
    intersection_lattice,
    restriction,
)
from grasstrata.exactlin import (
    _eliminate,
    canonical_subspace,
    dot,
    full_space,
    kernel,
    matrix,
    primitive,
    primitive_vector,
    rank,
    span,
    zero_subspace,
)
from grasstrata.matroid import (
    Matroid,
    RankedLattice,
    lattice_isomorphic,
    matroid_from,
    restriction_lattice,
)
from grasstrata.strata import schubert_label
from matrix_helpers import awkward_matrix, cleared, hyperplane, kernel_reference

SMALL = st.integers(-2, 2)


@st.composite
def arrangements(draw):
    """Up to 6 hyperplanes in Q^n, n <= 4."""
    n = draw(st.integers(1, 4))
    normals = {}
    for row in draw(st.lists(st.lists(SMALL, min_size=n, max_size=n),
                             max_size=6)):
        if any(row):
            normals.setdefault(primitive_vector(row)[0], row)
    return build_arrangement(n, list(normals.values()))


@st.composite
def subspaces(draw, arr, k):
    """A k-subspace of Q^n, sometimes inside a hyperplane of arr."""
    n = arr.ambient_dim
    span_rows = [[int(i == j) for j in range(n)] for i in range(n)]
    if arr.size and k < n and draw(st.booleans()):
        # inside a hyperplane, so that hyperplane is a loop
        label = draw(st.integers(1, arr.size))
        span_rows = hyperplane(arr, label).basis
    coeffs = draw(st.lists(st.lists(SMALL, min_size=len(span_rows),
                                    max_size=len(span_rows)),
                           min_size=k, max_size=k))
    rows = [[sum(c * r[j] for c, r in zip(cs, span_rows)) for j in range(n)]
            for cs in coeffs]
    U = canonical_subspace(matrix(rows, cols=n), n)
    assume(U.dim == k)
    return U


@st.composite
def cases(draw):
    """(arrangement, subspace): a k-subspace for any 0 <= k <= n."""
    arr = draw(arrangements())
    k = draw(st.integers(0, arr.ambient_dim))
    return arr, draw(subspaces(arr, k))


@st.composite
def subspace_pairs(draw):
    """(arrangement, U1, U2): two k-subspaces of one arrangement, k >= 1."""
    arr = draw(arrangements())
    k = draw(st.integers(1, arr.ambient_dim))
    return arr, draw(subspaces(arr, k)), draw(subspaces(arr, k))


def _braid3():
    return build_arrangement(3, [(1, -1, 0), (1, 0, -1), (0, 1, -1)])


EXAMPLES = (
    # e1 lies in x2 = x3 (a loop); the traces of the other two are parallel
    (_braid3(), span([[1, 0, 0]], 3)),
    # two parallel traces on a plane, x1 = 0 and x1 + x2 = 0
    (build_arrangement(3, [(1, 0, 0), (1, 1, 0), (0, 0, 1)]),
     span([[1, 0, 0], [0, 0, 1]], 3)),
    # non-essential: the center is the x3 axis, and U contains it
    (build_arrangement(3, [(1, 0, 0), (0, 1, 0)]),
     span([[1, 1, 0], [0, 0, 1]], 3)),
    (_braid3(), zero_subspace(3)),  # k = 0
    (build_arrangement(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
     full_space(3)),  # k = n
    (build_arrangement(2, []), span([[1, 2]], 2)),  # no hyperplanes
)


def property_test(fn):
    for case in EXAMPLES:
        fn = example(case=case)(fn)
    return settings(max_examples=150, deadline=None)(given(case=cases())(fn))


@property_test
def test_lattice_equals_reference(case):
    # flat order, subspaces, generators, covers and the closure of every
    # label set, on the arrangement and on its restriction to U
    arr, U = case
    for a in [arr] + ([restriction(arr, U)] if U.dim >= 1 else []):
        lat = intersection_lattice(a)
        flats, covers = reference_lattice(a)
        assert lat.flats == flats
        assert lat.covers == covers
        assert lat.gens == tuple(sum(1 << (i - 1) for i in f.generators)
                                 for f in flats)
        index = {f.subspace: i for i, f in enumerate(flats)}
        for mask in range(1 << a.size):
            rows = [a.normals[i] for i in range(a.size) if mask >> i & 1]
            X = kernel(matrix(rows, cols=a.ambient_dim), a.ambient_dim)
            assert lat.closure(mask) == index[X]


@property_test
def test_rank_table_equals_projection_ranks(case):
    arr, U = case
    mat = matroid_from(arr, U)
    assert tuple(mat.subset_rank(mask_labels(mask))
                 for mask in range(1 << arr.size)) == projection_rank_table(arr, U)


@property_test
def test_flat_labels_equal_full_elimination(case):
    # the early-stopped trace ranks and overlap dimensions against one
    # elimination per flat
    arr, U = case
    assert matroid_from(arr, U).ranks == full_ranks(arr, U)
    assert schubert_label(arr, U) == full_dims(arr, U)


def _above(lat, a):
    """Indices of the flats strictly above flat a."""
    return {b for b in range(len(lat.flats))
            if b != a and lat.gens[a] & ~lat.gens[b] == 0}


def test_labels_stop_where_the_answer_is_forced(monkeypatch):
    # each label takes its value at the top by its own route first: k - i
    # as the rank of all traces, i = dim(U meet center) as the overlap
    # with the center.  Then one reduction for each flat that is not above
    # a flat at that value, and none for the rest
    calls = []
    stopped = []

    def counted(fn):
        def wrapper(*args):
            calls.append(1)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(grasstrata.matroid, "echelon_extend",
                        counted(grasstrata.matroid.echelon_extend))
    monkeypatch.setattr(grasstrata.strata, "intersection_dim",
                        counted(grasstrata.strata.intersection_dim))
    matroid_from.cache_clear()
    try:
        for arr, U in EXAMPLES + (
                (_braid3(), span([[1, 2, 0], [0, 1, 3]], 3)),
                (build_arrangement(4, [(1, 0, 0, 0), (0, 1, 0, 0),
                                       (0, 0, 1, 0), (1, 1, 1, 1)]),
                 span([[1, 0, 0, 1], [0, 1, 2, 0]], 4))):
            lat = intersection_lattice(arr)
            i = full_dims(arr, U)[-1]
            for label, final, run in (
                    (full_ranks(arr, U), U.dim - i,
                     lambda: matroid_from(arr, U)),
                    (full_dims(arr, U), i,
                     lambda: schubert_label(arr, U))):
                inferred = set().union(*(_above(lat, a)
                                         for a, v in enumerate(label)
                                         if v == final))
                calls.clear()
                run()
                assert len(calls) == 1 + len(lat.flats) - len(inferred)
                if i and inferred:
                    stopped.append((arr, U))
    finally:
        matroid_from.cache_clear()
    # U contains the x3 axis, the center: both walks stop at i = 1, where
    # finals of dim U and 0 were never reached
    assert stopped.count(EXAMPLES[2]) == 2


@property_test
def test_chain_jumps_equal_chain_walk(case):
    arr, U = case
    assert label_jumps(arr, schubert_label(arr, U)) == walked_jumps(arr, U)


@property_test
def test_lattice_check_agrees_with_subset_check(case):
    # the true ranks, and every change of one flat's rank by 1: the lattice
    # check refuses exactly the ones whose subset table is no matroid
    arr, U = case
    t = intersection_lattice(arr)
    ranks = matroid_from(arr, U).ranks
    closures = [t.closure(mask) for mask in range(1 << t.ground_size)]
    trials = [ranks] + [ranks[:a] + (ranks[a] + d,) + ranks[a + 1:]
                        for a in range(len(ranks)) for d in (-1, 1)]
    for r in trials:
        try:
            check_rank_axioms(t.ground_size, tuple(r[c] for c in closures))
            subset_ok = True
        except ValueError:
            subset_ok = False
        try:
            Matroid(t, r)
            lattice_ok = True
        except ValueError:
            lattice_ok = False
        assert lattice_ok == subset_ok, r
    assert Matroid(t, ranks).ranks == ranks


@st.composite
def rank_vectors(draw):
    """(lattice, ranks): a rank vector on the lattice of a small random
    arrangement, drawn flat by flat in flat order.  Most flats draw a rank
    from the steps of 0 or 1 that their lower covers allow, so unit steps
    usually hold and submodularity decides; now and then a flat draws from
    one more on either side."""
    lat = intersection_lattice(draw(arrangements()))
    lower = [[] for _ in lat.flats]
    for a, b in lat.covers:
        lower[b].append(a)
    r = []
    for below in lower:
        lo = max((r[a] for a in below), default=0)
        hi = min((r[a] + 1 for a in below), default=0)
        wide = draw(st.integers(0, 19)) == 0 or lo > hi
        r.append(draw(st.integers(min(lo, hi) - wide, max(lo, hi) + wide)))
    return lat, tuple(r)


def test_axiom_check_agrees_with_subset_check_on_any_ranks():
    # arbitrary rank vectors, not only the true ranks and their changes by
    # 1: the lattice check refuses exactly the vectors whose subset table,
    # read through the closure, is no matroid, and when it blames
    # submodularity, unit steps hold on every subset too
    outcomes = set()

    @settings(max_examples=400, deadline=None)
    @given(case=rank_vectors())
    def check(case):
        lat, r = case
        table = tuple(r[lat.closure(mask)] for mask in range(1 << lat.ground_size))
        try:
            check_rank_axioms(lat.ground_size, table)
            subset = None
        except ValueError as e:
            subset = str(e)
        try:
            Matroid(lat, r)
            outcome = "matroid"
        except ValueError as e:
            outcome = str(e).split()[0]
        assert (outcome == "matroid") == (subset is None), (r, subset)
        if outcome == "submodularity":
            assert subset.startswith("submodularity"), (r, subset)
        outcomes.add(outcome)

    check()
    assert {"matroid", "unit", "submodularity"} <= outcomes


@example(pair=(_braid3(), span([[1, 0, 0], [0, 1, 0]], 3),
               span([[1, 2, 0], [0, 0, 1]], 3)))  # isomorphic
@example(pair=(_braid3(), span([[1, 0, 0], [0, 1, 1]], 3),
               span([[1, 0, 0], [0, 1, 0]], 3)))  # 1 line against 3
@settings(max_examples=150, deadline=None)
@given(pair=subspace_pairs())
def test_lattice_isomorphic_agrees_with_brute_force(pair):
    arr, U1, U2 = pair
    L1, L2 = restriction_lattice(arr, U1), restriction_lattice(arr, U2)
    assume(max(L1.size, L2.size) <= 8)
    assert lattice_isomorphic(L1, L2) == brute_isomorphic(L1, L2)


def _coatoms_over(m, coatoms):
    """Ranked lattice: bottom, the atoms 0..m-1, one coatom over the atoms
    named by each string of digits, and the top."""
    sets = tuple(sum(1 << int(c) for c in s) for s in coatoms.split())
    return RankedLattice((0,) + (1,) * m + (2,) * len(sets) + (3,),
                         (0,) + tuple(1 << j for j in range(m)) + sets + ((1 << m) - 1,))


def test_lattice_isomorphic_on_equal_profiles():
    # an 8-cycle of atoms and coatoms against a relabeling of it, and two
    # lattices whose atoms share every count: two of the 2-atom coatoms of
    # one share an atom, the other's three are disjoint, and only the
    # search tells them apart
    cycle = _coatoms_over(4, "01 12 23 30")
    relabeled = _coatoms_over(4, "20 01 13 32")
    assert brute_isomorphic(cycle, relabeled)
    assert lattice_isomorphic(cycle, relabeled)
    meeting = _coatoms_over(6, "01 02 34 135 245")
    disjoint = _coatoms_over(6, "01 23 45 024 135")
    assert meeting.search_data[0] == disjoint.search_data[0]
    assert not brute_isomorphic(meeting, disjoint)
    assert not lattice_isomorphic(meeting, disjoint)


def test_lattice_isomorphic_refuses_two_non_lattices():
    # atoms 0 and 1 lie below two coatoms and have no join: as atom sets
    # those coatoms are one set twice, so no RankedLattice holds the order
    # and lattice_isomorphic never meets it
    with pytest.raises(ValueError, match="same atom set"):
        two_cycles = _coatoms_over(4, "01 01 23 23")
        lattice_isomorphic(two_cycles, two_cycles)


@st.composite
def awkward_matrices(draw):
    """(rows, cols) as awkward_matrix draws them: fractions, zero,
    duplicate and dependent rows, 0 x n and n x 0."""
    return awkward_matrix(draw(st.randoms(use_true_random=False)))


@example(case=([], 3))
@example(case=([[], []], 0))
@example(case=([[0, 0, 0], [0, 0, 0]], 3))
@settings(max_examples=300, deadline=None)
@given(case=awkward_matrices())
def test_kernel_in_one_elimination_is_canonical(case):
    # kernel eliminates M once, with its columns reversed; its rows must be
    # the canonical basis that the two-pass route gives: the forward
    # null-space rows (d at free column f, minus column f of d * RREF at
    # the pivots) put through canonical_subspace
    rows, cols = case
    M = matrix(cleared(rows), cols=cols)
    K = kernel(M, cols)
    assert K.basis == kernel_reference(rows, cols)
    R, pivots, d, _ = _eliminate(M)
    forward = []
    for f in range(cols):
        if f not in pivots:
            v = [0] * cols
            v[f] = d
            for i, p in enumerate(pivots):
                v[p] = -R[i][f]
            forward.append(tuple(v))
    assert K == canonical_subspace(forward, cols)
    assert all(dot(row, v) == 0 for row in M for v in K.basis)
    assert K.dim == cols - rank(M)


@example(v=[-4, 8, 0])
@example(v=[0, 0, -3])
@settings(max_examples=300, deadline=None)
@given(v=st.lists(st.integers(-60, 60), min_size=1, max_size=6).filter(any))
def test_primitive_vectors_follow_one_rule(v):
    # the helper, its checked form, the lattice's traces and the rows of
    # canonical_subspace and kernel all scale a nonzero integer vector to
    # one representative: coprime entries, the first nonzero one positive
    n = len(v)
    g = math.gcd(*v) if next(x for x in v if x) > 0 else -math.gcd(*v)
    w = tuple(x // g for x in v)
    assert primitive(v) == primitive_vector(v) == (w, g)
    assert grasstrata.arrangement._primitive_trace(full_space(n).basis, v) == w
    assert canonical_subspace([v, [-3 * x for x in v]], n).basis == (w,)
    assert kernel(kernel([v], n).basis, n).basis == (w,)
    assert primitive([0] * n) == ((0,) * n, 0)
