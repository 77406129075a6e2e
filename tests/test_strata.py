import itertools
import math
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

import grasstrata.pluecker
import grasstrata.strata
from brute_force import essentialize, label_jumps, subset_bases
from grasstrata.arrangement import (
    build_arrangement,
    center,
    intersection_lattice,
    is_essential,
    load_arrangement,
    maximal_chains,
    set_bits,
)
from grasstrata.exactlin import (
    canonical_subspace,
    full_space,
    kernel,
    matrix,
    orth_complement,
    span,
    subspace_sum,
)
from grasstrata.matroid import (
    RankedLattice,
    lattice_isomorphic,
    loops,
    matroid_from,
    restriction_lattice,
)
from grasstrata.pluecker import defect_subspace
from grasstrata.sampling import sample_subspace, structured_subspaces
from matrix_helpers import (
    contains_vector,
    intersect,
    is_direct_sum_full,
    is_subspace_of,
)
from grasstrata.strata import (
    KINDS,
    _blocks,
    adjoint_label,
    first_disagreement,
    label_encodings,
    matroid_label,
    schubert_label,
    verify_equivalence,
    verify_restriction_classification,
)


def braid3():
    return build_arrangement(3, [(1, -1, 0), (1, 0, -1), (0, 1, -1)])


def boolean(n):
    return build_arrangement(n, [[1 if j == i else 0 for j in range(n)]
                                 for i in range(n)])


def braid(n):
    return build_arrangement(n, [[(j == a) - (j == b) for j in range(n)]
                                 for a, b in itertools.combinations(range(n), 2)])


def nonessential3():
    return build_arrangement(3, [(1, 0, 0), (0, 1, 0)])


def random_subspace(rng, n, k):
    while True:
        M = matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)],
                   cols=n)
        U = canonical_subspace(M, n)
        if U.dim == k:
            return U


def sigma_by_chain(arr, dims):
    """Map each chain's first proper flat generators to its jump set."""
    chains = maximal_chains(intersection_lattice(arr))
    sigma = label_jumps(arr, dims)
    assert len(chains) == len(sigma)
    return {ch[1].generators if len(ch) > 1 else frozenset(): s
            for ch, s in zip(chains, sigma)}


# ----------------------------------------------------------------- labels


def test_braid3_line_labels():
    arr = braid3()
    e1 = span([[1, 0, 0]], 3)

    ml = matroid_label(arr, e1)
    assert subset_bases(ml) == frozenset({frozenset({1}), frozenset({2})})
    assert loops(ml) == frozenset({3})

    i, zero_set = adjoint_label(arr, e1)
    assert i == 0
    assert [f.generators for f in zero_set] == [frozenset({3})]

    dims = schubert_label(arr, e1)
    assert dims[-1] == 0
    jumps = sigma_by_chain(arr, dims)
    assert jumps[frozenset({1})] == (2,)
    assert jumps[frozenset({2})] == (2,)
    assert jumps[frozenset({3})] == (1,)


def test_braid3_center_labels():
    arr = braid3()
    T = center(arr)
    assert matroid_label(arr, T).rank == 0
    assert adjoint_label(arr, T) == (1, ())
    dims = schubert_label(arr, T)
    assert dims[-1] == 1
    assert all(s == () for s in label_jumps(arr, dims))


def test_boolean_generic_line_label():
    assert adjoint_label(boolean(3), span([[1, 1, 1]], 3)) == (0, ())


def test_empty_arrangement_labels():
    arr = build_arrangement(3, [])
    U = span([[1, 2, 0]], 3)
    i, _ = adjoint_label(arr, U)
    assert i == 1  # the center is everything
    assert label_jumps(arr, schubert_label(arr, U)) == ((),)
    assert matroid_label(arr, U).rank == 0


def test_label_ranks_agree():
    rng = random.Random(73)
    for arr in (braid3(), boolean(3), nonessential3()):
        n = arr.ambient_dim
        for _ in range(10):
            k = rng.randint(0, n)
            U = random_subspace(rng, n, k)
            ml = matroid_label(arr, U)
            i, _ = adjoint_label(arr, U)
            dims = schubert_label(arr, U)
            assert i == dims[-1]
            assert ml.rank == k - i


def test_adjoint_label_meets_the_center_once(monkeypatch):
    # i comes from the defect subspace, whose own check takes
    # dim(U meet center) once; the label takes no second one
    calls = []
    for module in (grasstrata.strata, grasstrata.pluecker):
        real = module.intersection_dim
        monkeypatch.setattr(module, "intersection_dim", lambda U, S, real=real:
                            calls.append(S) or real(U, S))
    rng = random.Random(89)
    defect_subspace.cache_clear()
    try:
        for arr in (braid3(), boolean(3), nonessential3()):
            T = center(arr)
            for k in range(4):
                U = random_subspace(rng, 3, k)
                calls.clear()
                i, _ = adjoint_label(arr, U)
                assert calls.count(T) == 1
                assert i == U.dim + T.dim - subspace_sum(U, T).dim
    finally:
        defect_subspace.cache_clear()


def test_zero_set_complement_is_direct_sum():
    rng = random.Random(79)
    for arr in (braid3(), boolean(3), nonessential3()):
        lat = intersection_lattice(arr)
        for _ in range(10):
            k = rng.randint(0, 3)
            U = random_subspace(rng, 3, k)
            i, zero_set = adjoint_label(arr, U)
            V = defect_subspace(arr, U)
            zero = {f.generators for f in zero_set}
            for X in lat.by_rank(k - i):
                assert (X.generators in zero) == \
                    (not is_direct_sum_full(V, X.subspace))


def test_schubert_tail_recovers_transverse_flats():
    # chains whose jumps all sit at the end pick out, at the matching
    # depth, exactly the flats transverse to the defect subspace
    rng = random.Random(83)
    for arr in (braid3(), boolean(3)):
        lat = intersection_lattice(arr)
        chains = maximal_chains(lat)
        r = lat.rank
        for _ in range(12):
            k = rng.randint(1, 3)
            U = random_subspace(rng, 3, k)
            dims = schubert_label(arr, U)
            V = defect_subspace(arr, U)
            depth = r - (k - dims[-1])
            tail = tuple(range(depth + 1, r + 1))
            from_chains = {ch[depth] for ch, s in zip(chains,
                                                      label_jumps(arr, dims))
                           if s == tail}
            transverse = {X for X in lat.by_rank(k - dims[-1])
                          if is_direct_sum_full(V, X.subspace)}
            assert from_chains == transverse


# -------------------------------------------------------------- verifiers


def test_partition_helpers():
    # blocks in order of their first member, members increasing: == compares
    assert (list(_blocks(["y", "x", "y", "z", "x"]).values())
            == [[0, 2], [1, 4], [3]])
    assert first_disagreement(["x", "x", "y"], ["u", "v", "v"]) == (0, 1)
    assert first_disagreement(["x", "y"], ["u", "v"]) is None


def first_disagreement_reference(enc_a, enc_b):
    """The first pair the two labelings split differently, by trying every
    pair in lexicographic order."""
    n = len(enc_a)
    for x in range(n):
        for y in range(x + 1, n):
            if (enc_a[x] == enc_a[y]) != (enc_b[x] == enc_b[y]):
                return x, y
    return None


@st.composite
def labeling_pairs(draw):
    """Two labelings of one sample list: the second renames the first and
    then changes a few entries, so equal partitions come up too."""
    enc_a = draw(st.lists(st.sampled_from("abcd"), max_size=14))
    rename = dict(zip("abcd", draw(st.permutations("uvwx"))))
    enc_b = [rename[e] for e in enc_a]
    for idx in draw(st.lists(st.integers(0, 13), max_size=3)):
        if idx < len(enc_b):
            enc_b[idx] = draw(st.sampled_from("uvwxy"))
    return enc_a, enc_b


@settings(max_examples=300, deadline=None)
@given(pair=labeling_pairs())
def test_first_disagreement_matches_the_pairwise_scan(pair):
    assert first_disagreement(*pair) == first_disagreement_reference(*pair)


class CountedLabel:
    """A label that counts its hash and == calls against a budget, so a
    scan that does too much work fails at once instead of running on."""
    left = 0

    def __init__(self, value):
        self.value = value

    @classmethod
    def spend(cls):
        cls.left -= 1
        assert cls.left >= 0, "over budget"

    def __hash__(self):
        self.spend()
        return hash(self.value)

    def __eq__(self, other):
        self.spend()
        return self.value == other.value


def test_first_disagreement_is_linear():
    # 2,000 samples in their own blocks, but for the last two in one
    # labeling: the pairwise scan would make about 2 * 10^6 label
    # comparisons first; the block scan may make 10 per sample
    n = 2_000
    labels = [CountedLabel(idx) for idx in range(n)]
    merged = labels[:-1] + labels[-2:-1]
    for enc_a, enc_b, pair in ((labels, merged, (n - 2, n - 1)),
                               (merged, labels, (n - 2, n - 1)),
                               (labels, labels[::-1], None)):
        CountedLabel.left = 10 * n
        assert first_disagreement(enc_a, enc_b) == pair


def encode_all(arr, samples):
    return [label_encodings(arr, U) for U in samples]


def test_verify_equivalence_braid3_lines():
    arr = braid3()
    rng = random.Random(89)
    samples = [span([[1, 0, 0]], 3), span([[0, 1, 0]], 3),
               span([[0, 0, 1]], 3), center(arr), span([[1, 1, 2]], 3)]
    samples += [random_subspace(rng, 3, 1) for _ in range(200)]
    encodings = encode_all(arr, samples)
    partitions, verdicts, witnesses = verify_equivalence(encodings)
    assert all(verdicts.values()) and not witnesses
    # the generic stratum collects most of the random lines
    biggest = max(partitions["adjoint"], key=len)
    enc = encodings[biggest[0]]["adjoint"]
    assert enc == "i0:"
    assert len(biggest) > 100


def test_verify_equivalence_singleton():
    encodings = encode_all(braid3(), [span([[1, 2, 3]], 3)])
    partitions, verdicts, witnesses = verify_equivalence(encodings)
    assert all(verdicts.values()) and not witnesses
    assert partitions == {kind: [[0]] for kind in KINDS}


def test_verify_equivalence_boolean_planes():
    arr = boolean(3)
    rng = random.Random(97)
    samples = [span([[1, 0, 0], [0, 1, 0]], 3),
               span([[1, 0, 0], [0, 0, 1]], 3),
               span([[0, 1, 0], [0, 0, 1]], 3)]
    samples += [random_subspace(rng, 3, 2) for _ in range(60)]
    _, verdicts, witnesses = verify_equivalence(encode_all(arr, samples))
    assert all(verdicts.values()) and not witnesses


def test_classification_rejects_wrong_dims():
    arr, line = braid3(), span([[1, 0, 0]], 3)
    with pytest.raises(ValueError):
        verify_restriction_classification(arr, 2, [line], encode_all(arr, [line]))


def test_verify_equivalence_failure_path():
    # synthetic encodings exercise the witness machinery; the real labelers
    # are not expected to produce this
    fake = [{"matroid": "a", "adjoint": "x", "schubert": "x"},
            {"matroid": "a", "adjoint": "y", "schubert": "y"}]
    _, verdicts, witnesses = verify_equivalence(fake)
    assert not verdicts["matroid_vs_adjoint"]
    assert verdicts["adjoint_vs_schubert"]
    assert witnesses[0]["pair"] == [0, 1]


def test_classification_braid3_planes():
    arr = braid3()
    generic1 = span([[1, 0, 0], [0, 1, 0]], 3)
    generic2 = kernel(((1, 1, 1),), 3)
    inside = span([[1, 1, 0], [0, 0, 1]], 3)        # the hyperplane x1 = x2
    through = span([[1, 1, 1], [1, 0, 0]], 3)       # contains the center
    samples = [generic1, generic2, inside, through]
    encodings = encode_all(arr, samples)
    verdicts, witnesses = verify_restriction_classification(arr, 2, samples, encodings)
    assert all(verdicts.values()) and not witnesses
    encs = [e["matroid"] for e in encodings]
    assert encs[0] == encs[1]       # the generic pair shares a class
    assert encs[2] != encs[0]
    assert encs[3] != encs[0]
    assert encs[3] != encs[2]
    # discriminating power: generic and hyperplane classes differ as lattices
    assert not lattice_isomorphic(restriction_lattice(arr, generic1),
                                  restriction_lattice(arr, inside))


def test_classification_failure_path():
    # labels that put a generic plane and a hyperplane of braid n = 3 into
    # one class: their real restriction lattices (3 lines against 1) differ
    samples = [span([[1, 0, 0], [0, 1, 0]], 3), span([[1, 1, 0], [0, 0, 1]], 3)]
    fake = [{"matroid": "a", "adjoint": "x", "schubert": "x"}] * 2
    verdicts, witnesses = verify_restriction_classification(braid3(), 2, samples, fake)
    # braid n = 3 is not essential, so the adjoint label cuts no classes
    assert verdicts == {"matroid:a": False}
    assert witnesses == [{"type": "restriction_mismatch",
                          "class": "matroid:a", "pair": [0, 1]}]


def test_classification_fails_on_isomorphic_but_relabeled_lattices():
    # a braid n = 6 plane and its cyclic coordinate shift, an automorphism of
    # the arrangement: their restriction lattices are isomorphic, but the
    # shift renames the hyperplanes, so as labeled lattices they differ,
    # and a class that holds both fails
    arr = braid(6)
    U = sample_subspace(6, 2, 5, 0, 0)
    W = span([row[-1:] + row[:-1] for row in U.basis], 6)
    LU, LW = restriction_lattice(arr, U), restriction_lattice(arr, W)
    assert lattice_isomorphic(LU, LW) and LU != LW
    fake = [{"matroid": "a", "adjoint": "x", "schubert": "x"}] * 2
    verdicts, witnesses = verify_restriction_classification(arr, 2, [U, W], fake)
    assert verdicts == {"matroid:a": False}
    assert witnesses == [{"type": "restriction_mismatch",
                          "class": "matroid:a", "pair": [0, 1]}]


def test_classification_boolean_lines():
    arr = boolean(3)
    rng = random.Random(101)
    samples = [span([[1, 0, 0]], 3), span([[0, 1, 0]], 3),
               span([[0, 0, 1]], 3)]
    samples += [random_subspace(rng, 3, 1) for _ in range(40)]
    encodings = encode_all(arr, samples)
    verdicts, witnesses = verify_restriction_classification(arr, 1, samples, encodings)
    assert all(verdicts.values()) and not witnesses
    # essential arrangement: the adjoint-class check ran as well
    assert any(key.startswith("adjoint:") for key in verdicts)
    # coordinate lines carry distinct labeled matroids
    encs = [e["matroid"] for e in encodings]
    assert len({encs[0], encs[1], encs[2]}) == 3


def test_classification_k0_trivial():
    from grasstrata.exactlin import zero_subspace
    samples = [zero_subspace(3), zero_subspace(3)]
    verdicts, witnesses = verify_restriction_classification(
        braid3(), 0, samples, encode_all(braid3(), samples))
    assert all(verdicts.values()) and not witnesses


def test_labels_deterministic():
    arr = braid3()
    U = span([[1, 2, 3]], 3)
    assert label_encodings(arr, U) == label_encodings(arr, U)


DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")
ARRANGEMENT_FILES = sorted(f for f in os.listdir(DATA) if f != "line_e1.txt")


@pytest.mark.parametrize("name", ARRANGEMENT_FILES)
def test_lines_have_one_stratum_per_flat(name):
    """k = 1 closed form: the line spanned by a vector v lies in the stratum
    of the smallest flat containing v, so the strata of G(1, n) are the
    flats of positive dimension.  Two generic vectors of each such flat
    must get the same three encodings, and each labeling must give exactly
    one encoding per flat: fewer means it merges strata."""
    arr = load_arrangement(os.path.join(DATA, name))
    n = arr.ambient_dim
    rng = random.Random(name)
    flats = [X for X in intersection_lattice(arr).flats if X.dim > 0]
    encodings = []
    for X in flats:
        outside = [a for j, a in enumerate(arr.normals, 1) if j not in X.generators]
        pair = []
        while len(pair) < 2:  # redraw v until no hyperplane outside X holds it
            coeffs = [rng.randint(-10**6, 10**6) for _ in X.subspace.basis]
            v = [sum(c * row[j] for c, row in zip(coeffs, X.subspace.basis))
                 for j in range(n)]
            if all(sum(x * y for x, y in zip(a, v)) for a in outside):
                pair.append(label_encodings(arr, span([v], n)))
        assert pair[0] == pair[1], X.generators
        encodings.append(pair[0])
    for kind in ("matroid", "adjoint", "schubert"):
        assert len({e[kind] for e in encodings}) == len(flats), kind


# |L - {0}|, for L the intersections of the subspaces X-perp over the flats
# X, with Q^n (the empty intersection) included
HYPERPLANE_STRATA = {
    "boolean3.txt": 7,
    "boolean4.txt": 15,
    "braid3.txt": 5,
    "braid5.txt": 117,
    "generic5_4.txt": 51,
    "nonessential3.txt": 4,
}


@pytest.mark.parametrize("name", ARRANGEMENT_FILES)
def test_hyperplanes_have_one_stratum_per_perp_intersection(name):
    """k = n - 1 closed form: for U = a-perp, dim(U meet X) = dim X - 1 +
    [a in X-perp] for every flat X, so U's stratum is fixed by the smallest
    member of L that contains a, and the strata of G(n - 1, n) are the
    nonzero members of L.  Two generic vectors of each member must get the
    same three encodings, and each labeling must give exactly one encoding
    per member: fewer means it merges strata."""
    arr = load_arrangement(os.path.join(DATA, name))
    n = arr.ambient_dim
    rng = random.Random(name)
    members = {full_space(n)}
    for X in intersection_lattice(arr).flats:
        perp = orth_complement(X.subspace)
        members |= {intersect(W, perp) for W in members}
    members = sorted((W for W in members if W.dim), key=lambda W: W.basis)
    assert len(members) == HYPERPLANE_STRATA[name]
    encodings = []
    for W in members:
        smaller = [V for V in members if V.dim < W.dim and is_subspace_of(V, W)]
        pair = []
        while len(pair) < 2:  # redraw a until no smaller member holds it
            coeffs = [rng.randint(-10**6, 10**6) for _ in W.basis]
            a = [sum(c * row[j] for c, row in zip(coeffs, W.basis))
                 for j in range(n)]
            if any(a) and not any(contains_vector(V, a) for V in smaller):
                pair.append(label_encodings(arr, kernel([a], n)))
        assert pair[0] == pair[1], W.basis
        encodings.append(pair[0])
    for kind in ("matroid", "adjoint", "schubert"):
        assert len({e[kind] for e in encodings}) == len(members), kind


@pytest.mark.parametrize("name", ["braid3.txt", "braid5.txt", "nonessential3.txt"])
def test_hyperplanes_of_a_non_essential_arrangement_count_through_ess(name):
    """k = n - 1 on a non-essential A: a hyperplane U either contains the
    center T, and then its stratum is one of ess(A) at dimension
    k - dim T = rank A - 1, or it does not, and then U meets T in
    dim T - 1 and all such U form one stratum.  So the count is 1 + |L(ess A) - {0}|, with L built as in the
    test above."""
    arr = load_arrangement(os.path.join(DATA, name))
    assert not is_essential(arr)
    ess = essentialize(arr)
    members = {full_space(ess.ambient_dim)}
    for X in intersection_lattice(ess).flats:
        perp = orth_complement(X.subspace)
        members |= {intersect(W, perp) for W in members}
    assert 1 + sum(1 for W in members if W.dim) == HYPERPLANE_STRATA[name]


@pytest.mark.parametrize("name", ARRANGEMENT_FILES)
def test_zero_and_whole_space_are_one_stratum_each(name):
    """G(0, n) and G(n, n) are single points: every labeling gives one
    encoding there, whatever the draw."""
    arr = load_arrangement(os.path.join(DATA, name))
    n = arr.ambient_dim
    for k in (0, n):
        samples = [sample_subspace(n, k, 3, 0, i) for i in range(3)]
        encodings = [label_encodings(arr, U)
                     for U in samples + structured_subspaces(arr, k)]
        for kind in KINDS:
            assert len({e[kind] for e in encodings}) == 1, (k, kind)


def test_coordinate_planes_in_q4_have_the_ggms_count():
    """k = 2 closed form on the coordinate arrangement: a plane's matroid is
    its j loops and a partition of the other n - j coordinates into at
    least two parallel classes, so there are sum_j C(n, j) (B_{n-j} - 1)
    strata, B the Bell numbers: 36 in Q^4.  The planes spanned by two rows
    with entries in {-1, 0, 1} reach all of them, and each labeling must
    give exactly one encoding per stratum."""
    n = 4
    bell = (1, 1, 2, 5, 15)
    count = sum(math.comb(n, j) * (bell[n - j] - 1) for j in range(n + 1))
    assert count == 36
    rows = itertools.product((-1, 0, 1), repeat=n)
    planes = {canonical_subspace(pair, n) for pair in itertools.product(rows, repeat=2)}
    planes = [U for U in planes if U.dim == 2]
    assert len(planes) == 362
    encodings = [label_encodings(boolean(n), U) for U in planes]
    for kind in KINDS:
        assert len({e[kind] for e in encodings}) == count, kind


@pytest.mark.parametrize("name", ARRANGEMENT_FILES + ["braid6", "boolean6"])
def test_one_matroid_class_has_one_labeled_restriction_lattice(name):
    """Within a matroid class the restriction lattices are equal as labeled
    lattices, not just isomorphic, at every k >= 1: on random draws at
    bound 1, which often share a class, and on the structured subspaces."""
    arr = (braid(6) if name == "braid6" else boolean(6) if name == "boolean6"
           else load_arrangement(os.path.join(DATA, name)))
    n = arr.ambient_dim
    shared = 0
    for k in range(1, n + 1):
        samples = [sample_subspace(n, k, 1, 0, i) for i in range(10)]
        classes = {}
        for U in samples + structured_subspaces(arr, k):
            classes.setdefault(matroid_label(arr, U), []).append(U)
        for first, *others in classes.values():
            L = restriction_lattice(arr, first)
            assert all(restriction_lattice(arr, W) == L for W in others), k
            shared += bool(others)
    assert shared


def read_off_restriction_lattice(mat):
    """The restriction lattice read off a matroid label alone: the flats of
    A at which every cover raises the trace rank (the flats of the trace
    matroid), each with its rank and the mask of the lowest hyperplane of
    each parallel class among its non-loops, two non-loops being parallel
    when they lie in one such flat of rank 1."""
    lat, r = mat.lattice, mat.ranks
    closed = [a for a, groups in enumerate(lat.cover_groups)
              if all(r[c] > r[a] for c, _ in groups)]
    loop_mask = next(lat.gens[a] for a in closed if r[a] == 0)
    lowest = {}
    for a in closed:
        if r[a] == 1:
            parallel = lat.gens[a] & ~loop_mask
            lowest.update((j, parallel & -parallel) for j in set_bits(parallel))
    elements = sorted(
        (r[a], sum({lowest[j] for j in set_bits(lat.gens[a] & ~loop_mask)}))
        for a in closed)
    return RankedLattice(*map(tuple, zip(*elements)))


def restriction_cases():
    for name in ARRANGEMENT_FILES:
        arr = load_arrangement(os.path.join(DATA, name))
        for k in range(1, arr.ambient_dim + 1):
            yield pytest.param(arr, k, id=f"{name}-k{k}")
    for name, arr in (("braid6", braid(6)), ("boolean6", boolean(6))):
        for k in (2, 3):
            yield pytest.param(arr, k, id=f"{name}-k{k}")


@pytest.mark.parametrize("arr, k", restriction_cases())
def test_restriction_lattice_is_read_off_the_matroid_label(arr, k):
    """The trace matroid is a quotient of the arrangement's, so the
    restriction lattice, built from the restricted arrangement's own
    kernels and bases, equals the lattice of flats read off the matroid
    label, atoms named as restriction_lattice names them: on random draws
    at bound 5 and on every structured subspace."""
    n = arr.ambient_dim
    samples = [sample_subspace(n, k, 5, 0, i) for i in range(10)]
    for U in samples + structured_subspaces(arr, k):
        assert read_off_restriction_lattice(matroid_from(arr, U)) == \
            restriction_lattice(arr, U), U.basis


def test_read_off_restriction_lattice_tells_a_shifted_plane_apart():
    # mutant: the matroid of the plane's cyclic coordinate shift, a braid
    # automorphism, so its read-off is isomorphic to the plane's restriction
    # lattice but labeled differently
    arr = braid(6)
    U = sample_subspace(6, 2, 5, 0, 0)
    shifted = span([row[1:] + row[:1] for row in U.basis], 6)
    L = restriction_lattice(arr, U)
    mutant = read_off_restriction_lattice(matroid_from(arr, shifted))
    assert read_off_restriction_lattice(matroid_from(arr, U)) == L
    assert mutant != L
    assert lattice_isomorphic(mutant, L)
