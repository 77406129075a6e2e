import os
import random

import pytest

import grasstrata.pluecker
import grasstrata.strata
from brute_force import label_jumps, subset_bases
from grasstrata.arrangement import (
    build_arrangement,
    center,
    intersection_lattice,
    load_arrangement,
    maximal_chains,
)
from grasstrata.exactlin import (
    canonical_subspace,
    kernel,
    matrix,
    span,
    subspace_sum,
)
from grasstrata.matroid import loops, restriction_lattice, lattice_isomorphic
from grasstrata.pluecker import defect_subspace
from matrix_helpers import is_direct_sum_full
from grasstrata.strata import (
    KINDS,
    _partition_blocks,
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
    assert _partition_blocks(["y", "x", "y", "z", "x"]) == [[0, 2], [1, 4], [3]]
    assert first_disagreement(["x", "x", "y"], ["u", "v", "v"]) == (0, 1)
    assert first_disagreement(["x", "y"], ["u", "v"]) is None


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
    assert witnesses == [{"type": "non_isomorphic_restriction",
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
        pair = []
        for _ in range(2):
            coeffs = [rng.randint(-10**6, 10**6) for _ in X.subspace.basis]
            v = [sum(c * row[j] for c, row in zip(coeffs, X.subspace.basis))
                 for j in range(n)]
            pair.append(label_encodings(arr, span([v], n)))
        assert pair[0] == pair[1], X.generators
        encodings.append(pair[0])
    for kind in ("matroid", "adjoint", "schubert"):
        assert len({e[kind] for e in encodings}) == len(flats), kind
