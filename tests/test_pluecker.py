import itertools
import os
import random
from fractions import Fraction

import pytest

import grasstrata.exactlin
from brute_force import (
    defect_reference,
    essential_pair,
    essentialize,
    full_dims,
)
from grasstrata.arrangement import (
    Flat,
    build_arrangement,
    center,
    intersection_lattice,
    load_arrangement,
)
from grasstrata.exactlin import (
    Subspace,
    canonical_subspace,
    det,
    full_space,
    intersection_dim,
    matrix,
    maximal_minors,
    rank,
    span,
    zero_subspace,
)
from grasstrata.matroid import matroid_from
from grasstrata.pluecker import (
    adjoint_hyperplane,
    defect_subspace,
    eval_adjoint,
    k_adjoint,
    k_subsets,
    pluecker_vector,
)
from grasstrata.sampling import sample_subspace, structured_subspaces
from grasstrata.strata import KINDS, adjoint_label, label_encodings
from matrix_helpers import is_direct_sum_full, kernel_reference, times

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")


def braid3():
    return build_arrangement(3, [(1, -1, 0), (1, 0, -1), (0, 1, -1)])


def boolean(n):
    return build_arrangement(n, [[1 if j == i else 0 for j in range(n)]
                                 for i in range(n)])


def det_leibniz(rows):
    """Permutation-sum determinant, an oracle independent of elimination."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n)
                  if perm[a] > perm[b])
        term = Fraction((-1) ** inv)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def adjoint_coeffs_oracle(basis_rows, n, k):
    """Hand evaluation of the defining sign formula for H(X), raw."""
    out = []
    for I in itertools.combinations(range(1, n + 1), k):
        comp = [j for j in range(1, n + 1) if j not in I]
        sub = [[row[j - 1] for j in comp] for row in basis_rows]
        sign = (-1) ** ((k * (k + 1)) // 2 + sum(I))
        out.append(sign * det_leibniz(sub))
    return tuple(out)


def random_subspace(rng, n, k):
    while True:
        M = matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)],
                   cols=n)
        U = canonical_subspace(M, n)
        if U.dim == k:
            return U


def ad_hoc_flat(S):
    return Flat(S, S.ambient_dim - S.dim, frozenset())


def minor_vector(M):
    """The raw Pluecker vector of the rows M: their maximal minors, which
    maximal_minors keys in the order of k_subsets."""
    return tuple(maximal_minors(M).values())


# ----------------------------------------------------------- subset index


def test_k_subsets():
    assert k_subsets(4, 2) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    assert k_subsets(3, 0) == k_subsets(5, 0) == ((),)
    assert k_subsets(2, 2) == ((1, 2),)
    for n, k in ((2, 3), (2, -1)):
        with pytest.raises(ValueError):
            k_subsets(n, k)


# ------------------------------------------------------- pluecker vectors


def test_pluecker_examples():
    p = pluecker_vector(span([[1, 0, 0]], 3))
    assert (p.n, p.k, p.coords) == (3, 1, (1, 0, 0))

    q = pluecker_vector(span([[1, 1, 0], [0, 0, 1]], 3))  # x1 = x2
    assert (q.n, q.k, q.coords) == (3, 2, (0, 1, 1))

    assert pluecker_vector(full_space(3)).coords == (1,)
    assert pluecker_vector(zero_subspace(3)).coords == (1,)


def test_minor_vector_against_leibniz():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 5)
        k = rng.randint(0, n)
        M = matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)],
                   cols=n)
        got = minor_vector(M)
        assert list(maximal_minors(M)) == list(k_subsets(n, k))
        for I, val in zip(k_subsets(n, k), got):
            sub = [[row[j - 1] for j in I] for row in M]
            assert val == det_leibniz(sub)


def test_pluecker_representative_independence():
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(2, 5)
        k = rng.randint(1, n)
        U = random_subspace(rng, n, k)
        # mix rows with an invertible square matrix
        while True:
            C = matrix([[rng.randint(-2, 2) for _ in range(k)]
                        for _ in range(k)], cols=k)
            if det(C) != 0:
                break
        rep = times(C, U.basis)
        raw_u = minor_vector(U.basis)
        raw_rep = minor_vector(rep)
        assert raw_rep == tuple(det(C) * x for x in raw_u)
        assert pluecker_vector(canonical_subspace(rep, n)) == pluecker_vector(U)


def test_pluecker_scale_links_raw_and_canonical():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        U = random_subspace(rng, n, k)
        p = pluecker_vector(U)
        raw = minor_vector(U.basis)
        assert type(p.divisor) is int
        assert raw == tuple(p.divisor * c for c in p.coords)


# ------------------------------------------------------ adjoint hyperplanes


def test_adjoint_hyperplane_examples():
    # X = {x1 = 0} in R^2: the adjoint is x_1 = 0 again
    h = adjoint_hyperplane(ad_hoc_flat(span([[0, 1]], 2)), 1)
    assert h.coeffs == (1, 0)

    # X = {x1 = x2} in R^3
    h = adjoint_hyperplane(ad_hoc_flat(span([[1, 1, 0], [0, 0, 1]], 3)), 1)
    assert h.coeffs == (1, -1, 0)

    # k = 0 degenerate case: single coefficient, the full determinant
    h = adjoint_hyperplane(ad_hoc_flat(full_space(3)), 0)
    assert h.coeffs == (1,)

    with pytest.raises(ValueError):
        adjoint_hyperplane(ad_hoc_flat(span([[0, 1]], 2)), 2)


def test_adjoint_matches_sign_formula_oracle():
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randint(2, 5)
        k = rng.randint(0, n - 1)
        X = random_subspace(rng, n, n - k)
        h = adjoint_hyperplane(ad_hoc_flat(X), k)
        raw = adjoint_coeffs_oracle(X.basis, n, k)
        assert type(h.divisor) is int
        assert raw == tuple(h.divisor * c for c in h.coeffs)


def test_k_adjoint_braid3():
    hs = k_adjoint(braid3(), 1)
    assert {h.coeffs for h in hs} == {(1, -1, 0), (1, 0, -1), (0, 1, -1)}
    # the rank-2 adjoint comes from the center alone
    hs2 = k_adjoint(braid3(), 2)
    assert len(hs2) == 1
    assert hs2[0].coeffs == (1, -1, 1)
    assert k_adjoint(braid3(), 3) == ()


def test_k_adjoint_boolean_is_boolean():
    hs = k_adjoint(boolean(3), 1)
    assert {h.coeffs for h in hs} == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    for h in hs:
        assert sum(1 for c in h.coeffs if c) == 1


def test_k_adjoint_distinct_flats_distinct_hyperplanes():
    for arr in (braid3(), boolean(3), boolean(4)):
        for k in range(arr.ambient_dim):
            hs = k_adjoint(arr, k)
            assert len({h.coeffs for h in hs}) == len(hs)


# ---------------------------------------------------------------- defect


def test_defect_examples():
    arr = braid3()
    e1 = span([[1, 0, 0]], 3)
    assert defect_subspace(arr, e1) == e1
    T = center(arr)
    assert defect_subspace(arr, T) == zero_subspace(3)
    # essential arrangement: the defect is U itself
    b3 = boolean(3)
    rng = random.Random(47)
    for _ in range(10):
        U = random_subspace(rng, 3, rng.randint(0, 3))
        assert defect_subspace(b3, U) == U


def test_defect_dimension_drop():
    arr = braid3()
    T = center(arr)
    # a plane containing the center loses one dimension
    U = span([[1, 1, 1], [1, 0, 0]], 3)
    V = defect_subspace(arr, U)
    assert V.dim == 1
    assert V == span([[2, -1, -1]], 3)


def test_defect_subspace_takes_five_eliminations(monkeypatch):
    # a sample that meets the center takes five: U-perp, S-perp = U meet T
    # as one kernel of U-perp and the normals, the direct kernel, the
    # projector and the span of the projected normals; one that misses it,
    # as every sample of an essential arrangement does, is its own defect
    # and takes only the last two.  The center is the cached lattice's top
    calls = []
    real = grasstrata.exactlin._eliminate
    monkeypatch.setattr(grasstrata.exactlin, "_eliminate",
                        lambda M: calls.append(M) or real(M))
    braid5 = build_arrangement(5, [[(j == a) - (j == b) for j in range(5)]
                                   for a, b in itertools.combinations(range(5), 2)])
    rng = random.Random(83)
    for arr in (braid5, boolean(5)):
        intersection_lattice(arr)  # cached once per arrangement
        cases = [random_subspace(rng, 5, 2) for _ in range(10)]
        cases.append(span([[1, 1, 1, 1, 1], [1, 0, 0, 0, 0]], 5))
        for U in cases:
            # center eliminates on every call, so it goes before the count
            meets = intersection_dim(U, center(arr)) > 0
            calls.clear()
            V = defect_subspace.__wrapped__(arr, U)
            assert len(calls) == (5 if meets else 2), (U, calls)
            assert V == defect_subspace(arr, U)


def braid(n):
    return build_arrangement(n, [[(j == a) - (j == b) for j in range(n)]
                                 for a, b in itertools.combinations(range(n), 2)])


@pytest.mark.parametrize("name", sorted(
    f for f in os.listdir(DATA) if f != "line_e1.txt") + ["braid6"])
def test_defect_sees_what_the_arrangement_sees(name):
    # V = defect(U) is the span of the projections of the normals onto U,
    # and V lies in U, so projecting onto V gives the same vectors: U and V
    # have one trace matroid, dim(U meet X) = dim(V meet X) + i on every
    # flat X for i = dim(U meet center), and one adjoint zero set
    arr = braid(6) if name == "braid6" else load_arrangement(os.path.join(DATA, name))
    n = arr.ambient_dim
    T = center(arr)
    for k in range(n + 1):
        cases = ([sample_subspace(n, k, 3, 0, j) for j in range(3)]
                 + structured_subspaces(arr, k)[:8])
        for U in cases:
            V = defect_subspace(arr, U)
            assert V == defect_reference(arr, U), (U, V)
            i = U.dim + T.dim - rank(U.basis + T.basis)
            assert V.dim == U.dim - i
            assert matroid_from(arr, U).ranks == matroid_from(arr, V).ranks
            assert full_dims(arr, U) == tuple(d + i for d in full_dims(arr, V))
            (i_u, zero_u), (i_v, zero_v) = adjoint_label(arr, U), adjoint_label(arr, V)
            assert (i_u, i_v) == (i, 0)
            assert zero_u == zero_v


def two_kernel_defect(arr, U):
    """U meet S for S = U-perp + T-perp, from kernel_reference alone: the
    kernel of U-perp stacked on S-perp, where S-perp = U meet T is the
    kernel of U-perp stacked on T-perp."""
    n = arr.ambient_dim
    U_perp = kernel_reference(U.basis, n)
    T_perp = kernel_reference(center(arr).basis, n)
    S_perp = kernel_reference(U_perp + T_perp, n)
    return Subspace(n, kernel_reference(U_perp + S_perp, n))


@pytest.mark.parametrize("name", sorted(
    f for f in os.listdir(DATA) if f != "line_e1.txt"))
def test_defect_is_the_subspace_itself_exactly_when_it_misses_the_center(name):
    # the two-kernel route agrees with defect_subspace, which takes U as it
    # is when dim(U meet T) = 0 and builds the kernels otherwise
    arr = load_arrangement(os.path.join(DATA, name))
    n, T = arr.ambient_dim, center(arr)
    for k in range(1, n):
        cases = ([sample_subspace(n, k, 5, 0, j) for j in range(10)]
                 + structured_subspaces(arr, k))
        for U in cases:
            V = defect_subspace(arr, U)
            assert V == two_kernel_defect(arr, U), (U, V)
            assert (V == U) == (intersection_dim(U, T) == 0), U


@pytest.mark.parametrize("name", sorted(
    f for f in os.listdir(DATA) if f != "line_e1.txt"))
def test_adjoint_label_from_a_second_complement(name):
    # the zero set is the same from every complement V of W = U meet T in
    # U: u in U meet X is w + v with w in W, which lies in X, and v in V,
    # so dim(V meet X) = dim(U meet X) - i.  Here V is spanned by the rows
    # of U that extend a basis of W, not by defect_subspace
    arr = load_arrangement(os.path.join(DATA, name))
    n, T = arr.ambient_dim, center(arr)
    met = 0
    for k in range(1, n):
        for U in ([sample_subspace(n, k, 5, 0, j) for j in range(10)]
                  + structured_subspaces(arr, k)):
            W = kernel_reference(kernel_reference(U.basis, n)
                                 + kernel_reference(T.basis, n), n)
            rows = []
            for row in U.basis:
                if rank(W + tuple(rows) + (row,)) > len(W) + len(rows):
                    rows.append(row)
            V = span(rows, n)
            p = pluecker_vector(V)
            zero = tuple(h.source for h in k_adjoint(arr, V.dim)
                         if eval_adjoint(h, p) == 0)
            assert (len(W), zero) == adjoint_label(arr, U), U
            assert V.dim == k - len(W)
            met += len(W) > 0
    # where the center is not 0 (braid3, braid5, nonessential3), some
    # samples meet it, and U itself would not do as V
    assert met or T.dim == 0


def classes(keys):
    """The partition of range(len(keys)) by equal keys."""
    groups = {}
    for index, key in enumerate(keys):
        groups.setdefault(key, []).append(index)
    return sorted(groups.values())


def generic_line(rng, X):
    """A random integer vector of the flat X, as a line."""
    basis = X.subspace.basis
    coeffs = [rng.randint(-10**6, 10**6) for _ in basis]
    return span([[sum(c * row[j] for c, row in zip(coeffs, basis))
                  for j in range(X.subspace.ambient_dim)]], X.subspace.ambient_dim)


@pytest.mark.parametrize("name", sorted(
    f for f in os.listdir(DATA) if f != "line_e1.txt") + ["braid6"])
def test_labels_factor_through_the_essentialization(name):
    # every label of U is a label of the pair (i, W) on ess(A): the
    # normals lie in the span of E, so a_j . v = (E a_j) . w, and the
    # defect identities carry over with flats matched by generator sets
    arr = braid(6) if name == "braid6" else load_arrangement(os.path.join(DATA, name))
    ess = essentialize(arr)
    n, r, t = arr.ambient_dim, ess.ambient_dim, center(arr).dim
    lat, ess_lat = intersection_lattice(arr), intersection_lattice(ess)
    assert r == n - t == ess_lat.rank
    at = {f.generators: j for j, f in enumerate(ess_lat.flats)}
    match = [at[f.generators] for f in lat.flats]
    assert sorted(match) == list(range(len(ess_lat.flats)))
    for f, j in zip(lat.flats, match):
        assert (f.rank, f.dim) == (ess_lat.flats[j].rank, ess_lat.flats[j].dim + t)
    assert {(match[a], match[b]) for a, b in lat.covers} == set(ess_lat.covers)
    for k in range(n + 1):
        cases = ([sample_subspace(n, k, 3, 0, j) for j in range(3)]
                 + structured_subspaces(arr, k)[:8])
        on_arr, on_ess = [], []
        for U in cases:
            i, W = essential_pair(arr, U)
            assert (W.ambient_dim, W.dim) == (r, k - i)
            ranks = matroid_from(ess, W).ranks
            assert matroid_from(arr, U).ranks == tuple(ranks[j] for j in match)
            dims = full_dims(ess, W)
            assert full_dims(arr, U) == tuple(dims[j] + i for j in match)
            (i_u, zero_u), (i_w, zero_w) = adjoint_label(arr, U), adjoint_label(ess, W)
            assert (i_u, i_w) == (i, 0)
            assert {f.generators for f in zero_u} == {f.generators for f in zero_w}
            on_arr.append(label_encodings(arr, U))
            on_ess.append((i, label_encodings(ess, W)))
        for kind in KINDS:
            assert (classes([e[kind] for e in on_arr])
                    == classes([(i, e[kind]) for i, e in on_ess])), (k, kind)
    # so the strata of A at k = 1 are the pairs (1, the zero subspace) and
    # (0, a stratum of lines of ess(A)), and every such pair occurs
    rng = random.Random(name)
    lines, pairs = set(), set()
    for X in lat.flats:
        if X.dim > 0:
            U = generic_line(rng, X)
            lines.add(tuple(label_encodings(arr, U).values()))
            i, W = essential_pair(arr, U)
            pairs.add((i, tuple(label_encodings(ess, W).values())))
    ess_lines = {(0, tuple(label_encodings(ess, generic_line(rng, X)).values()))
                 for X in ess_lat.flats if X.dim > 0}
    zero = {(1, tuple(label_encodings(ess, zero_subspace(r)).values()))}
    assert pairs == ess_lines | (zero if t else set())
    assert len(lines) == len(pairs)
    assert len(lines) == {"braid5.txt": 52, "nonessential3.txt": 4}.get(
        name, len(lines))


# ---------------------------------------------------------------- pairing


def test_eval_adjoint_examples():
    arr = braid3()
    by_gens = {h.source.generators: h for h in k_adjoint(arr, 1)}
    p = pluecker_vector(span([[1, 0, 0]], 3))
    # H1 = {x1 = x2}: e1 is transverse
    assert eval_adjoint(by_gens[frozenset({1})], p) == 1
    # H3 = {x2 = x3} contains e1
    assert eval_adjoint(by_gens[frozenset({3})], p) == 0

    h0 = k_adjoint(arr, 0)[0]
    assert eval_adjoint(h0, pluecker_vector(zero_subspace(3))) == 1

    with pytest.raises(ValueError):
        eval_adjoint(by_gens[frozenset({1})], pluecker_vector(full_space(3)))


def test_pluecker_vectors_keep_their_space():
    # every zero subspace has the coordinates (1) at the one 0-subset (),
    # so only n tells Q^3's from Q^5's
    zero3, zero5 = (pluecker_vector(zero_subspace(n)) for n in (3, 5))
    assert zero3.coords == zero5.coords == (1,)
    assert zero3 != zero5
    h0 = k_adjoint(braid3(), 0)[0]
    assert eval_adjoint(h0, zero3) == 1
    with pytest.raises(ValueError):
        eval_adjoint(h0, zero5)


def test_laplace_expansion_identity():
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(2, 5)
        k = rng.randint(0, n)
        V = random_subspace(rng, n, k)
        X = random_subspace(rng, n, n - k)
        stacked_det = det(V.basis + X.basis)
        # raw route: the signed sum of complementary minor products
        raw_v = minor_vector(V.basis)
        raw_x = adjoint_coeffs_oracle(X.basis, n, k)
        assert sum(a * b for a, b in zip(raw_x, raw_v)) == stacked_det
        # canonical route with tracked divisors
        h = adjoint_hyperplane(ad_hoc_flat(X), k)
        p = pluecker_vector(V)
        assert eval_adjoint(h, p) * h.divisor * p.divisor == stacked_det


def test_direct_sum_biconditional():
    rng = random.Random(59)
    for arr in (braid3(), boolean(3),
                build_arrangement(3, [(1, 0, 0), (0, 1, 0)])):
        lat = intersection_lattice(arr)
        for trial in range(25):
            k = rng.randint(0, 3)
            U = random_subspace(rng, 3, k)
            V = defect_subspace(arr, U)
            p = pluecker_vector(V)
            for X in lat.by_rank(V.dim):
                h = adjoint_hyperplane(X, V.dim)
                hit = eval_adjoint(h, p) != 0
                assert hit == is_direct_sum_full(V, X.subspace)
