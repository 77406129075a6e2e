import itertools
import random
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import grasstrata.exactlin
from grasstrata.arrangement import (
    build_arrangement,
    intersection_lattice,
    load_arrangement,
    restriction,
)
from grasstrata.exactlin import (
    Subspace,
    canonical_subspace,
    det,
    dot,
    full_space,
    intersection_dim,
    kernel,
    matrix,
    maximal_minors,
    minor,
    orth_complement,
    primitive,
    primitive_vector,
    project,
    projector,
    rank,
    span,
    subspace_sum,
    vector,
    zero_subspace,
)
from grasstrata.pluecker import defect_subspace
from grasstrata.sampling import sample_subspace, structured_subspaces
from grasstrata.strata import label_encodings
from matrix_helpers import (
    awkward_matrix,
    canonical_reference,
    cleared,
    contains_vector,
    intersect,
    is_direct_sum_full,
    is_subspace_of,
    kernel_reference,
    project_reference,
    row_lcms,
    rref,
    rref_reference,
    times,
    transpose,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def det_cofactor(rows):
    """Independent determinant oracle: first-row cofactor expansion."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        sub = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(sub)
    return total


def random_matrix(rng, rows, cols, lo=-3, hi=3):
    return matrix([[rng.randint(lo, hi) for _ in range(cols)]
                   for _ in range(rows)], cols=cols)


def mixed_representative(rng, U):
    """A random matrix with the same row space as U (row ops plus junk rows)."""
    rows = [list(r) for r in U.basis]
    if not rows:
        return ()
    for _ in range(6):
        op = rng.randrange(3)
        i = rng.randrange(len(rows))
        if op == 0:
            c = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2, 3]))
            rows[i] = [c * x for x in rows[i]]
        elif op == 1:
            j = rng.randrange(len(rows))
            if i != j:
                c = Fraction(rng.randint(-2, 2))
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        else:
            j = rng.randrange(len(rows))
            rows[i], rows[j] = rows[j], rows[i]
    # duplicate a row to make the representative non-minimal
    rows.append(list(rows[rng.randrange(len(rows))]))
    return matrix(cleared(rows), cols=U.ambient_dim)


# ---------------------------------------------------------------- matrices


def test_matrix_shapes():
    M = matrix([[1, 2], [3, 4], [5, 6]], 2)
    assert M == ((1, 2), (3, 4), (5, 6))
    assert transpose(M) == ((1, 3, 5), (2, 4, 6))
    assert matrix([], 3) == ()
    for rows, cols in (([[1, 2], [3]], 2), ([[1, 2]], 3), ([[1, 2]], 1),
                       ([[]], 1), ([[1]], -1)):
        with pytest.raises(ValueError):
            matrix(rows, cols)


@pytest.mark.parametrize("entry", [0.5, 1.0, Fraction(1, 2), Fraction(2), "1", True])
def test_matrix_and_vector_take_ints_only(entry):
    with pytest.raises(ValueError):
        matrix([[1, entry]], 2)
    with pytest.raises(ValueError):
        matrix([[1, 2], [entry, 3]], cols=2)
    with pytest.raises(ValueError):
        vector((entry, 1))
    with pytest.raises(ValueError):
        span([[entry, 1]], 2)
    with pytest.raises(ValueError):
        project(full_space(2), (entry, 1))


def test_matrix_products():
    A = matrix([[1, 2], [0, 1]], 2)
    B = matrix([[1, 0], [3, 1]], 2)
    assert times(A, B) == ((7, 2), (3, 1))
    assert times(A, ((1,), (1,))) == ((3,), (1,))
    with pytest.raises(ValueError):
        times(A, ((1, 1),))


def test_rref_idempotent():
    rng = random.Random(11)
    for _ in range(30):
        M = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        R, piv = rref(M)
        R2, piv2 = rref(matrix(cleared(R), cols=len(M[0])))
        assert R2 == R
        assert piv2 == piv


def test_det_examples():
    assert det(()) == 1
    assert det(full_space(4).basis) == 1
    assert det(matrix([[1, 2], [3, 4]], 2)) == -2
    assert det(matrix([[1, 2], [1, 2]], 2)) == 0
    for M in (((1, 2, 3),), ((1, 2), (3, 4), (5, 6)), ((1,), (2,)), ((),)):
        with pytest.raises(ValueError):
            det(M)


def test_det_matches_cofactor_oracle():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randint(0, 5)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        got = det(matrix(rows, cols=n))
        assert type(got) is int and got == det_cofactor(rows)


def test_minor_examples():
    M = matrix([[1, 1, 0], [0, 0, 1]], 3)
    assert minor(M, [1, 2], [2, 3]) == 1
    assert minor(M, [1, 2], [1, 2]) == 0
    assert minor(M, [], []) == 1
    assert minor(M, [1], [3]) == 0
    assert minor(M, [2], [3]) == 1


def test_minor_validation():
    M = matrix([[1, 1, 0], [0, 0, 1]], 3)
    with pytest.raises(ValueError):
        minor(M, [1], [1, 2])
    with pytest.raises(ValueError):
        minor(M, [1, 3], [1, 2])
    with pytest.raises(ValueError):
        minor(M, [2, 1], [1, 2])
    with pytest.raises(ValueError):
        minor(M, [1, 2], [0, 1])
    with pytest.raises(ValueError):
        minor(M, [1, 2], [3, 4])
    with pytest.raises(ValueError):
        minor(M, [3], [1])
    with pytest.raises(ValueError):
        minor((), [1], [1])


def test_minor_matches_cofactor_on_random_submatrices():
    rng = random.Random(23)
    for _ in range(80):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        M = random_matrix(rng, rows, cols, -2, 2)
        k = rng.randint(0, min(rows, cols))
        rsel = sorted(rng.sample(range(1, rows + 1), k))
        csel = sorted(rng.sample(range(1, cols + 1), k))
        sub = [[M[i - 1][j - 1] for j in csel] for i in rsel]
        got = minor(M, rsel, csel)
        assert type(got) is int and got == det_cofactor(sub)


def test_maximal_minors_match_minor():
    # every row count k <= n up to n = 6: 0 rows, 1 row and square shapes
    # among them, on integer rows and on cleared fractional rows, whose
    # minors are the fractional ones times the product of the row lcms
    rng = random.Random(41)
    for n in range(7):
        for k in range(n + 1):
            for fractional in (False, True, True):
                rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                         if fractional else rng.randint(-3, 3)
                         for _ in range(n)] for _ in range(k)]
                M = matrix(cleared(rows), cols=n)
                scale = prod(row_lcms(rows))
                got = maximal_minors(M)
                subsets = list(itertools.combinations(range(1, n + 1), k))
                assert list(got) == subsets
                for S in subsets:
                    assert type(got[S]) is int
                    assert got[S] == minor(M, list(range(1, k + 1)), S)
                    assert Fraction(got[S], scale) == det_cofactor(
                        [[row[j - 1] for j in S] for row in rows])
    assert maximal_minors(()) == {(): 1}
    assert maximal_minors(matrix([[1, 2], [3, 4], [5, 6]], 2)) == {}


def test_primitive_vector():
    w, g = primitive_vector((-4, 8, 0))
    assert w == (1, -2, 0) and g == -4
    assert primitive_vector((0, 3, -6)) == ((0, 1, -2), 3)
    with pytest.raises(ValueError):
        primitive_vector((0, 0))
    with pytest.raises(ValueError):
        primitive_vector(())
    with pytest.raises(ValueError):
        primitive_vector((Fraction(1, 2), 1))


# --------------------------------------------------------------- subspaces


def test_canonical_subspace_examples():
    U = canonical_subspace(matrix([[2, 4], [1, 2]], 2), 2)
    assert U.dim == 1
    assert U.basis == ((1, 2),)

    V = canonical_subspace(((0, 0, 2), (0, 3, 0), (5, 0, 0)), 3)
    assert V.dim == 3
    assert V.basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert V == full_space(3)

    W = canonical_subspace(matrix([[1, 1, 1], [2, 2, 2]], 3), 3)
    assert W.dim == 1
    assert W.basis == ((1, 1, 1),)


def test_canonical_subspace_idempotent():
    rng = random.Random(5)
    for _ in range(40):
        M = random_matrix(rng, rng.randint(0, 4) or 1, 4)
        U = canonical_subspace(M, 4)
        again = canonical_subspace(U.basis, 4)
        assert again == U


def test_canonicality_under_row_mixes():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 5)
        U = canonical_subspace(random_matrix(rng, rng.randint(1, n), n), n)
        V = canonical_subspace(mixed_representative(rng, U), n)
        assert U == V
        assert hash(U) == hash(V)


def test_kernel_examples():
    assert kernel(full_space(2).basis, 2) == zero_subspace(2)
    K = kernel(matrix([[1, 1, 1]], 3), 3)
    assert K.dim == 2
    for row in K.basis:
        assert sum(row) == 0
    assert full_space(3).basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for M, n in ((((1, 1),), 3), (((1, 1, 1, 1),), 3), (((1, 1, 1), (1,)), 3)):
        with pytest.raises(ValueError):
            kernel(M, n)


@pytest.mark.parametrize("n", [0, 3])
def test_matrix_without_rows(n):
    # () has no width of its own: the functions whose result needs one
    # take it
    assert kernel((), n) == full_space(n)
    assert canonical_subspace((), n) == zero_subspace(n)
    assert rank(()) == 0
    assert maximal_minors(()) == {(): 1}
    P, d = projector(zero_subspace(n))
    assert P == ((0,) * n,) * n and d == 1


def test_kernel_annihilates():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 5)
        M = random_matrix(rng, rng.randint(1, 3), n)
        K = kernel(M, n)
        assert K.dim == n - rank(M)
        for row in K.basis:
            assert all(dot(r, row) == 0 for r in M)


def test_intersect_examples():
    e1 = span([[1, 0, 0]], 3)
    diag = span([[1, 1, 0], [0, 0, 1]], 3)   # x1 = x2
    assert intersect(e1, diag) == zero_subspace(3)
    assert intersect(diag, diag) == diag
    U = span([[1, 0, 0], [0, 1, 0]], 3)
    V = span([[0, 1, 0], [0, 0, 1]], 3)
    assert intersect(U, V) == span([[0, 1, 0]], 3)
    with pytest.raises(ValueError):
        intersect(e1, span([[1, 0]], 2))


def test_sum_examples():
    assert subspace_sum(span([[1, 0]], 2), span([[0, 1]], 2)) == full_space(2)
    U = span([[1, 2, 3]], 3)
    assert subspace_sum(U, zero_subspace(3)) == U
    # (1,1,0) = (1,0,-1) + (0,1,1), so this sum stays two dimensional
    plane = span([[1, 0, -1], [0, 1, 1]], 3)
    assert rank(matrix([[1, 1, 0], [1, 0, -1], [0, 1, 1]], 3)) == 2
    assert subspace_sum(span([[1, 1, 0]], 3), plane) == plane
    assert subspace_sum(span([[1, 1, 0]], 3),
                        span([[1, 0, 0], [0, 0, 1]], 3)) == full_space(3)


def test_dimension_formula():
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randint(1, 5)
        U = canonical_subspace(random_matrix(rng, rng.randint(0, n) or 1, n), n)
        V = canonical_subspace(random_matrix(rng, rng.randint(0, n) or 1, n), n)
        inter = intersect(U, V)
        total = subspace_sum(U, V)
        assert inter.dim + total.dim == U.dim + V.dim
        assert intersection_dim(U, V) == inter.dim
        assert is_subspace_of(inter, U) and is_subspace_of(inter, V)
        assert is_subspace_of(U, total) and is_subspace_of(V, total)


def test_orth_complement_examples():
    assert orth_complement(zero_subspace(3)) == full_space(3)
    P = orth_complement(span([[1, 1, 1]], 3))
    assert P.dim == 2
    for row in P.basis:
        assert sum(row) == 0
    assert orth_complement(full_space(4)) == zero_subspace(4)


def test_orth_complement_direct_sum():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(1, 5)
        U = canonical_subspace(random_matrix(rng, rng.randint(0, n) or 1, n), n)
        C = orth_complement(U)
        assert C.dim == n - U.dim
        assert intersect(U, C) == zero_subspace(n)
        assert subspace_sum(U, C) == full_space(n)
        assert is_direct_sum_full(U, C)


def test_is_direct_sum_full_examples():
    e1 = span([[1, 0, 0]], 3)
    assert is_direct_sum_full(e1, span([[1, 1, 0], [0, 0, 1]], 3))
    # e1 lies inside {x2 = x3}
    assert not is_direct_sum_full(e1, span([[1, 0, 0], [0, 1, 1]], 3))
    assert is_direct_sum_full(zero_subspace(3), full_space(3))
    assert not is_direct_sum_full(e1, span([[0, 1, 0]], 3))  # dims short


def test_project_examples():
    e1 = span([[1, 0, 0]], 3)
    assert project(e1, (1, -1, 0)) == (1, 0, 0)
    assert project(span([[1, 1, 0]], 3), (1, 0, 0)) == \
        (Fraction(1, 2), Fraction(1, 2), 0)
    v = (3, 1, -2)
    assert project(full_space(3), v) == v
    assert project(zero_subspace(3), v) == (0, 0, 0)
    with pytest.raises(ValueError):
        project(e1, (Fraction(1, 2), 0, 0))


def test_project_is_orthogonal_projection():
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randint(1, 5)
        U = canonical_subspace(random_matrix(rng, rng.randint(0, n) or 1, n), n)
        v = vector([rng.randint(-4, 4) for _ in range(n)])
        w = vector([rng.randint(-4, 4) for _ in range(n)])
        pv = project(U, v)
        (pv_int,) = cleared([pv])
        assert contains_vector(U, pv_int)
        # residual orthogonal to U
        for row in U.basis:
            assert dot(tuple(a - b for a, b in zip(v, pv)), row) == 0
        # idempotent (on pv times its lcm, as project takes ints) and
        # self-adjoint
        c = row_lcms([pv])[0]
        assert project(U, pv_int) == tuple(c * x for x in pv)
        assert dot(pv, w) == dot(v, project(U, w))


def _scaled_rows(rng, U):
    """Rows of another basis of U, in a row echelon form that is neither
    reduced nor coprime: each canonical row plus random multiples of the
    rows below it, times a random nonzero integer.  No Subspace holds them:
    its constructor takes the canonical basis only."""
    rows = [list(r) for r in U.basis]
    for i in reversed(range(len(rows))):
        for below in rows[i + 1:]:
            c = rng.randint(-2, 2)
            rows[i] = [a + c * b for a, b in zip(rows[i], below)]
    scales = [rng.choice([1, 2, 3, -5]) for _ in rows]
    return matrix([[c * x for x in row] for c, row in zip(scales, rows)],
                  cols=U.ambient_dim)


def test_projector_properties():
    # P symmetric, P P = d P and row space U, on random, zero and full
    # inputs; the rows of another basis of U canonicalize to U
    rng = random.Random(71)
    cases = [zero_subspace(3), full_space(4), zero_subspace(0)]
    others = [(full_space(3), _scaled_rows(rng, full_space(3)))]
    for _ in range(60):
        rows, n = awkward_matrix(rng)
        U = canonical_subspace(matrix(cleared(rows), cols=n), n)
        cases.append(U)
        others.append((U, _scaled_rows(rng, U)))
    for U in cases:
        n = U.ambient_dim
        P, d = projector(U)
        assert type(d) is int and d != 0
        assert len(P) == n and all(len(row) == n for row in P)
        assert all(type(x) is int for row in P for x in row)
        assert transpose(P) == P
        assert times(P, P) == tuple(tuple(d * x for x in row) for row in P)
        assert canonical_subspace(P, n) == canonical_subspace(U.basis, n)
    for U, rows in others:
        assert canonical_subspace(rows, U.ambient_dim) == U


def test_intersection_dim_matches_stacked_rank():
    # dim U + dim V - rank [U; V], with V = 0, V = Q^n and U = V; with the
    # rows of other bases of U and V on either side, stacked ranks give the
    # same dimensions and the rows canonicalize to U and V
    rng = random.Random(73)
    for _ in range(150):
        n = rng.randint(0, 5)
        U, V = (canonical_subspace(matrix(cleared(
            [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
              for _ in range(n)] for _ in range(rng.randint(0, n))]),
            cols=n), n) for _ in range(2))
        rows_u, rows_u2, rows_v = (_scaled_rows(rng, W) for W in (U, U, V))
        for A, B in ((U, V), (V, U), (U, U), (U, zero_subspace(n)),
                     (U, full_space(n)), (zero_subspace(n), V)):
            assert intersection_dim(A, B) == \
                A.dim + B.dim - rank(A.basis + B.basis)
        assert intersection_dim(U, U) == U.dim
        assert intersection_dim(U, zero_subspace(n)) == 0
        assert intersection_dim(U, full_space(n)) == U.dim
        for rows, W in ((rows_u, U), (rows_u2, U), (rows_v, V)):
            assert canonical_subspace(rows, n) == W and rank(rows) == W.dim
        assert U.dim + rank(rows_u) - rank(U.basis + rows_u) == U.dim
        assert rank(rows_u2) + rank(rows_v) - rank(rows_u2 + rows_v) == \
            intersection_dim(U, V)


def _assert_canonical(values):
    # the constructor is the check, so building is the test; the reference
    # canonical form of each basis, and its pivots, say it checks the rule
    for W in values:
        assert W.basis == canonical_reference(W.basis, W.ambient_dim)
        assert W.pivot_rows == tuple(
            (next(c for c, x in enumerate(row) if x), row) for row in W.basis)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_producer_builds_a_canonical_basis(data):
    # and canonical_subspace sees neither the order nor the scale of rows
    n = data.draw(st.integers(0, 4))
    rows = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=n,
                                       max_size=n), max_size=5))
    k = data.draw(st.integers(0, n))
    seed = data.draw(st.integers(0, 2 ** 16))
    U, K = canonical_subspace(rows, n), kernel(rows, n)
    arr = build_arrangement(n, dict.fromkeys(
        primitive(r)[0] for r in rows if any(r)))
    made = [U, span(rows, n), K, orth_complement(U), subspace_sum(U, K),
            full_space(n), zero_subspace(n), sample_subspace(n, k, 2, seed, 0),
            *structured_subspaces(arr, k, seed)]
    made += [defect_subspace(arr, W) for W in made]
    if U.dim:
        made += [X.subspace for X in intersection_lattice(restriction(arr, U)).flats]
    _assert_canonical(made)
    order = data.draw(st.permutations(range(len(rows))))
    scales = data.draw(st.lists(st.sampled_from([1, -1, 2, -3, 5]),
                                min_size=len(rows), max_size=len(rows)))
    assert canonical_subspace(
        [[c * x for x in rows[j]] for j, c in zip(order, scales)], n) == U


def test_flats_of_data_lattices_and_their_restrictions_are_canonical():
    for path in sorted(DATA.glob("*.txt")):
        if path.name == "line_e1.txt":  # a subspace file
            continue
        arr = load_arrangement(path)
        for X in intersection_lattice(arr).flats:
            _assert_canonical([X.subspace])
            if X.subspace.dim:
                _assert_canonical(
                    [Y.subspace for Y in intersection_lattice(
                        restriction(arr, X.subspace)).flats])


def test_a_scaled_row_is_no_subspace_but_spans_the_canonical_line():
    # on the coordinate arrangement of Q^3, (2, 0, 0) as a basis once made
    # defect_subspace return it as given, and its routes disagreed
    arr = build_arrangement(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        Subspace(3, ((2, 0, 0),))
    line = span([[2, 0, 0]], 3)
    assert line.basis == ((1, 0, 0),)
    assert defect_subspace(arr, line) == line
    assert label_encodings(arr, line) == label_encodings(arr, span([[1, 0, 0]], 3))


def test_contains_vector():
    U = span([[1, 2, 0]], 3)
    assert contains_vector(U, (2, 4, 0))
    assert not contains_vector(U, (1, 0, 0))
    assert contains_vector(U, (0, 0, 0))


# ------------------------------------- integer kernel vs. Fraction reference


def test_integer_kernel_matches_fraction_reference():
    rng = random.Random(53)
    for _ in range(300):
        rows, cols = awkward_matrix(rng)
        M = matrix(cleared(rows), cols=cols)
        R, pivots = rref_reference(rows, cols)
        got, got_pivots = rref(M)
        assert got_pivots == tuple(pivots)
        assert got == tuple(tuple(r) for r in R)
        assert rank(M) == len(pivots)
        assert canonical_subspace(M, cols).basis == canonical_reference(rows, cols)
        assert kernel(M, cols).basis == kernel_reference(rows, cols)


def test_kernel_takes_one_elimination(monkeypatch):
    calls = []
    real = grasstrata.exactlin._eliminate
    monkeypatch.setattr(grasstrata.exactlin, "_eliminate",
                        lambda M: calls.append(M) or real(M))
    rng = random.Random(79)
    for _ in range(100):
        rows, cols = awkward_matrix(rng)
        calls.clear()
        K = kernel(matrix(cleared(rows), cols=cols), cols)
        assert len(calls) == 1
        assert K.basis == kernel_reference(rows, cols)


def test_intersection_dim_and_project_match_reference():
    rng = random.Random(59)
    for _ in range(150):
        rows_u, n = awkward_matrix(rng)
        rows_v = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                   for _ in range(n)] for _ in range(rng.randint(0, 3))]
        U = canonical_subspace(matrix(cleared(rows_u), cols=n), n)
        V = canonical_subspace(matrix(cleared(rows_v), cols=n), n)
        assert U.basis == canonical_reference(rows_u, n)
        assert V.basis == canonical_reference(rows_v, n)
        both = [list(r) for r in U.basis + V.basis]
        assert intersection_dim(U, V) == \
            U.dim + V.dim - len(rref_reference(both, n)[1])
        # projection of v times its lcm, against the reference's Gram solve
        v = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        c = row_lcms([v])[0]
        assert project(U, cleared([v])[0]) == tuple(
            c * x for x in project_reference(U.basis, v))


def test_det_with_fractional_entries_matches_cofactor():
    rng = random.Random(61)
    for _ in range(150):
        n = rng.randint(0, 4)
        rows = [[Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3, 5]))
                 for _ in range(n)] for _ in range(n)]
        if n and rng.random() < 0.3:
            rows[-1] = [2 * x for x in rows[0]]  # force a singular matrix
        got = det(matrix(cleared(rows), cols=n))
        assert Fraction(got, prod(row_lcms(rows))) == det_cofactor(rows)


def test_storage_is_integer():
    rng = random.Random(67)
    for _ in range(60):
        rows, cols = awkward_matrix(rng)
        M = matrix(cleared(rows), cols=cols)
        for S in (canonical_subspace(M, cols), kernel(M, cols)):
            assert all(type(x) is int for row in S.basis for x in row)
    w, g = primitive_vector((2, -3 * 2))
    assert w == (1, -3) and all(type(x) is int for x in w)
    assert type(g) is int
