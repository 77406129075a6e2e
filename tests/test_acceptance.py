"""Acceptance suite: one test per advertised guarantee, one printed
verdict line each.

The sampling and labeling work for all corpora happens once, lazily, and
is shared; every criterion then recomputes whatever it is checking from
the exact-arithmetic primitives rather than trusting cached labels.
"""

import itertools
import math
import time
from pathlib import Path

from grasstrata.arrangement import (
    build_arrangement,
    intersection_lattice,
    load_arrangement,
)
from grasstrata.cli import main
from grasstrata.exactlin import kernel, matrix, project, rank
from grasstrata.matroid import lattice_isomorphic, matroid_from, restriction_lattice
from grasstrata.pluecker import defect_subspace, eval_adjoint, k_adjoint, pluecker_vector
from grasstrata.sampling import sample_subspace, structured_subspaces
from grasstrata.strata import (
    label_encodings,
    verify_equivalence,
    verify_restriction_classification,
)

from matrix_helpers import cleared, intersect, is_direct_sum_full

DATA = Path(__file__).resolve().parent.parent / "data"

SEED = 20250825
SAMPLES = 500
BOUND = 5

CORPORA = (
    ("braid3 k=1", "braid3.txt", 1),
    ("braid3 k=2", "braid3.txt", 2),
    ("boolean3 k=1", "boolean3.txt", 1),
    ("boolean3 k=2", "boolean3.txt", 2),
    ("boolean4 k=2", "boolean4.txt", 2),
    ("generic5 k=2", "generic5_4.txt", 2),
    ("nonessential3 k=1", "nonessential3.txt", 1),
    ("nonessential3 k=2", "nonessential3.txt", 2),
)

# corpora small enough to sweep every subset of every size exhaustively
TRIPLE_NAMES = ("braid3 k=1", "braid3 k=2", "boolean3 k=1", "boolean3 k=2",
                "nonessential3 k=1", "nonessential3 k=2")

_CACHE: dict = {}


def corpus_runs():
    """(name, arrangement, k, subspaces, encodings) per corpus; computed
    once for the whole module."""
    if "runs" not in _CACHE:
        t0 = time.monotonic()
        runs = []
        for name, fname, k in CORPORA:
            arr = load_arrangement(DATA / fname)
            n = arr.ambient_dim
            subs = [sample_subspace(n, k, BOUND, SEED, i)
                    for i in range(SAMPLES)]
            subs += structured_subspaces(arr, k, SEED)
            encs = [label_encodings(arr, U) for U in subs]
            runs.append((name, arr, k, subs, encs))
        _CACHE["labeling_s"] = time.monotonic() - t0
        _CACHE["runs"] = runs
    return _CACHE["runs"]


def _verdict(capsys, num, title, ok, detail):
    line = f"criterion {num} ({title}): {'PASS' if ok else 'FAIL'} -- {detail}"
    with capsys.disabled():
        print("\n" + line)
    assert ok, line


def test_criterion_1_labelings_agree(capsys):
    ok, detail = True, ""
    try:
        total = 0
        for name, arr, k, subs, encs in corpus_runs():
            _, verdicts, witnesses = verify_equivalence(encs)
            total += len(subs)
            if not all(verdicts.values()):
                ok = False
                detail = f"{name}: {verdicts}, witness {witnesses[:1]}"
                break
        if ok:
            detail = (f"{len(CORPORA)} corpora, {total} subspaces, identical "
                      f"partitions; labeling took {_CACHE['labeling_s']:.1f}s")
    except Exception as exc:
        ok, detail = False, f"error: {exc!r}"
    _verdict(capsys, 1, "three labelings, one partition", ok, detail)


def test_criterion_2_pairing_vanishing(capsys):
    # the adjoint of a flat evaluates to zero on the defect's coordinates
    # exactly when the flat is not a complement of the defect
    ok, detail = True, ""
    try:
        checks = 0
        for name, arr, k, subs, _ in corpus_runs():
            for U in subs:
                V = defect_subspace(arr, U)
                p = pluecker_vector(V)
                for h in k_adjoint(arr, V.dim):
                    nonzero = eval_adjoint(h, p) != 0
                    direct = is_direct_sum_full(V, h.source.subspace)
                    checks += 1
                    if nonzero != direct:
                        raise AssertionError(
                            f"{name}: flat {sorted(h.source.generators)} "
                            f"breaks the biconditional")
        detail = f"{checks} (subspace, flat) pairs, zero iff not a complement"
    except Exception as exc:
        ok, detail = False, f"error: {exc!r}"
    _verdict(capsys, 2, "vanishing matches complementarity", ok, detail)


def test_criterion_3_rank_function_two_ways(capsys):
    ok, detail = True, ""
    try:
        checks = 0
        for name, arr, k, subs, _ in corpus_runs():
            n, m = arr.ambient_dim, arr.size
            flats = {}
            for mask in range(1 << m):
                rows = [arr.normals[i] for i in range(m) if mask >> i & 1]
                flats[mask] = kernel(matrix(rows, cols=n), n)
            # all structured injections plus a batch of the random draws
            for U in subs[:50] + subs[SAMPLES:]:
                mat = matroid_from(arr, U)
                # each projection times its lcm: the ranks stay the same
                projs = cleared([project(U, arr.normals[i]) for i in range(m)])
                for mask in range(1 << m):
                    labels = [i + 1 for i in range(m) if mask >> i & 1]
                    lhs = rank(matrix([projs[i - 1] for i in labels], cols=n))
                    rhs = U.dim - intersect(U, flats[mask]).dim
                    checks += 1
                    if not lhs == rhs == mat.subset_rank(labels):
                        raise AssertionError(
                            f"{name}: mask {mask:b} gives {lhs} vs {rhs}")
        detail = f"{checks} (subspace, subset) pairs, all subsets per matroid"
    except Exception as exc:
        ok, detail = False, f"error: {exc!r}"
    _verdict(capsys, 3, "projection rank equals dimension drop", ok, detail)


def test_criterion_4_basis_characterizations(capsys):
    ok, detail = True, ""
    try:
        checks = 0
        runs = {name: r for name, *r in corpus_runs()}
        for name in TRIPLE_NAMES:
            arr, k, subs, _ = runs[name]
            n, m = arr.ambient_dim, arr.size
            for U in subs:
                V = defect_subspace(arr, U)
                t = V.dim
                mat = matroid_from(arr, U)
                # the bases: the subsets of size mat.rank and rank mat.rank
                B = {frozenset(I) for I in itertools.combinations(
                    range(1, m + 1), mat.rank) if mat.subset_rank(I) == mat.rank}
                projs = dict(enumerate(cleared(
                    [project(U, a) for a in arr.normals]), 1))
                for I in itertools.combinations(range(1, m + 1), t):
                    s1 = frozenset(I) in B
                    s2 = rank(matrix([projs[i] for i in I], cols=n)) == t
                    flat = kernel(matrix([arr.normals[i - 1] for i in I], cols=n), n)
                    s3 = is_direct_sum_full(V, flat)
                    checks += 1
                    if not s1 == s2 == s3:
                        raise AssertionError(
                            f"{name}: subset {I} gives {s1}/{s2}/{s3}")
        detail = (f"{checks} (subspace, subset) triples over "
                  f"{len(TRIPLE_NAMES)} corpora, all three tests agree")
    except Exception as exc:
        ok, detail = False, f"error: {exc!r}"
    _verdict(capsys, 4, "basis = independent projections = complement",
             ok, detail)


def test_criterion_5_restriction_classification(capsys):
    ok, detail = True, ""
    try:
        for name, arr, k, subs, encs in corpus_runs():
            verdicts, witnesses = verify_restriction_classification(arr, k, subs, encs)
            if not all(verdicts.values()):
                ok = False
                detail = f"{name}: witness {witnesses[:1]}"
                break
        if ok:
            # the labels genuinely separate: braid3 planes in distinct
            # classes restrict to non-isomorphic lattices
            name, arr, k, subs, encs = [
                r for r in corpus_runs() if r[0] == "braid3 k=2"][0]
            first_of = {}
            for idx, e in enumerate(encs):
                first_of.setdefault(e["matroid"], idx)
            lats = {c: restriction_lattice(arr, subs[i])
                    for c, i in first_of.items()}
            split = [(a, b) for a, b in
                     itertools.combinations(sorted(lats), 2)
                     if not lattice_isomorphic(lats[a], lats[b])]
            if not split:
                ok = False
                detail = f"no discriminating pair among {len(lats)} classes"
            else:
                a, b = split[0]
                detail = (f"all classes internally isomorphic; braid3 k=2 has "
                          f"{len(lats)} classes, e.g. lattice sizes "
                          f"{lats[a].size} vs {lats[b].size} differ")
    except Exception as exc:
        ok, detail = False, f"error: {exc!r}"
    _verdict(capsys, 5, "same class, same restriction lattice", ok, detail)


def test_criterion_6_coordinate_adjoints(capsys):
    ok, detail = True, ""
    try:
        checked = 0
        for n in range(1, 5):
            arr = build_arrangement(
                n, [[1 if j == i else 0 for j in range(n)] for i in range(n)])
            assert k_adjoint(arr, n) == ()
            for k in range(n):
                hs = k_adjoint(arr, k)
                assert len(hs) == math.comb(n, k), (n, k)
                for h in hs:
                    assert sum(1 for c in h.coeffs if c) == 1, (n, k)
                    checked += 1
        detail = (f"coordinate arrangements n=1..4: every level is "
                  f"C(n,k) one-term hyperplanes ({checked} total)")
    except Exception as exc:
        ok, detail = False, f"error: {exc!r}"
    _verdict(capsys, 6, "coordinate flats give one-term adjoints", ok, detail)


def test_criterion_7_reports_are_reproducible(tmp_path, capsys):
    ok, detail = True, ""
    try:
        sizes = []
        configs = (
            [str(DATA / "braid3.txt"), "--k", "1", "--samples", "60",
             "--include-flats", "--seed", "11"],
            [str(DATA / "generic5_4.txt"), "--k", "2", "--samples", "20",
             "--seed", "3"],
        )
        for c, extra in enumerate(configs):
            blobs = []
            for r, tail in enumerate(([], [], ["--jobs", "2"])):
                out = tmp_path / f"report{c}{r}.json"
                code = main(["verify"] + extra + tail + ["-o", str(out)])
                assert code == 0, f"verify exited {code}"
                blobs.append(out.read_bytes())
            assert blobs[0] == blobs[1] == blobs[2]
            sizes.append(len(blobs[0]))
        detail = (f"two configs, three runs each (one with --jobs 2), "
                  f"byte-identical reports of {sizes[0]} and {sizes[1]} bytes")
    except Exception as exc:
        ok, detail = False, f"error: {exc!r}"
    _verdict(capsys, 7, "identical configs, identical bytes", ok, detail)
