"""The three stratum labels of a subspace and the partition verifiers.

Fix an arrangement A and a dimension k.  A k-subspace U gets three labels:

  * matroid label: the Matroid of the traces of the normals on U, one
    trace rank per flat of the intersection lattice;
  * adjoint label: the pair (i, zero set), i = dim(U meet center) and the
    tuple of rank (k - i) flats whose adjoint hyperplane contains the
    Pluecker vector of the defect subspace of U;
  * Schubert label: the tuple of dim(U meet X) for every flat X, in flat
    order, whose last entry, at the center, is i.  It fixes where
    dim(U meet chain flat) jumps along every maximal chain, since every
    flat lies on one.  Neither per-flat label reads the
    other: trace ranks on one side, intersection dimensions on the
    other.  Each is taken in lattice order and stops at its value at the
    top, found first by its own route: trace ranks rise to k - i and
    overlaps fall to i, and a flat above one at that value gets it without an
    elimination.  labels, which the label and verify commands go through,
    computes all three and checks rank = dim U - overlap on every flat;
    where both values were filled in, that compares two inferences.
    encode_labels writes the three as the strings verify compares.

All three are supposed to cut the Grassmannian into the same pieces, and
subspaces in one piece are supposed to have isomorphic restriction
lattices; within one matroid class they are even equal as labeled
lattices, with atoms named by hyperplanes of A, so a comparison of values
checks it and no isomorphism search runs.  verify_equivalence and
verify_restriction_classification check this on the encodings of a given
sample list, and return their verdicts plus a witness pair for each
verdict that fails.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence

from .arrangement import (
    Arrangement,
    Flat,
    intersection_lattice,
    is_essential,
    self_check,
)
from .exactlin import Subspace, intersection_dim
from .matroid import Matroid, matroid_from, restriction_lattice
from .pluecker import defect_subspace, eval_adjoint, k_adjoint, pluecker_vector


def matroid_label(arr: Arrangement, U: Subspace) -> Matroid:
    return matroid_from(arr, U)


def adjoint_label(arr: Arrangement, U: Subspace) -> tuple[int, tuple[Flat, ...]]:
    V = defect_subspace(arr, U)
    # defect_subspace has checked dim V = dim U - dim(U meet center)
    i = U.dim - V.dim
    p = pluecker_vector(V)
    zero = tuple(h.source for h in k_adjoint(arr, V.dim)
                 if eval_adjoint(h, p) == 0)
    return i, zero


def schubert_label(arr: Arrangement, U: Subspace) -> tuple[int, ...]:
    lat = intersection_lattice(arr)
    # U meet center, of dimension i, lies in every flat: overlaps stop at i
    i = intersection_dim(U, lat.top().subspace)
    dims = lat.fill_up(lambda b, a: intersection_dim(U, lat.flats[b].subspace), i)
    # dims drop from dim U at the bottom by 0 or 1 per cover, so every chain
    # has exactly dim U - i jumps; a cover of a flat at i got i from fill_up
    steps = {dims[a] - dims[c] for a, groups in enumerate(lat.cover_groups)
             if dims[a] > i for c, _ in groups}
    self_check(dims[0] == U.dim and steps <= {0, 1},
               "overlap dimensions do not step down by 0 or 1 from dim U")
    return dims


def labels(arr: Arrangement, U: Subspace
           ) -> tuple[Matroid, tuple[int, tuple[Flat, ...]], tuple[int, ...]]:
    """The three labels of U; the finished matroid and Schubert vectors are
    compared on every flat, and neither label reads the other."""
    ml, al, sl = matroid_label(arr, U), adjoint_label(arr, U), schubert_label(arr, U)
    k = U.dim
    bad = [sorted(f.generators) for f, r, d in zip(
        intersection_lattice(arr).flats, ml.ranks, sl)
        if r + d != k]
    self_check(not bad, f"trace ranks and flat ranks disagree on {bad}")
    return ml, al, sl


def encode_labels(matroid: Matroid, adjoint: tuple[int, tuple[Flat, ...]],
                  dims: tuple[int, ...]) -> dict[str, str]:
    """The three labels as the strings that verify compares and reports,
    keyed by KINDS."""
    i, zero_set = adjoint
    gens = sorted(tuple(sorted(f.generators)) for f in zero_set)
    body = "|".join("{" + ",".join(map(str, gs)) + "}" for gs in gens)
    return {"matroid": f"m{matroid.ground_size}:" + ",".join(map(str, matroid.ranks)),
            "adjoint": f"i{i}:{body}",
            "schubert": f"i{dims[-1]}:" + ",".join(map(str, dims))}


def label_encodings(arr: Arrangement, U: Subspace) -> dict[str, str]:
    return encode_labels(*labels(arr, U))


KINDS = ("matroid", "adjoint", "schubert")


def _blocks(encs: Sequence[str]) -> dict[str, list[int]]:
    # the indices of each label: canonical, as members increase within a
    # block and blocks are keyed in order of their first member, so == on
    # the lists of values compares two partitions
    by_label: dict[str, list[int]] = {}
    for idx, e in enumerate(encs):
        by_label.setdefault(e, []).append(idx)
    return by_label


def first_disagreement(enc_a: Sequence[str],
                       enc_b: Sequence[str]) -> tuple[int, int] | None:
    """First index pair the two labelings split differently, in
    lexicographic pair order so witnesses are reproducible.

    With A(x) and B(x) the blocks of x, the pair (x, y) splits exactly
    when y lies in A(x) ^ B(x).  Let x be the first index with A(x) !=
    B(x).  No y < x lies in A(x) ^ B(x), else x would lie in A(y) ^ B(y);
    so (x, min(A(x) ^ B(x))) is the first pair.  A block of enc_a that
    starts before x is a block of enc_b, so each block is compared once,
    at its first member, and the scan is linear."""
    blocks_a, blocks_b = _blocks(enc_a), _blocks(enc_b)
    for x, (a, b) in enumerate(zip(enc_a, enc_b)):
        A, B = blocks_a[a], blocks_b[b]
        if A[0] == x and A != B:
            return x, min(set(A) ^ set(B))
    return None


def _check_dims(k: int, subspaces: Sequence[Subspace]) -> None:
    for idx, U in enumerate(subspaces):
        if U.dim != k:
            raise ValueError(f"subspace {idx} has dimension {U.dim}, not {k}")


def verify_equivalence(encodings: Sequence[dict]
                       ) -> tuple[dict, dict, list[dict]]:
    """Demand one common partition of the samples from the three labelings:
    the partitions, one verdict per pair of labelings and a witness pair
    for each verdict that fails."""
    parts = {kind: list(_blocks([e[kind] for e in encodings]).values())
             for kind in KINDS}
    verdicts = {}
    witnesses = []
    for ka, kb in itertools.combinations(KINDS, 2):
        same = parts[ka] == parts[kb]
        verdicts[f"{ka}_vs_{kb}"] = same
        if not same:
            pair = first_disagreement([e[ka] for e in encodings],
                                      [e[kb] for e in encodings])
            witnesses.append({
                "type": "partition_mismatch",
                "labelings": [ka, kb],
                "pair": list(pair),
                "labels": {
                    ka: [encodings[pair[0]][ka], encodings[pair[1]][ka]],
                    kb: [encodings[pair[0]][kb], encodings[pair[1]][kb]],
                },
            })
    return parts, verdicts, witnesses


def verify_restriction_classification(arr: Arrangement, k: int,
                                      subspaces: Sequence[Subspace],
                                      encodings: Sequence[dict],
                                      ) -> tuple[dict, list[dict]]:
    """Within every label class all restriction lattices must be equal as
    labeled lattices (restriction_lattice): one verdict per class and a
    witness pair for each member whose lattice differs from the first's,
    which lattice_of keeps.  For an essential arrangement the adjoint label
    cuts classes too: the classification statement in its projective form.
    """
    _check_dims(k, subspaces)

    @functools.cache
    def lattice_of(idx: int):
        return restriction_lattice(arr, subspaces[idx])

    verdicts = {}
    witnesses = []
    for kind in ("matroid", "adjoint") if is_essential(arr) else ("matroid",):
        classes = _blocks([e[kind] for e in encodings])
        for enc in sorted(classes):
            key = f"{kind}:{enc}"
            first, *others = classes[enc]
            # a 0-subspace has no restriction: every class passes
            bad = [] if k == 0 else [
                other for other in others
                if lattice_of(first) != lattice_of(other)]
            verdicts[key] = not bad
            witnesses += [{"type": "restriction_mismatch", "class": key,
                           "pair": [first, other]} for other in bad]
    return verdicts, witnesses
