"""Correctness gate for `grasstrata verify` reports.

The oracle here shares no code with the package.  It lists the flats of
the arrangement as closed sets of hyperplane labels and, for every sampled
subspace U with basis rows B, takes the rank of the traces {B a_i : i in F}
on each flat F.  That vector is dim U - dim(U meet X_F) over all flats, so
it fixes the matroid label (ranks of traces only depend on closures) and
the Schubert label (every flat lies on a maximal chain); the paper's claim
is that the adjoint label cuts out the same classes.  A report passes when
all three of its partitions equal the oracle's.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def rank(rows: list[list[int]]) -> int:
    """Exact rank by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in r] for r in rows]
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def flats(normals: list[list[int]]) -> list[frozenset[int]]:
    """Every flat, as the set of 0-based labels of the hyperplanes through it."""
    m = len(normals)

    def closure(labels: frozenset[int]) -> frozenset[int]:
        base = [normals[i] for i in labels]
        r = rank(base)
        return frozenset(j for j in range(m)
                         if j in labels or rank(base + [normals[j]]) == r)

    found = {closure(frozenset())}
    frontier = list(found)
    while frontier:
        nxt = []
        for F in frontier:
            for j in range(m):
                if j not in F:
                    G = closure(F | {j})
                    if G not in found:
                        found.add(G)
                        nxt.append(G)
        frontier = nxt
    return sorted(found, key=lambda F: (len(F), sorted(F)))


def oracle_partition(normals: list[list[int]], the_flats: list[frozenset[int]],
                     bases: list[list[list[int]]]) -> set[frozenset[int]]:
    by_key: dict[tuple, set[int]] = {}
    for idx, B in enumerate(bases):
        traces = [[sum(b * a for b, a in zip(row, normal)) for row in B] for normal in normals]
        key = tuple(rank([traces[i] for i in F]) for F in the_flats)
        by_key.setdefault(key, set()).add(idx)
    return {frozenset(block) for block in by_key.values()}


def digest(report: dict) -> str:
    """sha256 of the sample bases, partitions and verdicts.  Classification
    verdicts are keyed in the report by label encoding; here they are keyed
    by the first sample of the class instead, so the digest survives
    encoding changes."""
    first: dict[tuple[str, str], int] = {}
    for idx, sample in enumerate(report["samples"]):
        for kind, enc in sample["labels"].items():
            first.setdefault((kind, enc), idx)
    classification = sorted(
        [kind, first[(kind, enc)], verdict]
        for kind, enc, verdict in ((*key.split(":", 1), v)
                                   for key, v in report["verdicts"]["classification"].items()))
    canon = {
        "bases": [s["basis"] for s in report["samples"]],
        "partitions": report["partitions"],
        "equivalence": report["verdicts"]["equivalence"],
        "classification": classification,
        "passed": report["verdicts"]["passed"],
    }
    return hashlib.sha256(json.dumps(canon, sort_keys=True).encode()).hexdigest()


def report_problems(report: dict, k: int) -> list[str]:
    """What makes a parsed report fail the gate short of the oracle check."""
    problems = []
    if report["verdicts"]["passed"] is not True:
        problems.append("verdicts.passed is not true")
    skipped = sum(w.get("type") == "guard_skipped" for w in report["witnesses"])
    if skipped:
        problems.append(f"{skipped} guard_skipped witnesses")
    for sample in report["samples"]:
        if len(sample["basis"]) != k:
            problems.append(f"sample {sample['index']} has {len(sample['basis'])} basis rows, not {k}")
            break
    return problems


def oracle_problems(report: dict, normals: list[list[int]],
                    the_flats: list[frozenset[int]]) -> list[str]:
    want = oracle_partition(normals, the_flats, [s["basis"] for s in report["samples"]])
    problems = []
    if sorted(report["partitions"]) != ["adjoint", "matroid", "schubert"]:
        problems.append(f"partitions for {sorted(report['partitions'])}")
    for kind, blocks in sorted(report["partitions"].items()):
        if {frozenset(b) for b in blocks} != want:
            problems.append(f"{kind} partition differs from the oracle's")
    return problems
