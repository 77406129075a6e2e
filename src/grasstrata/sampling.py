"""Reproducible subspace sampling.

Random rational subspaces are generic with probability close to one, so the
interesting strata would never show up from random draws alone.  The
structured generator therefore mixes in flats, leading rows of flats,
seeded two-flat combinations and perturbed flats.  Randomness comes from a
counter-based splitmix64 stream: a sample is a pure function of
(seed, index), independent of call order and process.
"""

from __future__ import annotations

from collections.abc import Iterator

from .arrangement import Arrangement, intersection_lattice
from .exactlin import Subspace, canonical_subspace, subspace_sum, zero_subspace

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

MAX_SAMPLE_ATTEMPTS = 10 ** 4
FLAT_PAIRS = 40  # seeded flat-pair sums tried by structured_subspaces


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def stream(seed: int, *key: int) -> Iterator[int]:
    """Endless 64-bit values determined entirely by (seed, key)."""
    state = _mix(seed & _MASK)
    for part in key:
        state = _mix(state ^ _mix(part & _MASK))
    while True:
        state = (state + _GOLDEN) & _MASK
        yield _mix(state)


def sample_subspace(n: int, k: int, bound: int, seed: int,
                    index: int) -> Subspace:
    """The index-th random k-subspace of Q^n for this seed: k x n integer
    matrices with entries in [-bound, bound], redrawn until rank k."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if k == 0:
        return zero_subspace(n)
    width = 2 * bound + 1
    # bound 0 draws only the zero matrix, so no attempt could succeed
    attempts = MAX_SAMPLE_ATTEMPTS if bound else 0
    for attempt in range(attempts):
        g = stream(seed, index, attempt)
        U = canonical_subspace(
            [[next(g) % width - bound for _ in range(n)] for _ in range(k)], n)
        if U.dim == k:
            return U
    raise ValueError(
        f"no rank-{k} sample in {attempts} attempts; "
        f"bound={bound} is too degenerate")


def structured_subspaces(arr: Arrangement, k: int,
                         seed: int = 0) -> list[Subspace]:
    """Deterministic non-generic k-subspaces tied to the arrangement:
    every flat of dimension k, the leading k rows of bigger flats, FLAT_PAIRS
    seeded sums of flat pairs, and flats with one basis vector nudged.
    Leading rows are taken from a flat's canonical basis as it is: the
    first k rows of an RREF with coprime rows are one too."""
    n = arr.ambient_dim
    lat = intersection_lattice(arr)
    out: list[Subspace] = []
    seen: set[Subspace] = set()

    def push(S: Subspace) -> None:
        if S.dim == k and S not in seen:
            seen.add(S)
            out.append(S)

    for flat in lat.flats:
        push(flat.subspace)

    def leading(S: Subspace) -> Subspace:
        return Subspace(n, S.basis[:k])

    if k >= 1:
        for flat in lat.flats:
            if flat.dim > k:
                push(leading(flat.subspace))

        g = stream(seed, 0xF1A7)
        pool = [f for f in lat.flats if f.dim >= 1]
        if pool:
            for _ in range(FLAT_PAIRS):
                a = pool[next(g) % len(pool)]
                b = pool[next(g) % len(pool)]
                W = subspace_sum(a.subspace, b.subspace)
                if W.dim >= k:
                    push(leading(W))

        for flat in lat.flats:
            if flat.dim != k:
                continue
            j = next(g) % n
            rows = [list(r) for r in flat.subspace.basis]
            rows[0][j] += 1
            push(canonical_subspace(rows, n))

    return out
