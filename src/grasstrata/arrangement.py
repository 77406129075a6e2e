"""Hyperplane arrangements and their intersection lattices.

An arrangement is a finite set of hyperplanes through the origin of Q^n,
each stored as a canonicalized integer normal.  The lattice of all
intersections is graded by rank (codimension) with the whole space at the
bottom and the common intersection, the center, at the top.  It is built
once per arrangement, rank by rank: the covers of a flat X are the
hyperplanes of the restriction to X, so grouping the traces of the
hyperplanes on X gives X's covers, their generator sets and the one-step
closure table together.  IntersectionLattice holds all of its order data.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from math import gcd
from operator import mul

from .exactlin import (
    RationalMatrix,
    Subspace,
    Value,
    canonical_subspace,
    full_space,
    kernel,
    matrix,
    primitive_vector,
    vector,
)

MAX_CHAINS = 10 ** 6


class GuardExceeded(RuntimeError):
    """A size guard was hit before a computation finished."""


class SelfCheckFailed(RuntimeError):
    """Two independent computations of the same quantity disagreed."""


def self_check(ok: bool, message: str) -> None:
    """An internal cross-check that, unlike assert, survives python -O."""
    if not ok:
        raise SelfCheckFailed(message)


class Arrangement(Value):
    """Hyperplanes labeled 1..m by their position in the normals tuple."""

    _fields = ("ambient_dim", "normals")

    def __init__(self, ambient_dim: int,
                 normals: tuple[tuple[int, ...], ...]) -> None:
        self._set(ambient_dim=ambient_dim, normals=normals)

    @property
    def size(self) -> int:
        return len(self.normals)

    def normal(self, label: int) -> tuple[int, ...]:
        return self.normals[label - 1]

    def hyperplane(self, label: int) -> Subspace:
        return kernel(matrix([self.normal(label)], cols=self.ambient_dim))


def build_arrangement(n: int, raw_normals: Iterable[Sequence]) -> Arrangement:
    """Canonicalize the normals (coprime integers, positive leading entry) and
    reject zero vectors, wrong lengths and duplicate hyperplanes."""
    canon: list[tuple[int, ...]] = []
    seen = set()
    for pos, raw in enumerate(raw_normals, 1):
        v = vector(raw)
        if len(v) != n:
            raise ValueError(f"normal {pos}: expected {n} entries, got {len(v)}")
        if all(x == 0 for x in v):
            raise ValueError(f"normal {pos}: zero vector does not define a hyperplane")
        w, _ = primitive_vector(v)
        if w in seen:
            raise ValueError(f"normal {pos}: duplicate hyperplane")
        seen.add(w)
        canon.append(w)
    return Arrangement(n, tuple(canon))


class Flat(Value):
    """An intersection of hyperplanes; generators is the full (closed) label set."""

    _fields = ("subspace", "rank", "generators")

    def __init__(self, subspace: Subspace, rank: int,
                 generators: frozenset[int]) -> None:
        self._set(subspace=subspace, rank=rank, generators=generators)

    @property
    def dim(self) -> int:
        return self.subspace.dim


def _flat_key(f: Flat):
    return (f.rank, f.subspace.basis.entries)


class IntersectionLattice(Value):
    """All flats ordered by reverse inclusion, bottom R^n, top the center.

    flats are sorted by (rank, canonical basis), covers holds index pairs
    (a, b) where flat b covers flat a, i.e. rank(b) = rank(a) + 1 and b is
    contained in a as a set.  gens[a] is flat a's generator set as a bitmask
    (bit j is hyperplane j + 1).  up[a][j] is the closure of flat a and
    hyperplane j + 1: a itself when the hyperplane contains it, else the one
    cover of a that lies in it.  gens and up follow from the rest and stay
    out of equality.
    """

    _fields = ("ambient_dim", "flats", "covers")

    def __init__(self, ambient_dim: int, flats: tuple[Flat, ...],
                 covers: tuple[tuple[int, int], ...], gens: tuple[int, ...],
                 up: tuple[tuple[int, ...], ...]) -> None:
        self._set(ambient_dim=ambient_dim, flats=flats, covers=covers,
                  gens=gens, up=up)

    @property
    def rank(self) -> int:
        return self.flats[-1].rank

    @property
    def ground_size(self) -> int:
        """The number of hyperplanes."""
        return len(self.up[0])

    def by_rank(self, r: int) -> tuple[Flat, ...]:
        return tuple(f for f in self.flats if f.rank == r)

    def bottom(self) -> Flat:
        return self.flats[0]

    def top(self) -> Flat:
        return self.flats[-1]

    def leq(self, a: int, b: int) -> bool:
        """Reverse-inclusion order on flat indices: a <= b iff b is inside a."""
        return self.gens[a] & ~self.gens[b] == 0

    @functools.cached_property
    def lower_cover(self) -> tuple[int, ...]:
        """One lower cover of each flat, by index; the bottom's is itself."""
        below = [0] * len(self.flats)
        for a, b in self.covers:
            below[b] = a
        return tuple(below)

    def fill_up(self, value: Callable[[int, int], int], final: int) -> tuple[int, ...]:
        """value(b, a) for every flat index b, in flat order, for a value
        that moves one way along the order and stops at final: above a flat
        where it is final, the flat gets final without a call.  Flat order
        lists every cover after the flat it covers, so marking the one-step
        closures of each final flat reaches every flat above it.  Below a
        flat that gets a call, every flat got one, so value(b, a) can build
        on the call for a = lower_cover[b]."""
        out: list[int | None] = [None] * len(self.flats)
        for b, a in enumerate(self.lower_cover):
            if out[b] is None:
                out[b] = value(b, a)
            if out[b] == final:
                for c in self.up[b]:
                    out[c] = final
        return tuple(out)

    def closure(self, mask: int, start: int = 0) -> int:
        """Index of the smallest flat above flat start whose generators
        include mask."""
        a = start
        for j in range(mask.bit_length()):
            if mask >> j & 1:
                a = self.up[a][j]
        return a


def _primitive_trace(rows: Sequence[Sequence[int]],
                     a: Sequence[int]) -> tuple[int, ...]:
    """The trace B a of an integer normal on integer rows B, by plain dot
    products, divided by the gcd of its entries and signed so that its
    first nonzero entry is positive; all zeros when B a = 0."""
    t = [sum(map(mul, row, a)) for row in rows]
    g = gcd(*t)
    if g and next(x for x in t if x) < 0:
        g = -g
    return tuple(x // g for x in t) if g else tuple(t)


@functools.lru_cache(maxsize=None)
def intersection_lattice(arr: Arrangement) -> IntersectionLattice:
    """Rank by rank from R^n, with flats keyed by generator bitmask.

    A flat X with canonical integer basis B meets each hyperplane j outside
    gens(X) in the hyperplane of X cut out by the trace t = B a_j.
    Hyperplanes with parallel traces cut the same cover Y, so gens(Y) is
    gens(X) plus the group of j whose primitive traces are equal, and only
    a new Y needs a basis: for the first p with t_p != 0, the rows
    t_p B_i - t_i B_p (i != p) span Y, and one canonical_subspace of them
    gives its canonical basis.
    """
    n, m = arr.ambient_dim, arr.size
    basis = {0: full_space(n)}
    up: dict[int, list[int]] = {}
    frontier = [0]
    while frontier:
        nxt = []
        for g in frontier:
            B = basis[g].basis.entries
            groups: dict[tuple[int, ...], int] = {}
            for j in range(m):
                if not g >> j & 1:
                    t = _primitive_trace(B, arr.normals[j])
                    groups[t] = groups.get(t, 0) | 1 << j
            row = up[g] = [g] * m
            for t, group in groups.items():
                h = g | group
                if h not in basis:
                    p = next(i for i, x in enumerate(t) if x)
                    basis[h] = canonical_subspace(RationalMatrix(tuple(
                        tuple(t[p] * x - t[i] * y for x, y in zip(B[i], B[p]))
                        for i in range(len(B)) if i != p), n))
                    nxt.append(h)
                for j in range(m):
                    if group >> j & 1:
                        row[j] = h
        frontier = nxt
    flats = sorted((Flat(S, n - S.dim, frozenset(
        j + 1 for j in range(m) if g >> j & 1)) for g, S in basis.items()),
        key=_flat_key)
    gens = tuple(sum(1 << (j - 1) for j in f.generators) for f in flats)
    index = {g: a for a, g in enumerate(gens)}
    ups = tuple(tuple(index[h] for h in up[g]) for g in gens)
    covers = sorted({(a, b) for a, row in enumerate(ups) for b in row if b != a})
    return IntersectionLattice(n, tuple(flats), tuple(covers), gens, ups)


@functools.lru_cache(maxsize=None)
def center(arr: Arrangement) -> Subspace:
    """The intersection of all hyperplanes; R^n for the empty arrangement."""
    return kernel(matrix(arr.normals, cols=arr.ambient_dim))


def is_essential(arr: Arrangement) -> bool:
    return center(arr).dim == 0


def restriction(arr: Arrangement, U: Subspace) -> Arrangement:
    """The arrangement of traces H ∩ U inside U, written in the canonical
    basis of U (so it lives in dimension dim U).  Hyperplanes containing U
    contribute nothing; distinct hyperplanes cutting the same trace are
    merged, since an arrangement is a set.
    """
    if U.ambient_dim != arr.ambient_dim:
        raise ValueError("ambient dimensions differ")
    if U.dim == 0:
        raise ValueError("cannot restrict to the zero subspace")
    B = U.basis.entries
    traces: list[tuple[int, ...]] = []
    seen = set()
    for a in arr.normals:
        w = _primitive_trace(B, a)
        if any(w) and w not in seen:
            seen.add(w)
            traces.append(w)
    return Arrangement(U.dim, tuple(traces))


@functools.lru_cache(maxsize=None)
def maximal_chains(lattice: IntersectionLattice) -> tuple[tuple[Flat, ...], ...]:
    """Every maximal chain (center, ..., R^n), dimension increasing one step
    at a time, in lexicographic order of the flats visited.  Raises
    GuardExceeded when more than MAX_CHAINS chains exist."""
    preds: dict[int, list[int]] = {i: [] for i in range(len(lattice.flats))}
    for a, b in lattice.covers:
        preds[b].append(a)
    for lst in preds.values():
        lst.sort()
    top = len(lattice.flats) - 1
    chains: list[tuple[Flat, ...]] = []
    path = [top]

    def walk(idx: int) -> None:
        if lattice.flats[idx].rank == 0:
            if len(chains) >= MAX_CHAINS:
                raise GuardExceeded(f"more than {MAX_CHAINS} maximal chains")
            chains.append(tuple(lattice.flats[i] for i in path))
            return
        for nxt in preds[idx]:
            path.append(nxt)
            walk(nxt)
            path.pop()

    walk(top)
    return tuple(chains)


def chain_count(lattice: IntersectionLattice) -> int:
    """The number of maximal chains, counted over covers without listing
    them."""
    ways = [1] + [0] * (len(lattice.flats) - 1)
    for a, b in lattice.covers:  # sorted by a, and every cover goes up
        ways[b] += ways[a]
    return ways[-1]


# ------------------------------------------------------------ text format


def read_rows(text: str, header: Callable[[list[str], str], tuple[int, ...]],
              missing: str) -> tuple[tuple[int, ...], list[list[Fraction]]]:
    """The plain text format of arrangement and subspace files: a header
    line, then one row of whitespace-separated rationals per line; anything
    after a '#' is a comment.  header(fields, "line N") checks the header
    and returns its integers, the first being the row width; a text with
    no header line raises ValueError(missing)."""
    head: tuple[int, ...] | None = None
    rows: list[list[Fraction]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if head is None:
            head = header(parts, f"line {lineno}")
            continue
        if len(parts) != head[0]:
            raise ValueError(
                f"line {lineno}: expected {head[0]} entries, got {len(parts)}")
        try:
            rows.append([Fraction(p) for p in parts])
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"line {lineno}: bad rational entry") from None
    if head is None:
        raise ValueError(missing)
    return head, rows


def _dimension_header(parts: list[str], where: str) -> tuple[int]:
    if len(parts) != 1:
        raise ValueError(f"{where}: expected the ambient dimension alone")
    try:
        n = int(parts[0])
    except ValueError:
        raise ValueError(f"{where}: bad dimension {parts[0]!r}") from None
    if n < 0:
        raise ValueError(f"{where}: negative dimension")
    return (n,)


def parse_arrangement(text: str) -> Arrangement:
    """Parse the plain text format: first the ambient dimension on its own
    line, then one normal per line (see read_rows)."""
    (n,), rows = read_rows(text, _dimension_header, "missing dimension line")
    try:
        return build_arrangement(n, rows)
    except ValueError as e:
        raise ValueError(f"bad arrangement: {e}") from None


def format_arrangement(arr: Arrangement) -> str:
    lines = [str(arr.ambient_dim)]
    for w in arr.normals:
        lines.append(" ".join(str(x) for x in w))
    return "\n".join(lines) + "\n"


def load_arrangement(path) -> Arrangement:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_arrangement(fh.read())
