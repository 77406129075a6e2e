"""Hyperplane arrangements and their intersection lattices.

An arrangement is a finite set of hyperplanes through the origin of Q^n,
each stored as a canonicalized integer normal.  The lattice of all
intersections is graded by rank (codimension) with the whole space at the
bottom and the common intersection, the center, at the top.  It is built
once per arrangement, rank by rank: the covers of a flat X are the
hyperplanes of the restriction to X, so grouping the traces of the
hyperplanes on X gives X's covers together with the hyperplanes that
lead to each.  IntersectionLattice holds all of its order data.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Iterator, Sequence
from math import lcm
from operator import mul

from .exactlin import (
    Subspace,
    Value,
    canonical_subspace,
    full_space,
    kernel,
    primitive,
    primitive_vector,
)

class SelfCheckFailed(RuntimeError):
    """Two independent computations of the same quantity disagreed."""


def self_check(ok: bool, message: str) -> None:
    """An internal cross-check that, unlike assert, survives python -O."""
    if not ok:
        raise SelfCheckFailed(message)


class Arrangement(Value):
    """Hyperplanes labeled 1..m by their position in the normals tuple.  A
    normal that is not a new nonzero primitive tuple of ambient_dim ints
    with a positive leading entry raises ValueError naming its position."""

    _fields = ("ambient_dim", "normals")

    def __init__(self, ambient_dim: int,
                 normals: tuple[tuple[int, ...], ...], /) -> None:
        seen = set()
        for pos, a in enumerate(normals, 1):
            if type(a) is not tuple:
                problem = f"{type(a).__name__}, not a tuple"
            elif odd := [x for x in a if type(x) is not int]:
                problem = f"entry {odd[0]!r} is not an int"
            elif len(a) != ambient_dim:
                problem = f"expected {ambient_dim} entries, got {len(a)}"
            elif not any(a):
                problem = "zero vector does not define a hyperplane"
            elif primitive(a)[0] != a:
                problem = "not primitive with a positive leading entry"
            elif a in seen:
                problem = "duplicate hyperplane"
            else:
                seen.add(a)
                continue
            raise ValueError(f"normal {pos}: {problem}")
        super().__init__(ambient_dim, normals)

    @property
    def size(self) -> int:
        return len(self.normals)


def build_arrangement(n: int, raw_normals: Iterable[Sequence]) -> Arrangement:
    """Canonicalize the integer normals (coprime, positive leading entry);
    the Arrangement constructor rejects other entries, zero vectors, wrong
    lengths and duplicate hyperplanes."""
    canon: list[tuple[int, ...]] = []
    for raw in raw_normals:
        v = tuple(raw)
        try:
            v, _ = primitive_vector(v)
        except ValueError:  # not all ints, or zero: the constructor says which
            pass
        canon.append(v)
    return Arrangement(n, tuple(canon))


def set_bits(mask: int) -> Iterator[int]:
    """The positions of mask's set bits, lowest first, one step per bit."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Flat(Value):
    """An intersection of hyperplanes; generators is the full (closed) label set."""

    _fields = ("subspace", "rank", "generators")

    @property
    def dim(self) -> int:
        return self.subspace.dim


class IntersectionLattice(Value):
    """All flats ordered by reverse inclusion, bottom R^n, top the center.

    flats are sorted by (rank, canonical basis), covers holds index pairs
    (a, b) where flat b covers flat a, i.e. rank(b) = rank(a) + 1 and b is
    contained in a as a set.  gens[a] is flat a's generator set as a bitmask
    (bit j is hyperplane j + 1).  cover_groups[a] holds a pair (c, mask) per
    flat c covering a, in increasing c, where mask has bit j set iff
    hyperplane j + 1 meets flat a in flat c; the masks split the hyperplanes
    outside gens[a].  gens and cover_groups follow from the rest and stay
    out of equality.
    """

    _fields = ("ambient_dim", "flats", "covers")
    _extra = ("gens", "cover_groups")

    @property
    def rank(self) -> int:
        return self.flats[-1].rank

    @property
    def ground_size(self) -> int:
        """The number of hyperplanes: every one contains the top."""
        return self.gens[-1].bit_length()

    def by_rank(self, r: int) -> tuple[Flat, ...]:
        return tuple(f for f in self.flats if f.rank == r)

    def top(self) -> Flat:
        return self.flats[-1]

    @functools.cached_property
    def lower_steps(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(a, added) for each flat b: a is b's last lower cover, and added
        the hyperplanes j (bit j of a mask) of the group leading from a to b
        in cover_groups[a], in increasing order.  The bottom gets (0, ())."""
        step = [(0, 0)] * len(self.flats)
        for a, groups in enumerate(self.cover_groups):
            for c, group in groups:
                step[c] = a, group
        return tuple([(a, tuple(set_bits(group))) for a, group in step])

    def fill_up(self, value: Callable[[int, int], int], final: int) -> tuple[int, ...]:
        """value(b, a) for every flat index b, in flat order, for a value
        that moves one way along the order and stops at final: above a flat
        where it is final, the flat gets final without a call.  Flat order
        lists every cover after the flat it covers, so marking the covers of
        each final flat reaches every flat above it.  Below a flat that gets
        a call, every flat got one, so value(b, a) can build on the call for
        b's lower cover a in lower_steps."""
        out: list[int | None] = [None] * len(self.flats)
        for b, (a, _) in enumerate(self.lower_steps):
            if out[b] is None:
                out[b] = value(b, a)
            if out[b] == final:
                for c, _ in self.cover_groups[b]:
                    out[c] = final
        return tuple(out)

    def closure(self, mask: int) -> int:
        """Index of the smallest flat whose generators include mask, found
        from the bottom one rank at a time: each step goes to the cover that
        a hyperplane of mask still missing leads to.  ValueError when mask
        has a bit outside the ground set."""
        if mask >> self.ground_size:
            raise ValueError("mask has a bit outside the ground set")
        a = 0
        while rest := mask & ~self.gens[a]:
            a = next(c for c, group in self.cover_groups[a] if group & rest)
        return a


def _primitive_trace(rows: Sequence[Sequence[int]],
                     a: Sequence[int]) -> tuple[int, ...]:
    """The trace B a of an integer normal on integer rows B, by plain dot
    products, made primitive; all zeros when B a = 0."""
    return primitive([sum(map(mul, row, a)) for row in rows])[0]


@functools.lru_cache(maxsize=None)
def intersection_lattice(arr: Arrangement) -> IntersectionLattice:
    """Rank by rank from R^n, with flats keyed by generator bitmask.

    A flat X with canonical integer basis B meets each hyperplane j outside
    gens(X) in the hyperplane of X cut out by the trace t = B a_j.
    Hyperplanes with parallel traces cut the same cover Y, so gens(Y) is
    gens(X) plus the group of j whose primitive traces are equal, and only
    a new Y needs a basis: for the first p with t_p != 0, the rows
    t_p B_i - t_i B_p (i != p) span Y, and one canonical_subspace of them
    gives its canonical basis.  A flat one dimension above the center is
    cut down to the center by every hyperplane outside it, so it takes no
    traces: its one group is all of them, and its cover is the top.
    """
    n, m = arr.ambient_dim, arr.size
    top = center(arr)
    basis = {0: full_space(n)}
    grouped: dict[int, tuple[int, ...]] = {}  # g: one group per cover of g
    frontier = [0]
    while frontier:
        nxt = []
        for g in frontier:
            B = basis[g].basis
            groups: dict[tuple[int, ...], int] = {}
            if len(B) == top.dim + 1:  # a coatom: the top is its one cover
                groups[()] = (1 << m) - 1 & ~g
            else:
                for j in range(m):
                    if not g >> j & 1:
                        t = _primitive_trace(B, arr.normals[j])
                        groups[t] = groups.get(t, 0) | 1 << j
            grouped[g] = tuple(groups.values())
            for t, group in groups.items():
                h = g | group
                if h not in basis:
                    p = next((i for i, x in enumerate(t) if x), None)
                    basis[h] = top if p is None else canonical_subspace(
                        [[t[p] * x - t[i] * y for x, y in zip(B[i], B[p])]
                         for i in range(len(B)) if i != p], n)
                    nxt.append(h)
        frontier = nxt
    gens = tuple(sorted(basis, key=lambda g: (n - basis[g].dim, basis[g].basis)))
    flats = tuple(Flat(basis[g], n - basis[g].dim,
                       frozenset(j + 1 for j in set_bits(g))) for g in gens)
    index = {g: a for a, g in enumerate(gens)}
    cover_groups = tuple(tuple(sorted((index[g | group], group)
                                      for group in grouped[g])) for g in gens)
    covers = tuple((a, c) for a, groups in enumerate(cover_groups) for c, _ in groups)
    return IntersectionLattice(n, flats, covers, gens, cover_groups)


@functools.lru_cache(maxsize=None)
def center(arr: Arrangement) -> Subspace:
    """The intersection of all hyperplanes; R^n for the empty arrangement."""
    return kernel(arr.normals, arr.ambient_dim)


def is_essential(arr: Arrangement) -> bool:
    return center(arr).dim == 0


def _trace_names(arr: Arrangement, U: Subspace) -> dict[tuple[int, ...], int]:
    """Each nonzero primitive trace B a_j on U's canonical basis B, in order
    of first appearance, with the index j of the first normal that has it:
    the hyperplanes of the restriction to U, each named by one of arr's."""
    if U.ambient_dim != arr.ambient_dim:
        raise ValueError("ambient dimensions differ")
    if U.dim == 0:
        raise ValueError("cannot restrict to the zero subspace")
    first: dict[tuple[int, ...], int] = {}
    for j, a in enumerate(arr.normals):
        first.setdefault(_primitive_trace(U.basis, a), j)
    first.pop((0,) * U.dim, None)  # from the hyperplanes containing U
    return first


def restriction(arr: Arrangement, U: Subspace) -> Arrangement:
    """The arrangement of traces H ∩ U inside U, written in the canonical
    basis of U (so it lives in dimension dim U).  Hyperplanes containing U
    contribute nothing; distinct hyperplanes cutting the same trace are
    merged, since an arrangement is a set.
    """
    return Arrangement(U.dim, tuple(_trace_names(arr, U)))


@functools.lru_cache(maxsize=None)
def maximal_chains(lattice: IntersectionLattice) -> tuple[tuple[Flat, ...], ...]:
    """Every maximal chain (center, ..., R^n), dimension increasing one step
    at a time, in lexicographic order of the flats visited.  No command
    calls it: it is the paper's Schubert reference, which the tests walk,
    and there can be exponentially many chains (chain_count counts them)."""
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


def int_token(token: str) -> int | None:
    """The int that token spells when it is an optional sign and ASCII
    digits, else None: the one integer grammar of the text format, for
    header fields and entries alike.  int alone would also take '1_000' and
    non-ASCII digits such as '٣'."""
    digits = token[1:] if token[:1] in "+-" else token
    return int(token) if digits.isascii() and digits.isdigit() else None


def read_rows(text: str, header: Callable[[list[str], str], tuple[int, ...]],
              missing: str) -> tuple[tuple[int, ...], list[list[int]]]:
    """The plain text format of arrangement and subspace files: a header
    line, then one row of whitespace-separated rationals per line; anything
    after a '#' is a comment.  header(fields, "line N") checks the header
    and returns its integers, the first being the row width; a text with
    no header line raises ValueError(missing).

    Rows come back as integers.  When every token of a row is an integer
    by int_token, those are the row.  Otherwise fractions.Fraction,
    imported only then, reads the row, so its grammar (p/q, decimals,
    exponents) is the format's on every Python, and the row is multiplied
    by the lcm of its denominators: a row stands for a hyperplane or a
    spanning vector, and neither changes when the row is scaled.  int
    alone would take more than Fraction does before Python 3.11: '1_000'."""
    head: tuple[int, ...] | None = None
    rows: list[list[int]] = []
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
        ints = [int_token(p) for p in parts]
        if None not in ints:
            rows.append(ints)
            continue
        from fractions import Fraction
        try:
            qs = [Fraction(p) for p in parts]
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"line {lineno}: bad rational entry") from None
        den = lcm(*[q.denominator for q in qs])
        rows.append([q.numerator * (den // q.denominator) for q in qs])
    if head is None:
        raise ValueError(missing)
    return head, rows


def _dimension_header(parts: list[str], where: str) -> tuple[int]:
    if len(parts) != 1:
        raise ValueError(f"{where}: expected the ambient dimension alone")
    n = int_token(parts[0])
    if n is None:
        raise ValueError(f"{where}: bad dimension {parts[0]!r}")
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
