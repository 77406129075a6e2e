"""Every point of a small Grassmannian over a prime field, labeled three ways.

An oracle that shares no code with the package, like brute_force.py.  Over
F_p the Grassmannian Gr(k, F_p^n) is finite, so the three labelings can be
compared on every point, and the points of a stratum counted.  Vectors are
lists of ints in 0..p-1; an echelon form is a pair (rows, pivots), each row
with a 1 at its pivot and 0 at the other rows' pivots.
"""

import itertools


def rref(rows, p):
    """The reduced row echelon form of rows mod p, without zero rows."""
    echelon, pivots = [], []
    for row in rows:
        row = reduce(row, echelon, pivots, p)
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            continue
        inv = pow(row[lead], -1, p)
        row = [x * inv % p for x in row]
        echelon = [[(x - r[lead] * y) % p for x, y in zip(r, row)] if r[lead] else r
                   for r in echelon]
        echelon.append(row)
        pivots.append(lead)
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return [echelon[t] for t in order], [pivots[t] for t in order]


def reduce(row, echelon, pivots, p):
    """row minus its part in the row space of an echelon form, mod p: zero
    iff row lies in that space."""
    row = [x % p for x in row]
    for r, lead in zip(echelon, pivots):
        if row[lead]:
            c = row[lead]
            row = [(x - c * y) % p for x, y in zip(row, r)]
    return row


def rank(rows, p):
    """The rank of rows mod p, by forward elimination alone."""
    echelon, pivots = [], []
    for row in rows:
        row = reduce(row, echelon, pivots, p)
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is not None:
            inv = pow(row[lead], -1, p)
            echelon.append([x * inv % p for x in row])
            pivots.append(lead)
    return len(pivots)


def rank_over(rows, echelon, pivots, p):
    """rank [rows; echelon] - rank echelon: the rank of rows modulo the
    space of an echelon form."""
    return rank([reduce(row, echelon, pivots, p) for row in rows], p)


def det(rows, p):
    """The determinant of a square matrix mod p, by elimination."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("not a square matrix")
    rows, d = [[x % p for x in row] for row in rows], 1
    for c in range(len(rows)):
        t = next((t for t in range(c, len(rows)) if rows[t][c]), None)
        if t is None:
            return 0
        if t != c:
            rows[c], rows[t], d = rows[t], rows[c], -d
        d = d * rows[c][c] % p
        inv = pow(rows[c][c], -1, p)
        for t in range(c + 1, len(rows)):
            f = rows[t][c] * inv % p
            rows[t] = [(x - f * y) % p for x, y in zip(rows[t], rows[c])]
    return d % p


def kernel(rows, n, p):
    """A basis of {v in F_p^n : r . v = 0 for every row r}."""
    echelon, pivots = rref(rows, p)
    basis = []
    for f in range(n):
        if f not in pivots:
            v = [0] * n
            v[f] = 1
            for r, lead in zip(echelon, pivots):
                v[lead] = -r[f] % p
            basis.append(v)
    return basis


def subspaces(n, k, p):
    """Every k-subspace of F_p^n once, as its reduced row echelon basis: a
    pivot set, then the free entries, those right of a row's pivot and off
    the other pivots."""
    for pivots in itertools.combinations(range(n), k):
        free = [(i, c) for i, lead in enumerate(pivots)
                for c in range(lead + 1, n) if c not in pivots]
        for entries in itertools.product(range(p), repeat=len(free)):
            rows = [[int(c == lead) for c in range(n)] for lead in pivots]
            for (i, c), x in zip(free, entries):
                rows[i][c] = x
            yield rows


def lattice_mod_p(normals, n, p):
    """The flats of the arrangement over F_p, found as closures of sets of
    normals, the closure of S being the normals in the span of S's: a list
    of (generators, rank, echelon form of the flat's basis), generators
    1-based, in order of (rank, sorted generators)."""
    def closure(gens):
        echelon, pivots = rref([normals[j - 1] for j in gens], p)
        return frozenset(j for j, a in enumerate(normals, 1)
                         if not any(reduce(a, echelon, pivots, p)))

    found = {closure(())}
    frontier = list(found)
    while frontier:
        frontier = [closure(gens | {j}) for gens in frontier
                    for j in range(1, len(normals) + 1) if j not in gens]
        frontier = [gens for gens in set(frontier) if gens not in found]
        found.update(frontier)
    flats = [(gens, rank([normals[j - 1] for j in gens], p)) for gens in found]
    return [(gens, r, rref(kernel([normals[j - 1] for j in gens], n, p), p))
            for gens, r in sorted(flats, key=lambda f: (f[1], sorted(f[0])))]


def labels(U, normals, flats, p):
    """The three labels of the k-subspace with basis U, over F_p:
    the trace rank rank{U a_j : j in X} per flat X, the overlap dimension
    dim(U meet X) per flat, and (i, zero set).  Here i = dim(U meet T) for
    the center T, V is a complement of U meet T in U, and the zero set holds
    the flats X of rank k - i with det[V; basis of X] = 0: those V meets.
    Over F_p, U's orthogonal complement can meet U, so V is not taken from
    it: the zero set is the same for every complement."""
    n, k = len(normals[0]), len(U)
    traces = [[sum(x * y for x, y in zip(u, a)) % p for u in U] for a in normals]
    matroid = tuple(rank([traces[j - 1] for j in gens], p) for gens, _, _ in flats)
    schubert = tuple(k - rank_over(U, *X, p) for _, _, X in flats)
    meet = kernel(kernel(U, n, p) + list(normals), n, p)  # U meet T
    i, V = len(meet), []
    for u in U:  # the rows of U that extend a basis of U meet T
        if rank(meet + V + [u], p) > len(meet) + len(V):
            V.append(u)
    zero_set = frozenset(gens for gens, r, (X, _) in flats
                         if r == k - i and det(V + X, p) == 0)
    return matroid, schubert, (i, zero_set)
