"""The paper's claim on every point of small Grassmannians over F_p.

The oracle in finite_field.py labels every k-subspace of F_p^n three ways.
The three partitions must agree, the points must number the Gaussian
binomial [n choose k]_p, and at k = 1 the points of each stratum must be
those that the package's lattice predicts through its Moebius function.
The stratum sets over F_p and over Q differ, so only the lattice is
compared with the package.  Each prime is one of good reduction: the
lattice mod p has the package's generator sets, which the test asserts.
"""

import os

import pytest

from finite_field import labels, lattice_mod_p, subspaces
from grasstrata.arrangement import intersection_lattice, load_arrangement

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def lines_per_flat(lat, p):
    """The lines of F_p^n in the stratum of each flat X at k = 1, keyed by
    its generators: chi(A^X, p) / (p - 1) lines, those of X on no
    hyperplane of the restriction A^X, with chi(A^X, t) the sum over flats
    Y inside X of mu(X, Y) t^(dim Y); the top, where A^X is empty, holds
    (p^(dim X) - 1) / (p - 1).  The Moebius function is the package's
    lattice's (Athanasiadis, Adv. Math. 122, 1996)."""
    gens, flats = lat.gens, lat.flats
    counts = {}
    for x in range(len(flats)):
        mu = {x: 1}  # flats in lattice order: every y's interval is done first
        for y in range(x + 1, len(flats)):
            if gens[x] & ~gens[y] == 0:
                mu[y] = -sum(v for z, v in mu.items() if gens[z] & ~gens[y] == 0)
        chi = sum(v * p ** flats[y].dim for y, v in mu.items())
        lines, rest = divmod(chi - (x == len(flats) - 1), p - 1)
        assert rest == 0
        counts[flats[x].generators] = lines
    return counts


def partition(keys):
    blocks = {}
    for point, key in enumerate(keys):
        blocks.setdefault(key, set()).add(point)
    return {frozenset(block) for block in blocks.values()}


# the strata with a point over F_p, per (arrangement, k, p)
STRATA = {
    ("boolean4.txt", 2, 3): 36,
    ("braid5.txt", 1, 5): 52,
    ("braid5.txt", 4, 3): 41,
    ("generic5_4.txt", 1, 11): 26,
    ("braid5.txt", 2, 3): 170,  # 1,210 points
    ("braid5.txt", 2, 5): 527,  # 20,306 points
}


@pytest.mark.parametrize("name, k, p", [
    ("boolean4.txt", 2, 3),
    ("braid5.txt", 1, 5),
    ("braid5.txt", 4, 3),
    ("generic5_4.txt", 1, 11),
    pytest.param("braid5.txt", 2, 3, marks=pytest.mark.slow),
    pytest.param("braid5.txt", 2, 5, marks=pytest.mark.slow),
])
def test_every_point_of_a_small_grassmannian(name, k, p):
    arr = load_arrangement(os.path.join(DATA, name))
    n, lat = arr.ambient_dim, intersection_lattice(arr)
    flats = lattice_mod_p(arr.normals, n, p)
    # good reduction at p: the same flats, by generator sets, as over Q
    assert [gens for gens, _, _ in flats] == [f.generators for f in sorted(
        lat.flats, key=lambda f: (f.rank, sorted(f.generators)))]
    points = list(subspaces(n, k, p))
    assert len(points) == gaussian_binomial(n, k, p)
    assert len({tuple(map(tuple, U)) for U in points}) == len(points)
    labeled = [labels(U, arr.normals, flats, p) for U in points]
    for matroid, schubert, _ in labeled:
        assert all(r + d == k for r, d in zip(matroid, schubert))
    matroid, schubert, adjoint = (partition(keys) for keys in zip(*labeled))
    assert matroid == schubert == adjoint
    assert len(matroid) == STRATA[name, k, p]
    if k == 1:
        expected = lines_per_flat(lat, p)
        seen = {}
        for U in points:
            gens = frozenset(j for j, a in enumerate(arr.normals, 1)
                             if sum(x * y for x, y in zip(U[0], a)) % p == 0)
            seen[gens] = seen.get(gens, 0) + 1
        assert seen == {gens: c for gens, c in expected.items() if c}
        assert len(matroid) == len(seen)


def test_generic5_4_needs_a_prime_of_good_reduction():
    # its 27 flats over Q merge mod 3, 5 and 7, so those primes fail the
    # generator-set check above, and 11 passes it
    arr = load_arrangement(os.path.join(DATA, "generic5_4.txt"))
    assert len(intersection_lattice(arr).flats) == 27
    assert [len(lattice_mod_p(arr.normals, 4, p)) for p in (3, 5, 7, 11)] == \
        [16, 24, 24, 27]
