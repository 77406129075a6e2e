"""Workload definitions and the arrangement generators they use.

The benchmark never ships arrangement files: it generates them here and
writes them in the ordinary arrangement file format, so the program under
test sees nothing but a file and command-line flags.  The workload seed
reaches the program only as `verify --seed`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations


def braid(n: int) -> tuple[int, list[list[int]]]:
    """Normals of the braid arrangement x_i = x_j in Q^n, pairs in lex order."""
    rows = []
    for i, j in combinations(range(n), 2):
        row = [0] * n
        row[i], row[j] = 1, -1
        rows.append(row)
    return n, rows


def boolean(n: int) -> tuple[int, list[list[int]]]:
    """Normals of the coordinate arrangement x_i = 0 in Q^n."""
    return n, [[int(i == j) for j in range(n)] for i in range(n)]


def arrangement_text(n: int, rows: list[list[int]]) -> str:
    return f"{n}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


@dataclass(frozen=True)
class Workload:
    name: str
    arrangement: tuple[int, list[list[int]]]
    k: int
    samples: int
    bound: int
    include_flats: bool
    jobs: int

    def verify_args(self, arrangement_path: str, seed: int, jobs: int | None = None) -> list[str]:
        """Arguments of `grasstrata verify` for this workload and seed."""
        args = [
            "verify", arrangement_path,
            "--k", str(self.k),
            "--samples", str(self.samples),
            "--bound", str(self.bound),
            "--seed", str(seed),
            "--jobs", str(self.jobs if jobs is None else jobs),
        ]
        if self.include_flats:
            args.append("--include-flats")
        return args


# Why each workload exists and which layer it loads is written up in
# bench/README.md; the names here are the ones BENCHMARK.json uses.
WORKLOADS = {
    w.name: w for w in (
        Workload("braid5-k2", braid(5), k=2, samples=8, bound=1,
                 include_flats=False, jobs=1),
        Workload("boolean6-k2", boolean(6), k=2, samples=10, bound=5,
                 include_flats=True, jobs=1),
        Workload("braid5-k3-jobs2", braid(5), k=3, samples=4, bound=1000,
                 include_flats=False, jobs=2),
    )
}
