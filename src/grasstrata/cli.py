"""Command line front end.

Commands read an arrangement file and write JSON (or, for restrict, another
arrangement file) to stdout or --output.  All output is a pure function of
the inputs: reports are byte identical across runs and worker counts.

Exit codes: 0 success, 1 bad input or a guard hit, 2 a verification run
found a counterexample, 3 an internal self-check failed.  A verify run whose
only failures are guard-skipped comparisons fails closed with 1; with a
real counterexample as well it exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from multiprocessing import Pool
from typing import Sequence

from .arrangement import (
    Arrangement,
    GuardExceeded,
    SelfCheckFailed,
    center,
    chain_count,
    format_arrangement,
    intersection_lattice,
    load_arrangement,
    restriction,
)
from .exactlin import Subspace, canonical_subspace, matrix
from .matroid import bases, loops
from .pluecker import k_adjoint
from .sampling import sample_subspace, structured_subspaces
from .strata import (
    adjoint_label,
    chain_jumps,
    label_encodings,
    matroid_label,
    schubert_label,
    verify_equivalence,
    verify_restriction_classification,
)

# Layout version of the verify report.  Format 2 encodes the matroid and
# Schubert labels as vectors over the flats of the intersection lattice.
REPORT_FORMAT = 2


@dataclass(frozen=True)
class RunConfig:
    command: str
    arrangement_path: str
    k: int | None = None
    samples: int = 100
    bound: int = 5
    seed: int = 0
    include_flats: bool = False
    jobs: int = 1
    chain_cap: int = 10 ** 6
    subspace_path: str | None = None
    output_path: str | None = None


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors, which collides with the
    counterexample exit code; raise instead and let main map it to 1."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="grasstrata",
                     description="stratum labels for subspaces relative to "
                                 "a rational hyperplane arrangement")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("arrangement", help="arrangement file")
        p.add_argument("-o", "--output", default=None,
                       help="write output here instead of stdout")

    p = sub.add_parser("lattice", help="flats by rank and the chain count")
    common(p)
    p.add_argument("--chain-cap", type=int, default=10 ** 6)

    p = sub.add_parser("adjoint", help="coefficient table of the k-adjoint")
    common(p)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("label", help="all three labels of one subspace")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--subspace", required=True, help="subspace file")
    p.add_argument("--chain-cap", type=int, default=10 ** 6)

    p = sub.add_parser("restrict", help="restriction to a subspace, as an "
                                        "arrangement file")
    common(p)
    p.add_argument("--subspace", required=True, help="subspace file")

    p = sub.add_parser("verify", help="sample subspaces and verify that the "
                                      "three labelings agree")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--bound", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--include-flats", action="store_true",
                   help="inject flats and other structured subspaces")
    p.add_argument("--jobs", type=int, default=1,
                   help="label samples on this many worker processes")
    return parser


def _config_from(ns: argparse.Namespace) -> RunConfig:
    if getattr(ns, "chain_cap", 1) < 1:
        raise ValueError("--chain-cap must be at least 1")
    return RunConfig(
        command=ns.command,
        arrangement_path=ns.arrangement,
        k=getattr(ns, "k", None),
        samples=getattr(ns, "samples", 100),
        bound=getattr(ns, "bound", 5),
        seed=getattr(ns, "seed", 0),
        include_flats=getattr(ns, "include_flats", False),
        jobs=getattr(ns, "jobs", 1),
        chain_cap=getattr(ns, "chain_cap", 10 ** 6),
        subspace_path=getattr(ns, "subspace", None),
        output_path=ns.output,
    )


# ------------------------------------------------------------------- io


def parse_subspace(text: str) -> Subspace:
    """Subspace file: first line 'n k', then k rows of n rationals; same
    comment rules as arrangement files.  Rows must be independent."""
    header: tuple[int, int] | None = None
    rows: list[list[Fraction]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'n k'")
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise ValueError(f"line {lineno}: bad header") from None
            if not 0 <= header[1] <= header[0]:
                raise ValueError(f"line {lineno}: need 0 <= k <= n")
            continue
        if len(parts) != header[0]:
            raise ValueError(
                f"line {lineno}: expected {header[0]} entries, got {len(parts)}")
        try:
            rows.append([Fraction(p) for p in parts])
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"line {lineno}: bad rational entry") from None
    if header is None:
        raise ValueError("missing 'n k' header line")
    n, k = header
    if len(rows) != k:
        raise ValueError(f"expected {k} rows, got {len(rows)}")
    U = canonical_subspace(matrix(rows, cols=n))
    if U.dim != k:
        raise ValueError("subspace rows are linearly dependent")
    return U


def load_subspace(path: str) -> Subspace:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_subspace(fh.read())


def arrangement_digest(arr: Arrangement) -> str:
    return hashlib.sha256(format_arrangement(arr).encode()).hexdigest()


def _basis_rows(S: Subspace) -> list[list[int]]:
    return [list(row) for row in S.basis.entries]


def _write(text: str, output_path: str | None) -> None:
    if output_path is None:
        sys.stdout.write(text)
    else:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(payload: dict, output_path: str | None) -> None:
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", output_path)


# ------------------------------------------------------------- commands


def cmd_lattice(cfg: RunConfig) -> int:
    arr = load_arrangement(cfg.arrangement_path)
    lat = intersection_lattice(arr)
    payload = {
        "command": "lattice",
        "arrangement_digest": arrangement_digest(arr),
        "ambient_dim": arr.ambient_dim,
        "hyperplanes": arr.size,
        "rank": lat.rank,
        "essential": center(arr).dim == 0,
        "flats": [{
            "rank": f.rank,
            "dim": f.dim,
            "generators": sorted(f.generators),
            "basis": _basis_rows(f.subspace),
        } for f in lat.flats],
        "chain_count": chain_count(lat, cfg.chain_cap),
    }
    _emit_json(payload, cfg.output_path)
    return 0


def cmd_adjoint(cfg: RunConfig) -> int:
    arr = load_arrangement(cfg.arrangement_path)
    if cfg.k is None or not 0 <= cfg.k <= arr.ambient_dim:
        raise ValueError(f"--k must be between 0 and {arr.ambient_dim}")
    hs = k_adjoint(arr, cfg.k)
    payload = {
        "command": "adjoint",
        "arrangement_digest": arrangement_digest(arr),
        "n": arr.ambient_dim,
        "k": cfg.k,
        "subsets": [list(s) for s in (hs[0].index.subsets if hs else [])],
        "hyperplanes": [{
            "generators": sorted(h.source.generators),
            "coeffs": list(h.coeffs),
        } for h in hs],
    }
    _emit_json(payload, cfg.output_path)
    return 0


def _label_payload(arr: Arrangement, U: Subspace, chain_cap: int) -> dict:
    ml = matroid_label(arr, U)
    al = adjoint_label(arr, U)
    sl = schubert_label(arr, U)
    return {
        "matroid": {
            "encoding": ml.encode(),
            "ground_size": ml.matroid.ground_size,
            "rank": ml.matroid.rank,
            "rank_table": list(ml.matroid.rank_table),
            "bases": sorted(sorted(b) for b in bases(ml.matroid)),
            "loops": sorted(loops(ml.matroid)),
        },
        "adjoint": {
            "encoding": al.encode(),
            "i": al.i,
            "zero_set": sorted(sorted(f.generators) for f in al.zero_set),
        },
        "schubert": {
            "encoding": sl.encode(),
            "i": sl.i,
            "jumps": [list(s) for s in chain_jumps(arr, sl, chain_cap)],
        },
    }


def cmd_label(cfg: RunConfig) -> int:
    arr = load_arrangement(cfg.arrangement_path)
    U = load_subspace(cfg.subspace_path)
    if U.ambient_dim != arr.ambient_dim:
        raise ValueError(
            f"subspace lives in dimension {U.ambient_dim}, "
            f"arrangement in {arr.ambient_dim}")
    if cfg.k is not None and U.dim != cfg.k:
        raise ValueError(f"subspace has dimension {U.dim}, --k said {cfg.k}")
    payload = {
        "command": "label",
        "arrangement_digest": arrangement_digest(arr),
        "k": U.dim,
        "subspace_basis": _basis_rows(U),
        "labels": _label_payload(arr, U, cfg.chain_cap),
    }
    _emit_json(payload, cfg.output_path)
    return 0


def cmd_restrict(cfg: RunConfig) -> int:
    arr = load_arrangement(cfg.arrangement_path)
    U = load_subspace(cfg.subspace_path)
    res = restriction(arr, U)
    text = (f"# restriction of {arrangement_digest(arr)[:12]} "
            f"to a {U.dim}-subspace\n" + format_arrangement(res))
    _write(text, cfg.output_path)
    return 0


def _encode_worker(args: tuple[Arrangement, Subspace]) -> dict[str, str]:
    return label_encodings(*args)


def cmd_verify(cfg: RunConfig) -> int:
    arr = load_arrangement(cfg.arrangement_path)
    n = arr.ambient_dim
    if cfg.k is None or not 0 <= cfg.k <= n:
        raise ValueError(f"--k must be between 0 and {n}")
    if cfg.samples < 0:
        raise ValueError("--samples must be nonnegative")
    if cfg.jobs < 1:
        raise ValueError("--jobs must be at least 1")

    subspaces: list[Subspace] = []
    manifest: list[dict] = []
    for i in range(cfg.samples):
        U = sample_subspace(n, cfg.k, cfg.bound, cfg.seed, i)
        subspaces.append(U)
        manifest.append({"index": i, "source": "random"})
    if cfg.include_flats:
        for U in structured_subspaces(arr, cfg.k, cfg.seed):
            manifest.append({"index": len(subspaces), "source": "structured"})
            subspaces.append(U)
    if not subspaces:
        raise ValueError("nothing to verify: zero samples and no injections")

    tasks = [(arr, U) for U in subspaces]
    if cfg.jobs > 1:
        with Pool(cfg.jobs) as pool:
            encodings = pool.map(_encode_worker, tasks)
    else:
        encodings = [_encode_worker(t) for t in tasks]

    eq = verify_equivalence(arr, cfg.k, subspaces, encodings)
    cls = verify_restriction_classification(arr, cfg.k, subspaces, encodings)
    witnesses = list(eq.witnesses) + list(cls.witnesses)

    for entry, U, enc in zip(manifest, subspaces, encodings):
        entry["basis"] = _basis_rows(U)
        entry["labels"] = enc

    payload = {
        "command": "verify",
        "config": {
            "arrangement": cfg.arrangement_path,
            "k": cfg.k,
            "samples": cfg.samples,
            "bound": cfg.bound,
            "seed": cfg.seed,
            "include_flats": cfg.include_flats,
        },
        "format": REPORT_FORMAT,
        "arrangement_digest": arrangement_digest(arr),
        "samples": manifest,
        "partitions": eq.partitions,
        "verdicts": {
            "equivalence": eq.verdicts,
            "classification": cls.verdicts,
            "passed": eq.passed and cls.passed,
        },
        "witnesses": witnesses,
    }
    _emit_json(payload, cfg.output_path)
    if eq.passed and cls.passed:
        return 0
    if any(w["type"] != "guard_skipped" for w in witnesses):
        return 2
    print(f"error: {len(witnesses)} restriction lattice comparisons hit a "
          f"guard; see the guard_skipped witnesses", file=sys.stderr)
    return 1


_HANDLERS = {
    "lattice": cmd_lattice,
    "adjoint": cmd_adjoint,
    "label": cmd_label,
    "restrict": cmd_restrict,
    "verify": cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        cfg = _config_from(parser.parse_args(argv))
        return _HANDLERS[cfg.command](cfg)
    except (ValueError, OSError, GuardExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SelfCheckFailed as e:
        print(f"internal error: self-check failed: {e}", file=sys.stderr)
        return 3
