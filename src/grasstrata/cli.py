"""Command line front end.

Commands read an arrangement file and write JSON (or, for restrict, another
arrangement file) to stdout or --output.  All output is a pure function of
the inputs: reports are byte identical across runs and worker counts.
Every option and its default lives in one place, the command table
_COMMANDS; _parse reads argv against it as argparse did, and -h prints it.
Module scope imports only what parsing, lattice and restrict need; every
other handler imports its own modules as its first statement, so a process
loads (and, without cached bytecode, compiles) only what its command runs.
No command loads hashlib (OpenSSL) or json (pure Python with an indent):
_json_text writes json.dumps(payload, indent=2, sort_keys=True) itself.

Exit codes: 0 success, 1 bad input, 2 a verification run found a
counterexample, 3 an internal self-check failed.  No command has a size
cap: label and verify label on flats, and verify compares restriction
lattices of any size.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Collection, Sequence
from types import SimpleNamespace

from .arrangement import (
    Arrangement,
    SelfCheckFailed,
    chain_count,
    format_arrangement,
    int_token,
    intersection_lattice,
    is_essential,
    load_arrangement,
    read_rows,
    restriction,
)
from .exactlin import Subspace, canonical_subspace, matrix

try:  # the builtin SHA-256 that hashlib falls back to without OpenSSL
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10, 3.11
    except ImportError:  # built without the builtin SHA-2
        from hashlib import sha256

# Layout version of the verify report.  Format 2 encodes the matroid and
# Schubert labels as vectors over the flats of the intersection lattice.
REPORT_FORMAT = 2


# The command table, the one place the options and their defaults live.
# Per command: a summary and the options (name, type, default, help) that
# follow the arrangement file and _OUTPUT.  Default ... means required.
_HELP = ("--help", bool, None, "show this help")
_OUTPUT = ("--output", str, None, "write output here instead of stdout")
_K = ("--k", int, ..., "dimension of the subspaces")
_SUBSPACE = ("--subspace", str, ..., "subspace file")
_COMMANDS = {
    "lattice": ("flats by rank and the chain count", ()),
    "adjoint": ("coefficient table of the k-adjoint", (_K,)),
    "label": ("all three labels of one subspace", (_K, _SUBSPACE)),
    "restrict": ("restriction to a subspace, as an arrangement file",
                 (_SUBSPACE,)),
    "verify": ("sample subspaces and verify that the three labelings agree", (
        _K, ("--samples", int, 100, "random subspaces to draw"),
        ("--bound", int, 5, "entry bound of the random bases"),
        ("--seed", int, 0, "picks the stream of random subspaces"),
        ("--include-flats", bool, False,
         "inject flats and other structured subspaces"),
        ("--jobs", int, 1, "label samples on this many worker processes"))),
}


def _help(command: str | None) -> None:
    """Print the -h/--help text: the commands, or the options of one."""
    rows = [] if command else [(c, s) for c, (s, _) in _COMMANDS.items()]
    options = (_OUTPUT, *_COMMANDS[command][1]) if command else ()
    for name, kind, default, about in options:
        note = (" (required)" if default is ... else
                f" (default {default})" if kind is int else "")
        rows.append(("-o, " * (name == "--output") + name
                     + {int: " INT", str: " PATH"}.get(kind, ""), about + note))
    rows.append(("-h, --help", _HELP[3]))
    sys.stdout.write(f"usage: grasstrata {command or 'COMMAND'} ARRANGEMENT [options]"
                     "\n\n" + "".join(f"  {a:<20}{b}\n" for a, b in rows))


def _option(tok: str, names: Collection[str]) -> tuple[str, str | None] | None:
    """None if tok is a value, else the option it names (tok itself if none)
    and the value given in tok, after = or after -o."""
    if tok[:1] != "-" or tok == "-" or (  # a negative number is a value
            tok[1:].replace(".", "", 1).isdecimal() and tok[-1] != "."):
        return None
    if tok[:2] in ("-h", "-o"):  # -h; -o PATH, -oPATH, -o=PATH
        rest = tok[2:]
        return "--output" if tok[1] == "o" else "--help", (
            rest[1:] if rest[:1] == "=" else rest or None)
    name, eq, value = tok.partition("=")
    hits = [name] if name in names else [o for o in names if o.startswith(name)]
    if tok[1] != "-" or not hits:
        return None if " " in tok else (tok, None)
    if len(hits) > 1:
        raise ValueError(f"ambiguous option: {tok} could match {', '.join(hits)}")
    return hits[0], value if eq else None


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace that argparse built from argv for the handlers; None
    once -h or --help has printed usage."""
    if not argv or argv[0] not in _COMMANDS:
        if argv[:1] and argv[0] in ("-h", "--h", "--he", "--hel", "--help"):
            return _help(None)
        raise ValueError(f"argument command: invalid choice: {argv[0]!r} (choose "
                         f"from {', '.join(map(repr, _COMMANDS))})" if argv
                         else "the following arguments are required: command")
    options = {o[0]: o for o in (_HELP, _OUTPUT, *_COMMANDS[argv[0]][1])}
    values = {name: o[2] for name, o in options.items()}
    args = argv[1:]
    cut = args.index("--") if "--" in args else len(args)
    # each token as _option reads it; the -- (or the end) takes no value,
    # and every token after it is a value
    reads = [_option(t, options) for t in args[:cut]]
    reads += [("--", None)] + [None] * (len(args) - cut - 1)
    file, extras = None, []
    at = iter(range(len(args)))
    for i in at:
        name, given = reads[i] or (None, None)
        kind = options[name][1] if name in options else None
        if name is None and file is None:
            file = i
        elif kind is None:  # argparse drops the first -- only next to the file
            if name != "--" or file not in (None, i - 1):
                extras.append(args[i])
        elif kind is bool and given is not None:
            raise ValueError(f"argument {name}: ignored explicit argument {given!r}")
        elif name == "--help":
            return _help(argv[0])
        elif kind is bool:
            values[name] = True
        elif given is None and reads[i + 1] is not None:
            raise ValueError(f"argument {name}: expected one argument")
        else:
            if given is None:
                given = args[next(at)]
            try:
                values[name] = kind(given)
            except ValueError:
                raise ValueError(
                    f"argument {name}: invalid int value: {given!r}") from None
    del values["--help"]
    missing = ["arrangement"] * (file is None) + [n for n, v in values.items()
                                                  if v is ...]
    if missing or extras:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}"
                         if missing else f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=argv[0], arrangement=args[file], **{
        name[2:].replace("-", "_"): v for name, v in values.items()})


# ------------------------------------------------------------------- io


def _subspace_header(parts: list[str], where: str) -> tuple[int, int]:
    if len(parts) != 2:
        raise ValueError(f"{where}: expected 'n k'")
    n, k = map(int_token, parts)
    if n is None or k is None:
        raise ValueError(f"{where}: bad header")
    if not 0 <= k <= n:
        raise ValueError(f"{where}: need 0 <= k <= n")
    return n, k


def parse_subspace(text: str) -> Subspace:
    """Subspace file: first line 'n k', then k rows of n rationals; same
    comment rules as arrangement files.  Rows must be independent."""
    (n, k), rows = read_rows(text, _subspace_header,
                             "missing 'n k' header line")
    if len(rows) != k:
        raise ValueError(f"expected {k} rows, got {len(rows)}")
    U = canonical_subspace(matrix(rows, n), n)
    if U.dim != k:
        raise ValueError("subspace rows are linearly dependent")
    return U


def load_subspace(path: str) -> Subspace:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_subspace(fh.read())


def arrangement_digest(arr: Arrangement) -> str:
    return sha256(format_arrangement(arr).encode()).hexdigest()


def _write(text: str, output_path: str | None) -> None:
    if output_path is None:
        sys.stdout.write(text)
    else:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _escape(c: str) -> str:
    named = '"\\\b\f\n\r\t'.find(c)
    if named >= 0:
        return "\\" + '"\\bfnrt'[named]
    n = ord(c)
    if 0x20 <= n < 0x7f:
        return c
    if n < 0x10000:
        return f"\\u{n:04x}"
    n -= 0x10000  # a surrogate pair, as json's ensure_ascii writes it
    return f"\\u{0xd800 | n >> 10:04x}\\u{0xdc00 | n & 0x3ff:04x}"


def _quote(s: str) -> str:
    # str.isascii(s) raises TypeError on a dict key that is not a str
    if str.isascii(s) and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    return '"' + "".join(map(_escape, s)) + '"'


def _json_text(o, pad: str = "\n") -> str:
    """json.dumps(o, indent=2, sort_keys=True) on exact str-keyed dicts, lists,
    tuples, str, int, bool and None; pad is a newline and o's indent."""
    t = type(o)
    if t is str:
        return _quote(o)
    if t is int:
        return repr(o)
    inner = pad + "  "
    if t is list or t is tuple:
        return "[" + inner + ("," + inner).join([
            repr(v) if type(v) is int else _json_text(v, inner)
            for v in o]) + pad + "]" if o else "[]"
    if t is dict:
        return "{" + inner + ("," + inner).join([
            f"{_quote(k)}: {_json_text(o[k], inner)}"
            for k in sorted(o)]) + pad + "}" if o else "{}"
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _emit_json(payload: dict, output_path: str | None) -> None:
    _write(_json_text(payload) + "\n", output_path)


# ------------------------------------------------------------- commands


def cmd_lattice(args: SimpleNamespace) -> int:
    arr = load_arrangement(args.arrangement)
    lat = intersection_lattice(arr)
    payload = {
        "command": "lattice",
        "arrangement_digest": arrangement_digest(arr),
        "ambient_dim": arr.ambient_dim,
        "hyperplanes": arr.size,
        "rank": lat.rank,
        "essential": is_essential(arr),
        "flats": [{
            "rank": f.rank,
            "dim": f.dim,
            "generators": sorted(f.generators),
            "basis": f.subspace.basis,
        } for f in lat.flats],
        "chain_count": chain_count(lat),
    }
    _emit_json(payload, args.output)
    return 0


def cmd_adjoint(args: SimpleNamespace) -> int:
    from .pluecker import k_adjoint, k_subsets
    arr = load_arrangement(args.arrangement)
    if not 0 <= args.k <= arr.ambient_dim:
        raise ValueError(f"--k must be between 0 and {arr.ambient_dim}")
    hs = k_adjoint(arr, args.k)
    payload = {
        "command": "adjoint",
        "arrangement_digest": arrangement_digest(arr),
        "n": arr.ambient_dim,
        "k": args.k,
        "subsets": k_subsets(arr.ambient_dim, args.k) if hs else (),
        "hyperplanes": [{
            "generators": sorted(h.source.generators),
            "coeffs": h.coeffs,
        } for h in hs],
    }
    _emit_json(payload, args.output)
    return 0


def cmd_label(args: SimpleNamespace) -> int:
    from .matroid import loops
    from .strata import encode_labels, labels
    arr = load_arrangement(args.arrangement)
    U = load_subspace(args.subspace)
    if U.ambient_dim != arr.ambient_dim:
        raise ValueError(
            f"subspace lives in dimension {U.ambient_dim}, "
            f"arrangement in {arr.ambient_dim}")
    if U.dim != args.k:
        raise ValueError(f"subspace has dimension {U.dim}, --k said {args.k}")
    matroid, (i, zero_set), dims = labels(arr, U)
    encodings = encode_labels(matroid, (i, zero_set), dims)
    payload = {
        "command": "label",
        "arrangement_digest": arrangement_digest(arr),
        "k": U.dim,
        "subspace_basis": U.basis,
        "flats": [{
            "generators": sorted(f.generators),
            "trace_rank": r,
            "overlap_dim": d,
        } for f, r, d in zip(intersection_lattice(arr).flats,
                             matroid.ranks, dims)],
        "labels": {
            "matroid": {
                "encoding": encodings["matroid"],
                "rank": matroid.rank,
                "loops": sorted(loops(matroid)),
            },
            "adjoint": {
                "encoding": encodings["adjoint"],
                "i": i,
                "zero_set": sorted(sorted(f.generators) for f in zero_set),
            },
            "schubert": {"encoding": encodings["schubert"]},
        },
    }
    _emit_json(payload, args.output)
    return 0


def cmd_restrict(args: SimpleNamespace) -> int:
    arr = load_arrangement(args.arrangement)
    U = load_subspace(args.subspace)
    res = restriction(arr, U)
    text = (f"# restriction of {arrangement_digest(arr)[:12]} "
            f"to a {U.dim}-subspace\n" + format_arrangement(res))
    _write(text, args.output)
    return 0


def _encode_worker(task: tuple[Callable, Arrangement, Subspace]
                   ) -> dict[str, str]:
    # the labeler travels with the task, pickled by name, so a worker
    # started by spawn or forkserver imports strata as it unpickles one
    encode, arr, U = task
    return encode(arr, U)


def cmd_verify(args: SimpleNamespace) -> int:
    from .sampling import sample_subspace, structured_subspaces
    from .strata import (
        label_encodings,
        verify_equivalence,
        verify_restriction_classification,
    )
    arr = load_arrangement(args.arrangement)
    n = arr.ambient_dim
    if not 0 <= args.k <= n:
        raise ValueError(f"--k must be between 0 and {n}")
    if args.samples < 0:
        raise ValueError("--samples must be nonnegative")
    if args.bound < 0:
        raise ValueError("--bound must be nonnegative")
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")

    subspaces: list[Subspace] = []
    manifest: list[dict] = []
    for i in range(args.samples):
        U = sample_subspace(n, args.k, args.bound, args.seed, i)
        subspaces.append(U)
        manifest.append({"index": i, "source": "random"})
    if args.include_flats:
        for U in structured_subspaces(arr, args.k, args.seed):
            manifest.append({"index": len(subspaces), "source": "structured"})
            subspaces.append(U)
    if not subspaces:
        raise ValueError("nothing to verify: zero samples and no injections")

    tasks = [(label_encodings, arr, U) for U in subspaces]
    if args.jobs > 1:
        # multiprocessing costs about 10 ms of start-up time, which a serial
        # run should not pay
        from multiprocessing import Pool
        # a worker per task at most: the rest would start only to idle
        with Pool(min(args.jobs, len(tasks))) as pool:
            encodings = pool.map(_encode_worker, tasks)
    else:
        encodings = [_encode_worker(t) for t in tasks]

    partitions, equivalence, witnesses = verify_equivalence(encodings)
    classification, cls_witnesses = verify_restriction_classification(
        arr, args.k, subspaces, encodings)
    passed = all(equivalence.values()) and all(classification.values())

    for entry, U, enc in zip(manifest, subspaces, encodings):
        entry["basis"] = U.basis
        entry["labels"] = enc

    payload = {
        "command": "verify",
        "config": {
            "arrangement": args.arrangement,
            "k": args.k,
            "samples": args.samples,
            "bound": args.bound,
            "seed": args.seed,
            "include_flats": args.include_flats,
        },
        "format": REPORT_FORMAT,
        "arrangement_digest": arrangement_digest(arr),
        "samples": manifest,
        "partitions": partitions,
        "verdicts": {
            "equivalence": equivalence,
            "classification": classification,
            "passed": passed,
        },
        "witnesses": witnesses + cls_witnesses,
    }
    _emit_json(payload, args.output)
    return 0 if passed else 2


_HANDLERS = {
    "lattice": cmd_lattice,
    "adjoint": cmd_adjoint,
    "label": cmd_label,
    "restrict": cmd_restrict,
    "verify": cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse(list(sys.argv[1:] if argv is None else argv))
        return 0 if args is None else _HANDLERS[args.command](args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SelfCheckFailed as e:
        print(f"internal error: self-check failed: {e}", file=sys.stderr)
        return 3
