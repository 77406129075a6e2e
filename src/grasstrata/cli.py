"""Command line front end.

Commands read an arrangement file, label and restrict also a subspace
file (grasstrata.arrangement reads both formats), and write JSON (or, for
restrict, another arrangement file) to stdout or --output.  All output is
a pure function of the inputs: reports are byte identical across runs and
worker counts.  Every command lives in one place, the command table
_COMMANDS, with its options, their defaults and its handler; _parse reads
argv against it as argparse did, and -h prints it.  main loads the
arrangement, runs the handler for a payload and an exit code, then opens
stdout or --output and writes it, adding "command" and
"arrangement_digest" to a JSON one.  Module scope imports only what
parsing, lattice and restrict need; every other handler, and verify's
per-sample _encode_worker, imports its own modules as its first
statement, so a process or a spawned worker loads (and, without cached
bytecode, compiles) only what it runs.
No command loads hashlib (OpenSSL) or json (pure Python with an indent):
_emit_json writes json.dumps(payload, indent=2, sort_keys=True) in pieces,
each string escaped by the C function that json.dumps calls.

Exit codes: 0 success, 1 bad input, 2 a verification run found a
counterexample, 3 an internal self-check failed, 141 the reader of stdout
closed its pipe (what a shell reports for a process killed by SIGPIPE; no
error line is printed).  No command has a size cap: label and verify
label on flats, and verify compares restriction lattices as labeled
values, so no command runs an isomorphism search.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Collection, Iterator, Sequence
from contextlib import nullcontext, suppress
from functools import partial
from io import TextIOBase
from types import SimpleNamespace

from .arrangement import (
    Arrangement,
    SelfCheckFailed,
    chain_count,
    format_arrangement,
    intersection_lattice,
    is_essential,
    load_arrangement,
    load_subspace,
    restriction,
)
from .exactlin import Subspace

try:  # the builtin SHA-256 that hashlib falls back to without OpenSSL
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10, 3.11
    except ImportError:  # built without the builtin SHA-2
        from hashlib import sha256

# the C escaper that json.dumps calls, in one extension module
from _json import encode_basestring_ascii

# Layout version of the verify report.  Format 2 encodes the matroid and
# Schubert labels as vectors over the flats of the intersection lattice.
REPORT_FORMAT = 2


def _help(command: str | None) -> None:
    """Print the -h/--help text: the commands, or the options of one."""
    rows = [] if command else [(c, s) for c, (s, *_) in _COMMANDS.items()]
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


def arrangement_digest(arr: Arrangement) -> str:
    return sha256(format_arrangement(arr).encode()).hexdigest()


def _write(text: str, out: TextIOBase) -> None:
    out.write(text)


def _json_chunks(o, pad: str = "\n", head: str = "") -> Iterator[str]:
    """json.dumps(o, indent=2, sort_keys=True) on exact str-keyed dicts, lists,
    tuples, str, int, bool and None, in pieces as json.dump writes them: a
    scalar or a list of ints whole, a container member by member; pad is a
    newline and o's indent, head the text before o in its first piece."""
    t = type(o)
    inner = pad + "  "
    if t is str:
        yield head + encode_basestring_ascii(o)
    elif t is int:
        yield head + repr(o)
    elif (t is list or t is tuple) and o and {*map(type, o)} <= {int}:
        yield head + "[" + inner + ("," + inner).join(map(repr, o)) + pad + "]"
    elif t is list or t is tuple:
        sep = head + "[" + inner
        for v in o:
            yield from _json_chunks(v, inner, sep)
            sep = "," + inner
        yield pad + "]" if o else head + "[]"
    elif t is dict:
        sep = head + "{" + inner
        for k in sorted(o):
            yield from _json_chunks(o[k], inner, sep + encode_basestring_ascii(k) + ": ")
            sep = "," + inner
        yield pad + "}" if o else head + "{}"
    elif o is None or o is True or o is False:
        yield head + ("null" if o is None else "true" if o else "false")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _emit_json(payload: dict, out: TextIOBase) -> None:
    # pieces go out in writes of about 64 KiB: a write-through stdout
    # (python -u, PYTHONUNBUFFERED) makes a system call per write
    batch, size = [], 0
    for chunk in _json_chunks(payload):
        batch.append(chunk)
        size += len(chunk)
        if size >= 1 << 16:
            _write("".join(batch), out)
            batch, size = [], 0
    _write("".join(batch) + "\n", out)


# ------------------------------------------------------------- commands


def cmd_lattice(args: SimpleNamespace, arr: Arrangement) -> tuple[dict, int]:
    lat = intersection_lattice(arr)
    return {
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
    }, 0


def cmd_adjoint(args: SimpleNamespace, arr: Arrangement) -> tuple[dict, int]:
    from .pluecker import k_adjoint, k_subsets
    if not 0 <= args.k <= arr.ambient_dim:
        raise ValueError(f"--k must be between 0 and {arr.ambient_dim}")
    hs = k_adjoint(arr, args.k)
    return {
        "n": arr.ambient_dim,
        "k": args.k,
        "subsets": k_subsets(arr.ambient_dim, args.k) if hs else (),
        "hyperplanes": [{
            "generators": sorted(h.source.generators),
            "coeffs": h.coeffs,
        } for h in hs],
    }, 0


def cmd_label(args: SimpleNamespace, arr: Arrangement) -> tuple[dict, int]:
    from .matroid import loops
    from .strata import encode_labels, labels
    U = load_subspace(args.subspace)
    if U.ambient_dim != arr.ambient_dim:
        raise ValueError(
            f"subspace lives in dimension {U.ambient_dim}, "
            f"arrangement in {arr.ambient_dim}")
    if U.dim != args.k:
        raise ValueError(f"subspace has dimension {U.dim}, --k said {args.k}")
    matroid, (i, zero_set), dims = labels(arr, U)
    encodings = encode_labels(matroid, (i, zero_set), dims)
    return {
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
    }, 0


def cmd_restrict(args: SimpleNamespace, arr: Arrangement) -> tuple[str, int]:
    U = load_subspace(args.subspace)
    res = restriction(arr, U)
    return (f"# restriction of {arrangement_digest(arr)[:12]} "
            f"to a {U.dim}-subspace\n" + format_arrangement(res)), 0


def _encode_worker(arr: Arrangement, U: Subspace) -> dict[str, str]:
    # imported on the first call, so a worker started by spawn or
    # forkserver loads strata itself
    from .strata import label_encodings
    return label_encodings(arr, U)


def cmd_verify(args: SimpleNamespace, arr: Arrangement) -> tuple[dict, int]:
    from .sampling import sample_subspace, structured_subspaces
    from .strata import verify_equivalence, verify_restriction_classification
    n = arr.ambient_dim
    if not 0 <= args.k <= n:
        raise ValueError(f"--k must be between 0 and {n}")
    if args.samples < 0:
        raise ValueError("--samples must be nonnegative")
    if args.bound < 0:
        raise ValueError("--bound must be nonnegative")
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")

    subspaces = [sample_subspace(n, args.k, args.bound, args.seed, i)
                 for i in range(args.samples)]
    if args.include_flats:
        subspaces += structured_subspaces(arr, args.k, args.seed)
    if not subspaces:
        raise ValueError("nothing to verify: zero samples and no injections")

    encode = partial(_encode_worker, arr)
    if args.jobs > 1:
        # multiprocessing costs about 10 ms of start-up time, which a serial
        # run should not pay
        from multiprocessing import Pool
        # a worker per sample at most: the rest would start only to idle
        with Pool(min(args.jobs, len(subspaces))) as pool:
            encodings = pool.map(encode, subspaces)
    else:
        encodings = list(map(encode, subspaces))

    partitions, equivalence, witnesses = verify_equivalence(encodings)
    classification, cls_witnesses = verify_restriction_classification(
        arr, args.k, subspaces, encodings)
    passed = all(equivalence.values()) and all(classification.values())
    return {
        "config": {
            "arrangement": args.arrangement,
            "k": args.k,
            "samples": args.samples,
            "bound": args.bound,
            "seed": args.seed,
            "include_flats": args.include_flats,
        },
        "format": REPORT_FORMAT,
        "samples": [{
            "index": i,
            "source": "random" if i < args.samples else "structured",
            "basis": U.basis,
            "labels": enc,
        } for i, (U, enc) in enumerate(zip(subspaces, encodings))],
        "partitions": partitions,
        "verdicts": {
            "equivalence": equivalence,
            "classification": classification,
            "passed": passed,
        },
        "witnesses": witnesses + cls_witnesses,
    }, 0 if passed else 2


# The command table: per command a summary, the options (name, type,
# default, help) that follow the arrangement file and _OUTPUT, and the
# handler.  Default ... means required.
_HELP = ("--help", bool, None, "show this help")
_OUTPUT = ("--output", str, None, "write output here instead of stdout")
_K = ("--k", int, ..., "dimension of the subspaces")
_SUBSPACE = ("--subspace", str, ..., "subspace file")
_COMMANDS = {
    "lattice": ("flats by rank and the chain count", (), cmd_lattice),
    "adjoint": ("coefficient table of the k-adjoint", (_K,), cmd_adjoint),
    "label": ("all three labels of one subspace", (_K, _SUBSPACE), cmd_label),
    "restrict": ("restriction to a subspace, as an arrangement file",
                 (_SUBSPACE,), cmd_restrict),
    "verify": ("sample subspaces and verify that the three labelings agree", (
        _K, ("--samples", int, 100, "random subspaces to draw"),
        ("--bound", int, 5, "entry bound of the random bases"),
        ("--seed", int, 0, "picks the stream of random subspaces"),
        ("--include-flats", bool, False,
         "inject flats and other structured subspaces"),
        ("--jobs", int, 1, "label samples on this many worker processes")),
        cmd_verify),
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse(list(sys.argv[1:] if argv is None else argv))
        if args is None:
            return 0
        arr = load_arrangement(args.arrangement)
        payload, code = _COMMANDS[args.command][2](args, arr)
        # opened only now, so a run that fails leaves --output as it was
        with (nullcontext(sys.stdout) if args.output is None
              else open(args.output, "w", encoding="utf-8")) as out:
            if isinstance(payload, str):
                _write(payload, out)
            else:
                _emit_json({"command": args.command,
                            "arrangement_digest": arrangement_digest(arr),
                            **payload}, out)
        return code
    except BrokenPipeError:
        # stdout's reader has gone (head, say): not bad input; unsent bytes go to devnull
        with suppress(AttributeError, OSError, ValueError), open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SelfCheckFailed as e:
        print(f"internal error: self-check failed: {e}", file=sys.stderr)
        return 3
