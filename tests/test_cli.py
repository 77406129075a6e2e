import gc
import hashlib
import itertools
import json
import multiprocessing
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from reference_parser import _build_parser, parse as reference_parse

import grasstrata.arrangement
import grasstrata.cli
import grasstrata.matroid
import grasstrata.pluecker
import grasstrata.sampling
import grasstrata.strata
from grasstrata.cli import (
    _json_chunks,
    _parse,
    arrangement_digest,
    main,
    sha256,
)
from grasstrata.arrangement import (
    format_arrangement,
    intersection_lattice,
    load_arrangement,
    parse_arrangement,
    parse_subspace,
)
from grasstrata.exactlin import canonical_subspace, full_space, span, zero_subspace
from grasstrata.sampling import sample_subspace, structured_subspaces

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")


def package_env(**extra):
    """os.environ plus extra, with the package source first on PYTHONPATH,
    for running the package in a subprocess."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def data(name):
    return os.path.join(DATA, name)


# ---------------------------------------------------------------- sampling


def test_sample_subspace_deterministic():
    a = sample_subspace(4, 2, 5, seed=9, index=3)
    b = sample_subspace(4, 2, 5, seed=9, index=3)
    assert a == b
    c = sample_subspace(4, 2, 5, seed=9, index=4)
    assert a != c  # overwhelmingly likely, and fixed by the seed anyway


def test_sample_subspace_dims():
    assert sample_subspace(3, 0, 5, 0, 0) == zero_subspace(3)
    assert sample_subspace(3, 3, 5, 0, 0) == full_space(3)
    for i in range(20):
        assert sample_subspace(4, 2, 2, 1, i).dim == 2


def test_sample_subspace_degenerate_bound():
    with pytest.raises(ValueError):
        sample_subspace(3, 1, 0, 0, 0)
    with pytest.raises(ValueError):
        sample_subspace(3, 4, 5, 0, 0)


def test_sample_subspace_bound_zero_fails_at_once(monkeypatch):
    # with bound 0 only the zero matrix can be drawn, so none is
    draws = []
    stream = grasstrata.sampling.stream
    monkeypatch.setattr(grasstrata.sampling, "stream",
                        lambda *key: draws.append(key) or stream(*key))
    with pytest.raises(ValueError, match="bound=0 is too degenerate"):
        sample_subspace(3, 1, 0, 0, 0)
    assert draws == []
    assert sample_subspace(3, 0, 0, 0, 0) == zero_subspace(3)
    assert sample_subspace(3, 1, 1, 0, 0).dim == 1
    assert draws


def test_structured_subspaces_are_canonical():
    # leading rows of canonical bases are taken as they are
    arrs = [load_arrangement(data(name)) for name in sorted(os.listdir(DATA))
            if name.endswith(".txt") and name != "line_e1.txt"]
    arrs.append(parse_arrangement(
        "5\n" + "".join(" ".join(map(str, r)) + "\n" for r in braid_rows(5))))
    for arr in arrs:
        for k in range(arr.ambient_dim + 1):
            for S in structured_subspaces(arr, k):
                assert S == canonical_subspace(S.basis, S.ambient_dim), (arr, k)


def test_structured_subspaces_cover_flats():
    arr = load_arrangement(data("braid3.txt"))
    lines = structured_subspaces(arr, 1)
    # the center plus one line inside each hyperplane at least
    assert span([[1, 1, 1]], 3) in lines
    assert len(lines) >= 4
    planes = structured_subspaces(arr, 2)
    assert span([[1, 1, 0], [0, 0, 1]], 3) in planes
    assert structured_subspaces(arr, 1) == structured_subspaces(arr, 1)


# ----------------------------------------------------------------- files


def test_parse_subspace():
    U = parse_subspace("3 2\n1 0 0\n0 1 1\n")
    assert U == span([[1, 0, 0], [0, 1, 1]], 3)
    assert parse_subspace("3 0\n") == zero_subspace(3)
    with pytest.raises(ValueError, match="dependent"):
        parse_subspace("3 2\n1 0 0\n2 0 0\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_subspace("3\n1 0 0\n")
    with pytest.raises(ValueError, match="rows"):
        parse_subspace("3 2\n1 0 0\n")


def rational_token(q, rng):
    """The rational q written in a way Fraction parses: p/q, a decimal where
    q's denominator divides a power of 10, or digits with an exponent."""
    forms = [f"{q.numerator}/{q.denominator}"]
    k = next((k for k in range(8) if (q * 10 ** k).denominator == 1), None)
    if k is not None:
        N = int(q * 10 ** k)
        digits = str(abs(N)).rjust(k + 1, "0")
        point = digits[:len(digits) - k] + "." + digits[len(digits) - k:]
        sign = "-" if N < 0 else rng.choice(["", "+"])
        forms += [sign + point, f"{N}e-{k}", f"{N * 10}E-{k + 1}"]
        if k and abs(q) < 1:
            forms.append(sign + point[1:])  # no leading zero: .5
        if q.denominator == 1:
            forms += [str(q), f"{q}e0", f"{q * 10}e-1"]
    return rng.choice(forms)


def rational_twin(text, rng):
    """text with every row after the header line multiplied by a random
    nonzero rational with a non-trivial denominator and written with
    rational_token, comments and blank lines kept."""
    out, seen_header = [], False
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if tokens and seen_header:
            c = Fraction(rng.choice([1, -1, 3, -6, 10]), rng.choice([2, 3, 4, 5, 7]))
            line = " ".join(rational_token(c * int(t), rng) for t in tokens)
        seen_header = seen_header or bool(tokens)
        out.append(line)
    return "\n".join(out) + "\n"


def test_rational_twins_give_the_same_output(tmp_path, capsys):
    # rows are read up to scale: a file whose rows are rational multiples of
    # another's, in any of the rational spellings, gives the same bytes
    rng = random.Random(2)

    def output(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    for name in sorted(os.listdir(DATA)):
        if name == "line_e1.txt":
            continue
        for t in range(3):
            twin = tmp_path / f"{t}{name}"
            twin.write_text(rational_twin(open(data(name)).read(), rng))
            assert "/" in twin.read_text() or "." in twin.read_text()
            assert output(["lattice", str(twin)]) == output(["lattice", data(name)])
    want = output(["label", data("braid3.txt"), "--k", "1",
                   "--subspace", data("line_e1.txt")])
    for t in range(3):
        twin = tmp_path / f"line{t}.txt"
        twin.write_text(rational_twin(open(data("line_e1.txt")).read(), rng))
        arr = tmp_path / f"braid3_{t}.txt"
        arr.write_text(rational_twin(open(data("braid3.txt")).read(), rng))
        for path in (data("braid3.txt"), str(arr)):
            assert output(["label", path, "--k", "1", "--subspace", str(twin)]) == want


@pytest.mark.parametrize("token", ["1/0", "abc", "1.5.2", "1_000", "1/-2", "0x10",
                                   "1e", "+", "--1", "\u0663", "\u00bd", "1_0/2_0"])
def test_rational_entries_follow_the_fraction_grammar(tmp_path, capsys, token):
    # the grammar is Fraction's on the running Python: '1_000' is an error
    # before 3.11 and 1000 from 3.11 on, and '1/0' is always an error; an
    # arrangement file and a subspace file read a row alike
    arr, sub = tmp_path / "arr.txt", tmp_path / "sub.txt"
    commands = [["lattice", str(arr)],
                ["restrict", data("braid3.txt"), "--subspace", str(sub)],
                ["label", data("braid3.txt"), "--k", "1", "--subspace", str(sub)]]

    def run(row):
        arr.write_text(f"3\n{row}\n0 1 0\n")
        sub.write_text(f"3 1\n{row}\n")
        return [(main(command), *capsys.readouterr()) for command in commands]

    try:
        q = Fraction(token)
    except (ValueError, ZeroDivisionError):
        assert run(f"1 {token} 0") == [
            (1, "", "error: line 2: bad rational entry\n")] * len(commands)
        return
    assert run(f"1 {token} 0") == run(f"{q.denominator} {q.numerator} 0")


@pytest.mark.parametrize("token", ["\u0663", "\uff13", "1_000"])
def test_header_fields_are_ascii_integers(tmp_path, capsys, token):
    # a header field follows the integer rule of entries on every Python,
    # an optional sign then ASCII digits, though int() takes all three
    arr = tmp_path / "arr.txt"
    arr.write_text(f"{token}\n1 0 0\n")
    assert main(["lattice", str(arr)]) == 1
    assert capsys.readouterr().err == f"error: line 1: bad dimension {token!r}\n"
    sub = tmp_path / "sub.txt"
    for header in (f"{token} 1", f"3 {token}"):
        sub.write_text(f"{header}\n1 0 0\n")
        assert main(["restrict", data("braid3.txt"), "--subspace", str(sub)]) == 1
        assert capsys.readouterr().err == "error: line 1: bad header\n"
    arr.write_text("+3\n1 0 0\n")
    sub.write_text("+3 +1\n1 0 0\n")
    assert main(["restrict", str(arr), "--subspace", str(sub)]) == 0


# -------------------------------------------------------------- commands


def test_lattice_command(capsys):
    assert main(["lattice", data("braid3.txt")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rank"] == 2
    assert len(out["flats"]) == 5
    assert out["chain_count"] == 3
    assert out["essential"] is False


def test_chain_cap_flags(capsys):
    # the chain guard is a module constant, not an option of any subcommand
    for argv in (["lattice", data("boolean3.txt")],
                 ["adjoint", data("braid3.txt"), "--k", "1"],
                 ["label", data("braid3.txt"), "--k", "1", "--subspace",
                  data("line_e1.txt")],
                 ["restrict", data("braid3.txt"), "--subspace",
                  data("line_e1.txt")],
                 ["verify", data("braid3.txt"), "--k", "1", "--samples", "1"]):
        assert main(argv + ["--chain-cap", "5"]) == 1
        captured = capsys.readouterr()
        assert "unrecognized arguments: --chain-cap 5" in captured.err
        assert captured.out == ""


def test_lattice_counts_beyond_max_chains(tmp_path, capsys):
    # 10! maximal chains in 1024 flats: counted over covers, never listed
    p = tmp_path / "boolean10.txt"
    p.write_text("10\n" + "".join(" ".join(str(int(i == j)) for j in range(10))
                                  + "\n" for i in range(10)))
    assert main(["lattice", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["flats"]) == 1024
    assert out["chain_count"] == 3628800


# sha256 of `grasstrata lattice` output, which fixes the flat order that the
# format-2 report encodings follow
LATTICE_DIGESTS = {
    "boolean3.txt": "2702f1028c7bc7120c493e0795302ff0e4c19868543546eba9b79cf44280b1e5",
    "boolean4.txt": "331a3492a3e7258e01aabeb1c7ddf1d8374fcdc604cb837ace4bf773fcb15264",
    "braid3.txt": "544e6a5d47b91dd9fd32b575aaee2a9f53350cf9eddad77f83d1ea11028d8806",
    "generic5_4.txt": "a8f745d35651592e8fd78d5412e298e21c73e3b6955a81a07b96824dc31748bb",
    "nonessential3.txt": "6b64ed80f20b4902e6b44574888b22513759d115f1fad6bb2bae0d0b6d01d3d0",
    "braid5": "cfc269076a368be23e4dc5bc406d0148ad0d4c3ce37ad7f15829b86444c74abd",
    "braid6": "576909c58b608ac103e76cbc672c5e6d07ba43eb2133a7924c39b801239fc5d7",
    "boolean6": "34c4531a10335cf5e55aa107458bdefa9c3fc080b7d68dfdb3510dd43691f165",
}


def write_arrangement(path, n, rows):
    path.write_text(f"{n}\n" + "".join(" ".join(map(str, r)) + "\n"
                                       for r in rows))
    return str(path)


def braid_rows(n):
    return [[(j == a) - (j == b) for j in range(n)]
            for a, b in itertools.combinations(range(n), 2)]


def test_lattice_output_digests(tmp_path, capsys):
    paths = {name: data(name) for name in LATTICE_DIGESTS if name.endswith(".txt")}
    for n in (5, 6):
        paths[f"braid{n}"] = write_arrangement(tmp_path / f"braid{n}", n, braid_rows(n))
    paths["boolean6"] = write_arrangement(
        tmp_path / "boolean6", 6, [[int(i == j) for j in range(6)] for i in range(6)])
    for name, path in paths.items():
        assert main(["lattice", path]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == LATTICE_DIGESTS[name], name


def test_lattice_command_empty(tmp_path, capsys):
    p = tmp_path / "empty.txt"
    p.write_text("3\n")
    assert main(["lattice", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["flats"]) == 1
    assert out["chain_count"] == 1


def test_adjoint_command(capsys):
    assert main(["adjoint", data("boolean3.txt"), "--k", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["hyperplanes"]) == 3
    for h in out["hyperplanes"]:
        assert sum(1 for c in h["coeffs"] if c) == 1
    assert out["subsets"] == [[1], [2], [3]]


def test_label_command(capsys):
    assert main(["label", data("braid3.txt"), "--k", "1",
                 "--subspace", data("line_e1.txt")]) == 0
    out = json.loads(capsys.readouterr().out)
    labels = out["labels"]
    assert labels["adjoint"]["i"] == 0
    assert labels["adjoint"]["zero_set"] == [[3]]
    assert labels["matroid"]["rank"] == 1
    assert labels["matroid"]["loops"] == [3]
    # the flats in lattice order: {}, {3}, {2}, {1}, {1,2,3}
    assert [(f["generators"], f["trace_rank"], f["overlap_dim"])
            for f in out["flats"]] == [([], 0, 1), ([3], 0, 1), ([2], 1, 0),
                                       ([1], 1, 0), ([1, 2, 3], 1, 0)]


def write_subspace(path, U):
    path.write_text(f"{U.ambient_dim} {U.dim}\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in U.basis))
    return str(path)


def test_label_prints_the_per_flat_vectors(tmp_path, capsys):
    # every data/ arrangement at k = 0, 1 and n, and two that a 2^m table or
    # a listing of chains would refuse: braid n = 7 (21 hyperplanes) and
    # 17 generic planes; one random and one structured subspace each
    paths = [data(name) for name in sorted(os.listdir(DATA))
             if name != "line_e1.txt"]
    paths.append(write_arrangement(tmp_path / "braid7", 7, braid_rows(7)))
    paths.append(write_arrangement(tmp_path / "generic17", 3,
                                   [[1, t, t * t] for t in range(1, 18)]))
    for path in paths:
        arr = load_arrangement(path)
        n = arr.ambient_dim
        assert main(["lattice", path]) == 0
        order = [f["generators"] for f in json.loads(capsys.readouterr().out)["flats"]]
        for k in (0, 1, n):
            for U in [sample_subspace(n, k, 5, 0, 0)] + structured_subspaces(arr, k, 0)[:1]:
                sub = write_subspace(tmp_path / "U.txt", U)
                assert main(["label", path, "--k", str(k), "--subspace", sub]) == 0
                out = json.loads(capsys.readouterr().out)
                assert [f["generators"] for f in out["flats"]] == order
                assert all(f["trace_rank"] + f["overlap_dim"] == k
                           for f in out["flats"])
                assert {kind: label["encoding"] for kind, label in out["labels"].items()
                        } == grasstrata.strata.label_encodings(arr, U)


def test_label_command_dimension_mismatch(capsys):
    assert main(["label", data("braid3.txt"), "--k", "2",
                 "--subspace", data("line_e1.txt")]) == 1
    assert "dimension" in capsys.readouterr().err


def test_restrict_command_line(capsys):
    # e1 only sits inside x2 = x3; the other two traces coincide in R^1
    assert main(["restrict", data("braid3.txt"), "--subspace",
                 data("line_e1.txt")]) == 0
    res = parse_arrangement(capsys.readouterr().out)
    assert res.ambient_dim == 1
    assert res.size == 1


def test_restrict_rejects_zero_subspace(tmp_path, capsys):
    zero = tmp_path / "zero.txt"
    zero.write_text("3 0\n")
    assert main(["restrict", data("braid3.txt"), "--subspace",
                 str(zero)]) == 1
    assert "zero subspace" in capsys.readouterr().err


def test_restrict_command_plane(tmp_path, capsys):
    plane = tmp_path / "plane.txt"
    plane.write_text("3 2\n1 0 -1\n0 1 -1\n")  # x1 + x2 + x3 = 0? no: rows
    assert main(["restrict", data("braid3.txt"), "--subspace",
                 str(plane)]) == 0
    text = capsys.readouterr().out
    res = parse_arrangement(text)
    assert res.ambient_dim == 2
    assert res.size == 3


# sha256 of adjoint and restrict output; "plane" is the subspace file of
# test_restrict_command_plane
ADJOINT_RESTRICT_DIGESTS = {
    "adjoint braid3.txt --k 1":
        "f2359a8260ddb335a8ca4f88f890c02916f34b2a03370da77454d6ceb874b5a1",
    "adjoint braid3.txt --k 2":
        "a7eec0a04748b112683f2da17449f95eede08e499c9afefb0af04f427b9df81a",
    "adjoint boolean4.txt --k 1":
        "77c8335326f9404fe059935134a658732e2d90280a80b2783138407ee3176651",
    "adjoint boolean4.txt --k 2":
        "6910fffb7c4e7a577091798af13948a7ca2a901a13fd1ab03bd84e51ff810f6a",
    "adjoint boolean4.txt --k 3":
        "c793c01c280ff1dd916c00f09705c4da049d5e8b656b641bca8ff2534706b427",
    "adjoint generic5_4.txt --k 1":
        "aca063d98b47ecb7de0876122fb0d01d5d9559e254be72f8adf9a4214cde9e93",
    "adjoint generic5_4.txt --k 2":
        "31167b71980c9ca4d5f5b9356b4e15ae2020f28638983880254af9cb2d14e67c",
    "adjoint generic5_4.txt --k 3":
        "36774ba9b02635ba0f96631ec62330c829a8ec54f6768d46a03c45b47f2fcb77",
    "adjoint braid5.txt --k 1":
        "39a14fd5cab998613b98870fe8b0151a4e2a52ba88c83d3cebef9dff6b0a7639",
    "adjoint braid5.txt --k 2":
        "80a736e9acc2701838e1ba00ffdf1fb3a98b5526ed6642bfed0d40b74a37c302",
    "adjoint braid5.txt --k 3":
        "2e01a7a0873565f1c884d1631506b26af78b3034f052d6cb34ef1dc57747e902",
    "adjoint braid5.txt --k 4":
        "fb69f45bcbb0e0f4069a6f2282b8d540d532b65d810cff33e4eb13a60da599fa",
    "restrict braid3.txt --subspace line_e1.txt":
        "2c81fe7bbf86d56a30065f409793b6a25b5224974e9ccea149e260449446301b",
    "restrict braid3.txt --subspace plane":
        "5e3d8aecbf55b223179b7b37db5e52c6a95bfc3d2b40df5500abd97f0ac82372",
    "restrict boolean3.txt --subspace line_e1.txt":
        "6e1db38a8f411bbff1dda37d14219449068d6ae16f37827a002d08f743e3b92e",
    "restrict boolean3.txt --subspace plane":
        "9b202d8138676dc0d41afa7a8a601c562894288a9f5da5d067cd8d09043de79a",
    "restrict nonessential3.txt --subspace line_e1.txt":
        "8c4ff8be600e037439cdaf50581bc121689c133fdc8237ba59f9f69b0df6862e",
    "restrict nonessential3.txt --subspace plane":
        "c654144543edbfcb1ad524ea5afb52e059e6fb4c34ccac70a8ae1a04423c825e",
}


def test_adjoint_and_restrict_digests(tmp_path, capsys):
    plane = tmp_path / "plane"
    plane.write_text("3 2\n1 0 -1\n0 1 -1\n")
    for command, digest in ADJOINT_RESTRICT_DIGESTS.items():
        name, *argv = command.split()
        assert main([name] + [str(plane) if t == "plane" else data(t)
                              if t.endswith(".txt") else t for t in argv]) == 0, command
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


def test_verify_command_braid3(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", data("braid3.txt"), "--k", "1", "--samples", "40",
                 "--include-flats", "--seed", "7", "-o", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdicts"]["passed"] is True
    assert len(report["partitions"]["adjoint"]) >= 4
    assert report["partitions"]["adjoint"] == report["partitions"]["matroid"]
    sources = {s["source"] for s in report["samples"]}
    assert sources == {"random", "structured"}
    assert report["format"] == 2
    assert "chain_cap" not in report["config"]


def test_verify_beyond_sixteen_hyperplanes(tmp_path):
    # 17 planes in general position: 2^17 subsets, but only 155 flats
    arr = tmp_path / "generic17.txt"
    arr.write_text("3\n" + "".join(f"1 {t} {t * t}\n" for t in range(1, 18)))
    out = tmp_path / "report.json"
    assert main(["verify", str(arr), "--k", "2", "--samples", "3",
                 "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdicts"]["passed"] is True
    assert len(report["samples"]) == 3


def test_verify_reports_are_byte_identical(tmp_path):
    a, b, c = (tmp_path / x for x in ("a.json", "b.json", "c.json"))
    args = ["verify", data("braid3.txt"), "--k", "2", "--samples", "25",
            "--include-flats", "--seed", "3"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert main(args + ["--jobs", "2", "-o", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() == c.read_bytes()


class SerialPool:
    """Stands in for multiprocessing.Pool: records the requested size and
    maps in this process, so no worker starts."""

    sizes = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return [fn(t) for t in tasks]


def test_output_independent_of_hash_seed():
    runs = (["verify", data("generic5_4.txt"), "--k", "2", "--samples", "20",
             "--include-flats"], ["lattice", data("braid5.txt")])
    outs = []
    for hash_seed in ("0", "1"):
        for args in runs:
            proc = subprocess.run([sys.executable, "-m", "grasstrata", *args],
                                  env=package_env(PYTHONHASHSEED=hash_seed),
                                  capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
    assert outs[:2] == outs[2:]


def test_verify_starts_no_more_workers_than_subspaces(tmp_path, monkeypatch):
    import multiprocessing
    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    monkeypatch.setattr(SerialPool, "sizes", [])
    args = ["verify", data("braid3.txt"), "--k", "2", "--samples", "3"]
    outs = [tmp_path / f"{jobs}.json" for jobs in (1, 2, 64)]
    for jobs, out in zip((1, 2, 64), outs):
        assert main(args + ["--jobs", str(jobs), "-o", str(out)]) == 0
    assert SerialPool.sizes == [2, 3]
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


# sha256 of label and verify output, which no change to the self-checks
# may alter; verify reports embed the arrangement path, so these run from
# the repository root on relative paths
VERIFY_LABEL_DIGESTS = {
    "verify data/braid3.txt --k 2 --samples 40 --include-flats":
        "72b899a7974af7d8a21504bca112733f0b3f2b9a644f0a426a50d1f40039cbb9",
    "verify data/generic5_4.txt --k 2 --samples 30 --include-flats":
        "fb2b5b61a7523357b357f157295fa524f4bf641604ee319b80e1658da55f42f7",
    "verify data/nonessential3.txt --k 1 --samples 30 --include-flats":
        "efb7c04d994e8fabc562d1bdaa198240c312ee31c0f06c277ff39d7b08e07df6",
    "verify data/boolean4.txt --k 2 --samples 30 --include-flats":
        "7265576c05ff2f4a592d490addd303e1538550115d28186435c1fb03d6ffe54f",
    "verify data/braid5.txt --k 3 --samples 20":
        "b6cc264078f0f43c6f4b3feee93c8c4347bf987bbdfb7756744b793550930bf5",
    "label data/braid3.txt --k 1 --subspace data/line_e1.txt":
        "8211a31474ca6dee55a557b28d2fb44f881573f0927c9e250ad36b688752223b",
    # non-essential, so U meet T is nonzero at times and the defect route
    # takes S-perp as a kernel
    "verify data/braid5.txt --k 2 --samples 20 --include-flats":
        "7e5730ed033081d3eae75c8637af27188d28a48d21e426907f3c74d006089638",
    "verify data/nonessential3.txt --k 2 --samples 30 --include-flats":
        "828c4cf2653dd1b90741b81a3969520826a759a1aa94d82ad3bc95da8d6b147a",
    # degenerate dimensions: k = 0, and k = n on an essential and on a
    # non-essential arrangement
    "verify data/braid5.txt --k 0 --samples 3":
        "5d7b36507a4121e17b8bea8a93cad2782f4bc2bcd561337f06dc35e81e52e657",
    "verify data/boolean4.txt --k 4 --samples 3 --include-flats":
        "1ae088ba7bcd8d9929e490d5ea9c666b156b5725fea14f70bb927ac3aef1ab11",
    "verify data/nonessential3.txt --k 3 --samples 5 --include-flats":
        "046a1c6fb2dd1c7f1833b2ce0c00579501b3b96695292778060869426317e69f",
}


def test_verify_and_label_digests(monkeypatch, capsys):
    monkeypatch.chdir(os.path.join(os.path.dirname(__file__), os.pardir))
    for command, digest in VERIFY_LABEL_DIGESTS.items():
        assert main(command.split()) == 0, command
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


def test_non_isomorphic_class_exits_2(tmp_path, monkeypatch):
    # each sample's own subspace in place of its restriction lattice: two
    # distinct members of one class no longer compare equal
    monkeypatch.setattr(grasstrata.strata, "restriction_lattice",
                        lambda arr, U: U)
    out = tmp_path / "report.json"
    args = ["verify", data("braid3.txt"), "--k", "2", "--samples", "20",
            "--include-flats", "--seed", "3", "-o", str(out)]
    assert main(args) == 2
    report = json.loads(out.read_text())
    assert report["verdicts"]["passed"] is False
    assert False in report["verdicts"]["classification"].values()
    assert report["witnesses"]
    assert {w["type"] for w in report["witnesses"]} == {"restriction_mismatch"}


def test_verify_braid6_k3_passes(tmp_path):
    # random 3-subspaces restrict braid n = 6 to lattices of 76 to 82
    # elements, which verify compares as labeled values, with no search
    path = write_arrangement(tmp_path / "braid6", 6, braid_rows(6))
    out = tmp_path / "report.json"
    assert main(["verify", path, "--k", "3", "--samples", "5",
                 "-o", str(out)]) == 0
    assert json.loads(out.read_text())["verdicts"]["passed"] is True


def test_verify_keeps_one_lattice_in_the_module_cache(tmp_path):
    # 120 planes of braid5 fall into one class, so verify builds 120
    # restriction lattices; none of them outlives its comparison in a cache,
    # and the center is read off the one cached lattice's top
    grasstrata.arrangement.intersection_lattice.cache_clear()
    out = tmp_path / "report.json"
    assert main(["verify", data("braid5.txt"), "--k", "3", "--samples", "120",
                 "--bound", "1000", "--seed", "1", "-o", str(out)]) == 0
    assert len(json.loads(out.read_text())["partitions"]["matroid"]) == 1
    assert grasstrata.arrangement.intersection_lattice.cache_info().currsize == 1
    assert not hasattr(grasstrata.arrangement.center, "cache_info")


def test_self_check_survives_python_O():
    """A wrong rank must raise SelfCheckFailed even with asserts stripped,
    and the CLI maps it to exit code 3."""
    script = f"""
import sys
import grasstrata.matroid
from grasstrata import SelfCheckFailed, load_arrangement, matroid_from, span
from grasstrata.cli import main
if not sys.flags.optimize:
    sys.exit("not running under -O")
grasstrata.matroid.echelon_extend = lambda rows, vectors: []
try:
    matroid_from(load_arrangement({data("braid3.txt")!r}), span([[1, 0, 0]], 3))
except SelfCheckFailed:
    pass
else:
    sys.exit("a wrong rank table went unnoticed")
sys.exit(main(["label", {data("braid3.txt")!r}, "--k", "1",
               "--subspace", {data("line_e1.txt")!r}]))
"""
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=package_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "self-check failed" in proc.stderr


@pytest.fixture
def uncached_matroids():
    # a patched rank must reach matroid_from, and its wrong matroids must
    # not outlive the test in the cache
    grasstrata.matroid.matroid_from.cache_clear()
    yield
    grasstrata.matroid.matroid_from.cache_clear()


LABEL_E1 = ["label", data("braid3.txt"), "--k", "1",
            "--subspace", data("line_e1.txt")]


def test_loop_with_rank_one_exits_3(monkeypatch, capsys, uncached_matroids):
    # the loop {3} of braid3 on the line e1 gets rank 1: ranks 0,1,1,1,1
    # are a matroid with the right rank at the center, so only the per-flat
    # comparison with the overlap dimensions in strata.labels refuses them
    # (on a line, the row (1,) spans every trace)
    real = grasstrata.matroid.echelon_extend
    monkeypatch.setattr(grasstrata.matroid, "echelon_extend",
                        lambda rows, vectors: real(rows, vectors)
                        or [(0, (1,))] * min(len(vectors), 1))
    assert main(LABEL_E1) == 3
    assert "trace ranks and flat ranks disagree on [[3]]" in capsys.readouterr().err
    assert main(["verify", data("braid3.txt"), "--k", "1", "--samples", "20"]) == 3
    captured = capsys.readouterr()
    assert "trace ranks and flat ranks disagree" in captured.err
    assert captured.out == ""


def test_trace_ranks_off_the_axioms_exit_3(monkeypatch, capsys,
                                            uncached_matroids):
    # single traces count twice: the center keeps its rank, but the step
    # from the bottom to a hyperplane is 2, which is a self-check failure
    # of matroid_from, not bad input; a flat above forgets the copy (on a
    # line, a flat's first row is all its rows)
    real = grasstrata.matroid.echelon_extend
    monkeypatch.setattr(grasstrata.matroid, "echelon_extend",
                        lambda rows, vectors: real(rows[:1], vectors)
                        * (2 if not rows and len(vectors) == 1 else 1))
    assert main(LABEL_E1) == 3
    err = capsys.readouterr().err
    assert "self-check failed: trace ranks are no matroid: unit increase" in err


def test_defect_routes_are_compared_when_the_sample_is_its_own_defect(
        tmp_path, monkeypatch, capsys):
    # a plane of braid3 that misses the center (1, 1, 1) is its own defect
    # without a kernel; a projector with one row zeroed still differs
    plane = tmp_path / "plane.txt"
    plane.write_text("3 2\n1 0 0\n0 1 0\n")
    real = grasstrata.pluecker.projector

    def zeroed(U):
        P, d = real(U)
        return ((0,) * U.ambient_dim,) + P[1:], d

    monkeypatch.setattr(grasstrata.pluecker, "projector", zeroed)
    assert main(["label", data("braid3.txt"), "--k", "2",
                 "--subspace", str(plane)]) == 3
    assert "defect subspace routes disagree" in capsys.readouterr().err


def test_a_missed_center_that_is_met_exits_3(tmp_path, monkeypatch, capsys):
    # the plane x2 = 0 holds the center of nonessential3, the x3 axis; told
    # that it misses it, defect_subspace takes U, whose projection route is
    # the line of e1
    plane = tmp_path / "plane.txt"
    plane.write_text("3 2\n1 0 0\n0 0 1\n")
    monkeypatch.setattr(grasstrata.pluecker, "intersection_dim", lambda U, V: 0)
    assert main(["label", data("nonessential3.txt"), "--k", "2",
                 "--subspace", str(plane)]) == 3
    assert "defect subspace routes disagree" in capsys.readouterr().err


@pytest.mark.parametrize("delta", [-1, 1])
def test_schubert_walk_off_by_one_above_i_exits_3(tmp_path, monkeypatch,
                                                   capsys, delta):
    # the plane misses the center of braid3, so i = 0, and the overlap 1 at
    # flat 1, the hyperplane x2 = x3, is computed; put at 0 it steps 2 from
    # the bottom, put at 2 it steps 2 to the center, before the comparison
    # with the trace ranks in labels would see it
    plane = tmp_path / "plane.txt"
    plane.write_text("3 2\n1 0 0\n0 1 0\n")
    arr = load_arrangement(data("braid3.txt"))
    hyperplane = intersection_lattice(arr).flats[1].subspace
    real = grasstrata.strata.intersection_dim
    monkeypatch.setattr(grasstrata.strata, "intersection_dim",
                        lambda U, V: real(U, V) + delta * (V == hyperplane))
    assert main(["label", data("braid3.txt"), "--k", "2",
                 "--subspace", str(plane)]) == 3
    err = capsys.readouterr().err
    assert "overlap dimensions do not step down by 0 or 1 from dim U" in err


def test_verify_rejects_bad_k(capsys):
    assert main(["verify", data("braid3.txt"), "--k", "9",
                 "--samples", "1"]) == 1
    assert "between 0 and" in capsys.readouterr().err


def test_missing_file_is_input_error(capsys):
    assert main(["lattice", "no_such_file.txt"]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_error_is_exit_1(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()


def test_verify_refuses_a_negative_bound_with_no_samples(capsys):
    # the bound used to be checked only as a sample was drawn, so with
    # --samples 0 it went unchecked into the report's config
    assert main(["verify", data("braid3.txt"), "--k", "1", "--samples", "0",
                 "--bound", "-4", "--include-flats"]) == 1
    captured = capsys.readouterr()
    assert "--bound must be nonnegative" in captured.err
    assert captured.out == ""


# ------------------------------------------------------------ command line


def _outcome(parse, argv):
    """The values parse read from argv, or "refused"."""
    try:
        values = parse(argv)
    except ValueError:
        return "refused"
    return values if type(values) is dict else vars(values)


# The oracle's vocabulary: the long options in exact and prefix spellings
# (unique in one command, ambiguous or unknown in another), each bare,
# with a value and with =; -o in its three forms; values that are numbers,
# negative numbers or junk; junk tokens, a second file and --.  Left out,
# as argparse reads them differently across its 3.10-3.13 releases: a
# value "--" given with = or after -o (an empty list before 3.13), a --
# before the command or after the file and an option, and negative
# numbers that are not decimals, such as -1e3 and -1_0.  Also left out,
# as _parse refuses them where argparse printed help: -h compounds such
# as -ho and -hx.
_REFERENCE = next(a for a in _build_parser()._actions if a.choices).choices
_LONG = sorted({o for p in _REFERENCE.values() for a in p._actions
                for o in a.option_strings if o[:2] == "--" and o != "--help"})
_VALUES = st.one_of(st.sampled_from(["3", "0", "-2", "f.txt"]), st.sampled_from(
    ["-17", "-3.5", "+4", " 5", "x", "", "-", "-x", "-x y"]))


def _pieces(names):
    spellings = st.sampled_from([o[:n] for o in names for n in range(3, len(o) + 1)])
    return st.one_of(
        st.tuples(spellings, _VALUES).map(list),
        st.tuples(spellings, _VALUES).map(lambda p: ["=".join(p)]),
        spellings.map(lambda o: [o]),
        _VALUES.map(lambda v: ["-o", v]),
        _VALUES.map(lambda v: ["-o" + v]),
        _VALUES.map(lambda v: ["-o=" + v]))


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from([*_REFERENCE] * 3 + ["junk", None]))
    actions = _REFERENCE[command]._actions if command in _REFERENCE else []
    own = [o for a in actions for o in a.option_strings
           if o[:2] == "--" and o != "--help"] or _LONG
    junk = st.sampled_from(["--bogus", "-x", "junk", "--chain-cap", "--s=4"])
    pieces = draw(st.lists(st.one_of(
        _pieces(own), _pieces(own), _pieces(_LONG), junk.map(lambda t: [t])),
        max_size=4))
    if draw(st.integers(0, 3)):  # the required options
        pieces[:0] = [[a.option_strings[0], "2"] for a in actions
                      if a.required and a.option_strings]
    file = draw(st.sampled_from(["among", "among", "after --", "none"]))
    if file == "among":
        pieces.insert(draw(st.integers(0, len(pieces))), ["f.txt"])
    elif file == "after --":
        pieces.append(["--", "f.txt"] + draw(st.sampled_from(
            [[], ["g.txt"], ["-x"], ["--k", "2"]])))
    return [command] * (command is not None) + sum(pieces, [])


@settings(max_examples=500, deadline=None)
@given(argv=_argvs())
def test_parser_reads_argv_as_argparse_did(argv):
    assert _outcome(_parse, argv) == _outcome(reference_parse, argv)


@pytest.mark.parametrize("argv", [
    ["verify", "f", "--k", "2", "--sam", "3"],  # a unique prefix
    ["verify", "f", "--k", "2", "--s", "3"],  # an ambiguous one
    ["label", "f", "--k", "2", "--s", "3"],  # unique in label
    ["verify", "f", "--k=2", "--seed=-3", "--inc"],
    ["lattice", "f", "-o", "out"],
    ["lattice", "-oout", "f"],
    ["lattice", "f", "-o=out"],
    ["lattice", "f", "--output", "out"],
    ["verify", "--k", "2", "f", "--k", "3", "--jobs", "2"],  # the last wins
    ["verify", "f", "--k", "2", "--seed", "-3"],
    ["verify", "f", "--k", "2", "--seed", "-x"],  # not a value
    ["verify", "f", "--k", "2", "--include-flats=yes"],
    ["lattice", "--", "-f"],
    ["lattice", "f", "--"],
    ["lattice", "-o", "out", "--", "f", "g"],
    ["verify", "f", "--k", "2", "--"],  # argparse kept this -- as an extra
    ["verify", "f", "--k", "x"],
    ["verify", "f", "--k", "-1.5"],
    ["verify", "f"],
    ["lattice", "f", "g", "--chain-cap", "5"],
    ["lattice"],
    ["frobnicate", "f"],
    [],
])
def test_parser_examples_match_argparse(argv):
    assert _outcome(_parse, argv) == _outcome(reference_parse, argv)


@pytest.mark.parametrize("argv, message", [
    (["verify", "f", "--k", "x"], "argument --k: invalid int value: 'x'"),
    (["label", "--s", "u"], "the following arguments are required: "
                             "arrangement, --k"),
    (["lattice", "f", "g", "--chain-cap", "5"],
     "unrecognized arguments: g --chain-cap 5"),
])
def test_parser_keeps_the_argparse_messages(argv, message):
    with pytest.raises(ValueError) as ours:
        _parse(argv)
    with pytest.raises(ValueError) as theirs:
        reference_parse(argv)
    assert str(ours.value) == str(theirs.value) == message


def test_help_is_built_from_the_table(capsys):
    for top in (["-h"], ["--help"], ["--he"]):
        assert main(top) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: grasstrata COMMAND ARRANGEMENT")
        assert all(f"\n  {c} " in out for c in _REFERENCE)
    for command, parser in _REFERENCE.items():
        for flag in ("-h", "--help"):
            assert main([command, "--k", "1", flag, "--bogus"]) == 0
            out = capsys.readouterr().out
            assert out.startswith(f"usage: grasstrata {command} ARRANGEMENT")
            # every option of the old parser, with its default or required
            words = [line.split() for line in out.splitlines()[2:]]
            rows = {w[w[0].endswith(",")]: " ".join(w) for w in words}
            rows.pop("--help")
            names = {o for a in parser._actions for o in a.option_strings
                     if o.startswith("--") and o != "--help"}
            assert set(rows) == names
            for a in parser._actions:
                if a.type is int:
                    line = rows[a.option_strings[0]]
                    assert line.endswith("(required)" if a.required
                                         else f"(default {a.default})")


def test_digest_stable():
    arr = load_arrangement(data("braid3.txt"))
    assert arrangement_digest(arr) == arrangement_digest(arr)
    other = load_arrangement(data("boolean3.txt"))
    assert arrangement_digest(arr) != arrangement_digest(other)


ARRANGEMENTS = sorted(f for f in os.listdir(DATA) if f != "line_e1.txt")


def test_digest_is_sha256_of_the_canonical_text():
    # the builtin SHA-256 module, and hashlib (OpenSSL first) only on an
    # interpreter built without it
    assert sha256.__module__ in ("_sha2", "_sha256")
    digests = []
    for name in ARRANGEMENTS:
        arr = load_arrangement(data(name))
        digests.append(arrangement_digest(arr))
        assert digests[-1] == hashlib.sha256(
            format_arrangement(arr).encode()).hexdigest()
    script = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import hashlib\n"
        "from grasstrata.arrangement import load_arrangement\n"
        "from grasstrata.cli import arrangement_digest, sha256\n"
        "assert sha256 is hashlib.sha256\n"
        "for path in sys.argv[1:]:\n"
        "    print(arrangement_digest(load_arrangement(path)))\n")
    proc = subprocess.run(
        [sys.executable, "-c", script] + [data(name) for name in ARRANGEMENTS],
        env=package_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == digests


# ------------------------------------------------------------ json writer

# every code point, surrogates included, and the ones json escapes by name
_text = st.text(st.characters(exclude_categories=())
                | st.sampled_from('"\\\x7f\x00\x1f\b\f\n\r\t\ud800\udfff\U0001d49c'))
_scalars = (st.none() | st.booleans() | st.integers()
            | st.integers(min_value=-2**200, max_value=2**200) | _text)
_payloads = st.recursive(
    _scalars, lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                             | st.dictionaries(_text, inner)),
    max_leaves=20)


@settings(max_examples=150, deadline=None)
@given(payload=_payloads)
def test_json_writer_matches_json_dumps(payload):
    assert ("".join(_json_chunks(payload))
            == json.dumps(payload, indent=2, sort_keys=True))


@pytest.mark.parametrize("payload", [
    1.5, float("nan"), {1, 2}, frozenset(), b"bytes", object(), {1: 2},
    {"a": 1, None: 2}, {"a": [0.5]}, [[{"b": {3}}]]])
def test_json_writer_rejects_what_it_cannot_write(payload):
    with pytest.raises(TypeError):
        "".join(_json_chunks(payload))


def test_reports_on_an_odd_path_are_what_json_writes(tmp_path, capsys):
    # non-ASCII, astral, a quote, a backslash and a byte that is not
    # UTF-8, which the path holds as a lone surrogate
    where = tmp_path / 'ärr "q" \\ 𝒜 \udcff'
    where.mkdir()
    path = str(where / "braid3.txt")
    with open(data("braid3.txt")) as src, open(path, "w") as dst:
        dst.write(src.read())
    for argv in (["verify", path, "--k", "1", "--samples", "3", "--include-flats"],
                 ["label", path, "--k", "1", "--subspace", data("line_e1.txt")]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        if argv[0] == "verify":
            assert json.loads(out)["config"]["arrangement"] == path


def test_every_byte_goes_through_write(tmp_path, monkeypatch):
    # what the bench's tracer counts as cli.report_bytes: each piece of
    # output reaches cli._write as a str, and the pieces make up the file
    texts = []
    write = grasstrata.cli._write

    def counted_write(text, out):
        texts.append(text)
        return write(text, out)

    monkeypatch.setattr(grasstrata.cli, "_write", counted_write)
    braid5 = data("braid5.txt")
    plane = tmp_path / "plane.txt"
    plane.write_text("5 2\n1 0 0 0 0\n0 1 1 0 0\n")
    out = tmp_path / "out"
    for argv in (["lattice", braid5], ["adjoint", braid5, "--k", "2"],
                 ["label", braid5, "--k", "2", "--subspace", str(plane)],
                 ["restrict", braid5, "--subspace", str(plane)],
                 ["verify", braid5, "--k", "2", "--samples", "3", "--include-flats"]):
        texts.clear()
        assert main(argv + ["-o", str(out)]) == 0, argv
        assert {type(t) for t in texts} == {str}, argv
        assert sum(len(t.encode()) for t in texts) == out.stat().st_size, argv


def big_report(monkeypatch):
    # lattice's handler swapped for one returning 200 samples of two
    # distinct 10 KB labels, about 4 MB
    def handler(args, arr):
        return {"samples": [{"matroid": f"{i:04d}m" * 2000,
                             "schubert": f"{i:04d}s" * 2000}
                            for i in range(200)]}, 0

    summary, options, _ = grasstrata.cli._COMMANDS["lattice"]
    monkeypatch.setitem(grasstrata.cli._COMMANDS, "lattice",
                        (summary, options, handler))


def test_the_writer_never_holds_the_report(tmp_path, monkeypatch):
    # a writer that built the report as one string would hold it twice more
    big_report(monkeypatch)
    path = tmp_path / "report.json"
    tracemalloc.start()
    try:
        assert main(["lattice", data("braid3.txt"), "-o", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * path.stat().st_size


def test_the_writer_batches_its_pieces(tmp_path, monkeypatch):
    # a write-through stdout (python -u) makes one system call per write:
    # the 4 MB report goes out in writes of about 64 KiB, not per piece
    big_report(monkeypatch)
    sizes = []
    write = grasstrata.cli._write
    monkeypatch.setattr(grasstrata.cli, "_write",
                        lambda text, out: sizes.append(len(text)) or write(text, out))
    path = tmp_path / "report.json"
    assert main(["lattice", data("braid3.txt"), "-o", str(path)]) == 0
    assert sum(sizes) == path.stat().st_size > 4_000_000
    assert len(sizes) <= 70


# ---------------------------------------------------------------- launcher


def launch(args, prelude="", env=None):
    """Run args through the launcher in a fresh process: python -m
    grasstrata, or, after the statements prelude, the same module through
    runpy; env defaults to package_env().  Returns the exit code, the
    stdout bytes and the stderr text."""
    if prelude:
        argv = [sys.executable, "-c", f"import runpy, sys\n{prelude}\n"
                f"sys.argv[1:] = {args!r}\n"
                "runpy.run_module('grasstrata', run_name='__main__', alter_sys=True)\n"]
    else:
        argv = [sys.executable, "-m", "grasstrata", *args]
    proc = subprocess.run(argv, env=env or package_env(), capture_output=True,
                          timeout=120)
    return proc.returncode, proc.stdout, proc.stderr.decode()


def buffering_env(unbuffered):
    """package_env() with PYTHONUNBUFFERED set, or removed: stdout is then
    write-through or block-buffered."""
    env = package_env(PYTHONUNBUFFERED="1")
    if not unbuffered:
        del env["PYTHONUNBUFFERED"]
    return env


def lines_path(tmp_path):
    """The 1,200 lines (1, t) in Q^2: a lattice report of about 200 KB."""
    return write_arrangement(tmp_path / "lines", 2, [(1, t) for t in range(1, 1201)])


# a run that exits with each code: an arrangement, a bad --k, a class whose
# restriction lattices differ, and a rank table that fails the self-check,
# each with the source of the patch, if any, that brings it about
EXIT_CASES = [
    (["lattice", data("braid3.txt")], None, 0),
    (["verify", data("braid3.txt"), "--k", "9"], None, 1),
    (["verify", data("braid3.txt"), "--k", "2", "--samples", "20",
      "--include-flats", "--seed", "3"],
     ("strata", "restriction_lattice", "lambda arr, U: U"), 2),
    (LABEL_E1, ("matroid", "echelon_extend", "lambda rows, vectors: []"), 3),
]


@pytest.mark.parametrize("args, patch, code", EXIT_CASES)
def test_launcher_exit_codes_and_bytes(args, patch, code, monkeypatch, capsys,
                                       uncached_matroids):
    # the same code, stdout bytes and stderr text as main in this process
    prelude = ""
    if patch:
        module, name, source = patch
        prelude = f"import grasstrata.{module}\ngrasstrata.{module}.{name} = {source}"
        monkeypatch.setattr(getattr(grasstrata, module), name, eval(source))
    assert main(args) == code
    captured = capsys.readouterr()
    assert launch(args, prelude) == (code, captured.out.encode(), captured.err)


@pytest.mark.parametrize("args, patch, code", EXIT_CASES)
def test_output_is_opened_only_for_a_payload(args, patch, code, tmp_path,
                                             monkeypatch, capsys,
                                             uncached_matroids):
    # a run that fails leaves a missing --output path missing and a file
    # there as it was; a run with a payload writes what it writes to stdout
    if patch:
        module, name, source = patch
        monkeypatch.setattr(getattr(grasstrata, module), name, eval(source))
    assert main(args) == code
    stdout = capsys.readouterr().out.encode()
    missing, kept = tmp_path / "missing.json", tmp_path / "kept.json"
    kept.write_bytes(b"kept")
    assert main(args + ["-o", str(missing)]) == code
    assert main(args + ["-o", str(kept)]) == code
    if code in (1, 3):
        assert not missing.exists()
        assert kept.read_bytes() == b"kept"
    else:
        assert stdout
        assert missing.read_bytes() == kept.read_bytes() == stdout


def test_launcher_writes_a_long_stdout_whole_to_a_pipe(tmp_path, capsys):
    path = write_arrangement(tmp_path / "braid6", 6, braid_rows(6))
    code, out, err = launch(["lattice", path])
    assert (code, err) == (0, "")
    assert len(out) > 1 << 16  # more than a pipe buffer holds
    assert main(["lattice", path]) == 0
    assert out == capsys.readouterr().out.encode()
    assert json.loads(out)["flats"]


def test_launcher_runs_atexit_handlers(capsys):
    # the launcher's os._exit skips interpreter shutdown, so the launcher
    # runs the handler and flushes what it writes before calling it
    args = ["lattice", data("braid3.txt")]
    code, out, err = launch(args, "import atexit\n"
                            "atexit.register(lambda: print('atexit ran'))")
    assert main(args) == 0
    assert (code, out, err) == (0, capsys.readouterr().out.encode() + b"atexit ran\n", "")


def test_main_in_process_leaves_the_collector_unfrozen(capsys):
    # main ends no process and changes no collector state: callers that run
    # it many times in one process get their garbage collected as usual
    assert main(["verify", data("braid3.txt"), "--k", "1", "--samples", "3"]) == 0
    assert gc.get_freeze_count() == 0


def test_launcher_leaves_no_worker_behind(tmp_path):
    # the handler runs before multiprocessing's own exit handler, which
    # would end leftover workers; a worker that outlived the process would
    # also hold the stdout pipe open past the timeout
    prelude = ("import atexit, multiprocessing.util\n"
               "atexit.register(lambda: print('children:',"
               " len(multiprocessing.active_children()), file=sys.stderr))")
    args = ["verify", data("braid3.txt"), "--k", "2", "--samples", "6",
            "--include-flats", "--seed", "3"]
    one, two = tmp_path / "1.json", tmp_path / "2.json"
    assert main(args + ["--jobs", "1", "-o", str(one)]) == 0
    code, out, err = launch(args + ["--jobs", "2", "-o", str(two)], prelude)
    assert (code, out, err) == (0, b"", "children: 0\n")
    assert one.read_bytes() == two.read_bytes()


def test_launcher_flushes_a_long_buffered_stdout_whole_to_a_pipe(
        tmp_path, monkeypatch, capsys):
    # without PYTHONUNBUFFERED, the report's last write, shorter than
    # stdout's buffer, waits there until the launcher's own flush
    path = lines_path(tmp_path)
    code, out, err = launch(["lattice", path], env=buffering_env(False))
    assert (code, err) == (0, "")
    writes = []
    monkeypatch.setattr(grasstrata.cli, "_write",
                        lambda text, out: writes.append(text) or out.write(text))
    assert main(["lattice", path]) == 0
    assert out == capsys.readouterr().out.encode()
    assert len(out) > 1 << 16
    assert len(writes[-1].encode()) < 4096  # the buffer stdout gets on a pipe


@pytest.mark.parametrize("unbuffered", [True, False])
def test_a_closed_stdout_exits_141_in_silence(unbuffered, tmp_path):
    # a reader that closes the pipe early, as head -c 5 does, is not bad
    # input: 141, as a shell reports for a process that SIGPIPE killed
    proc = subprocess.Popen(
        [sys.executable, "-m", "grasstrata", "lattice", lines_path(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=buffering_env(unbuffered))
    assert proc.stdout.read(5) == b'{\n  "'
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=120), err) == (141, b"")


@pytest.mark.parametrize("unbuffered", [True, False])
def test_a_stdout_closed_before_the_write_exits_141_in_silence(unbuffered):
    # a small report, buffered, fails only in the launcher's flush
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "grasstrata", "lattice",
                               data("braid3.txt")], stdout=write,
                              stderr=subprocess.PIPE,
                              env=buffering_env(unbuffered), timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_main_in_process_exits_141_in_silence_on_a_closed_stdout(tmp_path):
    # a caller of main that exits with its code, not through the launcher:
    # the report's unsent bytes are sent to os.devnull, so the flush at
    # interpreter exit does not meet the closed pipe again (exit 120)
    proc = subprocess.Popen(
        [sys.executable, "-c", "from grasstrata.cli import main; "
         "raise SystemExit(main())", "lattice", lines_path(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=buffering_env(False))
    assert proc.stdout.read(5) == b'{\n  "'
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert (proc.wait(timeout=120), err) == (141, b"")


def test_main_returns_141_on_a_broken_pipe(monkeypatch, capsys):
    def broken(text, out):
        raise BrokenPipeError(32, "Broken pipe")
    monkeypatch.setattr(grasstrata.cli, "_write", broken)
    assert main(["lattice", data("braid3.txt")]) == 141
    assert capsys.readouterr() == ("", "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("big", [False, True])
def test_a_full_stdout_exits_1_with_one_error_line(big, unbuffered, tmp_path):
    # a small report fails in the launcher's flush when buffered and in
    # main's write when not; a big one fails in main's write either way,
    # and a failed write leaves nothing pending for the flush to report
    path = lines_path(tmp_path) if big else data("braid3.txt")
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "grasstrata", "lattice", path],
                              stdout=full, stderr=subprocess.PIPE,
                              env=buffering_env(unbuffered), timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.decode() == "error: [Errno 28] No space left on device\n"


def test_launcher_leaves_no_non_daemon_thread(tmp_path):
    # os._exit does not join threads as interpreter exit would, so the
    # package must start none that it would have to join
    prelude = ("import atexit, threading\n"
               "atexit.register(lambda: print('threads:', [t.name for t in"
               " threading.enumerate() if not t.daemon and t is not"
               " threading.main_thread()], file=sys.stderr))")
    args = ["verify", data("braid3.txt"), "--k", "2", "--samples", "6",
            "--include-flats", "--seed", "3", "--jobs", "2",
            "-o", str(tmp_path / "2.json")]
    assert launch(args, prelude) == (0, b"", "threads: []\n")


@pytest.mark.parametrize("stream", ["stdout", "stderr"])
def test_launcher_runs_without_a_standard_stream(stream, tmp_path):
    # sys.stdout or sys.stderr is None when its descriptor was closed at
    # start-up, as in `grasstrata lattice FILE -o OUT >&-`: the launcher
    # flushes only the streams there are, as interpreter exit does
    one, two = tmp_path / "1.json", tmp_path / "2.json"
    assert main(["lattice", data("braid3.txt"), "-o", str(one)]) == 0
    args = ["lattice", data("braid3.txt"), "-o", str(two)]
    assert launch(args, f"sys.{stream} = None") == (0, b"", "")
    assert one.read_bytes() == two.read_bytes()


@pytest.mark.parametrize("method", [m for m in ("spawn", "forkserver")
                                    if m in multiprocessing.get_all_start_methods()])
def test_verify_with_workers_from_a_fresh_interpreter(method, tmp_path):
    # workers started by spawn or forkserver import strata on their first
    # call of _encode_worker; the report is the same
    args = ["verify", data("braid5.txt"), "--k", "2", "--samples", "12",
            "--include-flats"]
    one = tmp_path / "1.json"
    assert main(args + ["--jobs", "1", "-o", str(one)]) == 0
    code, out, err = launch(args + ["--jobs", "2"], "import multiprocessing\n"
                            f"multiprocessing.set_start_method({method!r})")
    assert (code, err) == (0, "")
    assert out == one.read_bytes()
