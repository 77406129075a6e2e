import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from reference_parser import _build_parser, parse as reference_parse

import grasstrata.matroid
import grasstrata.sampling
import grasstrata.strata
from grasstrata.cli import (
    _json_text,
    _parse,
    arrangement_digest,
    main,
    parse_subspace,
    sha256,
)
from grasstrata.arrangement import (
    format_arrangement,
    load_arrangement,
    parse_arrangement,
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
    # before 3.11 and 1000 from 3.11 on, and '1/0' is always an error
    path = tmp_path / "arr.txt"
    path.write_text(f"3\n1 {token} 0\n0 1 0\n")
    try:
        q = Fraction(token)
    except (ValueError, ZeroDivisionError):
        assert main(["lattice", str(path)]) == 1
        assert capsys.readouterr().err == "error: line 2: bad rational entry\n"
        return
    assert main(["lattice", str(path)]) == 0
    got = capsys.readouterr().out
    same = tmp_path / "same.txt"
    same.write_text(f"3\n{q.denominator} {q.numerator} 0\n0 1 0\n")
    assert main(["lattice", str(same)]) == 0
    assert got == capsys.readouterr().out


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
    monkeypatch.setattr(grasstrata.strata, "lattice_isomorphic",
                        lambda L1, L2: False)
    out = tmp_path / "report.json"
    args = ["verify", data("braid3.txt"), "--k", "2", "--samples", "20",
            "--include-flats", "--seed", "3", "-o", str(out)]
    assert main(args) == 2
    report = json.loads(out.read_text())
    assert report["verdicts"]["passed"] is False
    assert False in report["verdicts"]["classification"].values()
    assert report["witnesses"]
    assert {w["type"] for w in report["witnesses"]} == {"non_isomorphic_restriction"}


def test_verify_braid6_k3_passes(tmp_path):
    # random 3-subspaces restrict braid n = 6 to lattices of 76 to 82
    # elements, which lattice isomorphism compares without a size cap
    path = write_arrangement(tmp_path / "braid6", 6, braid_rows(6))
    out = tmp_path / "report.json"
    assert main(["verify", path, "--k", "3", "--samples", "5",
                 "-o", str(out)]) == 0
    assert json.loads(out.read_text())["verdicts"]["passed"] is True


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
    assert (_json_text(payload)
            == json.dumps(payload, indent=2, sort_keys=True))


@pytest.mark.parametrize("payload", [
    1.5, float("nan"), {1, 2}, frozenset(), b"bytes", object(), {1: 2},
    {"a": 1, None: 2}, {"a": [0.5]}, [[{"b": {3}}]]])
def test_json_writer_rejects_what_it_cannot_write(payload):
    with pytest.raises(TypeError):
        _json_text(payload)


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
