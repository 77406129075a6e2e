import hashlib
import itertools
import json
import os
import subprocess
import sys

import pytest

import grasstrata.arrangement
import grasstrata.matroid
import grasstrata.sampling
import grasstrata.strata
from grasstrata.arrangement import maximal_chains
from grasstrata.cli import (
    arrangement_digest,
    main,
    parse_subspace,
)
from grasstrata.arrangement import load_arrangement, parse_arrangement
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
                assert S == canonical_subspace(S.basis), (arr, k)


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


def test_label_refuses_too_many_chains(monkeypatch, capsys):
    # label lists the chains behind its jumps; lattice only counts them
    monkeypatch.setattr(grasstrata.arrangement, "MAX_CHAINS", 2)
    maximal_chains.cache_clear()
    assert main(["label", data("braid3.txt"), "--k", "1", "--subspace",
                 data("line_e1.txt")]) == 1
    assert "more than 2 maximal chains" in capsys.readouterr().err
    assert main(["lattice", data("braid3.txt")]) == 0
    assert json.loads(capsys.readouterr().out)["chain_count"] == 3


def test_lattice_counts_beyond_max_chains(tmp_path, capsys):
    # 10! maximal chains in 1024 flats: counted over covers, never listed
    p = tmp_path / "boolean10.txt"
    p.write_text("10\n" + "".join(" ".join(str(int(i == j)) for j in range(10))
                                  + "\n" for i in range(10)))
    assert main(["lattice", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["flats"]) == 1024
    assert out["chain_count"] == 3628800 > grasstrata.arrangement.MAX_CHAINS


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
    assert labels["matroid"]["bases"] == [[1], [2]]
    assert labels["matroid"]["loops"] == [3]
    assert sorted(labels["schubert"]["jumps"]) == [[1], [2], [2]]


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
    # 17 planes in general position, more than matroid.MAX_GROUND
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
        "5b80dc2accea7c10e62745bae6382c0880f9ca431f0271280ed692eee9aa1892",
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


def test_digest_stable():
    arr = load_arrangement(data("braid3.txt"))
    assert arrangement_digest(arr) == arrangement_digest(arr)
    other = load_arrangement(data("boolean3.txt"))
    assert arrangement_digest(arr) != arrangement_digest(other)
