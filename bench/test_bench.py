"""Tests of the benchmark's own code: python3 -m pytest -q bench"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
from grasstrata import build_arrangement, format_arrangement, parse_arrangement  # noqa: E402
from grasstrata.cli import main  # noqa: E402
from workloads import WORKLOADS, arrangement_text, boolean, braid  # noqa: E402


def _data(name: str) -> str:
    with open(os.path.join(ROOT, "data", name), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("generated, path", [(braid(3), "braid3.txt"), (boolean(4), "boolean4.txt")])
def test_generators_match_data_files(generated, path):
    want = format_arrangement(parse_arrangement(_data(path)))
    assert format_arrangement(build_arrangement(*generated)) == want
    assert format_arrangement(parse_arrangement(arrangement_text(*generated))) == want


def test_oracle_flat_counts():
    # braid(n) has the Bell number of flats, boolean(n) has 2^n
    assert [len(gate.flats(braid(n)[1])) for n in (3, 4, 5)] == [5, 15, 52]
    assert [len(gate.flats(boolean(n)[1])) for n in (3, 6)] == [8, 64]


@pytest.fixture(scope="module")
def braid3_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify") / "report.json"
    code = main(["verify", os.path.join(ROOT, "data", "braid3.txt"), "--k", "2",
                 "--samples", "30", "--bound", "1", "--include-flats", "-o", str(out)])
    assert code == 0
    return json.loads(out.read_text())


def test_gate_accepts_a_real_report(braid3_report):
    normals = braid(3)[1]
    assert gate.report_problems(braid3_report, 2) == []
    assert gate.oracle_problems(braid3_report, normals, gate.flats(normals)) == []
    assert len(braid3_report["partitions"]["matroid"]) > 1


def test_gate_rejects_tampered_reports(braid3_report):
    normals = braid(3)[1]
    merged = json.loads(json.dumps(braid3_report))
    blocks = merged["partitions"]["schubert"]
    merged["partitions"]["schubert"] = [blocks[0] + blocks[1]] + blocks[2:]
    assert gate.oracle_problems(merged, normals, gate.flats(normals)) == [
        "schubert partition differs from the oracle's"]
    assert gate.digest(merged) != gate.digest(braid3_report)

    skipped = json.loads(json.dumps(braid3_report))
    skipped["witnesses"].append({"type": "guard_skipped"})
    assert gate.report_problems(skipped, 2) == ["1 guard_skipped witnesses"]


def test_verify_args_carry_the_seed_and_jobs():
    args = WORKLOADS["braid5-k3-jobs2"].verify_args("a.txt", 7, jobs=1)
    assert args[:2] == ["verify", "a.txt"]
    assert args[args.index("--seed") + 1] == "7"
    assert args[args.index("--jobs") + 1] == "1"
