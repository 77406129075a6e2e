"""The package namespace resolves its names lazily, each command loads
only the modules it runs, and the bench tracer finds every name it binds."""

import importlib
import json
import os
import re
import subprocess
import sys

import pytest

import grasstrata

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

# every public name of the package, by defining module
EXPORTS = {
    "arrangement": [
        "Arrangement", "Flat", "IntersectionLattice",
        "SelfCheckFailed", "build_arrangement", "center", "format_arrangement",
        "intersection_lattice", "is_essential", "load_arrangement",
        "load_subspace", "maximal_chains", "parse_arrangement",
        "parse_subspace", "restriction"],
    "exactlin": [
        "Subspace", "canonical_subspace", "det", "full_space", "kernel",
        "matrix", "maximal_minors", "minor", "orth_complement", "project",
        "span", "subspace_sum", "zero_subspace"],
    "matroid": [
        "Matroid", "RankedLattice", "lattice_isomorphic", "loops",
        "matroid_from", "restriction_lattice"],
    "pluecker": [
        "AdjointHyperplane", "PlueckerVector", "adjoint_hyperplane",
        "defect_subspace", "eval_adjoint", "k_adjoint", "k_subsets",
        "pluecker_vector"],
    "sampling": ["sample_subspace", "structured_subspaces"],
    "strata": [
        "adjoint_label", "encode_labels", "label_encodings", "labels", "matroid_label",
        "schubert_label", "verify_equivalence",
        "verify_restriction_classification"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


def run_python(script, *flags):
    """Run script in a fresh interpreter on the package source; its stdout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, *flags, "-c", script], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_names_resolve_to_their_definitions():
    for module, names in EXPORTS.items():
        defined = importlib.import_module(f"grasstrata.{module}")
        for name in names:
            ns = {}
            exec(f"from grasstrata import {name}", ns)
            assert ns[name] is getattr(defined, name), name


def test_all_star_import_and_dir_list_every_name():
    assert sorted(grasstrata.__all__) == NAMES
    ns = {}
    exec("from grasstrata import *", ns)
    assert set(NAMES) <= set(ns)
    assert set(NAMES) <= set(dir(grasstrata))
    assert grasstrata.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        grasstrata.no_such_name


def test_names_load_only_their_module():
    script = ("import sys, grasstrata; "
              "print(sorted(m for m in sys.modules if m.startswith('grasstrata.'))); "
              "from grasstrata import span; "
              "print(sorted(m for m in sys.modules if m.startswith('grasstrata.')))")
    assert run_python(script, "-S").splitlines() == [
        "[]", "['grasstrata.exactlin']"]


def test_readme_library_snippet_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    library = readme[readme.index("## Library"):]
    snippet = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    lines = run_python(snippet).splitlines()
    assert len(lines) == 3 and lines[1:] == ["True", "2"]


# grasstrata.* modules a command loads: arguments, then modules beyond
# arrangement, cli and exactlin, which parsing needs
FOOTPRINT = {
    "lattice": (["data/braid3.txt"], []),
    "restrict": (["data/braid3.txt", "--subspace", "data/line_e1.txt"], []),
    "adjoint": (["data/braid3.txt", "--k", "1"], ["pluecker"]),
    "label": (["data/braid3.txt", "--k", "1", "--subspace", "data/line_e1.txt"],
              ["matroid", "pluecker", "strata"]),
    "verify": (["data/braid3.txt", "--k", "1", "--samples", "3"],
               ["matroid", "pluecker", "sampling", "strata"]),
}


@pytest.mark.parametrize("command", FOOTPRINT)
def test_command_loads_only_its_modules(command):
    args, extra = FOOTPRINT[command]
    script = ("import os, sys; from grasstrata.cli import main; "
              f"print(main({[command] + args!r} + ['-o', os.devnull]), "
              "sorted(m for m in sys.modules if m.startswith('grasstrata.')))")
    modules = sorted(f"grasstrata.{m}" for m in ["arrangement", "cli", "exactlin"] + extra)
    assert run_python(script, "-S").strip() == f"0 {modules}"


def test_bench_tracer_binds_every_name(tmp_path):
    # bench/trace.py wraps package functions by name and reads their caches;
    # a deleted or renamed one fails here, not first in a benchmark run
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        wanted = {m["name"] for m in json.load(fh)["per_layer"]}
    wanted -= {"trace.wall_s", "trace.overhead_s"}  # bench/run.py adds these
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "trace.py"),
         str(tmp_path / "trace.json"), "verify", "data/braid3.txt", "--k", "1",
         "--samples", "2", "-o", str(tmp_path / "report.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exit"] == 0
    assert wanted <= set(result["metrics"])
