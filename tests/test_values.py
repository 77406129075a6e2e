"""The package's immutable value types: construction, immutability, equality
over the compared fields only, hashing, pickling and constructor checks.
Also that importing the command line loads none of dataclasses, inspect and
typing, which cost a fresh process about 20 ms between them, and that
running lattice and verify on integer files loads neither fractions nor
the decimal module it imports.  CASES must list every value type the
package defines."""

import importlib
import os
import pickle
import pkgutil
import subprocess
import sys

import pytest

import grasstrata
from grasstrata.arrangement import (
    Arrangement,
    Flat,
    IntersectionLattice,
    build_arrangement,
    intersection_lattice,
)
from grasstrata.exactlin import Subspace, Value, full_space, matrix, span
from grasstrata.matroid import Matroid, RankedLattice
from grasstrata.pluecker import AdjointHyperplane, PlueckerVector

# braid n = 3 and three lines in the plane: both lattices have the flats
# bottom, three atoms and top, so one rank vector fits both
BRAID3 = intersection_lattice(build_arrangement(3, [(1, -1, 0), (1, 0, -1), (0, 1, -1)]))
LINES = intersection_lattice(build_arrangement(2, [(1, 0), (0, 1), (1, 1)]))
LINE = span([[1, 1, 1]], 3)
FLAT = BRAID3.flats[1]


# (type, fields in signature order, one compared field changed,
#  fields outside equality changed); the names only label the values
CASES = [
    (Subspace, {"ambient_dim": 3, "basis": LINE.basis},
     {"basis": span([[1, 0, 0]], 3).basis}, {}),
    (Arrangement, {"ambient_dim": 2, "normals": ((1, 0), (0, 1))},
     {"normals": ((1, 0),)}, {}),
    (Flat, {"subspace": LINE, "rank": 2, "generators": frozenset({1, 2, 3})},
     {"rank": 1}, {}),
    (IntersectionLattice, {"ambient_dim": 3, "flats": BRAID3.flats,
                           "covers": BRAID3.covers, "gens": BRAID3.gens,
                           "cover_groups": BRAID3.cover_groups},
     {"covers": BRAID3.covers[1:]}, {"gens": (), "cover_groups": ()}),
    (Matroid, {"lattice": BRAID3, "ranks": (0, 1, 1, 1, 2)},
     {"ranks": (0, 1, 1, 1, 1)}, {"lattice": LINES}),
    (RankedLattice, {"ranks": (0, 1), "atoms": (0, 1)},
     {"ranks": (0, 2)}, {}),
    (PlueckerVector, {"n": 3, "k": 1, "coords": (1, 1, 1), "divisor": 1},
     {"n": 4}, {"divisor": 2}),
    (AdjointHyperplane, {"source": FLAT, "coeffs": (1, -1, 0), "divisor": -1},
     {"coeffs": (1, 0, -1)}, {"divisor": 3}),
]


@pytest.mark.parametrize("cls, fields, changed, ignored", CASES,
                         ids=[c[0].__name__ for c in CASES])
def test_value_type(cls, fields, changed, ignored):
    # fields go by position only: a keyword raises TypeError
    value = cls(*fields.values())
    twin = cls(*fields.values())
    for name, field in fields.items():
        assert getattr(value, name) is field
    with pytest.raises(TypeError):
        cls(**fields)
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(value, name, fields[name])
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) is fields[name]
    # merging keeps the signature order of fields
    other = cls(*{**fields, **changed}.values())
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is cls and copy.__dict__ == value.__dict__
    assert value == twin and hash(value) == hash(twin)
    assert other != value and value != tuple(fields.values())
    assert cls(*{**fields, **ignored}.values()) == value
    assert hash(cls(*{**fields, **ignored}.values())) == hash(value)
    assert copy == value and hash(copy) == hash(value)
    assert len({value, twin, copy, other}) == 2


def test_cases_cover_every_value_type():
    for module in pkgutil.iter_modules(grasstrata.__path__):
        importlib.import_module(f"grasstrata.{module.name}")
    found, todo = set(), [Value]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("grasstrata."):
                found.add(sub)
    assert {c[0] for c in CASES} == found
    assert len(CASES) == len(found)


def test_value_type_checks():
    # the one constructor: every field and extra, by position
    for args in [(3, 1, (1, 1, 1)),  # divisor missing
                 (3, 1, (1, 1, 1), 1, 0)]:  # one too many
        with pytest.raises(TypeError, match="PlueckerVector takes n, k, coords, divisor"):
            PlueckerVector(*args)
    with pytest.raises(TypeError, match="Flat takes subspace, rank, generators"):
        Flat(LINE, 2)
    with pytest.raises(TypeError):  # even with the rest by position
        Flat(LINE, 2, generators=frozenset({1, 2, 3}))
    with pytest.raises(ValueError):
        matrix(((1, 2), (3,)), 2)  # row length
    with pytest.raises(ValueError):
        Subspace(-1, ())
    with pytest.raises(ValueError):
        Subspace(2, full_space(3).basis)  # basis width
    with pytest.raises(ValueError):
        Matroid(BRAID3, (0, 1, 1, 1))  # one rank per flat
    with pytest.raises(ValueError):
        Matroid(BRAID3, (0, 1, 1, 1, 3))  # and the rank axioms
    with pytest.raises(ValueError, match="one atom set per rank"):
        RankedLattice((0, 1), (0, 1, 2))
    with pytest.raises(ValueError, match="same atom set"):
        RankedLattice((0, 1, 1, 2), (0, 1, 1, 1))
    with pytest.raises(ValueError, match="singleton"):
        RankedLattice((0, 1, 2), (0, 1, 3))  # bit 1 is no atom
    with pytest.raises(ValueError, match="empty atom set"):
        RankedLattice((1, 1), (1, 2))  # no bottom


def test_cli_import_loads_no_dataclasses_inspect_or_typing(tmp_path):
    # nor the modules that only some commands run
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    absent = {"dataclasses", "inspect", "typing", "hashlib", "_hashlib", "json",
              "grasstrata.matroid", "grasstrata.pluecker", "grasstrata.sampling",
              "grasstrata.strata"}
    script = f"import sys, grasstrata.cli; print(sorted({absent!r} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # integer files never reach fractions (which imports decimal); a
    # rational entry does, through the parser's lazy branch.  No command
    # loads hashlib, OpenSSL's _hashlib or json, nor argparse and what it
    # imports: re, gettext with locale, and shutil with the compressors
    braid5 = os.path.join(os.path.dirname(__file__), os.pardir, "data", "braid5.txt")
    plane = tmp_path / "plane.txt"
    plane.write_text("5 2\n1 0 0 0 0\n0 1 1 0 0\n")
    twin = tmp_path / "braid3.txt"
    twin.write_text("3\n1/2 -0.5 0\n1 0 -1e0\n0 1 -1\n")
    script = (
        "import os, sys\n"
        "from grasstrata.cli import main\n"
        "out = ['-o', os.devnull]\n"
        f"codes = [main(['lattice', {braid5!r}] + out),\n"
        f"         main(['label', {braid5!r}, '--k', '2', '--subspace',\n"
        f"               {str(plane)!r}] + out),\n"
        f"         main(['verify', {braid5!r}, '--k', '2', '--samples', '3',\n"
        "               '--include-flats'] + out)]\n"
        "print(codes, sorted({'fractions', 'decimal', 'hashlib', '_hashlib',\n"
        "                     'json', 'argparse', 'gettext', 'locale', 're',\n"
        "                     'shutil', 'zlib', 'bz2', 'lzma'} & set(sys.modules)))\n"
        f"print(main(['lattice', {str(twin)!r}] + out), 'fractions' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[0, 0, 0] []", "0 True"]
