"""What a process loads: ``import ctlhom`` loads no submodule, only the
commands that use the controlled-set layer (``ctlset``, ``laws``) load it,
no command loads the map layer (``maps``), and a map name loads neither the
engine (``chainalg``, ``snf``) nor the controlled-set layer.  Each check
runs in a fresh interpreter, since other tests load everything.  Which
module reads a complex's tables, and where the boundary's sign rule is
written, is checked on the source."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ctlhom
from test_public_api import PUBLIC_NAMES

SRC = str(Path(ctlhom.__file__).resolve().parents[1])

_PRELUDE = """\
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
def layer():
    return sorted(n for n in ("ctlhom.ctlset", "ctlhom.laws", "ctlhom.maps") if n in sys.modules)
def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)
"""


def _fresh(script: str, *args: str):
    """Run ``script`` after the prelude in a new interpreter and return the
    JSON it prints last."""
    out = subprocess.run([sys.executable, "-c", _PRELUDE + script, SRC, *args],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_an_engine_process_never_loads_the_controlled_set_layer(tmp_path):
    from ctlhom.corpus import infinite_star, save_space

    star = tmp_path / "star.json"
    save_space(infinite_star(), str(star))
    steps = _fresh("""
steps = []
import ctlhom
steps.append(["import ctlhom", None, layer()])
import ctlhom.chainalg
steps.append(["import ctlhom.chainalg", None, layer()])
import ctlhom.cli as cli
steps.append(["import ctlhom.cli", None, layer()])
for argv in (["homology", "torus", "--json"], ["check", "torus", "--json"],
             ["pairing", "line", "--degree", "1", "--json"], ["homology", "infinite_star"],
             ["homology", sys.argv[2]], ["laws", "--json"]):
    steps.append([" ".join(argv[:2]), run(argv), layer()])
print(json.dumps(steps))
""", str(star))
    assert steps == [
        ["import ctlhom", None, []],
        ["import ctlhom.chainalg", None, []],
        ["import ctlhom.cli", None, []],
        ["homology torus", 0, []],
        ["check torus", 0, []],
        ["pairing line", 0, []],
        ["homology infinite_star", 3, []],
        ["homology " + str(star), 3, []],
        ["laws --json", 0, ["ctlhom.ctlset", "ctlhom.laws"]],
    ]


def test_a_map_name_loads_the_map_layer_and_not_the_controlled_set_layer():
    loaded = _fresh("""
import ctlhom
ctlhom.is_proper_map
print(json.dumps(layer()))
""")
    assert loaded == ["ctlhom.maps"]


@pytest.mark.parametrize("name", ["is_proper_map", "SlabRule"])
def test_a_map_name_loads_only_the_simplicial_layer_and_the_map_layer(name):
    """The engine is loaded when a map first needs homology, not before."""
    loaded = _fresh("""
import ctlhom
getattr(ctlhom, sys.argv[2])
steps = [sorted(n for n in sys.modules if n.startswith("ctlhom"))]
from ctlhom.corpus import circle
from ctlhom.maps import identity_simplicial_map, induced_on_homology
steps.append("ctlhom.chainalg" in sys.modules)
induced_on_homology(identity_simplicial_map(circle()), 1)
steps.append("ctlhom.chainalg" in sys.modules)
print(json.dumps(steps))
""", name)
    assert loaded == [["ctlhom", "ctlhom.delta", "ctlhom.maps", "ctlhom.sset"], False, True]


_TABLES = {"_faces", "_grown", "_boundary_columns", "_slab_lookup", "_position", "_resolved",
           "_walks"}


def test_only_sset_reads_a_complex_s_tables_or_its_copy_names():
    """How a complex stores its faces and columns, and how a slab copy is
    named, are read through ``sset``'s methods everywhere else."""
    reads = []
    for path in sorted(Path(ctlhom.__file__).parent.glob("*.py")):
        if path.name == "sset.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in _TABLES:
                reads.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr":
                named = {a.value for a in node.args if isinstance(a, ast.Constant)} & _TABLES
                reads += [f"{path.name}:{node.lineno} getattr {a}" for a in sorted(named)]
            elif isinstance(node, ast.ImportFrom) and "_COPY_ID" in {a.name for a in node.names}:
                reads.append(f"{path.name}:{node.lineno} import _COPY_ID")
    assert reads == []


def _is_face_sign(node) -> bool:
    """``-1 if i % 2 else 1``, the alternating sign of face i."""
    return isinstance(node, ast.IfExp) and bool(
        re.fullmatch(r"-1 if \w+ % 2 else 1", ast.unparse(node)))


def test_the_face_sign_lives_in_the_engine_the_reference_and_the_adjoint_side():
    """The engine's columns (``sset._column``) carry the boundary's sign
    rule, and chains read them; the unnormalized reference boundary and the
    coboundary, which the adjointness test checks the columns against,
    keep their own copies on purpose."""
    sites = []
    for path in sorted(Path(ctlhom.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef):
                sites += [f"{path.stem}.{fn.name}" for node in ast.walk(fn) if _is_face_sign(node)]
    assert sites == ["chainalg.unnormalized_boundary_matrix", "maps.coboundary", "sset._column"]


def test_every_public_name_is_the_object_of_its_home_module():
    """Read first-hand: each name is the one its defining module holds, and
    the two names that differ from their home's are pinned by hand."""
    wrong = _fresh("""
import importlib, ctlhom
wrong = []
for name in ctlhom.__all__:
    value = getattr(ctlhom, name)
    if name in ("chainalg", "corpus", "ctlset", "delta", "snf", "sset"):
        ok = value is importlib.import_module("ctlhom." + name)
    elif name == "compose_controlled":
        ok = value is ctlhom.ctlset.compose
    else:
        home = value.__module__
        ok = home.startswith("ctlhom.") and getattr(sys.modules[home], name) is value
    if not ok:
        wrong.append(name)
if ctlhom.compose is not ctlhom.delta.compose:
    wrong.append("compose")
print(json.dumps(wrong))
""")
    assert wrong == []


def test_star_import_binds_exactly_the_pinned_names():
    names = _fresh("""
namespace = {}
exec("from ctlhom import *", namespace)
print(json.dumps(sorted(n for n in namespace if n != "__builtins__")))
""")
    assert names == PUBLIC_NAMES
    assert sorted(ctlhom.__all__) == PUBLIC_NAMES


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ctlhom.no_such_name
