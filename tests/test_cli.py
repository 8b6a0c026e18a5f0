import json
import os
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest depends on tomli there
    import tomli as tomllib

from ctlhom import cli, laws
from ctlhom.corpus import balloon_ray, build, infinite_star, save_space
from ctlhom.ctlset import ControlError
from ctlhom.laws import LawResult
from exhaustions import long_tail

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "output-schema.json").read_text())
VALIDATOR = Draft202012Validator(SCHEMA)
PAIRING_GOLDEN = json.loads((ROOT / "tests" / "pairing_golden.json").read_text())


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out + captured.err


def run_json(capsys, *argv):
    code = cli.main([*argv, "--json"])
    doc = json.loads(capsys.readouterr().out)
    VALIDATOR.validate(doc)
    return code, doc


# ------------------------------------------------------------------ success

def test_spaces_lists_the_registry(capsys):
    code, doc = run_json(capsys, "spaces")
    assert code == 0
    names = {e["name"] for e in doc["spaces"]}
    assert {"torus", "line", "ray", "sphere(n)"} <= names


@pytest.mark.parametrize("command,degree,expected", [
    ("homology", "1", {"free_rank": 2, "torsion": []}),
    ("bm-homology", "2", {"free_rank": 1, "torsion": []}),
    ("cohomology", "2", {"free_rank": 1, "torsion": []}),
    ("cohomology-c", "0", {"free_rank": 1, "torsion": []}),
])
def test_theories_on_the_torus(capsys, command, degree, expected):
    code, doc = run_json(capsys, command, "torus")
    assert code == 0
    g = doc["groups"][degree]
    assert {"free_rank": g["free_rank"], "torsion": g["torsion"]} == expected
    assert doc["stabilization"] is None


def test_bm_homology_of_the_line(capsys):
    code, doc = run_json(capsys, "bm-homology", "line")
    assert code == 0
    assert doc["groups"]["0"]["free_rank"] == 0
    assert doc["groups"]["1"]["free_rank"] == 1
    assert doc["stabilization"]["stabilized_at"] == {"0": 0, "1": 1}


def test_coefficient_flag(capsys):
    code, doc = run_json(capsys, "homology", "rp2", "--coeff", "z/2")
    assert code == 0
    assert doc["coefficients"] == "Z/2"
    assert doc["groups"]["1"] == {"free_rank": 1, "torsion": [], "pretty": "Z/2"}


def test_human_output_mentions_the_groups(capsys):
    code, out = run(capsys, "homology", "torus")
    assert code == 0
    assert "degree 1: Z^2" in out


def test_check_reports_star_sizes(capsys):
    code, doc = run_json(capsys, "check", "line")
    assert code == 0
    assert doc["locally_finite"] is True
    assert doc["max_star"] == 3


def test_pairing_line(capsys):
    code, doc = run_json(capsys, "pairing", "line", "--degree", "1")
    assert code == 0
    assert doc["matrix"] in ([[1]], [[-1]])


@pytest.mark.parametrize("case", sorted(PAIRING_GOLDEN))
def test_pairing_documents_are_pinned(capsys, case):
    """A pairing matrix is written in the generators each presentation
    picks, so it follows the Smith reduction's pivot order (the torus gives
    [[0, -1], [1, 1]] in degree 1): the documents must not drift."""
    space, degree = case.rsplit("/", 1)
    code = cli.main(["pairing", space, "--degree", degree, "--json"])
    assert code == 0
    expected = json.dumps(PAIRING_GOLDEN[case], sort_keys=True, indent=2) + "\n"
    assert capsys.readouterr().out == expected


def test_laws_pass(capsys):
    code, doc = run_json(capsys, "laws", "--max-carrier", "2")
    assert code == 0
    assert doc["ok"] is True
    assert len(doc["results"]) == 9


def test_space_file_argument(capsys, tmp_path):
    path = tmp_path / "t.json"
    save_space(build("torus"), str(path))
    code, doc = run_json(capsys, "homology", str(path))
    assert code == 0
    assert doc["groups"]["2"]["free_rank"] == 1


def test_json_output_is_byte_identical(capsys):
    _, first = run(capsys, "homology", "torus", "--json")
    _, second = run(capsys, "homology", "torus", "--json")
    assert first == second


# -------------------------------------------------------------- exit codes

def test_unknown_space_is_a_validation_error(capsys):
    assert run(capsys, "homology", "atlantis")[0] == 3


def test_bad_coefficients_are_a_usage_error(capsys):
    assert run(capsys, "homology", "torus", "--coeff", "z/x")[0] == 2


@pytest.mark.parametrize("modulus", ["²", "7" * 5000], ids=["superscript", "5000-digits"])
def test_modulus_that_int_cannot_read_is_a_usage_error(capsys, modulus):
    # both pass str.isdigit; int() refuses them
    code, out = run(capsys, "homology", "torus", "--coeff", f"z/{modulus}")
    assert code == 2
    assert out.startswith("error: bad modulus in ")


@pytest.mark.parametrize("bound", ["-1", "4", "9"])
def test_bad_max_carrier_is_a_usage_error(capsys, bound):
    assert laws.MAX_CARRIER == 3
    assert run(capsys, "laws", "--max-carrier", bound) == (
        2, "error: --max-carrier must be between 0 and 3\n")


@pytest.mark.parametrize("argv,flag", [
    (["homology", "line", "--window", "0"], "--window"),
    (["pairing", "line", "--degree", "1", "--window", "0"], "--window"),
    (["pairing", "torus", "--degree=-1"], "--degree"),
    (["bm-homology", "line", "--max-depth", "0"], "--max-depth"),
    (["pairing", "line", "--degree", "1", "--max-depth", "0"], "--max-depth"),
    (["homology", "line", "--max-dim=-1"], "--max-dim"),
])
def test_out_of_range_flags_are_usage_errors(capsys, argv, flag):
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {flag} must be at least")


def _outcome(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repeated_calls_match_fresh_calls(capsys, monkeypatch):
    """main builds its parser once per process; a call after others gives
    the exit code and bytes of a call on a freshly built parser."""
    built = []
    real = cli.build_parser

    def counting_build_parser():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._shared_parser.cache_clear()
    calls = [
        ["homology", "cylinder", "--window", "5", "--json"],
        ["homology", "cylinder", "--json"],
        ["homology", "cylinder", "--window", "five"],
        ["cohomology-c", "line", "--json"],
    ]
    in_sequence = [_outcome(capsys, argv) for argv in calls]
    assert len(built) == 1
    fresh = []
    for argv in calls:
        cli._shared_parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert len(built) == 1 + len(calls)
    assert in_sequence == fresh
    windows = [json.loads(out)["stabilization"]["window"] for _, out, _ in in_sequence[:2]]
    assert windows == [5, 3]
    assert in_sequence[2][0] == 2 and "invalid int value" in in_sequence[2][2]
    assert in_sequence[3][0] == 0


def test_non_stabilization_exit(capsys, tmp_path):
    path = tmp_path / "balloon.json"
    save_space(balloon_ray(), str(path))
    code, out = run(capsys, "bm-homology", str(path))
    assert code == 4
    assert "did not stabilize" in out


def test_homology_under_zmod_presents_only_the_asked_degrees(capsys, tmp_path):
    """H_0(;Z/2) reads H_0 and H_{-1} alone, so the balloon ray's H_1, which
    never stabilizes, must not be probed; homology-kind documents carry no
    stabilization depth above --max-dim."""
    path = tmp_path / "balloon.json"
    save_space(balloon_ray(), str(path))
    code, doc = run_json(capsys, "homology", str(path), "--max-dim", "0", "--coeff", "z/2")
    assert code == 0
    assert doc["groups"]["0"]["pretty"] == "Z/2"
    assert doc["stabilization"]["stabilized_at"] == {"0": 0}
    for command in ("homology", "bm-homology"):
        code, doc = run_json(capsys, command, "line", "--coeff", "z/2")
        assert code == 0
        assert sorted(doc["stabilization"]["stabilized_at"]) == ["0", "1"]


def test_local_finiteness_failure_exit(capsys, tmp_path):
    path = tmp_path / "star.json"
    save_space(infinite_star(), str(path))
    code, doc = run_json(capsys, "check", str(path))
    assert code == 3
    assert doc["locally_finite"] is False
    assert run(capsys, "homology", str(path))[0] == 3


def test_long_walks_are_answered(capsys, tmp_path):
    """Every star of the long tail is finite, though a base vertex gains
    cells two copies after it is glued on."""
    path = tmp_path / "tail.json"
    save_space(long_tail(), str(path))
    code, doc = run_json(capsys, "check", str(path))
    assert code == 0 and doc["locally_finite"] is True
    code, doc = run_json(capsys, "homology", str(path))
    assert code == 0
    assert doc["groups"]["0"]["pretty"] == "Z^2"


def test_malformed_space_file_exit(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}')
    assert run(capsys, "homology", str(path))[0] == 3


@pytest.mark.parametrize("content,message", [
    (b'{"format": "ctlhom-space", "name": "\xff"}', "not UTF-8 text"),
    (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply"),
], ids=["not-utf8", "deeply-nested"])
def test_unreadable_space_file_exit(capsys, tmp_path, content, message):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    code, out = run(capsys, "homology", str(path))
    assert code == 3
    assert message in out


def test_space_file_with_a_non_string_name_exit(capsys, tmp_path):
    path = tmp_path / "named.json"
    save_space(build("torus"), str(path))
    doc = json.loads(path.read_text())
    doc["name"] = 5
    path.write_text(json.dumps(doc))
    for command in ("homology", "check"):
        code, out = run(capsys, command, str(path), "--json")
        assert code == 3
        assert "name must be a string" in out


def test_space_file_with_a_base_id_a_copy_would_take_exit(capsys, tmp_path):
    path = tmp_path / "clash.json"
    save_space(build("ray"), str(path))
    doc = json.loads(path.read_text())
    doc["base"]["cells"].append({"dim": 0, "id": "a0c2.pout"})
    path.write_text(json.dumps(doc))
    for command in ("homology", "check"):
        code, out = run(capsys, command, str(path))
        assert code == 3
        assert "base cell id 'a0c2.pout' is taken by copy 2 of slab cell 'pout'" in out


def test_law_failure_exit(capsys, monkeypatch):
    broken = LawResult(name="always-wrong", ok=False, cases=1,
                       counterexample="the one case")
    monkeypatch.setattr(laws, "run_all", lambda mc: [broken])
    code, out = run(capsys, "laws")
    assert code == 5
    assert "always-wrong" in out


def test_a_control_error_exits_3(capsys, monkeypatch):
    def refuse(args):
        raise ControlError("no such controlled map")

    monkeypatch.setattr(cli, "_cmd_theory", refuse)
    code = cli.main(["homology", "circle"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: no such controlled map\n"


def test_closed_stdout_exits_quietly():
    """A reader that closes the pipe before the output is written (as
    `head` may) gets exit 1 and no traceback."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with subprocess.Popen(
            [sys.executable, "-m", "ctlhom.cli", "spaces", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == ""


def test_env_var_caps_the_depth(capsys, monkeypatch):
    monkeypatch.setenv("CTLHOM_MAX_DEPTH", "2")
    assert run(capsys, "bm-homology", "line")[0] == 4
    monkeypatch.setenv("CTLHOM_MAX_DEPTH", "banana")
    assert run(capsys, "bm-homology", "line")[0] == 2
    monkeypatch.setenv("CTLHOM_MAX_DEPTH", "0")
    assert run(capsys, "bm-homology", "line") == (2, "error: CTLHOM_MAX_DEPTH must be at least 1\n")


def test_explicit_depth_beats_the_env(capsys, monkeypatch):
    monkeypatch.setenv("CTLHOM_MAX_DEPTH", "2")
    code, _ = run(capsys, "bm-homology", "line", "--max-depth", "8")
    assert code == 0


# --------------------------------------------------------- console script

def test_console_script_is_installed(tmp_path):
    """The `ctlhom` command declared in pyproject.toml runs from source.

    The launcher an installer would generate for the declared entry point
    is written to a fresh bin directory and run by name, against the same
    source tree this test imported; building and installing the package
    is left to pip.
    """
    with open(ROOT / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["ctlhom"]
    entry = EntryPoint(name="ctlhom", value=target, group="console_scripts")
    assert entry.load() is cli.main

    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "ctlhom"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {entry.module} import {entry.attr}\n"
        f"sys.exit({entry.attr}())\n"
    )
    launcher.chmod(0o755)

    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join(filter(None, [str(bin_dir), env.get("PATH")]))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(["ctlhom", "spaces", "--json"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
    VALIDATOR.validate(json.loads(out.stdout))


def test_module_entry_point_matches():
    out = subprocess.run(
        [sys.executable, "-m", "ctlhom.cli", "homology", "circle", "--json"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    VALIDATOR.validate(doc)
    assert doc["groups"]["1"]["pretty"] == "Z"
