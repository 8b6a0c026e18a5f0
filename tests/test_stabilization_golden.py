"""How the CLI reports a limit or colimit: the `--json` document, the exit
code and the refusal message of the four theory commands, pinned against
``tests/stabilization_golden.json``.

Each theory runs on the ray, line, plane and cylinder and on the relay and
``balloon_ray`` space files, at ``--window`` 1, 2, 3 and 6.  Where the
theory answers at the default depth, it also runs with ``--max-depth`` at
the depth that closes the window (the latest ``stabilized_at`` plus the
window) and one below it, where it must refuse.  Where it refuses, it runs
at ``--max-depth`` equal to the window and one above.  A change to how
stabilization is decided must leave every one of these as it is.
``snapshot`` gives the current values in the file's shape.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from ctlhom import cli
from ctlhom.corpus import balloon_ray, save_space
from exhaustions import relay

GOLDEN_PATH = Path(__file__).parent / "stabilization_golden.json"

COMMANDS = ("homology", "bm-homology", "cohomology", "cohomology-c")
BUILT_IN = ("ray", "line", "plane", "cylinder")
FILES = {"relay": relay, "balloon_ray": balloon_ray}
WINDOWS = (1, 2, 3, 6)


def run(argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--json"])
    return {"exit": code, "json": json.loads(out.getvalue()) if out.getvalue() else None,
            "stderr": err.getvalue()}


def _space_args(directory: str) -> dict:
    args = {name: name for name in BUILT_IN}
    for name, make in FILES.items():
        path = str(Path(directory) / f"{name}.json")
        save_space(make(), path)
        args[name] = path
    return args


def _max_depths(command: str, space_arg: str, window: int) -> list:
    """The probed depths for one query, read from its run at the default
    depth: around the depth that closes the window when it answers, around
    the window when it refuses."""
    default = run([command, space_arg, "--window", str(window)])
    if default["exit"] == cli.EXIT_OK:
        stab = default["json"]["stabilization"]
        closing = max(stab["stabilized_at"].values()) + window
    else:
        closing = window + 1
    return [d for d in (closing - 1, closing) if d >= 1]


def queries(directory: str) -> dict:
    """Key -> argv (without ``--json``) for every pinned query."""
    out = {}
    for space, space_arg in _space_args(directory).items():
        for command in COMMANDS:
            for window in WINDOWS:
                base = [command, space_arg, "--window", str(window)]
                out[f"{command} {space} window={window}"] = base
                for depth in _max_depths(command, space_arg, window):
                    out[f"{command} {space} window={window} max-depth={depth}"] = \
                        base + ["--max-depth", str(depth)]
    return out


def snapshot() -> dict:
    with tempfile.TemporaryDirectory() as directory:
        return {key: run(argv) for key, argv in queries(directory).items()}


GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def space_args(tmp_path_factory):
    return _space_args(str(tmp_path_factory.mktemp("spaces")))


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_stabilization_reports_are_pinned(key, space_args):
    command, space, *flags = key.split()
    argv = [command, space_args[space]]
    for flag in flags:
        name, value = flag.split("=")
        argv += [f"--{name}", value]
    assert run(argv) == GOLDEN[key]
