"""Random one- or two-edit mutations of saved space files, run through the
CLI in-process: every command exits 0, 3 or 4, and no exception escapes.
Seeded, so a failure names a mutation that reproduces."""

import copy
import json
import random

import pytest

from ctlhom import cli
from ctlhom.corpus import build, space_to_json

SPACES = ("torus", "ray", "cylinder", "plane")
COMMANDS = (["check"], ["homology"], ["bm-homology"], ["cohomology-c"],
            ["pairing", "--degree", "1"])
MUTATIONS = 150  # per space
ATOMS = (None, True, False, 0, 1, -1, 7, 2.5, "", "x", "0", "pin", [], {}, [0], {"id": "x"})


def _slots(doc):
    """Every (container, key) pair in the document, nested ones included."""
    for key in list(doc) if isinstance(doc, dict) else range(len(doc)):
        yield doc, key
        if isinstance(doc[key], (dict, list)):
            yield from _slots(doc[key])


def _mutate(doc, rng):
    """One edit at a random place: delete the entry, put an atom or a copy
    of another value of the document in its place, or repeat a list entry."""
    slots = list(_slots(doc))
    container, key = rng.choice(slots)
    op = rng.choice(("delete", "atom", "copy", "repeat"))
    if op == "delete":
        del container[key]
    elif op == "copy":
        other, k = rng.choice(slots)
        container[key] = copy.deepcopy(other[k])
    elif op == "repeat" and isinstance(container, list):
        container.insert(key, copy.deepcopy(container[key]))
    else:  # an atom, also in place of repeating a dict entry
        container[key] = copy.deepcopy(rng.choice(ATOMS))


@pytest.mark.parametrize("space", SPACES)
def test_mutated_space_files_exit_cleanly(space, tmp_path, capsys):
    rng = random.Random(f"loader-fuzz-{space}")
    original = space_to_json(build(space))
    path = tmp_path / f"{space}.json"
    codes = []
    for m in range(MUTATIONS):
        doc = copy.deepcopy(original)
        for _ in range(rng.choice((1, 2))):
            _mutate(doc, rng)
        path.write_text(json.dumps(doc))
        for command in COMMANDS:
            try:
                code = cli.main([command[0], str(path), *command[1:]])
            except BaseException as exc:
                raise AssertionError(f"mutation {m} of {space}, {command}: {exc!r}") from exc
            capsys.readouterr()
            assert code in (0, 3, 4), f"mutation {m} of {space}, {command}: exit {code}"
            codes.append(code)
    assert {0, 3} <= set(codes)  # mutations both pass and reach the loader's refusals
