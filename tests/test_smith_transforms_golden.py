"""Smith decompositions of seeded random matrices with few units, pinned
against ``tests/smith_transforms_golden.json``.

The corpus's boundary matrices are mostly ±1, so their reductions rarely
swap a remainder into the pivot or fold a row in to fix divisibility.
These inputs are: 2–7 rows by 2–7 columns, entries in -4..4, about half
of them zero.  The pivot order fixes D, U, U^-1, V and V^-1 exactly, so
any change to how the reduction stores or applies its operations must
leave every one of them as it is.  ``snapshot`` gives the current values
in the file's shape.
"""

import json
import random
from pathlib import Path

import pytest

from ctlhom import snf
from ctlhom.snf import IntMatrix, smith_normal_form

GOLDEN = json.loads((Path(__file__).parent / "smith_transforms_golden.json").read_text())

SEEDS = range(40)
FIELDS = ("diagonal", "u", "u_inv", "v", "v_inv")
# the first pivot leaves a remainder in its row or column, which the reduction
# swaps up into the pivot before it clears the rest
REMAINDER_SWAP = 4
# a pivot that does not divide a later entry: that row is folded into the
# pivot row and the pivot cleared again
DIVISIBILITY_FIXUP = 0


def seeded(seed: int) -> IntMatrix:
    rng = random.Random(seed)
    rows, cols = rng.randint(2, 7), rng.randint(2, 7)
    return IntMatrix(rows, cols, [[rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
                                   if rng.random() < 0.5 else 0 for _ in range(cols)]
                                  for _ in range(rows)])


def decomposition(m: IntMatrix) -> dict:
    dec = smith_normal_form(m)
    return {"shape": [m.rows, m.cols], "matrix": [list(r) for r in m.data],
            **{f: [list(r) for r in getattr(dec, f).data] for f in FIELDS}}


def snapshot() -> dict:
    return {f"seed {seed}": decomposition(seeded(seed)) for seed in SEEDS}


@pytest.mark.parametrize("seed", SEEDS)
def test_decomposition_is_pinned(seed):
    case = GOLDEN[f"seed {seed}"]
    m = seeded(seed)
    assert [m.rows, m.cols] == case["shape"] and [list(r) for r in m.data] == case["matrix"]
    dec = smith_normal_form(m)
    assert dec.verify()
    for field in FIELDS:
        assert [list(r) for r in getattr(dec, field).data] == case[field], field


def test_the_seeds_cover_a_remainder_swap():
    """The least entry, first in row-major order, is the first pivot; an
    entry of its row or column that it does not divide leaves a remainder."""
    rows = seeded(REMAINDER_SWAP).data
    v, i, j = min((abs(x), i, j) for i, r in enumerate(rows) for j, x in enumerate(r) if x)
    line = [r[j] for r in rows] + list(rows[i])
    assert any(x % v for x in line)


def test_the_seeds_cover_a_divisibility_fixup(monkeypatch):
    offenders = []
    real = snf._divisibility_offender
    monkeypatch.setattr(snf, "_divisibility_offender",
                        lambda w, t: offenders.append(real(w, t)) or offenders[-1])
    smith_normal_form(seeded(DIVISIBILITY_FIXUP))
    assert any(i is not None for i in offenders)


def test_the_golden_has_every_seed():
    assert sorted(GOLDEN) == sorted(f"seed {seed}" for seed in SEEDS)
