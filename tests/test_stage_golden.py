"""Exhaustion stages and periodic level maps, pinned against
``tests/stage_golden.json``.

A stage's cell order, face assignments, frontier and translations are what
every boundary matrix, transition and level map is read from, so a change to
how stages are built must leave all of them as they are.  ``snapshot`` gives
the current values in the file's shape.
"""

import json
import tracemalloc
from pathlib import Path

import pytest

from ctlhom.corpus import (
    balloon_ray,
    cylinder,
    cylinder_projection,
    fold_line_to_ray,
    infinite_star,
    line,
    plane,
    ray,
)
from ctlhom.sset import Cell, SimplicialError
from exhaustions import relay

GOLDEN = json.loads((Path(__file__).parent / "stage_golden.json").read_text())

SPACES = {"ray": ray, "line": line, "plane": plane, "cylinder": cylinder,
          "balloon_ray": balloon_ray, "relay": relay, "infinite_star": infinite_star}
MAPS = {"fold_line_to_ray": fold_line_to_ray, "cylinder_projection": cylinder_projection}
DEPTHS = range(9)
LEVELS = range(6)


def _cell(c) -> str:
    return f"{c.dim}:{c.id}"


def _simplex(x) -> list:
    return [list(x.word), _cell(x.core)]


def _frontier_chains(space, depth: int) -> list:
    """Where copy depth+1 attaches, per chain: the base boundary at depth 0,
    else copy depth's out-boundary."""
    if depth == 0:
        return [list(g.base) for g in space.gluings]
    return [[space._translation(a, depth)[c] for c in g.out] for a, g in enumerate(space.gluings)]


def stage(space, depth: int) -> dict:
    t = space.truncate(depth)
    K = t.complex
    return {
        "name": K.name,
        "cells": {str(n): [c.id for c in K.cells(n)] for n in K.dims()},
        "faces": {_cell(c): [_simplex(K.face(c, i)) for i in range(c.dim + 1)]
                  for n in K.dims() if n > 0 for c in K.cells(n)},
        "frontier_chains": [[_cell(c) for c in chain] for chain in _frontier_chains(space, depth)],
        "frontier": [_cell(c) for c in t.frontier],
        "translations": {f"{a} {c}": [[_cell(s), _cell(x)] for s, x in space._translation(a, c).items()]
                         for c in range(1, depth + 1) for a in range(len(space.gluings))},
    }


def level(f, depth: int) -> dict:
    m = f.level_map(depth)
    return {"name": m.name, "source": m.source.name, "target": m.target.name,
            "mapping": [[_cell(c), _simplex(x)] for c, x in m.mapping.items()]}


def snapshot() -> dict:
    stages = {}
    for name, build in SPACES.items():
        space = build()
        for depth in DEPTHS:
            stages[f"{name} {depth}"] = stage(space, depth)
    levels = {}
    for name, build in MAPS.items():
        f = build()
        for depth in LEVELS:
            levels[f"{name} {depth}"] = level(f, depth)
    return {"stages": stages, "levels": levels}


@pytest.mark.parametrize("name", sorted(SPACES))
def test_stages_are_pinned(name):
    space = SPACES[name]()
    # deepest first, so that the shallower stages come out of the cache
    for depth in reversed(DEPTHS):
        assert stage(space, depth) == GOLDEN["stages"][f"{name} {depth}"]


@pytest.mark.parametrize("name", sorted(MAPS))
def test_level_maps_are_pinned(name):
    f = MAPS[name]()
    for depth in LEVELS:
        assert level(f, depth) == GOLDEN["levels"][f"{name} {depth}"]


def test_deep_stages_build_without_recursion():
    assert len(ray().truncate(1100).complex.cells(0)) == 1101


def test_deep_stages_share_one_complex():
    """Stages are prefixes of one growing complex, so memory grows with the
    cells, not with the square of the depth (copying stages peaked near
    80 MiB here)."""
    tracemalloc.start()
    try:
        ray().truncate(1100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_shallow_stages_refuse_later_cells():
    space = ray()
    shallow = space.truncate(1).complex
    later = Cell(1, "a0c3.seg")
    assert not space.truncate(2).complex.has_cell(later)
    assert space.truncate(3).complex.has_cell(later)
    assert not shallow.has_cell(later)
    assert not shallow.has_cell(Cell(0, "a0c3.pout"))
    for read in (lambda: shallow.face(later, 0), lambda: shallow.vertices_of(later),
                 lambda: shallow.simplex(later)):
        with pytest.raises(SimplicialError, match="unknown cell"):
            read()
    assert [c.id for c in shallow.cells(1)] == ["a0c1.seg"]
    assert shallow.cell_count() == 3
