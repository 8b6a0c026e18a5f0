"""The built-in spaces, the fixture maps between them, and space files.

Finite spaces are classical small triangulations (boundary of a simplex,
the 7-vertex torus, the 6-vertex projective plane); the infinite ones are
periodic exhaustions: a ray and a line built from segments, a plane built
from square annuli around a disk, and a bi-infinite cylinder.  Two
deliberately bad presentations are included for exercising failure paths:
``balloon_ray`` (new 1-cycles forever, so Borel–Moore homology never
stabilizes) and ``infinite_star`` (every segment attaches at the same
vertex, so the space is not locally finite).
"""

from __future__ import annotations

import json
import os
import re
from itertools import combinations

from .sset import (
    Attachment,
    Cell,
    Exhaustion,
    FiniteSimplicialSet,
    PresentationError,
    Simplex,
    facet_complex,
    standard_simplex,
)


class UnknownSpaceError(ValueError):
    pass


class SpaceFormatError(ValueError):
    """A space file that does not parse or fails structural validation."""


# --------------------------------------------------------------------------
# finite builders

def point() -> FiniteSimplicialSet:
    return FiniteSimplicialSet({0: ["pt"]}, {}, name="point")


def circle() -> FiniteSimplicialSet:
    """One vertex, one loop edge."""
    v = Simplex((), Cell(0, "v"))
    return FiniteSimplicialSet(
        {0: ["v"], 1: ["e"]},
        {(1, "e"): (v, v)},
        name="circle",
    )


def sphere(n: int) -> FiniteSimplicialSet:
    """The boundary of the (n+1)-simplex."""
    if n < 0:
        raise UnknownSpaceError("sphere dimension must be non-negative")
    facets = combinations(range(n + 2), n + 1)
    return facet_complex(facets, name=f"sphere({n})")


def torus() -> FiniteSimplicialSet:
    """The 7-vertex triangulation of the torus (a triangulated K7)."""
    facets = []
    for i in range(7):
        facets.append((i, (i + 1) % 7, (i + 3) % 7))
        facets.append((i, (i + 2) % 7, (i + 3) % 7))
    return facet_complex(facets, name="torus")


def rp2() -> FiniteSimplicialSet:
    """The 6-vertex triangulation of the real projective plane."""
    facets = [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
    ]
    return facet_complex(facets, name="rp2")


def _ring4() -> FiniteSimplicialSet:
    """A circle as a square: four vertices, four edges."""
    cells = {0: [f"r{k}" for k in range(4)], 1: [f"er{k}" for k in range(4)]}
    faces = {}
    for k in range(4):
        faces[(1, f"er{k}")] = (
            Simplex((), Cell(0, f"r{(k + 1) % 4}")),
            Simplex((), Cell(0, f"r{k}")),
        )
    return FiniteSimplicialSet(cells, faces, name="ring4")


def _disk() -> FiniteSimplicialSet:
    """A cone on the square ring: center c, spokes, four triangles."""
    cells = {
        0: ["c"] + [f"r{k}" for k in range(4)],
        1: [f"er{k}" for k in range(4)] + [f"sp{k}" for k in range(4)],
        2: [f"tri{k}" for k in range(4)],
    }
    faces = {}
    v = lambda name: Simplex((), Cell(0, name))
    e = lambda name: Simplex((), Cell(1, name))
    for k in range(4):
        nxt = (k + 1) % 4
        faces[(1, f"er{k}")] = (v(f"r{nxt}"), v(f"r{k}"))
        faces[(1, f"sp{k}")] = (v(f"r{k}"), v("c"))
        # triangle (c, r_k, r_{k+1})
        faces[(2, f"tri{k}")] = (e(f"er{k}"), e(f"sp{nxt}"), e(f"sp{k}"))
    return FiniteSimplicialSet(cells, faces, name="disk")


def _annulus() -> FiniteSimplicialSet:
    """A square annulus: inner ring a*, outer ring b*, eight triangles.

    Triangles come in parallel pairs across each diagonal d_k from a_k to
    b_{k+1}, so a collapse of the annulus onto a ring sends every triangle
    to a degeneracy of a ring edge.
    """
    cells = {
        0: [f"a{k}" for k in range(4)] + [f"b{k}" for k in range(4)],
        1: (
            [f"ea{k}" for k in range(4)] + [f"eb{k}" for k in range(4)]
            + [f"v{k}" for k in range(4)] + [f"d{k}" for k in range(4)]
        ),
        2: [f"ta{k}" for k in range(4)] + [f"tb{k}" for k in range(4)],
    }
    faces = {}
    v = lambda name: Simplex((), Cell(0, name))
    e = lambda name: Simplex((), Cell(1, name))
    for k in range(4):
        nxt = (k + 1) % 4
        faces[(1, f"ea{k}")] = (v(f"a{nxt}"), v(f"a{k}"))
        faces[(1, f"eb{k}")] = (v(f"b{nxt}"), v(f"b{k}"))
        faces[(1, f"v{k}")] = (v(f"b{k}"), v(f"a{k}"))
        faces[(1, f"d{k}")] = (v(f"b{nxt}"), v(f"a{k}"))
        # ta_k = (a_k, a_{k+1}, b_{k+1}), tb_k = (a_k, b_k, b_{k+1})
        faces[(2, f"ta{k}")] = (e(f"v{nxt}"), e(f"d{k}"), e(f"ea{k}"))
        faces[(2, f"tb{k}")] = (e(f"eb{k}"), e(f"d{k}"), e(f"v{k}"))
    return FiniteSimplicialSet(cells, faces, name="annulus")


# --------------------------------------------------------------------------
# exhaustion builders

def _segment_slab() -> FiniteSimplicialSet:
    return FiniteSimplicialSet(
        {0: ["pin", "pout"], 1: ["seg"]},
        {(1, "seg"): (Simplex((), Cell(0, "pout")), Simplex((), Cell(0, "pin")))},
        name="segment",
    )


_SEGMENT_ATTACHMENT = Attachment(
    base_ids=("o",), slab_in_ids=("pin",), slab_out_ids=("pout",)
)

_RING_IDS = tuple([f"r{k}" for k in range(4)] + [f"er{k}" for k in range(4)])
_ANNULUS_IN = tuple([f"a{k}" for k in range(4)] + [f"ea{k}" for k in range(4)])
_ANNULUS_OUT = tuple([f"b{k}" for k in range(4)] + [f"eb{k}" for k in range(4)])


def ray() -> Exhaustion:
    """A half line: segments marching away from the origin."""
    base = FiniteSimplicialSet({0: ["o"]}, {}, name="origin")
    return Exhaustion(base, _segment_slab(), [_SEGMENT_ATTACHMENT], name="ray")


def line() -> Exhaustion:
    """The full line: segments marching away from the origin on both sides."""
    base = FiniteSimplicialSet({0: ["o"]}, {}, name="origin")
    return Exhaustion(
        base, _segment_slab(),
        [_SEGMENT_ATTACHMENT, _SEGMENT_ATTACHMENT],
        name="line",
    )


def plane() -> Exhaustion:
    """The plane: a disk with square annuli growing outward."""
    return Exhaustion(
        _disk(), _annulus(),
        [Attachment(base_ids=_RING_IDS, slab_in_ids=_ANNULUS_IN,
                    slab_out_ids=_ANNULUS_OUT)],
        name="plane",
    )


def cylinder() -> Exhaustion:
    """A bi-infinite cylinder: a ring with annuli growing both ways."""
    att = Attachment(base_ids=_RING_IDS, slab_in_ids=_ANNULUS_IN,
                     slab_out_ids=_ANNULUS_OUT)
    return Exhaustion(_ring4(), _annulus(), [att, att], name="cylinder")


def balloon_ray() -> Exhaustion:
    """A ray with a loop tied on at every joint.

    Each stage contributes a fresh 1-cycle, so the Borel–Moore system (and
    the ordinary one) keeps growing: the canonical non-stabilizing example.
    """
    base = FiniteSimplicialSet({0: ["o"]}, {}, name="origin")
    pin = Simplex((), Cell(0, "pin"))
    pout = Simplex((), Cell(0, "pout"))
    slab = FiniteSimplicialSet(
        {0: ["pin", "pout"], 1: ["seg", "loop"]},
        {(1, "seg"): (pout, pin), (1, "loop"): (pout, pout)},
        name="balloon-segment",
    )
    return Exhaustion(base, slab, [_SEGMENT_ATTACHMENT], name="balloon_ray")


def infinite_star() -> Exhaustion:
    """Infinitely many spokes out of one vertex: not locally finite.

    The slab's out-boundary equals its in-boundary, so every copy attaches
    at the same vertex and its star grows forever.
    """
    base = FiniteSimplicialSet({0: ["o"]}, {}, name="origin")
    slab = FiniteSimplicialSet(
        {0: ["pin", "tip"], 1: ["spoke"]},
        {(1, "spoke"): (Simplex((), Cell(0, "tip")), Simplex((), Cell(0, "pin")))},
        name="spoke-segment",
    )
    return Exhaustion(
        base, slab,
        [Attachment(base_ids=("o",), slab_in_ids=("pin",), slab_out_ids=("pin",))],
        name="infinite_star",
    )


# --------------------------------------------------------------------------
# registry

SPACES = {
    "point": (point, "a single vertex"),
    "circle": (circle, "one vertex, one loop edge"),
    "torus": (torus, "the 7-vertex torus"),
    "rp2": (rp2, "the 6-vertex projective plane"),
    "ray": (ray, "half line (exhaustion)"),
    "line": (line, "the line (exhaustion)"),
    "plane": (plane, "the plane as growing annuli (exhaustion)"),
    "cylinder": (cylinder, "bi-infinite cylinder (exhaustion)"),
}

PARAMETRIC = {
    "delta": (standard_simplex, "delta(n): the standard n-simplex"),
    "sphere": (sphere, "sphere(n): the boundary of the (n+1)-simplex"),
}

_PARAM_RE = re.compile(r"^([a-z]+)\((\d+)\)$")


def space_names() -> list[str]:
    return sorted(SPACES) + [f"{k}(n)" for k in sorted(PARAMETRIC)]


def build(name: str):
    """Build a registered space: a fixed name like ``torus`` or a
    parametrized one like ``sphere(2)``."""
    key = name.strip().lower()
    if key in SPACES:
        return SPACES[key][0]()
    m = _PARAM_RE.match(key)
    if m and m.group(1) in PARAMETRIC:
        return PARAMETRIC[m.group(1)][0](int(m.group(2)))
    raise UnknownSpaceError(
        f"unknown space {name!r}; available: {', '.join(space_names())}"
    )


# --------------------------------------------------------------------------
# fixture maps

def fold_line_to_ray():
    """Fold the line onto the ray, as a ``maps.PeriodicMap``: both halves
    march outward together."""
    from .maps import PeriodicMap, SlabRule

    src = line()
    tgt = ray()
    slab_cells = {c: Simplex((), c) for c in src.slab.all_cells()}
    return PeriodicMap(
        src, tgt,
        base_map={Cell(0, "o"): Simplex((), Cell(0, "o"))},
        slab_rules=[
            SlabRule(target_attachment=0, cell_map=slab_cells),
            SlabRule(target_attachment=0, cell_map=slab_cells),
        ],
        name="fold",
    )


def cylinder_projection():
    """Collapse the cylinder onto its core ring, as a ``maps.PeriodicMap``.

    Every annulus maps onto the ring: verticals become degenerate edges and
    triangles become degeneracies of ring edges.  The fibers over the ring
    grow with every stage, so this map is not proper.
    """
    from .maps import PeriodicMap, SlabRule

    src = cylinder()
    tgt = _ring4()
    v = lambda k: Simplex((), Cell(0, f"r{k % 4}"))
    e = lambda k: Simplex((), Cell(1, f"er{k % 4}"))
    cell_map = {}
    for k in range(4):
        cell_map[Cell(0, f"a{k}")] = v(k)
        cell_map[Cell(0, f"b{k}")] = v(k)
        cell_map[Cell(1, f"ea{k}")] = e(k)
        cell_map[Cell(1, f"eb{k}")] = e(k)
        cell_map[Cell(1, f"d{k}")] = e(k)
        cell_map[Cell(1, f"v{k}")] = Simplex((0,), Cell(0, f"r{k}"))
        cell_map[Cell(2, f"ta{k}")] = Simplex((1,), Cell(1, f"er{k}"))
        cell_map[Cell(2, f"tb{k}")] = Simplex((0,), Cell(1, f"er{k}"))
    base_map = {}
    for k in range(4):
        base_map[Cell(0, f"r{k}")] = v(k)
        base_map[Cell(1, f"er{k}")] = e(k)
    rule = SlabRule(target_attachment=None, cell_map=cell_map)
    return PeriodicMap(src, tgt, base_map, [rule, rule], name="collapse")


def identity_on(space_name: str):
    from .maps import identity_periodic_map, identity_simplicial_map

    space = build(space_name)
    if isinstance(space, Exhaustion):
        return identity_periodic_map(space)
    return identity_simplicial_map(space)


FIXTURES = {
    "balloon_ray": (balloon_ray, "ray with a loop at every joint (never stabilizes)"),
    "infinite_star": (infinite_star, "all segments at one vertex (not locally finite)"),
}


# --------------------------------------------------------------------------
# space files

FORMAT_NAME = "ctlhom-space"
SCHEMA_VERSION = 1


def _cells_to_json(X: FiniteSimplicialSet) -> list:
    out = []
    for n in sorted(X.dims()):
        for cell in X.cells(n):
            entry = {"dim": n, "id": cell.id}
            if n > 0:
                entry["faces"] = [
                    {"word": list(X.face(cell, i).word), "core": X.face(cell, i).core.id}
                    for i in range(n + 1)
                ]
            out.append(entry)
    return out


def _is_int(x) -> bool:
    """A JSON integer: ``true`` and ``false`` load as bools, which Python
    counts as ints."""
    return isinstance(x, int) and not isinstance(x, bool)


def _name(payload: dict, where: str):
    name = payload.get("name")
    if name is not None and not isinstance(name, str):
        raise SpaceFormatError(f"{where}: name must be a string, not {name!r}")
    return name


def _cells_from_json(payload, where: str) -> FiniteSimplicialSet:
    if not isinstance(payload, dict) or not isinstance(payload.get("cells"), list):
        raise SpaceFormatError(f"{where}: expected an object with a 'cells' list")
    cells = {}
    face_specs = {}
    for k, entry in enumerate(payload["cells"]):
        if not isinstance(entry, dict):
            raise SpaceFormatError(f"{where}: cell #{k} is not an object")
        dim = entry.get("dim")
        cid = entry.get("id")
        if not _is_int(dim) or dim < 0:
            raise SpaceFormatError(f"{where}: cell #{k} has bad dimension {dim!r}")
        if not isinstance(cid, str) or not cid:
            raise SpaceFormatError(f"{where}: cell #{k} has bad id {cid!r}")
        cells.setdefault(dim, []).append(cid)
        if dim > 0:
            fs = entry.get("faces")
            if not isinstance(fs, list) or len(fs) != dim + 1:
                raise SpaceFormatError(
                    f"{where}: {dim}-cell {cid!r} needs a list of {dim + 1} faces"
                )
            face_specs[(dim, cid)] = fs
        elif "faces" in entry:
            raise SpaceFormatError(f"{where}: 0-cell {cid!r} cannot have faces")
    known = {dim: set(ids) for dim, ids in cells.items()}
    faces = {}
    for (dim, cid), fs in face_specs.items():
        parsed = []
        for i, f in enumerate(fs):
            if not isinstance(f, dict):
                raise SpaceFormatError(f"{where}: face {i} of {cid!r} is not an object")
            word = f.get("word", [])
            core = f.get("core")
            if not isinstance(word, list) or not all(_is_int(w) for w in word):
                raise SpaceFormatError(f"{where}: face {i} of {cid!r} has a bad word")
            core_dim = dim - 1 - len(word)
            if core_dim < 0:
                raise SpaceFormatError(
                    f"{where}: face {i} of {cid!r} has a word longer than its dimension"
                )
            if not isinstance(core, str) or core not in known.get(core_dim, ()):
                raise SpaceFormatError(
                    f"{where}: face {i} of {cid!r} references unknown {core_dim}-cell {core!r}"
                )
            try:
                parsed.append(Simplex(tuple(word), Cell(core_dim, core)))
            except Exception as exc:
                raise SpaceFormatError(f"{where}: face {i} of {cid!r}: {exc}") from exc
        faces[(dim, cid)] = tuple(parsed)
    try:
        return FiniteSimplicialSet(cells, faces, name=_name(payload, where))
    except PresentationError as exc:
        raise SpaceFormatError(f"{where}: {exc}") from exc


def space_to_json(space) -> dict:
    doc = {
        "format": FORMAT_NAME,
        "schema_version": SCHEMA_VERSION,
    }
    if isinstance(space, FiniteSimplicialSet):
        doc["kind"] = "finite"
        if space.name:
            doc["name"] = space.name
        doc["cells"] = _cells_to_json(space)
        return doc
    if isinstance(space, Exhaustion):
        doc["kind"] = "exhaustion"
        if space.name:
            doc["name"] = space.name
        doc["base"] = {"cells": _cells_to_json(space.base)}
        doc["slab"] = {"cells": _cells_to_json(space.slab)}
        doc["attachments"] = [
            {
                "base": list(att.base_ids),
                "slab_in": list(att.slab_in_ids),
                "slab_out": list(att.slab_out_ids),
            }
            for att in space.attachments
        ]
        return doc
    raise SpaceFormatError(f"cannot serialize {type(space).__name__}")


def space_from_json(doc):
    if not isinstance(doc, dict):
        raise SpaceFormatError("top level must be an object")
    if doc.get("format") != FORMAT_NAME:
        raise SpaceFormatError(
            f"not a {FORMAT_NAME} file (format={doc.get('format')!r})"
        )
    version = doc.get("schema_version")
    if not _is_int(version) or version != SCHEMA_VERSION:
        raise SpaceFormatError(f"unsupported schema_version {version!r}")
    kind = doc.get("kind")
    name = _name(doc, "space")
    if kind == "finite":
        return _cells_from_json(doc, "finite space")
    if kind == "exhaustion":
        base = _cells_from_json(doc.get("base"), "base")
        slab = _cells_from_json(doc.get("slab"), "slab")
        atts = doc.get("attachments")
        if not isinstance(atts, list) or not atts:
            raise SpaceFormatError("an exhaustion needs a nonempty attachments list")
        parsed = []
        for k, att in enumerate(atts):
            if not isinstance(att, dict):
                raise SpaceFormatError(f"attachment #{k} is not an object")
            for key in ("base", "slab_in", "slab_out"):
                ids = att.get(key)
                if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
                    raise SpaceFormatError(
                        f"attachment #{k}: {key!r} must be a list of cell ids"
                    )
            try:
                parsed.append(Attachment(att["base"], att["slab_in"], att["slab_out"]))
            except PresentationError as exc:
                raise SpaceFormatError(f"attachment #{k}: {exc}") from exc
        try:
            return Exhaustion(base, slab, parsed, name=name)
        except PresentationError as exc:
            raise SpaceFormatError(str(exc)) from exc
    raise SpaceFormatError(f"unknown kind {kind!r} (expected finite or exhaustion)")


def save_space(space, path: str):
    """Write a space file atomically (write to a sibling temp file, then
    rename over the target)."""
    import tempfile

    doc = space_to_json(space)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_space(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise SpaceFormatError(f"{path}: not valid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise SpaceFormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except RecursionError as exc:
        raise SpaceFormatError(f"{path}: JSON nested too deeply") from exc
    except OSError as exc:
        raise SpaceFormatError(f"{path}: {exc.strerror}") from exc
    return space_from_json(doc)


def resolve_space(name_or_path: str):
    """A registered space name, or a path to a space file."""
    try:
        return build(name_or_path)
    except UnknownSpaceError:
        if os.path.exists(name_or_path) or name_or_path.endswith(".json"):
            return load_space(name_or_path)
        raise
