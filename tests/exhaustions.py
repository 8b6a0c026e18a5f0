"""Exhaustions and periodic maps the tests build that the corpus does not
register, and strategies that draw random ones and random facet lists."""

from hypothesis import strategies as st

from ctlhom.corpus import infinite_star, ray
from ctlhom.maps import PeriodicMap, SlabRule, identity_periodic_map
from ctlhom.sset import Attachment, Cell, Exhaustion, FiniteSimplicialSet, Simplex, facet_complex


def _v(name) -> Simplex:
    return Simplex((), Cell(0, name))


def relay() -> Exhaustion:
    """Every stage has H_1 = Z, but each transition sends the open loop
    into a filled one (the benchmark's relay exhaustion)."""
    o = Simplex((), Cell(0, "o"))
    pin = Simplex((), Cell(0, "pin"))
    pout = Simplex((), Cell(0, "pout"))
    flat = Simplex((0,), Cell(0, "pin"))
    base = FiniteSimplicialSet({0: ["o"], 1: ["l0"]}, {(1, "l0"): (o, o)},
                               name="relay-base")
    slab = FiniteSimplicialSet(
        {0: ["pin", "pout"], 1: ["lin", "lout", "seg"], 2: ["fill"]},
        {
            (1, "lin"): (pin, pin),
            (1, "lout"): (pout, pout),
            (1, "seg"): (pout, pin),
            (2, "fill"): (flat, Simplex((), Cell(1, "lin")), flat),
        },
        name="relay-slab",
    )
    attachment = Attachment(base_ids=("o", "l0"), slab_in_ids=("pin", "lin"),
                            slab_out_ids=("pout", "lout"))
    return Exhaustion(base, slab, [attachment], name="relay")


def long_tail() -> Exhaustion:
    """Each copy glues in at (p, q) and out at (q, r), so a vertex is glued
    into two copies after its own: b1 gains the edge qr in copy 1 and ps in
    copy 2, and then no more.  Every star is finite."""
    base = FiniteSimplicialSet({0: ["b0", "b1"]}, {}, name="long-tail-base")
    slab = FiniteSimplicialSet(
        {0: ["p", "q", "r", "s"], 1: ["ps", "qr"]},
        {(1, "ps"): (_v("s"), _v("p")), (1, "qr"): (_v("r"), _v("q"))},
        name="long-tail-slab",
    )
    attachment = Attachment(base_ids=("b0", "b1"), slab_in_ids=("p", "q"),
                            slab_out_ids=("q", "r"))
    return Exhaustion(base, slab, [attachment], name="long_tail")


def bead_string() -> Exhaustion:
    """Every copy glues in and out at the base vertex o and adds a bead, an
    edge away from it: o is in every copy, yet every star is finite."""
    base = FiniteSimplicialSet({0: ["o"]}, {}, name="origin")
    slab = FiniteSimplicialSet(
        {0: ["pin", "x", "y"], 1: ["bead"]},
        {(1, "bead"): (_v("y"), _v("x"))},
        name="bead-slab",
    )
    attachment = Attachment(base_ids=("o",), slab_in_ids=("pin",), slab_out_ids=("pin",))
    return Exhaustion(base, slab, [attachment], name="bead_string")


def lollipops() -> Exhaustion:
    """The relay with the out-loop filled instead of the in-loop: each copy
    adds a stick from the last loop and a filled loop at its end.  Relative
    to its frontier, the last loop, every stage has H_1 = Z, the base
    circle, which every projection keeps, and H_2 = Z, the last disc, which
    every projection sends to zero."""
    o = Simplex((), Cell(0, "o"))
    pin, pout = Simplex((), Cell(0, "pin")), Simplex((), Cell(0, "pout"))
    flat = Simplex((0,), Cell(0, "pout"))
    base = FiniteSimplicialSet({0: ["o"], 1: ["l0"]}, {(1, "l0"): (o, o)}, name="circle-base")
    slab = FiniteSimplicialSet(
        {0: ["pin", "pout"], 1: ["lin", "lout", "seg"], 2: ["fill"]},
        {(1, "lin"): (pin, pin), (1, "lout"): (pout, pout), (1, "seg"): (pout, pin),
         (2, "fill"): (flat, Simplex((), Cell(1, "lout")), flat)},
        name="lollipop-slab",
    )
    attachment = Attachment(base_ids=("o", "l0"), slab_in_ids=("pin", "lin"),
                            slab_out_ids=("pout", "lout"))
    return Exhaustion(base, slab, [attachment], name="lollipops")


def telescope() -> Exhaustion:
    """The mapping telescope of the degree-3 map of the circle: each copy
    joins the last loop to a new one that the triangles T1..T4 wind three
    times round it.  Every stage has H_1 = Z and H^1 = Z, and each
    inclusion multiplies H_1 by 3: the slab relative to its in-boundary has
    H_1 = Z/3, so H^2 = Z/3."""
    o, pin, pout = (Simplex((), Cell(0, v)) for v in ("o", "pin", "pout"))
    edge = {e: Simplex((), Cell(1, e)) for e in ("lin", "lout", "seg", "e1", "e2", "e3")}
    base = FiniteSimplicialSet({0: ["o"], 1: ["l0"]}, {(1, "l0"): (o, o)}, name="circle-base")
    slab = FiniteSimplicialSet(
        {0: ["pin", "pout"], 1: list(edge), 2: ["T1", "T2", "T3", "T4"]},
        {(1, "lin"): (pin, pin), (1, "lout"): (pout, pout),
         **{(1, e): (pout, pin) for e in ("seg", "e1", "e2", "e3")},
         # faces (d0, d1, d2): d1 is homotopic to d2 followed by d0
         (2, "T1"): (edge["seg"], edge["e1"], edge["lin"]),
         (2, "T2"): (edge["lout"], edge["e2"], edge["seg"]),
         (2, "T3"): (edge["lout"], edge["e3"], edge["e2"]),
         (2, "T4"): (edge["lout"], edge["e1"], edge["e3"])},
        name="telescope-slab",
    )
    attachment = Attachment(base_ids=("o", "l0"), slab_in_ids=("pin", "lin"),
                            slab_out_ids=("pout", "lout"))
    return Exhaustion(base, slab, [attachment], name="telescope")


def ray_onto_beads() -> PeriodicMap:
    """Not proper, into a locally finite target: copy c of the ray lands on
    the in-boundary vertex of copy c of ``bead_string``, which is o in every
    copy."""
    return PeriodicMap(
        ray(), bead_string(),
        base_map={Cell(0, "o"): _v("o")},
        slab_rules=[SlabRule(target_attachment=0, cell_map={
            Cell(0, "pin"): _v("pin"),
            Cell(0, "pout"): _v("pin"),
            Cell(1, "seg"): Simplex((0,), Cell(0, "pin")),
        })],
        name="onto-beads",
    )


def dots_into_tail() -> PeriodicMap:
    """Proper, with each copy landing a copy back: copy c of a row of dots
    (the ray without its edges) sends its new dot to the in-boundary vertex
    q of copy c of ``long_tail``, the vertex r that copy c - 1 glued on (b1
    for c = 1)."""
    dots = Exhaustion(
        FiniteSimplicialSet({0: ["o"]}, {}, name="origin"),
        FiniteSimplicialSet({0: ["pin", "pout"]}, {}, name="dot-slab"),
        [Attachment(base_ids=("o",), slab_in_ids=("pin",), slab_out_ids=("pout",))],
        name="dots",
    )
    return PeriodicMap(
        dots, long_tail(),
        base_map={Cell(0, "o"): _v("b0")},
        slab_rules=[SlabRule(target_attachment=0, cell_map={
            Cell(0, "pin"): _v("p"), Cell(0, "pout"): _v("q")})],
        name="dots-into-tail",
    )


def star_identity() -> PeriodicMap:
    """The identity of ``infinite_star``: proper, but its image family
    crowds the vertex o."""
    return identity_periodic_map(infinite_star())


def ray_beside_a_star() -> PeriodicMap:
    """Proper and controlled in a target that is not locally finite: the ray
    maps onto the ray-like chain 0 (in pin, out pout) of a target whose
    chain 1 is an infinite star (in = out = pin, a seg and a spoke at o per
    copy), so no image but o and the first seg meets the star of o."""
    base = FiniteSimplicialSet({0: ["o"]}, {}, name="origin")
    slab = FiniteSimplicialSet(
        {0: ["pin", "pout", "tip"], 1: ["seg", "spoke"]},
        {(1, "seg"): (_v("pout"), _v("pin")), (1, "spoke"): (_v("tip"), _v("pin"))},
        name="seg-and-spoke",
    )
    target = Exhaustion(base, slab, [
        Attachment(base_ids=("o",), slab_in_ids=("pin",), slab_out_ids=("pout",)),
        Attachment(base_ids=("o",), slab_in_ids=("pin",), slab_out_ids=("pin",)),
    ], name="ray_and_star")
    return PeriodicMap(
        ray(), target,
        base_map={Cell(0, "o"): _v("o")},
        slab_rules=[SlabRule(target_attachment=0, cell_map={
            Cell(0, "pin"): _v("pin"), Cell(0, "pout"): _v("pout"),
            Cell(1, "seg"): Simplex((), Cell(1, "seg"))})],
        name="ray-beside-a-star",
    )


@st.composite
def gluings(draw):
    """A random slab on at most five vertices, glued along one or two
    chains of at most four vertices each onto a discrete base."""
    slab_vertices = [str(v) for v in range(draw(st.integers(2, 5)))]
    facets = draw(st.lists(st.lists(st.sampled_from(slab_vertices), min_size=2, max_size=3,
                                    unique=True), max_size=4))
    slab = facet_complex(facets + [[v] for v in slab_vertices], name="slab")
    base_ids = [f"b{i}" for i in range(draw(st.integers(1, 4)))]
    base = FiniteSimplicialSet({0: base_ids}, {}, name="base")
    attachments = []
    for _ in range(draw(st.integers(1, 2))):
        size = draw(st.integers(0, min(4, len(base_ids), len(slab_vertices))))
        attachments.append(Attachment(
            base_ids=draw(st.permutations(base_ids))[:size],
            slab_in_ids=draw(st.permutations(slab_vertices))[:size],
            slab_out_ids=draw(st.permutations(slab_vertices))[:size],
        ))
    return Exhaustion(base, slab, attachments, name="random")


def facet_lists(labels=st.integers(0, 5)):
    """Up to five facets of one to four distinct labels each."""
    return st.lists(st.lists(labels, min_size=1, max_size=4, unique=True), max_size=5)
