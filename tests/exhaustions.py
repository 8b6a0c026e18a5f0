"""Exhaustions the tests build that the corpus does not register."""

from ctlhom.sset import Attachment, Cell, Exhaustion, FiniteSimplicialSet, Simplex


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
