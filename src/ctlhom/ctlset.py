"""Controlled sets: carriers with a family of "small" subsets, and the maps
that respect it.

A control structure on a carrier X is a family of subsets containing every
finite subset and closed under subsets and finite unions.  A map of controlled
sets must send controlled subsets to controlled subsets and be finite-to-one
over every controlled subset of its source.  Two canonical structures exist on
any carrier: the minimal one (exactly the finite subsets) and the maximal one
(all subsets); finitely generated structures are supported on finite carriers.

Infinite carriers are represented symbolically by a single countably infinite
carrier (the naturals) together with a closed catalogue of assignments —
constants and finitely patched shifts — for which both map conditions are
decidable in closed form.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import product


class ControlError(ValueError):
    """Domain errors: elements outside carriers, mismatched composition."""


class UnsupportedRepresentationError(ControlError):
    """A construction that the chosen finite presentations cannot express."""


# --------------------------------------------------------------------------
# carriers

FINITE = "finite"
NATURALS = "naturals"


@dataclass(frozen=True)
class Carrier:
    kind: str
    elements: tuple = ()

    def __post_init__(self):
        if self.kind not in (FINITE, NATURALS):
            raise ControlError(f"unknown carrier kind {self.kind!r}")
        object.__setattr__(self, "elements", tuple(self.elements))
        # the members of a finite carrier as a set, for membership tests in
        # C; not a field, so equality, hashing and repr read only the above
        members = None
        if self.kind == FINITE:
            members = frozenset(self.elements)
            if len(members) != len(self.elements):
                raise ControlError("carrier elements must be distinct")
        elif self.elements:
            raise ControlError("the naturals carrier takes no element list")
        object.__setattr__(self, "_members", members)

    @property
    def is_finite(self) -> bool:
        return self.kind == FINITE

    def __contains__(self, x) -> bool:
        members = self._members
        if members is not None:
            try:
                return x in members
            except TypeError:  # unhashable, so equal to no element
                return False
        return isinstance(x, int) and not isinstance(x, bool) and x >= 0

    def __repr__(self):
        if self.is_finite:
            return f"Carrier({list(self.elements)})"
        return "Carrier(naturals)"


def finite_carrier(elements) -> Carrier:
    return Carrier(FINITE, tuple(elements))


def naturals() -> Carrier:
    return Carrier(NATURALS)


# --------------------------------------------------------------------------
# subset descriptors

@dataclass(frozen=True)
class SubsetDescriptor:
    """A subset of a carrier: an explicit finite list, everything, or a tail
    {start, start+1, ...} of the naturals."""

    kind: str  # "list" | "all" | "tail"
    elements: tuple = ()
    start: int = 0

    def __post_init__(self):
        if self.kind not in ("list", "all", "tail"):
            raise ControlError(f"unknown subset descriptor kind {self.kind!r}")
        object.__setattr__(self, "elements", tuple(self.elements))

    def check_within(self, carrier: Carrier):
        if self.kind == "list":
            for x in self.elements:
                if x not in carrier:
                    raise ControlError(f"element {x!r} outside carrier")
        elif self.kind == "tail":
            if not carrier.is_finite and self.start < 0:
                raise ControlError("tail start must be non-negative")
            if carrier.is_finite:
                raise ControlError("tail descriptors only apply to the naturals")

    def is_finite_on(self, carrier: Carrier) -> bool:
        if self.kind == "list":
            return True
        if self.kind == "all":
            return carrier.is_finite
        return False  # a tail of the naturals


def finite_list(*elements) -> SubsetDescriptor:
    return SubsetDescriptor("list", tuple(elements))


ALL = SubsetDescriptor("all")


def cofinal_tail(start: int) -> SubsetDescriptor:
    return SubsetDescriptor("tail", start=start)


# --------------------------------------------------------------------------
# control structures and controlled sets

MIN = "min"
MAX = "max"
GENERATED = "generated"


@dataclass(frozen=True)
class ControlStructure:
    kind: str
    generators: tuple = ()  # tuple of frozensets, GENERATED only

    def __post_init__(self):
        if self.kind not in (MIN, MAX, GENERATED):
            raise ControlError(f"unknown control structure kind {self.kind!r}")
        gens = tuple(frozenset(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        if gens and self.kind != GENERATED:
            raise ControlError("only generated structures take generators")


@dataclass(frozen=True)
class ControlledSet:
    carrier: Carrier
    structure: ControlStructure

    def __post_init__(self):
        if self.structure.kind == GENERATED:
            if not self.carrier.is_finite:
                raise UnsupportedRepresentationError(
                    "generated structures are only representable on finite carriers"
                )
            for g in self.structure.generators:
                for x in g:
                    if x not in self.carrier:
                        raise ControlError(f"generator element {x!r} outside carrier")

    def __repr__(self):
        return f"ControlledSet({self.carrier!r}, {self.structure.kind})"


def min_ctl(carrier: Carrier) -> ControlledSet:
    """The minimal structure: exactly the finite subsets are controlled."""
    return ControlledSet(carrier, ControlStructure(MIN))


def max_ctl(carrier: Carrier) -> ControlledSet:
    """The maximal structure: every subset is controlled."""
    return ControlledSet(carrier, ControlStructure(MAX))


def generated_ctl(carrier: Carrier, generators) -> ControlledSet:
    return ControlledSet(carrier, ControlStructure(GENERATED, tuple(generators)))


def forget(X: ControlledSet) -> Carrier:
    return X.carrier


def same_controlled_sets(X: ControlledSet, Y: ControlledSet) -> bool:
    """Whether two presentations describe the same family of controlled subsets."""
    if X.carrier != Y.carrier:
        return False
    if X.carrier.is_finite:
        return True  # every structure on a finite carrier is the full power set
    return X.structure.kind == Y.structure.kind


def is_controlled(X: ControlledSet, S: SubsetDescriptor) -> bool:
    """Membership of the described subset in the control structure of X."""
    S.check_within(X.carrier)
    if X.carrier.is_finite:
        # Axiom: every finite subset is controlled, and on a finite carrier
        # every subset is finite, whatever the presentation.
        return True
    if X.structure.kind == MAX:
        return True
    # minimal structure on the naturals: precisely the finite subsets
    return S.is_finite_on(X.carrier)


# --------------------------------------------------------------------------
# structure validation

@dataclass
class StructureReport:
    ok: bool
    violations: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    controlled_family_size: int | None = None


def validate_structure(X: ControlledSet) -> StructureReport:
    """Check the three control-structure axioms, in closed form.

    On a finite carrier every subset is finite, so the first axiom alone
    makes every presentation the full power set, which satisfies the other
    two; on the naturals the Min/Max families satisfy the axioms by the
    argument recorded in the notes.
    """
    report = StructureReport(ok=True)
    if X.carrier.is_finite:
        report.controlled_family_size = 2 ** len(X.carrier.elements)
        if X.structure.kind == GENERATED:
            report.notes.append(
                "generated structure on a finite carrier collapses to the full "
                "power set (every subset is finite)"
            )
    elif X.structure.kind == MIN:
        report.notes.append(
            "minimal structure on the naturals: finite subsets contain all "
            "finite sets, and are closed under subsets and finite unions"
        )
    else:
        report.notes.append(
            "maximal structure on the naturals: the full power set trivially "
            "satisfies all three axioms"
        )
    return report


# --------------------------------------------------------------------------
# maps

_tuple_new = tuple.__new__  # builds a checked tuple past its __new__; a global reads faster
_dict_new, _dict_update = dict.__new__, dict.update


class ReadOnlyDict(dict):
    """A dict whose mutators, ``__init__`` included, raise ``TypeError``, for
    the table of a checked map.  It equals a plain dict, has its repr, and
    reads at C speed.  ``_read_only`` makes one."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("a checked table is read-only")

    __init__ = __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):  # pickle and deepcopy would refill it item by item
        return _read_only, (dict(self),)


def _read_only(items) -> ReadOnlyDict:
    """A ReadOnlyDict of the given mapping or pairs, filled past ``__init__``."""
    table = _dict_new(ReadOnlyDict)
    _dict_update(table, items)
    return table


class TableAssignment(namedtuple("TableAssignment", "mapping")):
    """Explicit value table; the source carrier must be finite.  A
    ``(mapping,)`` tuple holding a read-only copy of the given mapping."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # copied by __new__

    def __new__(cls, mapping):
        return tuple.__new__(cls, (_read_only(mapping),))

    def evaluate(self, x):
        return self.mapping[x]


@dataclass(frozen=True)
class ConstantAssignment:
    """Everything goes to one target element; used from the naturals."""

    value: object

    def evaluate(self, x):
        return self.value


@dataclass(frozen=True)
class ShiftAssignment:
    """n -> n + offset on the naturals, with finitely many patched values."""

    offset: int = 0
    patch: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.offset, int) or isinstance(self.offset, bool):
            raise ControlError(f"shift offset must be an integer, not {self.offset!r}")
        if self.offset < 0:
            raise ControlError("shift offset must be non-negative")
        if not isinstance(self.patch, Mapping):
            raise ControlError(f"shift patch must be a mapping, not {self.patch!r}")
        for k, v in self.patch.items():
            for what, x in (("key", k), ("value", v)):
                if not isinstance(x, int) or isinstance(x, bool):
                    raise ControlError(f"patch {what} {x!r} is not an integer")
            if k < 0 or v < 0:
                raise ControlError("patch entries must be natural numbers")
        # patches that agree with the shift are redundant; normalize them away
        object.__setattr__(self, "patch", _read_only(
            {k: v for k, v in self.patch.items() if v != k + self.offset}))

    def evaluate(self, x):
        if x in self.patch:
            return self.patch[x]
        return x + self.offset


class ControlledMap(namedtuple("ControlledMap", "source target assignment")):
    """A map of controlled sets, as a ``(source, target, assignment)`` tuple
    (equal to the plain one), checked when made and immutable after."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # checked by __new__

    def __new__(cls, source: ControlledSet, target: ControlledSet, assignment):
        src, tgt = source.carrier, target.carrier
        if isinstance(assignment, TableAssignment):
            if not src.is_finite:
                raise UnsupportedRepresentationError(
                    "table assignments need a finite source carrier"
                )
            mapping = assignment.mapping
            try:
                fits = (mapping.keys() == src._members and tgt._members is not None
                        and tgt._members.issuperset(mapping.values()))
            except TypeError:  # an unhashable value: word the error below
                fits = False
            if not fits:
                # a missing value is reported before one outside the target, then extra keys
                missing = [x for x in src.elements if x not in mapping]
                if missing:
                    raise ControlError(f"assignment missing values for {missing}")
                for x in src.elements:
                    if mapping[x] not in tgt:
                        raise ControlError(f"value {mapping[x]!r} outside target carrier")
                extra = [x for x in mapping if x not in src]
                if extra:
                    raise ControlError(f"assignment has values for {extra} outside source carrier")
        elif isinstance(assignment, ConstantAssignment):
            if assignment.value not in tgt:
                raise ControlError(f"constant value {assignment.value!r} outside target carrier")
        elif isinstance(assignment, ShiftAssignment):
            if src.is_finite or tgt.is_finite:
                raise UnsupportedRepresentationError(
                    "shift assignments map the naturals to the naturals"
                )
        else:
            raise UnsupportedRepresentationError(
                f"unknown assignment representation {type(assignment).__name__}"
            )
        return tuple.__new__(cls, (source, target, assignment))

    def evaluate(self, x):
        if x not in self.source.carrier:
            raise ControlError(f"element {x!r} outside source carrier")
        return self.assignment.evaluate(x)

    def __repr__(self):
        return f"ControlledMap({self.source!r} -> {self.target!r})"


def identity_map(X: ControlledSet) -> ControlledMap:
    if X.carrier.is_finite:
        return ControlledMap(X, X, TableAssignment({x: x for x in X.carrier.elements}))
    return ControlledMap(X, X, ShiftAssignment(0, {}))


@dataclass
class MapReport:
    ok: bool
    violations: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def validate_map(f: ControlledMap) -> MapReport:
    """Check both conditions of a controlled map, in closed form.

    A finite source has only finite subsets, whose images are finite (so
    controlled, by the first axiom) and whose fibers are finite: every map
    out of it is controlled.  Catalogue assignments from the naturals are
    decided by their shape, with concrete witnesses reported on failure.
    """
    report = MapReport(ok=True)
    if f.source.carrier.is_finite:
        return report
    if f.source.structure.kind == MIN:
        report.notes.append(
            "minimal source: controlled subsets are finite, so images are "
            "finite (hence controlled) and restricted fibers are finite"
        )
        return report

    # maximal structure on the naturals: the whole carrier is controlled
    a = f.assignment
    if isinstance(a, ConstantAssignment):
        # condition 1 holds (images are singletons); condition 2 fails: the
        # fiber over the constant value meets the controlled full carrier
        # in an infinite set.
        report.ok = False
        report.violations.append(
            f"restriction to the full carrier is not proper: the fiber over "
            f"{a.value!r} is infinite"
        )
    else:  # a shift: ControlledMap refuses a table on the naturals
        # images of infinite controlled subsets are infinite (the shift part
        # is injective), so they must be controlled in the target: the
        # naturals, as ControlledMap refuses a shift into a finite carrier
        if f.target.structure.kind == MIN:
            report.ok = False
            report.violations.append(
                "image of the full carrier is infinite, hence not controlled "
                "in a minimal target"
            )
        # condition 2: fibers have size <= 1 + patch size, always finite
        report.notes.append(
            f"fibers are bounded by 1 + {len(a.patch)} patched points"
        )
    return report


def compose(g: ControlledMap, f: ControlledMap) -> ControlledMap:
    """g after f; the assignment catalogue is closed under composition.

    Two tables compose unchecked, as the composite cannot fail the checks: a
    checked table's keys are exactly its source's elements, so the
    composite's keys are f's source and its values are g's, in g's target;
    and neither table can have changed since its check, as both are read-only."""
    if f.target is not g.source:
        if f.target.carrier != g.source.carrier:
            raise ControlError("cannot compose: carriers do not line up")
        if not same_controlled_sets(f.target, g.source):
            raise ControlError("cannot compose: control structures do not agree")
    fa, ga = f.assignment, g.assignment

    if isinstance(fa, TableAssignment):
        if isinstance(ga, TableAssignment):
            fm = fa.mapping
            table = _read_only(zip(fm, map(ga.mapping.__getitem__, fm.values())))
            # tuple.__new__ inline: a helper call per composite shows in the law suite
            return _tuple_new(ControlledMap, (
                f.source, g.target, _tuple_new(TableAssignment, (table,))))
        table = {x: ga.evaluate(y) for x, y in fa.mapping.items()}
        return ControlledMap(f.source, g.target, TableAssignment(table))

    if isinstance(fa, ConstantAssignment):
        return ControlledMap(f.source, g.target, ConstantAssignment(ga.evaluate(fa.value)))

    # fa is a shift of the naturals; ga is constant or a shift
    if isinstance(ga, ConstantAssignment):
        return ControlledMap(f.source, g.target, ConstantAssignment(ga.value))
    # a shift: g's source is the naturals, where ControlledMap refuses a table
    offset = fa.offset + ga.offset
    # the composite can differ from the shift only where f is patched or
    # f lands on a patch of g; ShiftAssignment drops the entries that agree
    candidates = set(fa.patch)
    candidates.update(m - fa.offset for m in ga.patch if m >= fa.offset)
    patch = {n: ga.evaluate(fa.evaluate(n)) for n in candidates}
    return ControlledMap(f.source, g.target, ShiftAssignment(offset, patch))


def all_set_maps(source: Carrier, target: Carrier):
    """All assignments between finite carriers, as TableAssignment values."""
    if not (source.is_finite and target.is_finite):
        raise UnsupportedRepresentationError("enumeration needs finite carriers")
    for values in product(target.elements, repeat=len(source.elements)):
        yield TableAssignment(zip(source.elements, values))


@dataclass
class AdjunctionReport:
    ok: bool
    set_map_count: int
    controlled_map_count: int
    failures: list[str] = field(default_factory=list)


def adjunction_check(S: Carrier, X: ControlledSet) -> AdjunctionReport:
    """Hom(min_ctl(S), X) must biject with set maps S -> forget(X): placing
    the minimal structure on a set is left adjoint to forgetting.

    Enumerates both sides exhaustively (finite carriers only): every set map
    must validate as a controlled map, and distinct assignments stay distinct,
    so the unit/counit bijection is the identity on value tables.
    """
    if not (S.is_finite and X.carrier.is_finite):
        raise UnsupportedRepresentationError("adjunction check needs finite carriers")
    source = min_ctl(S)
    failures = []
    set_maps = 0
    for set_maps, table in enumerate(all_set_maps(S, X.carrier), 1):
        verdict = validate_map(ControlledMap(source, X, table))
        if not verdict.ok:
            failures.append(
                f"set map {table.mapping} fails to be controlled: {verdict.violations}"
            )
    return AdjunctionReport(
        ok=not failures,
        set_map_count=set_maps,
        controlled_map_count=set_maps - len(failures),
        failures=failures,
    )
