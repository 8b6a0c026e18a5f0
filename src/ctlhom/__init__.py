"""Controlled sets, simplicial sets, and exact (co)homology of locally
finite complexes.

The package has four layers: ``ctlset`` (controlled sets and controlled
maps, including a symbolic model over the naturals), ``delta``/``sset``
(ordinal arithmetic, finite simplicial sets, and periodic exhaustions of
infinite ones), ``chainalg`` (Smith-normal-form homology in four flavours:
ordinary and Borel–Moore homology, ordinary and compactly supported
cohomology), and ``maps`` (simplicial and periodic maps, properness,
controlled families, the proper ⟺ controlled check, and chains and cochains
with their pairing).  ``corpus`` holds the built-in spaces and ``laws`` the
exhaustive finite-model checks; the ``ctlhom`` console script exposes all
of it.

``import ctlhom`` loads no submodule: each public name below is imported
from its home module when it is first read (PEP 562), so a homology query
loads neither the controlled-set layer nor ``maps``.
"""

from importlib import import_module as _import_module

_SUBMODULES = ("chainalg", "corpus", "ctlset", "delta", "snf", "sset")

# public name -> (home module, attribute)
_EXPORTS = {
    name: (module, name)
    for module, names in (
        ("ctlset", "AdjunctionReport Carrier ControlError ControlStructure "
                   "ControlledMap ControlledSet UnsupportedRepresentationError "
                   "adjunction_check cofinal_tail finite_carrier finite_list forget "
                   "generated_ctl identity_map is_controlled max_ctl min_ctl naturals "
                   "validate_map validate_structure"),
        ("delta", "DeltaError MonotoneMap all_monotone_maps "
                  "check_cosimplicial_identities coface codegeneracy compose "
                  "epi_mono_factor"),
        ("sset", "Attachment Cell Exhaustion FiniteSimplicialSet PresentationError "
                 "SimplicialError Simplex adjacent all_simplices apply_ordinal_map "
                 "degeneracy face is_locally_finite standard_simplex"),
        ("snf", "IntMatrix SmithDecomposition smith_normal_form"),
        ("chainalg", "AbelianGroup Coefficients NonStabilizationError TheoryResult "
                     "bm_homology cohomology cohomology_c euler_characteristic homology "
                     "pairing_matrix parse_coefficients render_group"),
        ("maps", "Chain Cochain PeriodicMap SimplicialMap SlabRule boundary coboundary "
                 "family_is_controlled is_proper_map pairing proper_controlled_equivalence "
                 "pullback pullback_periodic pushforward"),
        ("corpus", "SpaceFormatError UnknownSpaceError build load_space "
                   "resolve_space save_space space_names"),
    )
    for name in names.split()
}
_EXPORTS["compose_controlled"] = ("ctlset", "compose")

__all__ = sorted([*_EXPORTS, *_SUBMODULES])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        # importing a submodule binds it in this namespace
        return _import_module(f"{__name__}.{name}")
    try:
        module, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(_import_module(f"{__name__}.{module}"), attr)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
