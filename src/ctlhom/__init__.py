"""Controlled sets, simplicial sets, and exact (co)homology of locally
finite complexes.

The package has three layers: ``ctlset`` (controlled sets and controlled
maps, including a symbolic model over the naturals), ``delta``/``sset``
(ordinal arithmetic, finite simplicial sets, and periodic exhaustions of
infinite ones), and ``chainalg`` (Smith-normal-form homology in four
flavours: ordinary and Borel–Moore homology, ordinary and compactly
supported cohomology).  ``corpus`` holds the built-in spaces and ``laws``
the exhaustive finite-model checks; the ``ctlhom`` console script exposes
all of it.

``import ctlhom`` loads no submodule: each public name below is imported
from its home module when it is first read (PEP 562), so a homology query
never loads the controlled-set layer.
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
        ("sset", "Attachment Cell Exhaustion FiniteSimplicialSet PeriodicMap "
                 "PresentationError SimplicialError SimplicialMap Simplex SlabRule "
                 "adjacent all_simplices apply_ordinal_map degeneracy face "
                 "family_is_controlled is_locally_finite is_proper_map "
                 "proper_controlled_equivalence standard_simplex"),
        ("snf", "IntMatrix SmithDecomposition smith_normal_form"),
        ("chainalg", "AbelianGroup Chain Cochain Coefficients NonStabilizationError "
                     "TheoryResult bm_homology boundary coboundary cohomology "
                     "cohomology_c euler_characteristic homology pairing pairing_matrix "
                     "parse_coefficients pullback pullback_periodic pushforward "
                     "render_group"),
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
