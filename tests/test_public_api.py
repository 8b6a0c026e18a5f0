"""The public names of the ``ctlhom`` package, pinned, so that adding,
renaming or removing one is a deliberate change to this list."""

import importlib
import inspect
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import ctlhom

PUBLIC_NAMES = [
    "AbelianGroup", "AdjunctionReport", "Attachment", "Carrier", "Cell", "Chain",
    "Cochain", "Coefficients", "ControlError", "ControlStructure", "ControlledMap",
    "ControlledSet", "DeltaError", "Exhaustion", "FiniteSimplicialSet", "IntMatrix",
    "MonotoneMap", "NonStabilizationError", "PeriodicMap", "PresentationError",
    "Simplex", "SimplicialError", "SimplicialMap", "SlabRule", "SmithDecomposition",
    "SpaceFormatError", "TheoryResult", "UnknownSpaceError",
    "UnsupportedRepresentationError", "adjacent", "adjunction_check",
    "all_monotone_maps", "all_simplices", "apply_ordinal_map", "bm_homology",
    "boundary", "build", "chainalg", "check_cosimplicial_identities", "coboundary",
    "codegeneracy", "coface", "cofinal_tail", "cohomology", "cohomology_c", "compose",
    "compose_controlled", "corpus", "ctlset", "degeneracy", "delta", "epi_mono_factor",
    "euler_characteristic", "face", "family_is_controlled", "finite_carrier",
    "finite_list", "forget", "generated_ctl", "homology", "identity_map",
    "is_controlled", "is_locally_finite", "is_proper_map", "load_space", "max_ctl",
    "min_ctl", "naturals", "pairing", "pairing_matrix", "parse_coefficients",
    "proper_controlled_equivalence", "pullback", "pullback_periodic", "pushforward",
    "render_group", "resolve_space", "save_space", "smith_normal_form", "snf",
    "space_names", "sset", "standard_simplex", "validate_map", "validate_structure",
]


def test_public_names_are_pinned():
    """Read in a fresh interpreter: a submodule imported by another test
    (``ctlhom.cli``, ``ctlhom.laws``) would otherwise join the list."""
    src = str(Path(ctlhom.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import ctlhom\n"
         "print('\\n'.join(sorted(n for n in dir(ctlhom) if not n.startswith('_'))))",
         src],
        capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == PUBLIC_NAMES


def _annotated(module):
    """Every function, class and method that ``module`` defines."""
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield value
        elif inspect.isclass(value):
            yield value
            for member in vars(value).values():
                # the function under a staticmethod, classmethod or property
                for wrapped in ("__func__", "fget", "func"):
                    member = getattr(member, wrapped, member)
                if inspect.isfunction(member):
                    yield member


def test_every_annotation_of_the_package_resolves():
    """``typing.get_type_hints`` reads each annotation in its module's
    namespace, so a name imported only inside a function cannot annotate."""
    unresolved, checked = [], 0
    for info in pkgutil.iter_modules(ctlhom.__path__):
        module = importlib.import_module(f"ctlhom.{info.name}")
        for obj in _annotated(module):
            checked += 1
            try:
                typing.get_type_hints(obj)
            except Exception:
                unresolved.append(f"{module.__name__}.{obj.__qualname__}")
    assert unresolved == [] and checked > 400
