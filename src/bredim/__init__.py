"""bredim: dimensions of classifying spaces for families of virtually abelian subgroups.

The package bundles four computational layers and a command line front end:

* ``lattice``  - exact subgroup arithmetic in Z^n (normal forms, indices,
  saturation, complements, mapping automorphisms);
* ``homology`` - integral (co)homology of finite chain complexes;
* ``raag``     - graphs, clique tables, cube complexes of right-angled Artin
  groups, and their dimension formulas;
* ``dims``     - closed-form dimension values, bound combinators, and the
  auditable derivation engine;
* ``gog``      - graphs of virtually abelian groups and their two-sided
  dimension bounds.

Importing the package runs none of them.  The names re-exported here
(``bredim.Sublattice``, ``bredim.cd_raag``, the error classes, ...) and the
submodules (``bredim.lattice``, ...) resolve on first access, which imports
only the module that defines them and the modules it imports in turn.
"""

from importlib import import_module

__version__ = "0.1.0"

# Home module of every re-exported name.
_EXPORTS = {
    "errors": (
        "AcylindricityError",
        "AmbientMismatchError",
        "BredimError",
        "ChainComplexError",
        "ContainmentError",
        "DerivationError",
        "DimensionMismatchError",
        "IncompatibleBoundsError",
        "InputError",
        "MaximalityRequiredError",
        "OutOfRangeError",
        "ParseError",
        "RankMismatchError",
    ),
    "matrix": ("IntMatrix", "hermite_normal_form", "smith_normal_form"),
    "lattice": (
        "IndexResult",
        "Sublattice",
        "commensurable",
        "direct_complement",
        "index",
        "intersect",
        "is_maximal",
        "lattice_sum",
        "mapping_automorphism",
        "saturation",
        "sublattice_from_generators",
    ),
    "homology": ("ChainComplex", "CohomologyGroup"),
    "raag": ("SimpleGraph", "CliqueTable", "cd_raag", "cliques", "gd_fk_raag", "salvetti_complex"),
    "dims": ("Derivation", "DimBound", "FamilyTag", "derive_zn_upper"),
    "gog": ("GraphOfGroups", "bass_serre_bounds", "gog_gd"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset((*_EXPORTS, "cli", "oracles", "verify"))

__all__ = [*_EXPORTS, *_HOME]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *_HOME})
