"""Computable constructions on finitary set functors.

Functors arrive either as presentations (shapes with arities, quotiented
by flat equations) or as explicit tables; both implement one interface.
On top of it: the minimal and maximal empty-set modifications, element
supports with greedy computation, skeleta and degree, and exhaustive
desk-scale checkers for the functor laws, monomorphicity, epimorphicity,
intersection preservation and support well-behavedness.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .finset import (
    FiniteFunction,
    FiniteSet,
    SubsetMask,
    empty_function,
    enumerate_functions,
    enumerate_subsets,
    inclusion,
)
from .presentation import (
    ParseError,
    Presentation,
    PresentationInstance,
    evaluate_morphism,
    evaluate_object,
    parse_presentation,
)
from .tabulated import (
    TabulatedError,
    TabulatedInstance,
    export_tabulated,
    load_tabulated,
)
from .theory import (
    CheckReport,
    DegreeResult,
    EmptyModified,
    FunctorInstance,
    ModificationKind,
    MonomorphicityError,
    SizeBoundError,
    SupportResult,
    UnknownElementError,
    check_epimorphic,
    check_functor_laws,
    check_intersections,
    check_monomorphic,
    check_supports,
    degree,
    empty_mod_max,
    empty_mod_min,
    epi_witness,
    image_of_inclusion,
    modify,
    run_standard_checks,
    skeleton,
    support,
)
from .zoo import zoo_instance, zoo_names, zoo_source

__all__ = [
    "__version__",
    "FiniteFunction", "FiniteSet", "SubsetMask",
    "empty_function", "enumerate_functions", "enumerate_subsets",
    "inclusion",
    "ParseError", "Presentation", "PresentationInstance",
    "evaluate_morphism", "evaluate_object", "parse_presentation",
    "TabulatedError", "TabulatedInstance", "export_tabulated",
    "load_tabulated",
    "CheckReport", "DegreeResult", "EmptyModified", "FunctorInstance",
    "ModificationKind",
    "MonomorphicityError", "SizeBoundError", "SupportResult",
    "UnknownElementError",
    "check_epimorphic", "check_functor_laws", "check_intersections",
    "check_monomorphic", "check_supports", "degree", "empty_mod_max",
    "empty_mod_min", "epi_witness", "image_of_inclusion", "modify",
    "run_standard_checks", "skeleton", "support",
    "zoo_instance", "zoo_names", "zoo_source",
]
