"""Fusion ring invariants: spectral data, kernels, gradings, modular centralizers."""

from .analysis import analyze_report, modular_report
from .catalog import CatalogEntry, all_builtin_names, builtin, load_ring, load_smatrix, save_ring, save_smatrix
from .grading import GradingData, object_index, object_order, universal_grading
from .kernel import (
    BrauerReport,
    center_of_class,
    kernel_of_character,
    kernel_of_class,
    kernel_via_subring_idempotents,
    verify_brauer,
)
from .modular import (
    ModularData,
    centralizer,
    characters_from_smatrix,
    invertibles,
    modular_data,
    projective_centralizer,
    verlinde_ring,
)
from .ring import FusionRing, ValidationReport, basis_vector, dual_from_structure, validate
from .spectral import (
    CharacterTable,
    FPData,
    IdempotentSet,
    adjoint_class,
    bilinear_m,
    character_table,
    fp_character,
    fpdim_of_class,
    is_commutative,
    primitive_idempotents,
    regular_element,
)
from .subcat import Subcategory, generated_subcategory, is_faithful, is_indecomposable_matrix, restrict

__version__ = "0.1.0"

__all__ = [
    "BrauerReport",
    "CatalogEntry",
    "CharacterTable",
    "FPData",
    "FusionRing",
    "GradingData",
    "IdempotentSet",
    "ModularData",
    "Subcategory",
    "ValidationReport",
    "adjoint_class",
    "all_builtin_names",
    "analyze_report",
    "basis_vector",
    "bilinear_m",
    "builtin",
    "center_of_class",
    "centralizer",
    "character_table",
    "characters_from_smatrix",
    "dual_from_structure",
    "fp_character",
    "fpdim_of_class",
    "generated_subcategory",
    "invertibles",
    "is_commutative",
    "is_faithful",
    "is_indecomposable_matrix",
    "kernel_of_character",
    "kernel_of_class",
    "kernel_via_subring_idempotents",
    "load_ring",
    "load_smatrix",
    "modular_data",
    "modular_report",
    "object_index",
    "object_order",
    "primitive_idempotents",
    "projective_centralizer",
    "regular_element",
    "restrict",
    "save_ring",
    "save_smatrix",
    "universal_grading",
    "validate",
    "verify_brauer",
    "verlinde_ring",
]
