"""galab: isomorphism-type descriptors of abelianized absolute Galois groups.

The library computes class groups of imaginary quadratic fields from
scratch, models the relevant profinite and discrete torsion abelian groups
by finite descriptors with a computable Pontryagin duality, verifies the
uniqueness of the tower extensions at finite truncation (survival levels in
closed form from partitions, a subgroup search only for each survivor's
witness), and classifies fields (number and function field case) by their
type invariant.

The names below are loaded on first use: ``galab.classify_field`` imports
``galab.classifier`` and what it needs, not the extension or descriptor
modules.
"""

import importlib

# module -> the names it exports, space-separated
_EXPORTS = {
    "classifier": (
        "FunctionFieldInput FunctionFieldType GaloisAbelianType SplitData SplitSource "
        "SplitTable classify_batch classify_field function_field_isomorphic "
        "function_field_type types_isomorphic"
    ),
    "descriptors": (
        "ALEPH0 DiscreteTorsionDescriptor LocalFactors ProfiniteDescriptor "
        "descriptor_from_text descriptor_to_text dual_discrete dual_profinite "
        "full_tower_descriptor prime_tower_descriptor truncate"
    ),
    "errors": (
        "BoundExceeded ContainmentError ExcludedField FormatError "
        "GalabError InvalidCharacteristic KindMismatch NotFundamental "
        "SplitDataUnavailable"
    ),
    "extensions": (
        "ExtensionReport TruncationSpec canonical_extension_group enumerate_extensions "
        "verify_diagram verify_uniqueness"
    ),
    "finabelian": (
        "FiniteAbelianGroup GroupElement dual_finite group_literal hom_group "
        "parse_group_literal power_and_socle quotient"
    ),
    "quadfields": "ClassGroup class_group class_number is_fundamental",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # looked up on every access, not cached, so the package always shows what
    # the module holds now
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
