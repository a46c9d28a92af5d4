"""galab: isomorphism-type descriptors of abelianized absolute Galois groups.

The library computes class groups of imaginary quadratic fields from
scratch, models the relevant profinite and discrete torsion abelian groups
by finite descriptors with a computable Pontryagin duality, verifies the
uniqueness of the tower extensions at finite truncation (survival levels in
closed form from partitions, a subgroup search only for each survivor's
witness), and classifies fields (number and function field case) by their
type invariant.
"""

from .classifier import (
    FunctionFieldInput,
    FunctionFieldType,
    GaloisAbelianType,
    SplitData,
    SplitSource,
    SplitTable,
    classify_batch,
    classify_field,
    function_field_isomorphic,
    function_field_type,
    galois_abelian_type,
    types_isomorphic,
)
from .descriptors import (
    ALEPH0,
    DiscreteTorsionDescriptor,
    LocalFactors,
    ProfiniteDescriptor,
    descriptor_from_text,
    descriptor_to_text,
    descriptors_equal,
    dual_discrete,
    dual_profinite,
    full_tower_descriptor,
    prime_tower_descriptor,
    truncate,
)
from .errors import (
    BoundExceeded,
    ContainmentError,
    DiscriminantMismatch,
    ExcludedField,
    FormatError,
    GalabError,
    InfiniteQuotient,
    InvalidCharacteristic,
    KindMismatch,
    NotFundamental,
    SplitDataUnavailable,
)
from .extensions import (
    ExtensionReport,
    TowerExtensionType,
    TruncationSpec,
    canonical_extension_group,
    enumerate_extensions,
    verify_diagram,
    verify_uniqueness,
)
from .finabelian import (
    FiniteAbelianGroup,
    GroupElement,
    abelian_groups_of_order,
    dual_finite,
    from_relations,
    group_literal,
    hom_group,
    parse_group_literal,
    power_and_socle,
    quotient,
    smith_normal_form,
    subgroups_isomorphic_to,
)
from .quadfields import (
    BinaryQuadraticForm,
    ClassGroup,
    class_group,
    class_number,
    compose,
    is_fundamental,
    principal_form,
    reduce_form,
    reduced_forms,
)

__version__ = "0.1.0"
