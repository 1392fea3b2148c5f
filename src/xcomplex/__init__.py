"""Exact morphism counting of combinatorial CW presentations against finite
crossed complexes, the rational invariant built from those counts, and the
homotopy class decomposition of the morphism set."""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InstanceTooLarge,
    InvalidComplex,
    MissingInverse,
    NoIdentityAtZero,
    NotAssociative,
    ParseError,
    ResultTooLarge,
    TargetNotMorphism,
    ValidationReport,
    XComplexError,
)
from .groups import (
    FiniteGroup,
    GroupAction,
    GroupHom,
    action_violation,
    associativity_witness,
    check_action,
    check_hom,
    cyclic_group,
    direct_product,
    fibers_of,
    hom_violation,
    make_group,
    symmetric_group_3,
    trivial_action,
    zero_hom,
)
from .complexes import (
    FiniteCrossedComplex,
    from_crossed_module,
    from_group,
    homology,
    pi1,
    size_at,
    validate,
)
from .presentations import (
    CWPresentation,
    Terms,
    Word,
    disk,
    fox_terms,
    free_reduce,
    genus_surface,
    point,
    relabel_cells,
    rp2,
    sphere,
    sphere2_two_cells,
    torus,
    validate_presentation,
    wedge,
    word_inverse,
)
from .enumeration import (
    boundary_defect_report,
    count_engine,
    count_homs,
    count_homs_bruteforce,
    enumerate_homs,
    eval_word,
    morphism_violation,
)
from .invariant import (
    format_rational,
    invariant_ia,
    normalization_factor,
)
from .homotopies import (
    ClassDecomposition,
    count_homotopies,
    homotopy_classes,
    homotopy_target,
    homotopy_value_space,
)
from .library import (
    resolve_coefficients,
    resolve_space,
    standard_coefficients,
    standard_spaces,
)
