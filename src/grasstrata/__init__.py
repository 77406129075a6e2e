"""Exact stratifications of the Grassmannian by a rational hyperplane
arrangement: intersection lattices, adjoint arrangements, and the matroid,
adjoint and Schubert labels of a subspace."""

from .arrangement import (
    Arrangement,
    Flat,
    GuardExceeded,
    IntersectionLattice,
    SelfCheckFailed,
    build_arrangement,
    center,
    format_arrangement,
    intersection_lattice,
    is_essential,
    load_arrangement,
    maximal_chains,
    parse_arrangement,
    restriction,
)
from .exactlin import (
    Rational,
    RationalMatrix,
    Subspace,
    canonical_subspace,
    det,
    full_space,
    intersect,
    is_direct_sum_full,
    kernel,
    matrix,
    maximal_minors,
    minor,
    orth_complement,
    project,
    span,
    subspace_sum,
    zero_subspace,
)
from .matroid import (
    Matroid,
    RankedLattice,
    bases,
    lattice_isomorphic,
    loops,
    matroid_from,
    restriction_lattice,
)
from .pluecker import (
    AdjointHyperplane,
    KSubsetIndex,
    PlueckerVector,
    adjoint_hyperplane,
    defect_subspace,
    eval_adjoint,
    k_adjoint,
    k_subset_index,
    pluecker_vector,
)
from .sampling import sample_subspace, structured_subspaces
from .strata import (
    AdjointLabel,
    MatroidLabel,
    SchubertLabel,
    VerificationReport,
    adjoint_label,
    label_encodings,
    labels,
    matroid_label,
    schubert_label,
    verify_equivalence,
    verify_restriction_classification,
)

__version__ = "0.1.0"
