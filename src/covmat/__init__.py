"""Covariance-matrix separability criteria and concurrence lower bounds
for finite-dimensional multipartite quantum states."""

from .linalg import (
    DensityMatrix,
    InvalidStateError,
    InvalidSubsystemError,
    hs_norm,
    min_eigenvalue,
    partial_trace,
    partial_transpose,
    realign,
    trace_norm,
)
from .observables import ObservableBasis, gell_mann_basis, pad_basis, rotate_basis
from .covariance import StateSummary, correlation_block, joint_variance_sum
from .criteria import (
    BOUNDARY,
    ENTANGLED,
    INCONCLUSIVE,
    CriterionVerdict,
    MultipartiteReport,
    ccnr_criterion,
    hs_criterion,
    kf_criterion,
    multipartite_full_sep,
    ppt_criterion,
    tripartite_bisep,
    tripartite_full_sep,
)
from .concurrence import (
    ConcurrenceBounds,
    all_bounds,
    bound_ccnr_ppt,
    bound_lur,
    bound_optimized,
    pure_concurrence,
    svd_rotated_bases,
)
from .states import (
    bennett_state,
    build_state,
    isotropic,
    load_state,
    max_entangled,
    mix,
    product_state,
    random_pure,
    random_separable,
    save_state,
)

__version__ = "0.1.0"
