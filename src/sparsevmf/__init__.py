"""Clustering of unit-norm data with l1-sparsified von Mises-Fisher mixtures."""

__version__ = "0.1.0"

from .em import (  # noqa: F401
    FitOptions,
    FitResult,
    FitStatus,
    MixtureParams,
    Responsibilities,
    e_step,
    fit_em,
    hard_assign,
    init_random,
    load_model,
    m_step,
    soft_threshold_mu,
)
from .dataset import (  # noqa: F401
    GroundTruth,
    SimulationConfig,
    estimate_overlap,
    load_matrix,
    simulate_mixture,
)
from .path import PathOptions, PathResult, follow_path, next_beta  # noqa: F401
from .selection import (  # noqa: F401
    Criterion,
    SelectionReport,
    count_free_params,
    information_criterion,
    select_model,
)
from .skmeans import SkResult, skmeans_fit  # noqa: F401
from .metrics import (  # noqa: F401
    adjusted_rand_index,
    sparsity,
    support_precision_recall,
)
from .vmf import KAPPA_CAP, sample  # noqa: F401
from .special import (  # noqa: F401
    bessel_ratio,
    invert_bessel_ratio,
    kappa_from_rho,
    log_bessel_i,
    log_vmf_normalizer,
)
