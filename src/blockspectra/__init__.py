"""Blockwise spectral analysis of symmetric operators and optimizer benchmarks.

The package has five functional layers:

- ``operators``: the matvec-only symmetric operator protocol, its one dense
  realization, and the exact eigendecomposition of each principal block,
  which is also the small-scale testing oracle.
- ``slq``: stochastic Lanczos quadrature estimates of eigenvalue densities,
  accessed only through matrix-vector products.
- ``heterogeneity``: Jensen-Shannon distances between blockwise densities and
  the scalar heterogeneity score derived from them.
- ``quadlab``: block-diagonal quadratic benchmark problems, gradient descent
  and diagonally preconditioned (Adam-style) iterations, learning-rate search,
  and contraction-bound verification.
- ``toynet``: small dense networks with finite-difference Hessians for
  studying near-block-diagonal structure and layer-scale heterogeneity.

The ``cli`` module ties these together into reproducible experiment runs.
"""

from blockspectra.operators import (
    BlockPartition,
    DenseSymmetric,
    SymmetricOperator,
    condition_number,
    exact_eigenvalues,
    principal_block,
)
from blockspectra.slq import (
    LanczosFactorization,
    RitzQuadrature,
    SLQParams,
    SpectralDensity,
    blockwise_densities,
    lanczos,
    ritz_quadrature,
    smoothed_densities,
)
from blockspectra.toynet import (
    Dataset,
    HessianSnapshot,
    ScaledMLP,
    ToyNet,
    hessian_fd,
    make_blobs,
    offdiag_mass_ratio,
    random_toynet,
    scaled_mlp,
    train,
)
from blockspectra.heterogeneity import (
    HeterogeneityReport,
    js_distance,
    normalize_spectrum,
    pairwise_heatmap,
)
from blockspectra.quadlab import (
    QuadraticProblem,
    TheoryReport,
    Trajectory,
    adam_ema_run,
    adam_fixed_run,
    detect_limit_cycle,
    gd_run,
    grid_search,
    make_case,
    make_hard_instance,
    theory_report,
    verify_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "BlockPartition",
    "DenseSymmetric",
    "SymmetricOperator",
    "condition_number",
    "exact_eigenvalues",
    "principal_block",
    "LanczosFactorization",
    "RitzQuadrature",
    "SLQParams",
    "SpectralDensity",
    "blockwise_densities",
    "lanczos",
    "ritz_quadrature",
    "smoothed_densities",
    "Dataset",
    "HessianSnapshot",
    "ScaledMLP",
    "ToyNet",
    "hessian_fd",
    "make_blobs",
    "offdiag_mass_ratio",
    "random_toynet",
    "scaled_mlp",
    "train",
    "HeterogeneityReport",
    "js_distance",
    "normalize_spectrum",
    "pairwise_heatmap",
    "QuadraticProblem",
    "TheoryReport",
    "Trajectory",
    "adam_ema_run",
    "adam_fixed_run",
    "detect_limit_cycle",
    "gd_run",
    "grid_search",
    "make_case",
    "make_hard_instance",
    "theory_report",
    "verify_bounds",
]
