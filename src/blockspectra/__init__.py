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
The package root re-exports nothing and imports none of its modules: import
each name from the module that defines it, e.g.
``from blockspectra.slq import blockwise_densities``.
"""

__version__ = "0.1.0"
