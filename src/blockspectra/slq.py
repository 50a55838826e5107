"""Stochastic Lanczos quadrature spectral density estimation.

The estimator sees an operator only through matrix-vector products.  Each
random probe drives a Lanczos tridiagonalization; the eigenvalues of the
tridiagonal matrix (Ritz values) and the squared first components of its
eigenvectors form a Gaussian quadrature rule for the probe's spectral
measure.  Averaging the rules over probes and smoothing each node with a
Gaussian kernel yields an estimate of the operator's eigenvalue density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from blockspectra import fileio
from blockspectra.operators import BlockPartition, SymmetricOperator, principal_block
from blockspectra.rng import TAG_BLOCK_PROBE, TAG_PROBE, derive_rng
from blockspectra.workers import fork_map

BREAKDOWN_RTOL = 1e-12
MASS_LEAK_TOL = 1e-2
GRID_POINTS = 2048
# float64 exp underflows to exactly 0.0 below about -745.133, and numpy's exp
# takes ~10x longer on an argument that underflows, so _gaussian_mixture
# writes those zeros itself.  The cutoff lies just below the underflow point.
EXP_CUTOFF = -745.2


class GridError(ValueError):
    """The evaluation grid does not capture enough spectral mass."""


@dataclass(frozen=True)
class LanczosFactorization:
    """Tridiagonal coefficients from m Lanczos steps.

    ``alphas`` is the diagonal, ``betas`` the (nonnegative) off-diagonal one
    entry shorter.  ``basis`` holds the orthonormal Lanczos vectors as its
    ``steps`` columns; ``lanczos`` always sets it, as a view of the first
    ``steps`` columns of its preallocated (dim, m) array.  A beta falling
    below the breakdown tolerance ends the recursion early, so ``steps`` may
    be smaller than requested.
    """

    alphas: np.ndarray
    betas: np.ndarray
    basis: np.ndarray | None = None

    @property
    def steps(self) -> int:
        return self.alphas.size

    def tridiagonal(self) -> np.ndarray:
        t = np.diag(self.alphas)
        if self.betas.size:
            t += np.diag(self.betas, 1) + np.diag(self.betas, -1)
        return t


@dataclass(frozen=True)
class RitzQuadrature:
    """Quadrature nodes (Ritz values, ascending) and weights summing to 1."""

    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class SpectralDensity:
    """Smoothed eigenvalue density on a shared real grid, unit mass.

    ``sigma`` is the Gaussian kernel width in eigenvalue units.
    """

    grid: np.ndarray
    values: np.ndarray
    sigma: float

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must be a 1-d array with at least 2 points")
        if values.shape != grid.shape:
            raise ValueError("grid and values must have matching shapes")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(values < 0):
            raise ValueError("density values must be nonnegative")
        if self.sigma <= 0:
            raise ValueError(f"kernel width must be positive, got {self.sigma}")
        mass = np.trapezoid(values, grid)
        if not (1 - 1e-3 <= mass <= 1 + 1e-3):
            raise ValueError(f"density mass {mass} is not within 1e-3 of 1")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class SLQParams:
    """Lanczos depth, probe count, kernel width and seed of the density estimator.

    The defaults favor fidelity; ``cheap()`` is the fast preset of the CLI's
    ``--cheap`` flag, which cuts both the Lanczos depth and the probe count.
    The observed Ritz support is padded by 5%, and ``sigma`` defaults to 1%
    of the padded width when None.  Unless ``blockwise_densities`` is given a
    grid, the ``GRID_POINTS``-point grid spans the padded support plus a
    3-sigma margin.
    """

    steps: int = 80
    probes: int = 10
    sigma: float | None = None
    seed: int = 0

    @classmethod
    def cheap(cls, **overrides) -> "SLQParams":
        merged = {"steps": 10, "probes": 1}
        merged.update(overrides)
        return cls(**merged)


def lanczos(op: SymmetricOperator, v0: np.ndarray, m: int) -> LanczosFactorization:
    """Three-term Lanczos recursion with full reorthogonalization.

    ``v0`` must be a unit vector and ``m`` at most the operator dimension.
    Returns the tridiagonal coefficients of T = V' A V; the recursion stops
    early once an off-diagonal coefficient drops below the breakdown
    tolerance relative to the running Gershgorin estimate of |A|.
    """
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (op.dim,):
        raise ValueError(f"v0 has shape {v0.shape}, expected ({op.dim},)")
    norm0 = np.linalg.norm(v0)
    if abs(norm0 - 1.0) > 1e-12:
        raise ValueError(f"v0 must be a unit vector, got norm {norm0}")
    if not (1 <= m <= op.dim):
        raise ValueError(f"steps m={m} must lie in [1, dim={op.dim}]")

    V = np.empty((op.dim, m))
    V[:, 0] = v0
    alphas: list[float] = []
    betas: list[float] = []
    # ``closed`` is the largest Gershgorin row sum |b_(i-1)| + |a_i| + |b_i|
    # over the rows whose b_i is known; the newest row still lacks it.
    closed = 0.0
    q = v0
    q_prev = None
    for j in range(m):
        w = op.apply(q)
        alpha = float(q @ w)
        alphas.append(alpha)
        w = w - alpha * q
        row = abs(alpha)
        if q_prev is not None:
            w = w - betas[-1] * q_prev
            row += abs(betas[-1])
        # Two passes keep the basis orthonormal to ~1e-14 even when the
        # plain recursion has already lost orthogonality.  A C-contiguous
        # copy, not a strided view of V, keeps BLAS's summation order and so
        # every bit of the coefficients.
        basis = np.ascontiguousarray(V[:, : j + 1])
        for _ in range(2):
            w = w - basis @ (basis.T @ w)
        beta = float(np.linalg.norm(w))
        if j == m - 1 or beta < BREAKDOWN_RTOL * max(closed, row, 1e-300):
            break
        closed = max(closed, row + beta)
        betas.append(beta)
        q_prev = q
        q = w / beta
        V[:, j + 1] = q

    return LanczosFactorization(
        alphas=np.asarray(alphas), betas=np.asarray(betas), basis=V[:, : len(alphas)]
    )


def ritz_quadrature(fact: LanczosFactorization) -> RitzQuadrature:
    """Gaussian quadrature rule from a Lanczos factorization.

    Nodes are the eigenvalues of the tridiagonal matrix, weights the squared
    first components of its orthonormal eigenvectors.
    """
    if fact.steps == 0:
        raise ValueError("degenerate factorization with zero steps")
    nodes, vecs = np.linalg.eigh(fact.tridiagonal())
    weights = vecs[0, :] ** 2
    return RitzQuadrature(nodes=nodes, weights=weights)


def _rademacher_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.integers(0, 2, size=dim) * 2.0 - 1.0
    return v / np.linalg.norm(v)


def _probe_quadrature(op, steps, key_prefix, p) -> RitzQuadrature:
    """Ritz quadrature of probe ``p``, drawn from the stream keyed (*key_prefix, p)."""
    v0 = _rademacher_unit(derive_rng(*key_prefix, p), op.dim)
    return ritz_quadrature(lanczos(op, v0, min(steps, op.dim)))


def _resolve_grid(lo, hi, sigma, grid):
    pad = 0.05 * max(hi - lo, 1e-8 * max(1.0, abs(lo), abs(hi)))
    lo_p, hi_p = lo - pad, hi + pad
    if sigma is None:
        sigma = 0.01 * (hi_p - lo_p)
    if grid is None:
        grid = np.linspace(lo_p - 3 * sigma, hi_p + 3 * sigma, GRID_POINTS)
    else:
        grid = np.asarray(grid, dtype=float)
        margin = 3 * sigma
        if grid[0] > lo - margin + 1e-12 * max(1.0, abs(lo)) or grid[-1] < hi + margin - 1e-12 * max(1.0, abs(hi)):
            raise GridError(
                f"grid [{grid[0]}, {grid[-1]}] does not cover the spectral support "
                f"[{lo}, {hi}] with a 3-sigma margin ({margin})"
            )
    return float(sigma), grid


def _gaussian_mixture(grid, nodes, weights, sigma) -> np.ndarray:
    z = (grid[None, :] - nodes[:, None]) / sigma
    arg = -0.5 * z * z
    # ``~(arg < cutoff)`` and not ``arg >= cutoff``, so a NaN stays NaN.
    kernel = np.exp(arg, out=np.zeros_like(arg), where=~(arg < EXP_CUTOFF)) / (sigma * np.sqrt(2 * np.pi))
    return weights @ kernel


def _finalize_density(grid, raw, sigma) -> SpectralDensity:
    mass = np.trapezoid(raw, grid)
    if abs(mass - 1.0) > MASS_LEAK_TOL:
        raise GridError(
            f"mass leakage {abs(mass - 1.0):.4g} exceeds {MASS_LEAK_TOL}; "
            "the grid is too narrow for the kernel width"
        )
    return SpectralDensity(grid=grid, values=raw / mass, sigma=sigma)


def _averaged_densities(quad_lists, lo, hi, sigma, grid) -> list[SpectralDensity]:
    """One density per list of quadrature rules, each the rules' mean mixture.

    ``[lo, hi]`` is the spectral support that fixes the shared grid and, when
    not given, the kernel width.
    """
    sigma, grid = _resolve_grid(lo, hi, sigma, grid)
    out = []
    for quads in quad_lists:
        raw = np.zeros_like(grid)
        for quad in quads:
            raw += _gaussian_mixture(grid, quad.nodes, quad.weights, sigma)
        raw /= len(quads)
        out.append(_finalize_density(grid, raw, sigma))
    return out


def blockwise_densities(
    op: SymmetricOperator,
    partition: BlockPartition | None = None,
    params: SLQParams = SLQParams(),
    grid: np.ndarray | None = None,
    jobs: int = 1,
) -> list[SpectralDensity]:
    """SLQ density of every principal block, all on one shared grid.

    ``partition = None`` makes the whole operator the one block, whose probes
    come from the streams keyed (seed, TAG_PROBE, p).  Otherwise the probes
    for block b come from the streams keyed (seed, TAG_BLOCK_PROBE, b, p) and
    act on the block coordinates only, which ``principal_block`` cuts out of
    a ``DenseSymmetric``.  Probe averages are taken in index order.  Unless
    ``grid`` is given, the shared grid spans the union of all block supports
    so the densities are directly comparable.

    Every block is built first, then the (block, probe) Lanczos runs are
    mapped over up to ``jobs`` workers (``workers.fork_map``; one worker is
    this process).  Each probe draws from its own keyed stream and runs the
    same arithmetic in any worker, so the densities are identical, bit for
    bit, at any ``jobs``.
    """
    if params.probes <= 0:
        raise ValueError(f"probe count must be positive, got {params.probes}")
    if params.steps <= 0:
        raise ValueError(f"step count must be positive, got {params.steps}")
    if partition is None:
        blocks = [op]
        keys = [(params.seed, TAG_PROBE)]
    elif partition.dim != op.dim:
        raise ValueError(f"partition dim {partition.dim} != operator dim {op.dim}")
    else:
        blocks = [principal_block(op, a, z) for a, z in partition.ranges()]
        keys = [(params.seed, TAG_BLOCK_PROBE, b) for b in range(partition.num_blocks)]
    quads = fork_map(
        lambda b, p: _probe_quadrature(blocks[b], params.steps, keys[b], p),
        [(b, p) for b in range(len(blocks)) for p in range(params.probes)],
        jobs,
    )
    per_block = [quads[b * params.probes : (b + 1) * params.probes] for b in range(len(blocks))]
    nodes = [q.nodes for quads in per_block for q in quads]
    lo = min(float(n.min()) for n in nodes)
    hi = max(float(n.max()) for n in nodes)
    return _averaged_densities(per_block, lo, hi, params.sigma, grid)


def smoothed_densities(eigenvalue_lists, sigma=None, grid=None) -> list[SpectralDensity]:
    """Exactly smoothed densities of several spectra on one shared grid.

    The grid conventions match ``blockwise_densities`` so estimator outputs
    and oracle densities are directly comparable.
    """
    lists = [np.asarray(e, dtype=float) for e in eigenvalue_lists]
    if not lists or any(e.ndim != 1 or e.size == 0 for e in lists):
        raise ValueError("expected nonempty 1-d eigenvalue arrays")
    lo = min(float(e.min()) for e in lists)
    hi = max(float(e.max()) for e in lists)
    rules = [[RitzQuadrature(nodes=e, weights=np.full(e.size, 1.0 / e.size))] for e in lists]
    return _averaged_densities(rules, lo, hi, sigma, grid)


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def save_density_csv(path, density: SpectralDensity) -> None:
    fileio.write_csv(path, ["t", "density"], zip(density.grid, density.values))
