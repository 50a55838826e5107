"""Stochastic Lanczos quadrature spectral density estimation.

The estimator sees an operator only through matrix-vector products.  Each
random probe drives a Lanczos tridiagonalization; the eigenvalues of the
tridiagonal matrix (Ritz values) and the squared first components of its
eigenvectors form a Gaussian quadrature rule for the probe's spectral
measure.  Averaging the rules over probes and smoothing each node with a
Gaussian kernel yields an estimate of the operator's eigenvalue density.

The probes of one block step as a stack (``lanczos_stack``): k independent
recursions, each with its own basis, that share one operator product per
step.
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
    ``steps`` columns; ``lanczos_stack`` always sets it, as the transpose of
    the row's first ``steps`` vectors in its preallocated (k, m, dim) array.
    A beta falling below the breakdown tolerance ends the recursion early, so
    ``steps`` may be smaller than requested.
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
    """``lanczos_stack`` with the one unit start vector ``v0``: k = 1, basis m * dim floats."""
    return lanczos_stack(op, np.asarray(v0, dtype=float)[None, :], m)[0]


def lanczos_stack(op: SymmetricOperator, V0: np.ndarray, m: int) -> list[LanczosFactorization]:
    """k independent Lanczos recursions with full reorthogonalization, stepped together.

    Row i of the (k, dim) array ``V0`` is the unit start vector of recursion
    i, and ``m`` is at most the operator dimension.  Each step applies the
    operator once to the stack of the k current vectors.  Each row is
    reorthogonalized against its own basis only, and stops early once its
    off-diagonal coefficient drops below the breakdown tolerance relative to
    its running Gershgorin estimate of |A|; a stopped row leaves the stack.
    Returns the factorization T = V' A V of every row, in row order.

    The bases are one (k, m, dim) array, k * m * dim floats (9.6 MB for 20
    probes of 100 steps on a 600-dim block), so a row's first j + 1 vectors
    are one contiguous slab.
    """
    V0 = np.asarray(V0, dtype=float)
    if V0.ndim != 2 or V0.shape[0] < 1 or V0.shape[1] != op.dim:
        raise ValueError(f"V0 has shape {V0.shape}, expected (k, {op.dim}) with k >= 1")
    norms = np.linalg.norm(V0, axis=1)
    bad = np.flatnonzero(np.abs(norms - 1.0) > 1e-12)
    if bad.size:
        raise ValueError(f"v0 must be a unit vector, got norm {norms[bad[0]]} in row {bad[0]}")
    if not (1 <= m <= op.dim):
        raise ValueError(f"steps m={m} must lie in [1, dim={op.dim}]")

    k = V0.shape[0]
    V = np.empty((k, m, op.dim))
    V[:, 0] = V0
    alphas = np.empty((k, m))
    betas = np.empty((k, m))
    # ``closed`` is each row's largest Gershgorin row sum |b_(i-1)| + |a_i| +
    # |b_i| over the tridiagonal rows whose b_i is known; the newest row
    # still lacks it.  ``rows`` maps each live row to its row of ``V0``.
    closed = np.zeros(k)
    rows = np.arange(k)
    out: list[LanczosFactorization] = [None] * k
    for j in range(m):
        Q = V[:, j]
        W = op.apply(Q)
        a = np.einsum("ij,ij->i", Q, W)
        alphas[:, j] = a
        W -= a[:, None] * Q
        gershgorin = np.abs(a)
        if j:
            W -= betas[:, j - 1, None] * V[:, j - 1]
            gershgorin += betas[:, j - 1]
        # Two passes keep each basis orthonormal to ~1e-14 even when the
        # plain recursion has already lost orthogonality.
        basis = V[:, : j + 1]
        for _ in range(2):
            coef = basis @ W[:, :, None]  # (rows, j + 1, 1): one gemv per row
            W -= (coef.transpose(0, 2, 1) @ basis)[:, 0]
        b = np.linalg.norm(W, axis=1)
        stop = (j == m - 1) | (b < BREAKDOWN_RTOL * np.maximum(np.maximum(closed, gershgorin), 1e-300))
        last = stop.all()
        for i in np.flatnonzero(stop):
            # A row that leaves a stack still running keeps a copy of its
            # basis, so the stack's arrays can shrink to the live rows.
            slab = V[i, : j + 1] if last else V[i, : j + 1].copy()
            out[rows[i]] = LanczosFactorization(alphas=alphas[i, : j + 1], betas=betas[i, :j], basis=slab.T)
        if last:
            break
        if stop.any():
            go = ~stop
            V, alphas, betas, closed, rows = (x[go] for x in (V, alphas, betas, closed, rows))
            W, b, gershgorin = W[go], b[go], gershgorin[go]
        closed = np.maximum(closed, gershgorin + b)
        betas[:, j] = b
        V[:, j + 1] = W / b[:, None]
    return out


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
        spacing = float(np.max(np.diff(grid)))  # a narrower kernel can fall between grid points
        narrow = f"the kernel is too narrow for the grid: its width {sigma:.4g} is below the grid spacing {spacing:.4g}"
        cause = narrow if sigma < spacing else "the grid is too narrow for the kernel width"
        raise GridError(f"mass leakage {abs(mass - 1.0):.4g} exceeds {MASS_LEAK_TOL}; {cause}")
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

    Every block is built first, then each block's probes run as one stack of
    Lanczos recursions (``lanczos_stack``), whose bases take probes * steps
    * block dim floats: 9.6 MB for 20 probes of 100 steps on a 600-dim block.
    The blocks are mapped over up to ``jobs`` workers (``workers.fork_map``;
    one worker is this process).  A block's stack is one task whatever
    ``jobs`` is, and each probe draws from its own keyed stream, so the
    densities are identical, bit for bit, at any ``jobs``.
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

    def block_rules(b):
        block = blocks[b]
        V0 = np.stack([_rademacher_unit(derive_rng(*keys[b], p), block.dim) for p in range(params.probes)])
        return [ritz_quadrature(f) for f in lanczos_stack(block, V0, min(params.steps, block.dim))]

    per_block = fork_map(block_rules, [(b,) for b in range(len(blocks))], jobs)
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
