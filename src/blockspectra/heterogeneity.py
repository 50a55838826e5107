"""Spectral normalization, Jensen-Shannon distances, and the heterogeneity score.

Blockwise densities are compared pairwise with the Jensen-Shannon divergence
(base-2 logs, so values live in [0, 1]); the mean over distinct pairs is the
scalar heterogeneity score.  Block spectra can be normalized before the
comparison so that blocks of very different curvature scale remain
comparable in shape.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from blockspectra import fileio
from blockspectra.slq import SpectralDensity

MODES = ("tenth_largest", "max_abs", "none")

# Resampling onto a union grid is capped to keep pairwise work bounded.
MAX_UNION_POINTS = 65536

# log_magnitude_spectra floors magnitudes at this fraction of the largest one.
LOG_FLOOR_REL = 1e-8


@dataclass(frozen=True)
class NormalizedSpectrum:
    """A density after dividing its eigenvalue axis by a positive scale."""

    value: SpectralDensity
    scale: float
    warning: str | None = None


@dataclass(frozen=True)
class HeterogeneityReport:
    """Pairwise Jensen-Shannon distances between block spectra.

    ``js0`` is the mean of the strict upper triangle of ``pairwise``.
    """

    labels: tuple
    pairwise: np.ndarray
    js0: float
    normalization_mode: str
    warnings: tuple = ()

    def __post_init__(self):
        m = np.asarray(self.pairwise, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("pairwise matrix must be square")
        if len(self.labels) != m.shape[0]:
            raise ValueError("label count must match matrix size")
        if not np.array_equal(m, m.T):
            raise ValueError("pairwise matrix must be symmetric")
        if np.any(np.diag(m) != 0):
            raise ValueError("pairwise diagonal must be zero")
        if np.any(m < 0) or np.any(m > 1):
            raise ValueError("pairwise entries must lie in [0, 1]")
        object.__setattr__(self, "pairwise", m)


def rescale_density(density: SpectralDensity, scale: float) -> SpectralDensity:
    """Divide the eigenvalue axis by a positive scale, keeping unit mass."""
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    grid = density.grid / scale
    values = density.values * scale
    mass = np.trapezoid(values, grid)
    return SpectralDensity(grid=grid, values=values / mass, sigma=density.sigma / scale)


def normalize_spectrum(
    density: SpectralDensity, mode: str = "tenth_largest", eigenvalues=None
) -> NormalizedSpectrum:
    """Divide a block's density by a positive scale taken from its eigenvalues.

    Modes: ``tenth_largest`` divides by the block's 10th largest eigenvalue
    (falling back to ``max_abs`` with a warning when it has fewer than 10),
    ``max_abs`` by its largest magnitude, ``none`` leaves the density
    untouched.  ``eigenvalues`` are required unless the mode is ``none``.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "none":
        return NormalizedSpectrum(value=density, scale=1.0)
    if eigenvalues is None:
        raise ValueError(f"mode {mode!r} needs the block's eigenvalues")
    eigs = np.asarray(eigenvalues, dtype=float)
    warning = None
    if mode == "tenth_largest" and eigs.size >= 10:
        scale = float(np.sort(eigs)[::-1][9])
    else:
        if mode == "tenth_largest":
            warning = f"only {eigs.size} eigenvalues available; fell back from tenth_largest to max_abs"
        scale = float(np.abs(eigs).max())
    # rescale_density rejects a scale that is not positive.
    return NormalizedSpectrum(value=rescale_density(density, scale), scale=scale, warning=warning)


def log_magnitude_spectra(eigenvalue_lists) -> list[np.ndarray]:
    """log10 of eigenvalue magnitudes, floored at ``LOG_FLOOR_REL`` times the global maximum.

    Multiplicative separation between spectra becomes translation on this
    axis, which a shared-width smoothing kernel can resolve no matter how
    many orders of magnitude the spectra span.
    """
    lists = [np.asarray(e, dtype=float) for e in eigenvalue_lists]
    if not lists or any(e.size == 0 for e in lists):
        raise ValueError("expected nonempty eigenvalue lists")
    gmax = max(float(np.abs(e).max()) for e in lists)
    if gmax <= 0:
        raise ValueError("all eigenvalues are zero")
    floor = gmax * LOG_FLOOR_REL
    return [np.log10(np.maximum(np.abs(e), floor)) for e in lists]


def _union_grid(p: SpectralDensity, q: SpectralDensity) -> np.ndarray:
    lo = min(p.grid[0], q.grid[0])
    hi = max(p.grid[-1], q.grid[-1])
    dt = min(np.diff(p.grid).min(), np.diff(q.grid).min())
    n = max(int(np.ceil((hi - lo) / dt)) + 1, 2)
    if n > MAX_UNION_POINTS:
        # Warned rather than added to HeterogeneityReport.warnings, which the
        # CLI writes into summary.txt.
        warnings.warn(
            f"union grid of supports [{float(p.grid[0])!r}, {float(p.grid[-1])!r}] and "
            f"[{float(q.grid[0])!r}, {float(q.grid[-1])!r}] needs {n} points; capped at "
            f"{MAX_UNION_POINTS}, so narrow densities are undersampled",
            RuntimeWarning,
            stacklevel=3,
        )
        n = MAX_UNION_POINTS
    return np.linspace(lo, hi, n)


def _resample(density: SpectralDensity, grid: np.ndarray) -> np.ndarray:
    values = np.interp(grid, density.grid, density.values, left=0.0, right=0.0)
    mass = np.trapezoid(values, grid)
    if mass <= 0:
        raise ValueError("density lost all mass during resampling")
    return values / mass


def _to_pmf(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    # Trapezoid quadrature weights turn the sampled density into a discrete
    # probability mass function on the grid.
    w = np.empty_like(grid)
    w[1:-1] = (grid[2:] - grid[:-2]) / 2
    w[0] = (grid[1] - grid[0]) / 2
    w[-1] = (grid[-1] - grid[-2]) / 2
    pmf = values * w
    return pmf / pmf.sum()


def _kl_base2(p: np.ndarray, m: np.ndarray) -> float:
    # m >= p/2 wherever p > 0, so m can only vanish through denormal
    # underflow; those terms contribute at most ~1e-323 and are dropped.
    mask = (p > 0) & (m > 0)
    return float(np.sum(p[mask] * np.log2(p[mask] / m[mask])))


def js_distance(p: SpectralDensity, q: SpectralDensity) -> float:
    """Jensen-Shannon divergence (base-2 logs) between two densities, in [0, 1].

    Densities on different grids are first linearly resampled onto a uniform
    union grid and renormalized.  Identical inputs give exactly 0; densities
    with disjoint supports give 1.
    """
    if np.any(p.values < 0) or np.any(q.values < 0):
        raise ValueError("densities must be nonnegative")
    if p.grid.shape == q.grid.shape and np.array_equal(p.grid, q.grid):
        grid, pv, qv = p.grid, p.values, q.values
    else:
        grid = _union_grid(p, q)
        pv = _resample(p, grid)
        qv = _resample(q, grid)
    pp = _to_pmf(grid, pv)
    qq = _to_pmf(grid, qv)
    mm = 0.5 * (pp + qq)
    js = 0.5 * _kl_base2(pp, mm) + 0.5 * _kl_base2(qq, mm)
    return float(np.clip(js, 0.0, 1.0))


def pairwise_heatmap(
    densities,
    mode: str = "none",
    eigenvalues=None,
    labels=None,
) -> HeterogeneityReport:
    """All-pairs Jensen-Shannon distances plus their strict-upper-triangle mean.

    ``eigenvalues`` supplies one eigenvalue list per density for the
    normalization scale; every mode but ``none`` needs it.
    """
    densities = list(densities)
    n = len(densities)
    if n < 2:
        raise ValueError(f"need at least 2 block densities, got {n}")
    if eigenvalues is not None and len(eigenvalues) != n:
        raise ValueError("eigenvalues must provide one list per density")
    if labels is None:
        labels = tuple(f"block{i}" for i in range(n))
    else:
        labels = tuple(labels)
        if len(labels) != n:
            raise ValueError("labels must match density count")

    warnings = []
    normalized = []
    for i, d in enumerate(densities):
        eigs = eigenvalues[i] if eigenvalues is not None else None
        ns = normalize_spectrum(d, mode=mode, eigenvalues=eigs)
        if ns.warning:
            warnings.append(f"{labels[i]}: {ns.warning}")
        normalized.append(ns.value)

    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = js_distance(normalized[i], normalized[j])
            matrix[i, j] = d
            matrix[j, i] = d
    upper = matrix[np.triu_indices(n, k=1)]
    return HeterogeneityReport(
        labels=labels,
        pairwise=matrix,
        js0=float(upper.mean()),
        normalization_mode=mode,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def save_heatmap_csv(path, report: HeterogeneityReport) -> None:
    fileio.write_csv(
        path,
        ["block", *report.labels],
        ([label, *row] for label, row in zip(report.labels, report.pairwise)),
    )


def load_heatmap_csv(path) -> tuple[tuple, np.ndarray]:
    header, table = fileio.read_table(path, header_required=True, skip_columns=1)
    return tuple(header[1:]), table


def save_js0_summary(path, report: HeterogeneityReport) -> None:
    lines = [
        f"js0 = {report.js0!r}",
        f"blocks = {len(report.labels)}",
        f"normalization_mode = {report.normalization_mode}",
        *(f"warning = {w}" for w in report.warnings),
    ]
    fileio.write_text(path, "\n".join(lines) + "\n")
