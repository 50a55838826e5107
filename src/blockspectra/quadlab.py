"""Block-diagonal quadratic benchmarks for single- vs coordinate-wise step sizes.

The lab minimizes L(w) = 0.5 w'Hw - h'w with H block diagonal and positive
definite.  Every iteration is w <- w - eta P g, with g = Hw - h the gradient
and P a diagonal preconditioner:

- ``gd``: P = I, one step size for every coordinate (gradient descent).
- ``adam_fixed``: P = diag(1 / |g(w0)|), fixed at the start, one step size
  per coordinate: momentum-free Adam whose second moment never moves
  (beta2 = 1, epsilon = 0).
- ``adam_ema``: P = diag(1 / sqrt(v_t)), v_t an exponential average of g * g
  (beta2 < 1), which cycles instead of converging at constant step size.

Alongside the runs, ``theory_report`` computes the blockwise contraction
constants that predict when the preconditioned iteration beats plain
gradient descent.  ``verify_bounds`` alone decides which of the two theory
bounds a run meets the hypothesis of, and checks the run against it:
``gd_lower`` covers a ``gd`` run on the hard instance at any step size, and
``adam_upper`` an ``adam_fixed`` run at exactly ``eta_theory``.  Every other
run is checked against neither.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from blockspectra.operators import (
    BlockPartition,
    DenseSymmetric,
    block_eigenvalues,
    condition_number,
    load_spectrum_csv,
)
from blockspectra.rng import TAG_CASE, TAG_INIT, derive_rng

DIVERGENCE_RATIO = 1e12
RATIO_FLOOR = 1e-250
KINDS = ("gd", "adam_fixed", "adam_ema")

# Wide spectra push loss ratios through ~300 orders of magnitude, so the
# shipped cases pin their eigenvalues inside [1, 5000].
CASE_RANGE = (1.0, 5000.0)

CASE3_SPECTRA = ((1.0, 2.0, 3.0), (99.0, 100.0, 101.0), (4998.0, 4999.0, 5000.0))
CASE4_SPECTRA = ((1.0, 99.0, 4998.0), (2.0, 100.0, 4999.0), (3.0, 101.0, 5000.0))
CASE_BLOCK_DIM = 25

SNAPSHOT_EDGE = 50
SNAPSHOT_STRIDE = 100
BOUND_SLACK = 1e-9


class AllDivergedError(RuntimeError):
    """Every run in a step-size search diverged."""


class QuadraticProblem:
    """Strongly convex quadratic with a block-diagonal Hessian.

    Caches the dense Hessian, the minimizer, per-block and composite
    eigenvalues (descending), and the corresponding condition numbers.
    """

    def __init__(self, blocks, h=None):
        mats = []
        for b in blocks:
            if isinstance(b, DenseSymmetric):
                mats.append(b.matrix)
            else:
                mats.append(DenseSymmetric(np.asarray(b, dtype=float)).matrix)
        if not mats:
            raise ValueError("problem needs at least one block")
        self.partition = BlockPartition([m.shape[0] for m in mats])
        self.blocks = tuple(mats)
        d = self.partition.dim
        if h is None:
            h = np.zeros(d)
        self.h = np.asarray(h, dtype=float)
        if self.h.shape != (d,):
            raise ValueError(f"h has shape {self.h.shape}, expected ({d},)")

        self.matrix = np.zeros((d, d))
        for m, (a, z) in zip(self.blocks, self.partition.ranges()):
            self.matrix[a:z, a:z] = m
        self.block_eigenvalues = tuple(block_eigenvalues(self.matrix, self.partition))
        for i, eigs in enumerate(self.block_eigenvalues):
            if eigs[-1] <= 0:
                raise ValueError(
                    f"block {i} is not positive definite (min eigenvalue {eigs[-1]})"
                )
        self.eigenvalues = np.sort(np.concatenate(self.block_eigenvalues))[::-1]
        self.kappa = condition_number(self.eigenvalues)
        self.block_kappas = tuple(condition_number(e) for e in self.block_eigenvalues)
        self.minimizer = np.concatenate(
            [
                np.linalg.solve(m, hl)
                for m, hl in zip(self.blocks, self.partition.split(self.h))
            ]
        )

    @property
    def dim(self) -> int:
        return self.partition.dim

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(w, dtype=float) - self.h

    def operator(self) -> DenseSymmetric:
        return DenseSymmetric(self.matrix)


@dataclass
class Trajectory:
    """One optimizer run: normalized loss curve plus sparse iterate snapshots.

    ``loss_ratios[t]`` is (L(w_t) - L*) / (L(w_0) - L*); entry 0 is exactly 1.
    ``snapshots`` holds (t, w_t) pairs for the first 50 iterations, every
    100th iteration, and the last 50 iterations up to the one at which the
    run stopped (one past ``iterations`` when its ratio turned non-finite).
    Only a one-row batch (a single run) keeps snapshots.

    ``status`` is ``"converged"`` (reached the target), ``"diverged"`` (the
    ratio blew past DIVERGENCE_RATIO or stopped being finite), ``"max_iters"``
    (ran the whole budget) or ``"pruned"`` (its batch stopped when another run
    of the batch converged first).  ``iterations`` is the index
    of the last entry of ``loss_ratios``.
    """

    kind: str
    eta: float
    loss_ratios: np.ndarray
    status: str
    iterations: int
    initial_gap: float
    w0: np.ndarray
    problem: QuadraticProblem = field(repr=False)
    snapshots: list = field(default_factory=list)
    diagnostics: tuple = ()

    def final_ratio(self) -> float:
        return float(self.loss_ratios[-1])


def gaussian_init(dim: int, seed: int, index: int = 0) -> np.ndarray:
    """Standard normal initial point from the (seed, index) stream."""
    return derive_rng(seed, TAG_INIT, index).standard_normal(dim)


def _orthogonal_from_gaussian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    # Fix the sign convention so the factor is unique given the stream.
    return q * np.sign(np.diag(r))


def _rotated_block(rng, eigenvalues) -> np.ndarray:
    lam = np.asarray(eigenvalues, dtype=float)
    q = _orthogonal_from_gaussian(rng, lam.size)
    m = (q * lam) @ q.T
    return 0.5 * (m + m.T)


def make_case(case_id: int, seed: int = 0, spectrum_files=None) -> QuadraticProblem:
    """One of the four shipped benchmark Hessians, with h = 0.

    Cases 3 and 4 are self-contained 9-dimensional problems built from the
    same nine eigenvalues {1,2,3, 99,100,101, 4998,4999,5000}; case 3 groups
    them by magnitude (strongly heterogeneous blocks), case 4 spreads each
    magnitude across all blocks (near-identical blocks).  Cases 1 and 2 draw
    ``CASE_BLOCK_DIM`` eigenvalues per block from user-supplied spectrum CSV files
    and affinely map the union onto [1, 5000].  Every block is conjugated by
    a seeded random orthogonal factor so nothing is axis-aligned.
    """
    if case_id in (3, 4):
        spectra = CASE3_SPECTRA if case_id == 3 else CASE4_SPECTRA
    elif case_id in (1, 2):
        if not spectrum_files:
            raise ValueError(
                f"case {case_id} needs one eigenvalue CSV per block (spectrum_files)"
            )
        pools = [load_spectrum_csv(p) for p in spectrum_files]
        for i, pool in enumerate(pools):
            if pool.size < CASE_BLOCK_DIM:
                raise ValueError(
                    f"spectrum file {spectrum_files[i]} has {pool.size} values, "
                    f"need at least {CASE_BLOCK_DIM}"
                )
        sampled = []
        for i, pool in enumerate(pools):
            rng = derive_rng(seed, TAG_CASE, case_id, i)
            sampled.append(rng.choice(pool, size=CASE_BLOCK_DIM, replace=False))
        lo = min(float(s.min()) for s in sampled)
        hi = max(float(s.max()) for s in sampled)
        if hi <= lo:
            raise ValueError("degenerate spectrum files: all eigenvalues equal")
        a, b = CASE_RANGE
        spectra = tuple(a + (s - lo) * (b - a) / (hi - lo) for s in sampled)
    else:
        raise ValueError(f"case_id must be 1, 2, 3 or 4, got {case_id}")

    blocks = []
    for l, lam in enumerate(spectra):
        rng = derive_rng(seed, TAG_CASE, case_id, l)
        blocks.append(_rotated_block(rng, lam))
    return QuadraticProblem(blocks)


def make_hard_instance() -> tuple[QuadraticProblem, np.ndarray]:
    """Two-eigenvalue diagonal instance plus an equal-energy initial point.

    H = diag(1, 5000), h = 0, and w0 puts the same initial loss in both
    eigendirections.  On this instance no constant step size can beat the
    per-direction contraction floor 1 - 2/(kappa + 1).
    """
    problem = QuadraticProblem([[[1.0]], [[5000.0]]])
    w0 = np.array([1.0, 1.0 / np.sqrt(5000.0)])
    return problem, w0


def scalar_problem(curvature: float = 1.0) -> QuadraticProblem:
    """L(w) = 0.5 * curvature * w^2 in one dimension."""
    return QuadraticProblem([[[float(curvature)]]])


def default_gd_eta(problem: QuadraticProblem) -> float:
    """2 / (lambda_max + lambda_min), the optimal constant step."""
    return 2.0 / (problem.eigenvalues[0] + problem.eigenvalues[-1])


def default_eta_grid(points: int = 25) -> np.ndarray:
    return np.logspace(-6, 0, points)


# ---------------------------------------------------------------------------
# Batched run engine.  Rows are independent runs sharing one problem, and each
# row's updates touch only its own slice.  Results are bit-identical across
# batches of two or more rows, which all go through the matrix-matrix product.
# A one-row batch goes through the BLAS matrix-vector product instead, whose
# summation order can differ in the last bit (seen with OpenBLAS 0.3.31), so a
# single run need not match the same row of a grid exactly.
#
# The engine runs CHUNK columns (one iteration of every row) at a time.
# Inside a chunk it runs only the recurrence, writing iterates and gradients
# into preallocated buffers.  After the chunk, one vectorized pass computes
# every column's loss ratios and tests them against the quiet band, and the
# stop rule is replayed, in column order, only at the columns where some live
# row left the band.  Every output keeps its bits: each row goes through the
# same operations as one iteration at a time, rows are independent, and the
# columns a row runs past its own stop are never read.  A row that stopped
# early is reset to the minimizer at the end of its chunk, so its later
# columns stay finite.
# ---------------------------------------------------------------------------

CHUNK = 128  # at least SNAPSHOT_EDGE, so the last snapshots span two chunks at most

_LIVE, _CONVERGED, _MAXITERS, _DIVERGED, _PRUNED = 0, 1, 2, 3, 4
_STATUS_NAMES = {
    _CONVERGED: "converged",
    _MAXITERS: "max_iters",
    _DIVERGED: "diverged",
    _PRUNED: "pruned",
}


def _run_batch(
    problem: QuadraticProblem,
    W0: np.ndarray,
    etas: np.ndarray,
    kind: str,
    beta2: float,
    max_iters: int,
    target: float | None,
):
    """Run len(etas) independent iterations of one kind on a shared problem.

    Row i runs from W0[i] at step size etas[i]; every run argument is checked
    here.  The batch ends at the first iteration t* at which any row reaches
    the target; rows still live then are marked ``"pruned"`` with
    ``iterations = t*``, since they could only converge later.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    etas = np.asarray(etas, dtype=float)
    if etas.ndim != 1 or etas.size == 0:
        raise ValueError(f"eta grid must be a nonempty 1-D array, got shape {etas.shape}")
    bad = etas[~((etas > 0) & np.isfinite(etas))]
    if bad.size:
        raise ValueError(f"eta must be positive and finite, got {bad[0]}")
    n = etas.size
    d = problem.dim
    W0 = np.asarray(W0, dtype=float)
    if W0.shape != (n, d):
        raise ValueError(f"w0 must be one point per step size: got shape {W0.shape}, expected ({n}, {d})")
    try:
        max_iters = operator.index(max_iters)
    except TypeError:
        raise ValueError(f"max_iters (the iteration budget) must be an integer, got {max_iters!r}") from None
    if max_iters < 0:
        raise ValueError(f"max_iters (the iteration budget) must be >= 0, got {max_iters}")
    if target is not None and not target >= 0:
        raise ValueError(f"target must be a number >= 0 or None, got {target}")
    if kind == "adam_ema" and not (0.0 <= beta2 < 1.0):
        raise ValueError(f"beta2 must be in [0, 1), got {beta2}")

    H = problem.matrix
    h = problem.h
    wstar = problem.minimizer
    resid = H @ wstar - h  # ~0; kept so gaps stay exact for h != 0

    gap0 = 0.5 * np.einsum("nd,nd->n", W0 - wstar, (W0 - wstar) @ H)
    if not np.all(np.isfinite(gap0)):
        bad = int(np.flatnonzero(~np.isfinite(gap0))[0])
        raise ValueError(f"initial point {bad} is not finite or its loss overflows")
    if np.any(gap0 <= 0):
        bad = int(np.argmin(gap0))
        raise ValueError(f"initial point {bad} already sits at the minimizer")

    # Each row's fixed P: ones for gd (G * 1.0 is G bit for bit), 1 / |g(w0)| for adam_fixed.
    pinv = np.ones_like(W0)
    if kind == "adam_fixed":
        G0 = W0 @ H - h
        if np.any(G0 == 0):
            row, col = np.argwhere(G0 == 0)[0]
            raise ValueError(
                f"initial gradient coordinate {int(col)} is zero (run {int(row)}); "
                "the fixed preconditioner would divide by zero"
            )
        pinv = 1.0 / np.abs(G0)

    ema = kind == "adam_ema"
    V = None  # second-moment accumulator for adam_ema
    status = np.full(n, _LIVE, dtype=int)
    live = np.ones(n, dtype=bool)
    # ratios[t] holds every row's ratio at iteration t, and each row is cut at
    # its own last iteration, so entries never written are never read.
    ratios = np.empty((max_iters + 1, n))
    iters = np.zeros(n, dtype=int)
    ends = np.full(n, max_iters)  # the column at which each row stopped
    diag_counts = np.zeros(n, dtype=int)
    # A one-row batch alternates between two iterate buffers, so it can slice
    # its last SNAPSHOT_EDGE iterates from the final chunk and the one before.
    Wc = np.empty((CHUNK + 1, n, d))
    prev = np.empty_like(Wc) if n == 1 else Wc
    Gc = np.empty((CHUNK, n, d))
    zero_counts = np.zeros((CHUNK, n), dtype=int)
    step = np.empty((n, d))
    snapshots = {}
    # Full-shape copies: same-shape ufuncs skip numpy's slower broadcasting loop.
    step_sizes = np.repeat(etas[:, None], d, axis=1)
    h_rows = np.tile(h, (n, 1))
    # A live row's status can change only when its ratio leaves
    # (lower, DIVERGENCE_RATIO]: non-finite, at or below target, or blown up.
    lower = -np.inf if target is None else target

    Wc[0] = W0
    t0 = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            # Columns t0 .. t0 + m - 1; the step from the final column is never read.
            m = min(CHUNK, max_iters + 1 - t0)
            for k in range(m):
                G = Gc[k]
                np.matmul(Wc[k], H, out=G)
                np.subtract(G, h_rows, out=G)
                if ema:
                    V = G * G if V is None else beta2 * V + (1.0 - beta2) * (G * G)
                    D = np.sqrt(V)
                    zero = D == 0
                    zero_counts[k] = zero.sum(axis=1)
                    precond = np.where(zero, 0.0, G / np.where(zero, 1.0, D))
                else:
                    precond = np.multiply(G, pinv, out=step)
                np.multiply(step_sizes, precond, out=step)
                np.subtract(Wc[k], step, out=Wc[k + 1])

            np.subtract(Gc[:m], resid, out=Gc[:m])
            chunk_ratios = 0.5 * np.einsum("knd,knd->kn", Wc[:m] - wstar, Gc[:m]) / gap0
            ratios[t0 : t0 + m] = chunk_ratios
            quiet = (chunk_ratios > lower) & (chunk_ratios <= DIVERGENCE_RATIO)
            last = t0 + m - 1
            for k in np.flatnonzero(~quiet[:, live].all(axis=1)):
                t = t0 + int(k)
                ratio = chunk_ratios[k]
                was_live = live
                nonfinite = live & ~np.isfinite(ratio)
                status[nonfinite] = _DIVERGED
                iters[nonfinite] = t - 1
                live = status == _LIVE
                if target is not None:
                    converged = live & (ratio <= target)
                    status[converged] = _CONVERGED
                    iters[converged] = t
                    live = status == _LIVE
                blown = live & (ratio > DIVERGENCE_RATIO)
                status[blown] = _DIVERGED
                iters[blown] = t
                live = status == _LIVE
                if t < max_iters and (status == _CONVERGED).any():
                    status[live] = _PRUNED
                    iters[live] = t
                    live = status == _LIVE
                ends[was_live & ~live] = t
                if not live.any():
                    last = t
                    break
            if last == max_iters:
                status[live] = _MAXITERS
                iters[live] = max_iters
                live = status == _LIVE

            if ema:
                # A row steps from column t only while it is live there.
                taken = np.arange(t0, t0 + m)[:, None] < ends
                diag_counts += (zero_counts[:m] * taken).sum(axis=0)
            if n == 1:
                snapshots.update(
                    (t, Wc[t - t0, 0].copy())
                    for t in range(t0, last + 1)
                    if t < SNAPSHOT_EDGE or t % SNAPSHOT_STRIDE == 0
                )
            if not live.any():
                break
            Wc, prev = prev, Wc
            Wc[0] = prev[m]
            Wc[0][~live] = wstar  # keep stopped rows finite
            t0 += m

    if n == 1:
        for t in range(max(0, last - SNAPSHOT_EDGE + 1), last + 1):
            chunk, start = (Wc, t0) if t >= t0 else (prev, t0 - CHUNK)
            snapshots.setdefault(t, chunk[t - start, 0].copy())

    trajectories = []
    for i in range(n):
        # A row that turned non-finite at t ends at t - 1, so every series is
        # finite; the copy frees the dense buffer.
        series = ratios[: iters[i] + 1, i].copy()
        diagnostics = ()
        if diag_counts[i]:
            diagnostics = (
                f"skipped {int(diag_counts[i])} coordinate updates with zero preconditioner",
            )
        trajectories.append(
            Trajectory(
                kind=kind,
                eta=float(etas[i]),
                loss_ratios=series,
                status=_STATUS_NAMES[status[i]],
                iterations=int(iters[i]),
                initial_gap=float(gap0[i]),
                w0=W0[i].copy(),
                snapshots=[(t, snapshots[t]) for t in sorted(snapshots)],
                diagnostics=diagnostics,
                problem=problem,
            )
        )
    return trajectories


def _single_run(problem, w0, eta, kind, beta2, max_iters, target) -> Trajectory:
    return _run_batch(problem, np.asarray(w0, dtype=float)[None], [eta], kind, beta2, max_iters, target)[0]


def gd_run(problem, w0, eta=None, max_iters=100_000, target=1e-8) -> Trajectory:
    """Gradient descent w <- w - eta (Hw - h); eta defaults to 2/(l1 + ld)."""
    if eta is None:
        eta = default_gd_eta(problem)
    return _single_run(problem, w0, eta, "gd", 1.0, max_iters, target)


def adam_fixed_run(problem, w0, eta, max_iters=100_000, target=1e-8) -> Trajectory:
    """Preconditioned descent with the frozen diagonal D = diag(|grad L(w0)|)."""
    return _single_run(problem, w0, eta, "adam_fixed", 1.0, max_iters, target)


def adam_ema_run(problem, w0, eta, beta2, max_iters=100_000, target=None) -> Trajectory:
    """Coordinate-wise descent with an exponentially averaged second moment.

    The accumulator is v_0 = g_0 * g_0 and v_t = beta2 v_{t-1} +
    (1 - beta2) g_t * g_t, and each update divides by sqrt(v_t).  With a
    constant step the iterates settle into a cycle around the minimizer, so
    there is no convergence target by default.
    """
    return _single_run(problem, w0, eta, "adam_ema", beta2, max_iters, target)


@dataclass
class GridSearchResult:
    trajectories: list
    best_index: int

    @property
    def best(self) -> Trajectory:
        return self.trajectories[self.best_index]


def grid_search(
    problem,
    kind: str,
    etas,
    w0,
    budget: int = 100_000,
    target: float = 1e-6,
    beta2: float = 0.99,
) -> GridSearchResult:
    """Run one optimizer across a step-size grid from a shared initial point.

    The best run converges to the target in the fewest iterations (ties go
    to the smaller step size).  The batch stops at the first iteration at
    which any run converges: runs still going then could only converge later,
    so they end ``"pruned"`` with ``iterations`` equal to the winner's.  If
    nothing converges, every run goes to the budget and the best run is the
    non-diverged one with the lowest final loss ratio; if everything
    diverges, AllDivergedError is raised.  All runs are retained.
    """
    etas = np.asarray(list(etas), dtype=float)
    W0 = np.repeat(np.asarray(w0, dtype=float)[None], etas.size, axis=0)
    trajectories = _run_batch(problem, W0, etas, kind, beta2, budget, target)

    converged = [
        (tr.iterations, tr.eta, i)
        for i, tr in enumerate(trajectories)
        if tr.status == "converged"
    ]
    if converged:
        best_index = min(converged)[2]
    else:
        finished = [
            (tr.final_ratio(), tr.eta, i)
            for i, tr in enumerate(trajectories)
            if tr.status != "diverged"
        ]
        if not finished:
            raise AllDivergedError(
                f"all {etas.size} runs diverged for kind={kind!r}"
            )
        best_index = min(finished)[2]
    return GridSearchResult(trajectories=trajectories, best_index=best_index)


# ---------------------------------------------------------------------------
# Theory constants and bound verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoryReport:
    """Blockwise contraction constants for a problem and an initial point.

    For block l with top eigenvalue lambda_{l,1}, c1[l] and c2[l] are the
    min and max of |initial gradient| / lambda_{l,1} over the block's
    coordinates; r = max c2^2 / min c1^2.  ``eta_theory`` = min_l c1[l] is the
    step size under which the preconditioned iteration provably contracts by
    ``adam_factor`` = max_l (1 - 1/(r kappa_l)) per step, while plain
    gradient descent cannot beat ``gd_factor`` = 1 - 2/(kappa + 1) per step
    on the worst instance.
    """

    kappa: float
    block_kappas: tuple
    c1: tuple
    c2: tuple
    r: float
    eta_theory: float
    gd_factor: float
    adam_factor: float
    adam_block_kappas: tuple


def theory_report(problem: QuadraticProblem, w0) -> TheoryReport:
    w0 = np.asarray(w0, dtype=float)
    g0 = problem.gradient(w0)
    if np.any(g0 == 0):
        coord = int(np.flatnonzero(g0 == 0)[0])
        raise ValueError(f"initial gradient coordinate {coord} is exactly zero")
    c1, c2 = [], []
    for eigs, g_block in zip(problem.block_eigenvalues, problem.partition.split(g0)):
        top = eigs[0]
        mags = np.abs(g_block)
        c1.append(float(mags.min() / top))
        c2.append(float(mags.max() / top))
    r = max(c2) ** 2 / min(c1) ** 2
    adam_block_kappas = tuple(r * k for k in problem.block_kappas)
    return TheoryReport(
        kappa=problem.kappa,
        block_kappas=problem.block_kappas,
        c1=tuple(c1),
        c2=tuple(c2),
        r=float(r),
        eta_theory=float(min(c1)),
        gd_factor=float(1.0 - 2.0 / (problem.kappa + 1.0)),
        adam_factor=float(max(1.0 - 1.0 / k for k in adam_block_kappas)),
        adam_block_kappas=adam_block_kappas,
    )


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of checking a run against the theory bound that covers it."""

    which: str
    violations: int
    steps_checked: int


def _is_hard_instance(problem: QuadraticProblem, w0: np.ndarray) -> bool:
    """Whether (problem, w0) is the ``make_hard_instance`` pair, up to rotation.

    That is H with eigenvalues {1, 5000}, h = 0, and a w0 with equal initial
    loss in both eigendirections: the instance the ``gd_lower`` bound covers.
    """
    if problem.dim != 2 or np.any(problem.h != 0):
        return False
    eigs = problem.eigenvalues
    if abs(eigs[0] - 5000.0) > 1e-6 or abs(eigs[-1] - 1.0) > 1e-9:
        return False
    lam, q = np.linalg.eigh(problem.matrix)
    energy = 0.5 * lam * (q.T @ w0) ** 2
    return bool(abs(energy[0] - energy[1]) <= 1e-9 * energy.sum())


def verify_bounds(trajectory: Trajectory) -> BoundCheck | None:
    """Check a run against the one theory bound whose hypothesis it meets.

    ``gd_lower`` covers a gd run on the shipped hard instance, at any step
    size: the largest per-eigendirection error contraction factor
    max_i |1 - eta lambda_i| must not fall below ``gd_factor``, i.e. no step
    size escapes the floor.  ``adam_upper`` covers an adam_fixed run whose
    step size is exactly ``eta_theory``: every recorded step must contract
    the loss gap by at least ``adam_factor`` (up to ``BOUND_SLACK``
    relative).  Both constants come from ``theory_report`` on the run's own
    problem and initial point.  Any other run meets neither hypothesis, and
    the result is None.
    """
    problem, w0 = trajectory.problem, trajectory.w0
    if trajectory.kind == "gd" and _is_hard_instance(problem, w0):
        report = theory_report(problem, w0)
    elif trajectory.kind == "adam_fixed":
        report = theory_report(problem, w0)
        if trajectory.eta != report.eta_theory:
            return None
    else:
        return None
    ratios = trajectory.loss_ratios
    if ratios.size < 2:
        raise ValueError("trajectory is shorter than 2 steps")
    prev = ratios[:-1]
    nxt = ratios[1:]
    ok = prev > RATIO_FLOOR
    if trajectory.kind == "gd":
        factor = float(np.max(np.abs(1.0 - trajectory.eta * problem.eigenvalues)))
        return BoundCheck("gd_lower", int(report.gd_factor - factor > BOUND_SLACK), int(ok.sum()))
    rel = (nxt[ok] - report.adam_factor * prev[ok]) / prev[ok]
    return BoundCheck("adam_upper", int(np.sum(rel > BOUND_SLACK)), int(ok.sum()))


@dataclass(frozen=True)
class LimitCycleReport:
    cycling: bool
    tail_min_loss: float


def detect_limit_cycle(trajectory: Trajectory, transient: int, window: int) -> LimitCycleReport:
    """Decide whether a run has settled into a non-vanishing loss cycle.

    Looks at absolute loss gaps over ``window`` iterations after ``transient``
    and flags cycling when their minimum stays above ``1e-4 * eta**2``: the
    threshold scales with the squared step size, since the cycle amplitude is
    proportional to eta.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    if trajectory.loss_ratios.size < transient + window:
        raise ValueError(
            f"trajectory has {trajectory.loss_ratios.size} recorded iterations, "
            f"need at least transient + window = {transient + window}"
        )
    tail = trajectory.loss_ratios[transient : transient + window] * trajectory.initial_gap
    tail_min = float(tail.min())
    return LimitCycleReport(cycling=bool(tail_min > 1e-4 * trajectory.eta**2), tail_min_loss=tail_min)
