import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from blockspectra.quadlab import (
    _CONVERGED,
    _DIVERGED,
    _LIVE,
    _MAXITERS,
    _PRUNED,
    _STATUS_NAMES,
    CHUNK,
    DIVERGENCE_RATIO,
    KINDS,
    AllDivergedError,
    BoundCheck,
    QuadraticProblem,
    Trajectory,
    _run_batch,
    adam_ema_run,
    adam_fixed_run,
    default_eta_grid,
    default_gd_eta,
    detect_limit_cycle,
    gaussian_init,
    gd_run,
    grid_search,
    make_case,
    make_hard_instance,
    runs,
    scalar_problem,
    theory_report,
    verify_bounds,
)
from helpers import scaled_problem, write_spectrum_csv

CASE_EIGS = np.array([1.0, 2.0, 3.0, 99.0, 100.0, 101.0, 4998.0, 4999.0, 5000.0])


# ---------------------------------------------------------------------------
# problems and cases
# ---------------------------------------------------------------------------

def test_case3_eigenvalues_exact(case3):
    assert np.allclose(np.sort(case3.eigenvalues), CASE_EIGS, rtol=1e-8)
    assert case3.kappa == pytest.approx(5000.0, rel=1e-6)


def test_case4_same_multiset_different_grouping(case3, case4):
    assert np.allclose(np.sort(case4.eigenvalues), np.sort(case3.eigenvalues), rtol=1e-12)
    assert case4.kappa == pytest.approx(5000.0, rel=1e-6)
    k3 = sorted(case3.block_kappas)
    k4 = sorted(case4.block_kappas)
    assert max(k3) <= 3.01
    assert min(k4) > 1000  # each case-4 block spans the full range


def test_case_blocks_are_rotated(case3):
    # Q factors must be orthogonal rotations, not axis-aligned
    for b in case3.blocks:
        assert np.abs(b - np.diag(np.diag(b))).max() > 1e-3


def test_case_seed_changes_rotation_not_spectrum():
    a = make_case(3, seed=0)
    b = make_case(3, seed=1)
    assert not np.allclose(a.matrix, b.matrix)
    assert np.allclose(np.sort(a.eigenvalues), np.sort(b.eigenvalues), rtol=1e-9)


def test_case12_requires_spectrum_files():
    with pytest.raises(ValueError):
        make_case(1, seed=0)


def test_case1_from_files(tmp_path, rng):
    files = []
    for i in range(4):
        path = tmp_path / f"spec{i}.csv"
        write_spectrum_csv(path, rng.random(60) * (10 ** (i + 1)))
        files.append(path)
    prob = make_case(1, seed=0, spectrum_files=files)
    assert prob.dim == 100
    assert prob.eigenvalues[-1] == pytest.approx(1.0, rel=1e-6)
    assert prob.eigenvalues[0] == pytest.approx(5000.0, rel=1e-6)
    assert prob.kappa == pytest.approx(5000.0, rel=1e-5)


def test_case1_rejects_short_files(tmp_path):
    path = tmp_path / "short.csv"
    write_spectrum_csv(path, np.arange(5.0) + 1)
    with pytest.raises(ValueError):
        make_case(2, seed=0, spectrum_files=[path] * 4)


def test_problem_rejects_indefinite():
    with pytest.raises(ValueError):
        QuadraticProblem([[[1.0, 0.0], [0.0, -2.0]]])


def test_problem_minimizer_is_minimum(rng):
    g = rng.standard_normal((4, 4))
    block = 0.5 * (g + g.T) + 5 * np.eye(4)
    h = rng.standard_normal(4)
    prob = QuadraticProblem([block], h=h)

    def loss(w):
        return 0.5 * w @ (prob.matrix @ w) - prob.h @ w

    for _ in range(10):
        w = prob.minimizer + rng.standard_normal(4)
        assert loss(w) >= loss(prob.minimizer) - 1e-10


@pytest.mark.parametrize("run", [gd_run, adam_fixed_run])
@pytest.mark.parametrize("eta", [0.0, -0.1])
def test_runs_reject_nonpositive_eta(case3, run, eta):
    with pytest.raises(ValueError, match="eta must be positive"):
        run(case3, np.ones(9), eta=eta, max_iters=5)


def test_grid_search_rejects_unknown_kind(case3):
    with pytest.raises(ValueError, match="kind must be one of"):
        grid_search(case3, "sgd", [0.1], np.ones(9), budget=5)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda p, w: gd_run(p, w, max_iters=-1), "max_iters"),
        (lambda p, w: grid_search(p, "gd", [0.1, 0.01], w, budget=-1), "budget"),
        (lambda p, w: grid_search(p, "gd", [1e-3, np.nan], w, budget=10), "eta must be positive and finite, got nan"),
        (lambda p, w: grid_search(p, "gd", [0.1, 0.01], w[:5], budget=10), "w0 must be one point per step size"),
        (lambda p, w: grid_search(p, "gd", [0.1, 0.01], w[None], budget=10), "w0 must be one point per step size"),
        (lambda p, w: gd_run(p, w, max_iters=20, target=float("nan")), "target must be a number >= 0 or None, got nan"),
        (lambda p, w: grid_search(p, "gd", [0.1, 0.01], w, budget=10, target=-1e-6), "target must be a number >= 0"),
        (lambda p, w: gd_run(p, w, max_iters=2.5, target=None), r"max_iters \(the iteration budget\) must be an integer, got 2.5"),
    ],
    ids=[
        "gd_run_negative_max_iters", "grid_negative_budget", "grid_nan_eta", "grid_short_w0", "grid_2d_w0",
        "gd_run_nan_target", "grid_negative_target", "gd_run_fractional_max_iters",
    ],
)
def test_bad_run_arguments_are_rejected_by_name(case3, call, message):
    with pytest.raises(ValueError, match=message):
        call(case3, np.ones(9))


# ---------------------------------------------------------------------------
# gradient descent
# ---------------------------------------------------------------------------

def test_gd_one_step_convergence():
    prob = scalar_problem(1.0)
    traj = gd_run(prob, np.array([5.0]), eta=1.0, target=1e-12)
    assert traj.status == "converged"
    assert traj.iterations == 1
    assert traj.loss_ratios[0] == 1.0


def test_gd_default_eta(case3):
    assert default_gd_eta(case3) == pytest.approx(2.0 / 5001.0, rel=1e-9)


def test_gd_matches_closed_form(rng):
    g = rng.standard_normal((6, 6))
    block = 0.5 * (g + g.T) + 8 * np.eye(6)
    h = rng.standard_normal(6)
    prob = QuadraticProblem([block], h=h)
    w0 = rng.standard_normal(6)
    eta = 0.8 * default_gd_eta(prob)
    traj = gd_run(prob, w0, eta=eta, max_iters=100, target=None)
    lam, q = np.linalg.eigh(prob.matrix)
    wstar = prob.minimizer
    for t, w in enumerate(traj.iterates):
        closed = wstar + q @ ((1 - eta * lam) ** t * (q.T @ (w0 - wstar)))
        assert np.abs(w - closed).max() <= 1e-10 * max(1.0, np.abs(closed).max())


def test_gd_monotone_below_stability_threshold(case3, rng):
    w0 = rng.standard_normal(9)
    traj = gd_run(case3, w0, eta=1.9 / case3.eigenvalues[0], max_iters=2000, target=None)
    assert np.all(np.diff(traj.loss_ratios) <= 1e-12)


def test_gd_divergence_is_a_status_not_a_crash(case3, rng):
    traj = gd_run(case3, rng.standard_normal(9), eta=1.0, max_iters=1000, target=1e-8)
    assert traj.status == "diverged"
    assert np.all(np.isfinite(traj.loss_ratios))
    assert np.all(traj.loss_ratios >= -1e-12)


def test_gd_asymptotic_rate(case3):
    w0 = gaussian_init(9, seed=1)
    traj = gd_run(case3, w0, target=1e-8)
    tail = traj.loss_ratios[-60:]
    factors = tail[1:] / tail[:-1]
    assert np.median(factors) == pytest.approx((4999.0 / 5001.0) ** 2, abs=1e-4)


# ---------------------------------------------------------------------------
# the linear kinds against their closed form
# ---------------------------------------------------------------------------

def _closed_form_ratios(problem, w0, eta, pinv, ts):
    """Loss ratios at iterations ``ts`` of w <- w - eta P g, with P = diag(pinv) fixed.

    With M = P^1/2 H P^1/2 = Q diag(lam) Q' and z = Q' P^-1/2 (w0 - w*), the
    ratio at step t is sum(lam z^2 (1 - eta lam)^2t) / sum(lam z^2).
    """
    root = np.sqrt(pinv)
    lam, q = np.linalg.eigh(root[:, None] * problem.matrix * root[None, :])
    z = q.T @ ((w0 - problem.minimizer) / root)
    energy = lam * z**2
    return (energy * (1.0 - eta * lam) ** (2 * np.asarray(ts)[:, None])).sum(axis=1) / energy.sum()


@pytest.mark.parametrize("kind", ["gd", "adam_fixed"])
@pytest.mark.parametrize("case_id", [3, 4])
def test_linear_kinds_match_closed_form(case_id, kind):
    problem = make_case(case_id, seed=0)
    steps = 3000
    ts = np.arange(steps + 1)
    run = {"gd": gd_run, "adam_fixed": adam_fixed_run}[kind]
    for seed in range(3):
        w0 = gaussian_init(9, seed=seed)
        pinv = np.ones(9) if kind == "gd" else 1.0 / np.abs(problem.gradient(w0))
        root = np.sqrt(pinv)
        lam_max = np.linalg.eigvalsh(root[:, None] * problem.matrix * root[None, :])[-1]
        etas = np.array([1.0, 1.8]) / lam_max
        batch = _run_batch(problem, np.tile(w0, (1, 2, 1)), etas[None], kind, 1.0, steps, None)
        singles = [run(problem, w0, eta=eta, max_iters=steps, target=None) for eta in etas]
        for eta, *same_eta in zip(etas, batch, singles):
            oracle = _closed_form_ratios(problem, w0, eta, pinv, ts)
            kept = oracle > 1e-200
            assert kept.sum() > 100
            for tr in same_eta:
                assert (tr.status, tr.iterations) == ("max_iters", steps)
                err = np.abs(tr.loss_ratios[kept] - oracle[kept]) / oracle[kept]
                assert err.max() <= 1e-10


# ---------------------------------------------------------------------------
# adam_fixed
# ---------------------------------------------------------------------------

def test_adam_fixed_hand_computed_first_step():
    prob = QuadraticProblem([[[2.0]]])
    eta = 0.25
    traj = adam_fixed_run(prob, np.array([3.0]), eta, max_iters=5, target=None)
    # D = |grad| = 6, update 3 - eta * 6/6 = 3 - eta
    assert traj.iterates[1][0] == pytest.approx(3.0 - eta, rel=1e-14)


def test_adam_fixed_scale_invariance(case3, rng):
    w0 = rng.standard_normal(9)
    base = adam_fixed_run(case3, w0, 0.05, max_iters=100, target=None)
    scaled = adam_fixed_run(scaled_problem(case3, 7.3), w0, 0.05, max_iters=100, target=None)
    assert base.iterates.shape == scaled.iterates.shape
    for w1, w2 in zip(base.iterates, scaled.iterates):
        assert np.abs(w1 - w2).max() <= 1e-12 * max(1.0, np.abs(w1).max())
    assert np.allclose(base.loss_ratios, scaled.loss_ratios, rtol=1e-10)


def test_gd_is_not_scale_invariant(case3, rng):
    w0 = rng.standard_normal(9)
    eta = default_gd_eta(case3)
    base = gd_run(case3, w0, eta=eta, max_iters=50, target=None)
    scaled = gd_run(scaled_problem(case3, 2.0), w0, eta=eta, max_iters=50, target=None)
    w1 = base.iterates[10]
    w2 = scaled.iterates[10]
    assert np.abs(w1 - w2).max() > 1e-6


def test_adam_fixed_equals_preconditioned_gd(case3, rng):
    w0 = rng.standard_normal(9)
    eta = 0.05
    traj = adam_fixed_run(case3, w0, eta, max_iters=50, target=None)
    g0 = case3.gradient(w0)
    dinv = 1.0 / np.abs(g0)
    w = w0.copy()
    manual = {0: w0.copy()}
    for t in range(1, 51):
        w = w - eta * dinv * (case3.matrix @ w - case3.h)
        manual[t] = w.copy()
    for t, snap in enumerate(traj.iterates):
        assert np.abs(snap - manual[t]).max() <= 1e-12 * max(1.0, np.abs(manual[t]).max())


def test_adam_fixed_zero_gradient_coordinate_error(case3):
    w0 = np.ones(9)
    w0[3:6] = 0.0  # zero block => zero gradient coordinates there
    with pytest.raises(ValueError, match="coordinate"):
        adam_fixed_run(case3, w0, 0.1)


# ---------------------------------------------------------------------------
# adam_ema
# ---------------------------------------------------------------------------

def test_adam_ema_sign_descent_cycle():
    prob = scalar_problem(1.0)
    eta = 0.1
    traj = adam_ema_run(prob, np.array([eta / 2]), eta, beta2=0.0, max_iters=500)
    gaps = traj.loss_ratios * traj.initial_gap
    # alternates between +eta/2 and -eta/2 forever, loss stays at eta^2/8
    assert np.all(np.abs(gaps - eta**2 / 8) <= 1e-15)
    iterates = traj.iterates
    assert iterates[10][0] == pytest.approx(eta / 2, abs=1e-15)
    assert iterates[11][0] == pytest.approx(-eta / 2, abs=1e-15)


def test_adam_ema_accumulator_matches_direct_sum(case3, rng):
    beta2 = 0.7
    w0 = rng.standard_normal(9)
    traj = adam_ema_run(case3, w0, 0.01, beta2=beta2, max_iters=6)
    iterates = traj.iterates
    grads = [case3.gradient(w) for w in iterates]
    # replay the recursion from the displayed sum and compare iterates
    w = w0.copy()
    for t in range(5):
        g = case3.gradient(w)
        acc = beta2**t * grads[0] ** 2
        for k in range(1, t + 1):
            acc = acc + (1 - beta2) * beta2 ** (t - k) * grads[k] ** 2
        w = w - 0.01 * g / np.sqrt(acc)
        assert np.abs(w - iterates[t + 1]).max() <= 1e-9 * max(1.0, np.abs(w).max())


def test_adam_ema_t1_accumulator():
    prob = scalar_problem(2.0)
    beta2 = 0.9
    eta = 0.05
    w0 = np.array([1.5])
    traj = adam_ema_run(prob, w0, eta, beta2=beta2, max_iters=3)
    g0 = 2.0 * 1.5
    w1 = 1.5 - eta * np.sign(g0)  # v0 = g0^2 exactly
    g1 = 2.0 * w1
    v1 = (1 - beta2) * g1**2 + beta2 * g0**2
    w2 = w1 - eta * g1 / np.sqrt(v1)
    iterates = traj.iterates
    assert iterates[1][0] == pytest.approx(w1, rel=1e-14)
    assert iterates[2][0] == pytest.approx(w2, rel=1e-14)


def test_adam_ema_nonconvergence_scalar():
    prob = scalar_problem(1.0)
    traj = adam_ema_run(prob, np.array([1.0]), 0.1, beta2=0.99, max_iters=20_000)
    gaps = traj.loss_ratios[10_000:] * traj.initial_gap
    assert gaps.min() > 0


def test_adam_ema_zero_preconditioner_skips_coordinate(case3):
    w0 = np.ones(9)
    w0[0:3] = 0.0  # that block starts at its minimizer with zero gradient
    traj = adam_ema_run(case3, w0, 0.01, beta2=0.5, max_iters=10)
    assert any("zero preconditioner" in d for d in traj.diagnostics)
    for w in traj.iterates:
        assert np.array_equal(w[0:3], np.zeros(3))


def test_adam_ema_rejects_bad_beta2(case3):
    with pytest.raises(ValueError):
        adam_ema_run(case3, np.ones(9), 0.1, beta2=1.0)


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------

def test_grid_search_picks_fewest_iterations():
    prob = scalar_problem(1.0)
    result = grid_search(prob, "gd", [0.5, 1.0, 1.5], np.array([4.0]), target=1e-10)
    assert result.best.eta == 1.0
    assert result.best.iterations == 1
    assert len(result.trajectories) == 3


def test_grid_search_tie_prefers_smaller_eta():
    prob = scalar_problem(1.0)
    # 0.5 and 1.5 give the same |1 - eta| contraction, hence identical counts
    result = grid_search(prob, "gd", [1.5, 0.5], np.array([4.0]), target=1e-8)
    assert result.best.eta == 0.5


def test_grid_search_all_diverged(case3, rng):
    with pytest.raises(AllDivergedError):
        grid_search(case3, "gd", [0.5, 1.0], rng.standard_normal(9), budget=500)


def test_grid_search_adam_beats_its_conservative_eta(case3):
    w0 = gaussian_init(9, seed=5, index=1)
    rep = theory_report(case3, w0)
    at_theory = adam_fixed_run(case3, w0, rep.eta_theory, max_iters=60_000, target=1e-6)
    result = grid_search(case3, "adam_fixed", default_eta_grid(), w0, budget=60_000, target=1e-6)
    assert at_theory.status == "converged"
    assert result.best.iterations <= at_theory.iterations


def test_grid_search_gd_default_eta_rate_is_optimal(case4):
    # the default step minimizes the asymptotic per-step factor; a grid can
    # still reach a finite target sooner, but never at a better tail rate,
    # and it cannot beat the default by more than the search resolution
    w0 = gaussian_init(9, seed=5, index=0)
    default = gd_run(case4, w0, target=1e-6, max_iters=60_000)
    result = grid_search(case4, "gd", default_eta_grid(), w0, budget=60_000, target=1e-6)

    def tail_rate(traj):
        tail = traj.loss_ratios[-50:]
        return np.median(tail[1:] / tail[:-1])

    assert default.status == "converged" and result.best.status == "converged"
    for traj in result.trajectories:
        if traj.status == "converged" and traj.iterations > 200:
            assert tail_rate(traj) >= tail_rate(default) - 1e-6
    assert result.best.iterations <= 1.05 * default.iterations


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["gd", "adam_fixed"])
@pytest.mark.parametrize("case_id", [3, 4])
def test_grid_search_stop_rule_matches_full_budget(case_id, kind, seed):
    problem = make_case(case_id, seed=0)
    w0 = gaussian_init(9, seed=seed)
    etas = default_eta_grid()
    budget, target = 16_000, 1e-6
    result = grid_search(problem, kind, etas, w0, budget=budget, target=target)
    # Without a target no row converges, so no row is pruned and every row
    # runs to the budget; each row's own stop is where its ratio first meets
    # the target.
    full = _run_batch(problem, np.tile(w0, (1, etas.size, 1)), etas[None], kind, 1.0, budget, None)
    for tr in full:
        hit = np.flatnonzero(tr.loss_ratios <= target)
        if hit.size:
            tr.status, tr.iterations = "converged", int(hit[0])
            tr.loss_ratios = tr.loss_ratios[: hit[0] + 1]

    converged = [(tr.iterations, tr.eta, i) for i, tr in enumerate(full) if tr.status == "converged"]
    assert converged
    full_best = full[min(converged)[2]]
    best = result.best
    assert result.best_index == min(converged)[2]
    assert (best.eta, best.status, best.iterations) == (full_best.eta, "converged", full_best.iterations)
    assert np.array_equal(best.loss_ratios, full_best.loss_ratios)

    t_star = best.iterations
    pruned = 0
    for stopped, ran in zip(result.trajectories, full):
        if stopped.status == "pruned":
            pruned += 1
            assert stopped.iterations == t_star
            assert ran.status != "converged" or ran.iterations > t_star
            assert np.array_equal(stopped.loss_ratios, ran.loss_ratios[: t_star + 1])
        else:
            assert (stopped.status, stopped.iterations) == (ran.status, ran.iterations)
            assert np.array_equal(stopped.loss_ratios, ran.loss_ratios)
    assert pruned  # the smallest step sizes are still running at t*


def test_grid_row_equals_same_eta_in_two_row_batch(case3):
    # Groups of two or more rows share the matrix-matrix product, so a grid
    # row is reproduced bit for bit by a 2-row group (a lone run may not be).
    w0 = gaussian_init(9, seed=4)
    result = grid_search(case3, "gd", default_eta_grid(), w0, budget=20_000, target=1e-6)
    etas = np.array([result.best.eta, 1e-6])
    pair = _run_batch(case3, np.tile(w0, (1, 2, 1)), etas[None], "gd", 1.0, 20_000, 1e-6)
    assert (pair[0].status, pair[0].iterations) == ("converged", result.best.iterations)
    assert np.array_equal(pair[0].loss_ratios, result.best.loss_ratios)
    assert pair[0].iterates.tobytes() == result.best.iterates.tobytes()


# ---------------------------------------------------------------------------
# the chunked engine against the per-iteration loop it replaced
# ---------------------------------------------------------------------------

def _stepwise_reference(problem, W0, etas, kind, beta2, max_iters, target):
    """Each group of a (groups, rows) batch run alone by ``_stepwise_group``."""
    return [
        tr
        for W0_group, etas_group in zip(W0, etas)
        for tr in _stepwise_group(problem, W0_group, etas_group, kind, beta2, max_iters, target)
    ]


def _stepwise_group(problem, W0, etas, kind, beta2, max_iters, target):
    """The run engine as one full iteration per loop pass, checks left out.

    The body is the engine as it was before it ran in chunks and groups, on
    one group of rows; the chunked engine must match it bit for bit.
    """
    etas = np.asarray(etas, dtype=float)
    n = etas.size
    W0 = np.asarray(W0, dtype=float)
    H = problem.matrix
    h = problem.h
    wstar = problem.minimizer
    resid = H @ wstar - h  # ~0; kept so gaps stay exact for h != 0
    W = W0.copy()

    gap0 = 0.5 * np.einsum("nd,nd->n", W - wstar, (W - wstar) @ H)
    if not np.all(np.isfinite(gap0)):
        bad = int(np.flatnonzero(~np.isfinite(gap0))[0])
        raise ValueError(f"initial point {bad} is not finite or its loss overflows")
    if np.any(gap0 <= 0):
        bad = int(np.argmin(gap0))
        raise ValueError(f"initial point {bad} already sits at the minimizer")

    # Each row's fixed P: ones for gd (G * 1.0 is G bit for bit), 1 / |g(w0)| for adam_fixed.
    pinv = np.ones_like(W)
    if kind == "adam_fixed":
        G0 = W @ H - h
        if np.any(G0 == 0):
            row, col = np.argwhere(G0 == 0)[0]
            raise ValueError(
                f"initial gradient coordinate {int(col)} is zero (run {int(row)}); "
                "the fixed preconditioner would divide by zero"
            )
        pinv = 1.0 / np.abs(G0)

    V = None  # second-moment accumulator for adam_ema
    status = np.full(n, _LIVE, dtype=int)
    live = np.ones(n, dtype=bool)
    # Every row's ratio is stored at every iteration run, and each row is cut
    # at its own last iteration, so columns never written are never read.
    ratios = np.empty((n, max_iters + 1))
    iters = np.zeros(n, dtype=int)
    diag_counts = np.zeros(n, dtype=int)
    iterates = [[] for _ in range(n)]  # each row's first CHUNK iterates
    step_sizes = etas[:, None]
    # A live row's status can change only when its ratio leaves
    # (lower, DIVERGENCE_RATIO]: non-finite, at or below target, or blown up.
    lower = -np.inf if target is None else target

    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(max_iters + 1):
            G = W @ H - h
            diff = W - wstar
            gap = 0.5 * np.einsum("nd,nd->n", diff, G - resid)
            ratio = gap / gap0
            ratios[:, t] = ratio

            if t < CHUNK:
                for i in np.flatnonzero(live):
                    iterates[i].append(W[i].copy())
            quiet = (ratio > lower) & (ratio <= DIVERGENCE_RATIO)
            if not quiet[live].all():
                nonfinite = live & ~np.isfinite(ratio)
                status[nonfinite] = _DIVERGED
                iters[nonfinite] = t - 1
                W[nonfinite] = wstar  # freeze so later batched updates stay finite
                live = status == _LIVE
                if target is not None:
                    converged = live & (ratio <= target)
                    status[converged] = _CONVERGED
                    iters[converged] = t
                    live = status == _LIVE
                blown = live & (ratio > DIVERGENCE_RATIO)
                status[blown] = _DIVERGED
                iters[blown] = t
                W[blown] = wstar
                live = status == _LIVE
                if t < max_iters and (status == _CONVERGED).any():
                    status[live] = _PRUNED
                    iters[live] = t
                    break
                if not live.any():
                    break
            if t == max_iters:
                status[live] = _MAXITERS
                iters[live] = t
                break

            if kind != "adam_ema":
                step = G * pinv
            else:
                if V is None:
                    V = G * G
                else:
                    V = beta2 * V + (1.0 - beta2) * (G * G)
                D = np.sqrt(V)
                zero = D == 0
                if zero.any():
                    diag_counts[live] += zero[live].sum(axis=1)
                    step = np.where(zero, 0.0, G / np.where(zero, 1.0, D))
                else:
                    step = G / D
            W -= step_sizes * step

    trajectories = []
    for i in range(n):
        # A row that turned non-finite at t ends at t - 1, so every series is
        # finite; the copy frees the dense buffer.
        series = ratios[i, : iters[i] + 1].copy()
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
                iterates=np.array(iterates[i]),
                diagnostics=diagnostics,
                problem=problem,
            )
        )
    return trajectories


def _batch_args(problem, w0, etas, kind, max_iters, target, beta2=0.9):
    """_run_batch arguments for one group of ``etas`` from one shared initial point."""
    etas = np.asarray(etas, dtype=float)
    return (problem, np.tile(w0, (1, etas.size, 1)), etas[None], kind, beta2, max_iters, target)


ORACLE_CASE = make_case(3, seed=0)
ORACLE_W0 = gaussian_init(9, seed=1)
ORACLE_ETA = {"gd": default_gd_eta(ORACLE_CASE), "adam_fixed": 0.05, "adam_ema": 0.01}
ORACLE_ROWS = {1: None, 25: default_eta_grid()}


def _oracle_batches():
    """(id, _run_batch arguments, status the first run must end with or None)."""
    budget = 2 * CHUNK + 37
    for kind in KINDS:
        for rows, grid in ORACLE_ROWS.items():
            etas = [ORACLE_ETA[kind]] if grid is None else grid
            for target in (None, 0.0, 1e-6):
                yield f"{kind}-{rows}row-target-{target}", _batch_args(ORACLE_CASE, ORACLE_W0, etas, kind, budget, target), None
            for max_iters in (0, 1, CHUNK):
                yield f"{kind}-{rows}row-max_iters-{max_iters}", _batch_args(ORACLE_CASE, ORACLE_W0, etas, kind, max_iters, None), "max_iters"
        for eta in (1e8, 1e300):
            yield f"{kind}-diverges-at-eta-{eta}", _batch_args(ORACLE_CASE, ORACLE_W0, [eta], kind, budget, 1e-6), "diverged"
    # The first block starts at its minimizer, so its gradient and second
    # moment are zero; the larger step sizes diverge at different columns.
    zero_start = np.ones(9)
    zero_start[0:3] = 0.0
    for etas in ([0.01], [0.01, 0.03, 1e8, 1e300]):
        args = _batch_args(ORACLE_CASE, zero_start, etas, "adam_ema", budget, None, beta2=0.5)
        yield f"adam_ema-zero-preconditioner-{len(etas)}row", args, "max_iters"


ORACLE_BATCHES = {name: (args, status) for name, args, status in _oracle_batches()}


def _assert_same_runs(runs, reference):
    assert len(runs) == len(reference)
    for new, old in zip(runs, reference):
        assert (new.kind, new.eta, new.status, new.iterations) == (old.kind, old.eta, old.status, old.iterations)
        assert new.loss_ratios.tobytes() == old.loss_ratios.tobytes()
        assert new.initial_gap == old.initial_gap and new.diagnostics == old.diagnostics
        assert new.iterates.shape == old.iterates.shape
        assert new.iterates.tobytes() == old.iterates.tobytes()


@pytest.mark.parametrize("name", list(ORACLE_BATCHES))
def test_chunked_engine_matches_stepwise_reference(name):
    args, status = ORACLE_BATCHES[name]
    reference = _stepwise_reference(*args)
    assert status in (None, reference[0].status)
    _assert_same_runs(_run_batch(*args), reference)
    if name.startswith("adam_ema-zero"):
        assert reference[0].diagnostics


@pytest.mark.parametrize("column", [CHUNK - 1, CHUNK, CHUNK + 1])
@pytest.mark.parametrize("rows", list(ORACLE_ROWS))
@pytest.mark.parametrize("kind", ["gd", "adam_fixed"])
def test_chunked_engine_converges_at_chunk_edges(kind, rows, column):
    grid = ORACLE_ROWS[rows]
    etas = [ORACLE_ETA[kind]] if grid is None else grid
    args = _batch_args(ORACLE_CASE, ORACLE_W0, etas, kind, column + 5, None)
    # The smallest ratio at ``column``: every run that still falls there
    # reaches it no sooner, so the batch stops at ``column``.
    target = min(tr.loss_ratios[column] for tr in _stepwise_reference(*args) if tr.iterations >= column)
    args = args[:5] + (column + CHUNK, float(target))
    reference = _stepwise_reference(*args)
    assert [tr.iterations for tr in reference if tr.status == "converged"] == [column]
    _assert_same_runs(_run_batch(*args), reference)


@pytest.mark.parametrize("column", [CHUNK - 1, CHUNK, CHUNK + 1])
@pytest.mark.parametrize("etas", [[], [0.01]], ids=["alone", "beside_a_slow_run"])
def test_chunked_engine_diverges_at_chunk_edges(column, etas):
    # gd on L = w^2 / 2 scales the ratio by (1 - eta)^2 per step, so this
    # step size first passes DIVERGENCE_RATIO at ``column``.
    blow_up = 1.0 + 10.0 ** (6.0 / (column - 0.5))
    args = _batch_args(scalar_problem(1.0), np.array([1.0]), [blow_up, *etas], "gd", column + CHUNK, None)
    reference = _stepwise_reference(*args)
    assert (reference[0].status, reference[0].iterations) == ("diverged", column)
    _assert_same_runs(_run_batch(*args), reference)


# On ORACLE_CASE with target 1e-3 and a budget of 2 * CHUNK + 37, these runs
# from gaussian_init(9, seed=1, index=i) converge, diverge and run out of
# budget, at different columns on both sides of a chunk edge.
MIXED_ETAS = {
    "gd": [1e-6, 2 / 5001, 1.5 / 5001, 1.5e-4, 1e-3, 1e-2, 1e300],
    "adam_fixed": [1e-6, 0.05, 0.02, 0.03, 1.0, 10.0, 1e300],
    "adam_ema": [1e-6, 0.01, 0.003, 0.03, 1e8, 1e300, 0.001],
}


@pytest.mark.parametrize("kind", KINDS)
def test_runs_equal_lone_runs(kind):
    etas = MIXED_ETAS[kind]
    W0 = np.array([gaussian_init(9, seed=1, index=i) for i in range(len(etas))])
    if kind == "adam_ema":
        # A start whose first block sits at its minimizer skips coordinates.
        W0 = np.vstack([W0, np.r_[np.zeros(3), np.ones(6)]])
        etas = etas + [0.01]
    budget, target = 2 * CHUNK + 37, 1e-3
    batch = runs(ORACLE_CASE, kind, W0, etas, 0.5, budget, target)
    for w0, eta, tr in zip(W0, etas, batch):
        _assert_same_runs([tr], runs(ORACLE_CASE, kind, w0[None], [eta], 0.5, budget, target))
    reference = _stepwise_reference(ORACLE_CASE, W0[:, None], np.array(etas)[:, None], kind, 0.5, budget, target)
    _assert_same_runs(batch, reference)

    columns = {}
    for tr in batch:
        columns.setdefault(tr.status, set()).add(tr.iterations)
    assert set(columns) == {"converged", "diverged", "max_iters"}
    assert len(columns["converged"]) >= 2 and len(columns["diverged"]) >= 2
    assert min(columns["converged"]) < CHUNK < max(columns["converged"])
    if kind == "adam_ema":
        assert batch[-1].diagnostics


@pytest.mark.parametrize("kind", ["gd", "adam_fixed"])
def test_grid_groups_stop_on_their_own(kind):
    # Two grids in one call end at their own first convergence and prune only
    # their own rows, exactly as two grid_search calls do.
    etas = default_eta_grid()
    starts = [gaussian_init(9, seed=s) for s in (0, 1)]
    W0 = np.array([np.tile(w0, (etas.size, 1)) for w0 in starts])
    both = _run_batch(ORACLE_CASE, W0, np.tile(etas, (2, 1)), kind, 0.99, 22_000, 1e-6)
    alone = [grid_search(ORACLE_CASE, kind, etas, w0, budget=22_000, target=1e-6).trajectories for w0 in starts]
    _assert_same_runs(both, alone[0] + alone[1])
    # A grid's rows are copied out, so keeping its best run does not keep the grid.
    assert all(tr.loss_ratios.base is None for tr in both)
    pruned_at = [{tr.iterations for tr in group if tr.status == "pruned"} for group in alone]
    assert len(pruned_at[0]) == len(pruned_at[1]) == 1 and pruned_at[0] != pruned_at[1]


def _theory_starts(count, seed=3):
    W0 = np.array([gaussian_init(9, seed=seed, index=i) for i in range(count)])
    return W0, [theory_report(ORACLE_CASE, w0).eta_theory for w0 in W0]


def test_runs_step_each_run_only_up_to_its_own_chunk(monkeypatch):
    # A run that stops is not stepped past the end of its chunk, so one long
    # run among short ones does not make every run as long as it.
    W0, etas = _theory_starts(12)
    W0, etas = np.vstack([W0, W0[:1]]), etas + [1e-6]  # the last runs to the budget
    budget = 3000
    stepped = []
    matmul = np.matmul

    def counting(a, b, out=None):
        stepped.append(out.shape[0])  # the groups stepped in this column
        return matmul(a, b, out=out)

    monkeypatch.setattr(np, "matmul", counting)
    batch = runs(ORACLE_CASE, "adam_fixed", W0, etas, None, budget, 1e-6)
    monkeypatch.undo()
    iterations = [tr.iterations for tr in batch]
    assert batch[-1].status == "max_iters" and max(iterations[:-1]) < budget // 2
    assert len({it // CHUNK for it in iterations}) >= 4
    own_chunks = [min(-(-(it + 1) // CHUNK) * CHUNK, budget + 1) for it in iterations]
    assert sum(stepped) == sum(own_chunks) < len(batch) * (budget + 1) / 3


def _traced_peak(fn):
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_runs_hold_each_ratio_once():
    # Every run keeps every column without a target.  3000 more columns of
    # budget should raise the peak by what the 40 runs keep, not twice that.
    W0, etas = _theory_starts(40)
    small, small_peak = _traced_peak(lambda: runs(ORACLE_CASE, "adam_fixed", W0, etas, None, 1000, None))
    large, large_peak = _traced_peak(lambda: runs(ORACLE_CASE, "adam_fixed", W0, etas, None, 4000, None))
    kept = sum(tr.loss_ratios.nbytes for tr in large) - sum(tr.loss_ratios.nbytes for tr in small)
    assert kept == 40 * 3000 * 8
    assert large_peak - small_peak <= 1.25 * kept


RSS_PROBE = """
import resource, sys
import numpy as np
from blockspectra.quadlab import gaussian_init, make_case, runs, theory_report
problem = make_case(3, seed=0)
W0 = np.array([gaussian_init(9, seed=3, index=i) for i in range(40)])
etas = [theory_report(problem, w0).eta_theory for w0 in W0]
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
trajectories = runs(problem, "adam_fixed", W0, etas, None, int(sys.argv[1]), 1e-6)
assert {tr.status for tr in trajectories} == {"converged"}
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux only")
def test_runs_resident_memory_follows_the_columns_run():
    # Every run converges before column 2000, so a budget of 200,000 reserves
    # 63 MB more for the 40 runs' ratios but should touch none of it.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def growth_kib(budget):
        proc = subprocess.run(
            [sys.executable, "-c", RSS_PROBE, str(budget)], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout)

    assert growth_kib(200_000) - growth_kib(2000) <= 2048


# ---------------------------------------------------------------------------
# theory and bounds
# ---------------------------------------------------------------------------

def test_theory_gd_factor(case3, rng):
    rep = theory_report(case3, rng.standard_normal(9))
    assert rep.gd_factor == pytest.approx(4999.0 / 5001.0, rel=1e-12)
    assert rep.kappa == pytest.approx(5000.0, rel=1e-6)


def test_theory_equal_gradient_magnitudes_give_r_one():
    prob = QuadraticProblem([np.eye(4) * 3.0])
    w0 = np.array([1.0, -1.0, 1.0, -1.0])
    rep = theory_report(prob, w0)
    assert rep.c1 == rep.c2
    assert rep.r == pytest.approx(1.0, rel=1e-12)
    assert rep.adam_factor == pytest.approx(0.0, abs=1e-12)


def test_theory_rejects_zero_gradient(case3):
    w0 = np.ones(9)
    w0[0:3] = 0.0
    with pytest.raises(ValueError):
        theory_report(case3, w0)


def test_theory_r_statistic_mostly_moderate(case3):
    rs = [theory_report(case3, gaussian_init(9, seed=2, index=i)).r for i in range(200)]
    assert np.mean(np.asarray(rs) <= 1000.0) >= 0.55


def test_adam_upper_bound_holds_per_step(case3):
    w0 = gaussian_init(9, seed=1, index=3)
    rep = theory_report(case3, w0)
    traj = adam_fixed_run(case3, w0, rep.eta_theory, max_iters=3000, target=None)
    check = verify_bounds(traj)
    assert check.which == "adam_upper"
    assert check.violations == 0
    assert check.steps_checked >= 2999


def test_adam_upper_applies_only_at_eta_theory(case3, rng):
    # The bound holds only at eta_theory, so a run at any other step size, or
    # of another kind, is checked against nothing.
    w0 = rng.standard_normal(9)
    eta = theory_report(case3, w0).eta_theory
    assert verify_bounds(adam_fixed_run(case3, w0, eta, max_iters=100, target=None)).which == "adam_upper"
    assert verify_bounds(adam_fixed_run(case3, w0, 1e-6, max_iters=100, target=None)) is None
    assert verify_bounds(gd_run(case3, w0, max_iters=100, target=None)) is None
    assert verify_bounds(adam_ema_run(case3, w0, eta, beta2=0.9, max_iters=100)) is None


def test_gd_lower_bound_on_hard_instance():
    prob, w0 = make_hard_instance()
    for eta in np.logspace(-6, 0, 50):
        traj = gd_run(prob, w0, eta=float(eta), max_iters=50, target=None)
        check = verify_bounds(traj)
        assert check.which == "gd_lower"
        assert check.violations == 0


def test_gd_lower_tight_at_optimal_eta():
    prob, w0 = make_hard_instance()
    rep = theory_report(prob, w0)
    traj = gd_run(prob, w0, eta=default_gd_eta(prob), max_iters=200, target=None)
    check = verify_bounds(traj)
    assert check.violations == 0
    # equal energy in both eigendirections: measured per-step loss factor is
    # the squared bound at every step
    factors = traj.loss_ratios[1:] / traj.loss_ratios[:-1]
    assert np.allclose(factors, rep.gd_factor**2, rtol=1e-9)


def test_gd_lower_requires_hard_instance(case3, rng, monkeypatch):
    # Off the hard instance a gd run is checked against nothing, and no
    # theory report is built for it.
    from blockspectra import quadlab

    w0 = rng.standard_normal(9)
    traj = gd_run(case3, w0, max_iters=50, target=None)

    def no_report(problem, w0):
        raise AssertionError("built a theory report for a run no bound covers")

    monkeypatch.setattr(quadlab, "theory_report", no_report)
    assert verify_bounds(traj) is None
    prob, hard_w0 = make_hard_instance()
    assert verify_bounds(gd_run(prob, 2.0 * hard_w0 * [1.0, 0.5], max_iters=50, target=None)) is None


def test_verify_bounds_on_a_one_point_gd_run_checks_only_the_step_size():
    # A one-point trajectory has no step to check, but gd_lower tests the
    # step size's contraction factor, which needs none; 2 / 5001 sits on the floor.
    prob, w0 = make_hard_instance()
    traj = gd_run(prob, w0, eta=2.0 / 5001.0, max_iters=0, target=None)
    assert traj.loss_ratios.size == 1
    assert verify_bounds(traj) == BoundCheck("gd_lower", 0, 0)


def test_verify_bounds_on_a_one_point_adam_fixed_run_checks_no_step(case3):
    w0 = gaussian_init(9, seed=0)
    traj = adam_fixed_run(case3, w0, theory_report(case3, w0).eta_theory, max_iters=0, target=None)
    assert verify_bounds(traj) == BoundCheck("adam_upper", 0, 0)


# ---------------------------------------------------------------------------
# limit cycle detection
# ---------------------------------------------------------------------------

def test_limit_cycle_detected_for_sign_descent():
    prob = scalar_problem(1.0)
    eta = 0.1
    traj = adam_ema_run(prob, np.array([eta / 2]), eta, beta2=0.0, max_iters=5000)
    report = detect_limit_cycle(traj, transient=2000, window=2000)
    assert report.cycling
    assert report.tail_min_loss >= eta**2 / 8 - 1e-12


def test_limit_cycle_absent_for_gd():
    prob = scalar_problem(1.0)
    traj = gd_run(prob, np.array([3.0]), eta=0.1, max_iters=4100, target=None)
    report = detect_limit_cycle(traj, transient=4000, window=100)
    assert not report.cycling


def test_limit_cycle_shrinks_with_eta():
    prob = scalar_problem(1.0)
    big = adam_ema_run(prob, np.array([1.0]), 0.1, beta2=0.99, max_iters=20_000)
    small = adam_ema_run(prob, np.array([1.0]), 0.01, beta2=0.99, max_iters=20_000)
    rb = detect_limit_cycle(big, transient=10_000, window=10_000)
    rs = detect_limit_cycle(small, transient=10_000, window=10_000)
    assert rs.tail_min_loss < rb.tail_min_loss
    assert rs.tail_min_loss > 0


def test_limit_cycle_window_validation(case3, rng):
    traj = gd_run(case3, rng.standard_normal(9), max_iters=100, target=None)
    with pytest.raises(ValueError):
        detect_limit_cycle(traj, transient=50, window=0)
    with pytest.raises(ValueError):
        detect_limit_cycle(traj, transient=90, window=50)
