"""Acceptance suite: one test per shipped claim, at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v -s`` to get one PASS line per
criterion.  The whole suite completes in a few minutes on one core;
criteria with explicit wall-time budgets measure themselves.
"""

import os
import time

import numpy as np
import pytest

from blockspectra import (
    SLQParams,
    adam_ema_run,
    adam_fixed_run,
    blockwise_densities,
    gd_run,
    grid_search,
    hessian_fd,
    js_distance,
    make_blobs,
    make_case,
    make_hard_instance,
    pairwise_heatmap,
    random_toynet,
    scaled_mlp,
    smoothed_densities,
    theory_report,
    train,
    verify_bounds,
)
from blockspectra.cli import main as cli_main
from blockspectra.operators import DenseSymmetric, exact_eigenvalues
from blockspectra.quadlab import (
    default_eta_grid,
    default_gd_eta,
    detect_limit_cycle,
    gaussian_init,
    scalar_problem,
)
from blockspectra.slq import l1_distance
from blockspectra.toynet import (
    cross_neuron_hessian_block,
    make_xor_blobs,
    offdiag_mass_ratio,
    snapshot_js0,
)

CASE_EIGS = np.array([1.0, 2.0, 3.0, 99.0, 100.0, 101.0, 4998.0, 4999.0, 5000.0])


def report(num, label):
    print(f"\nACCEPTANCE {num:02d} {label}: PASS")


# ---------------------------------------------------------------------------
# 1. SLQ fidelity against the exactly smoothed oracle
# ---------------------------------------------------------------------------

def test_c01_slq_fidelity():
    rng = np.random.default_rng(7)
    u = rng.random((200, 200))
    op = DenseSymmetric(0.5 * (u + u.T))
    t0 = time.perf_counter()
    (dens,) = blockwise_densities(op, params=SLQParams(steps=80, probes=10, seed=1))
    elapsed = time.perf_counter() - t0
    (oracle,) = smoothed_densities([exact_eigenvalues(op)], sigma=dens.sigma, grid=dens.grid)
    err = l1_distance(dens, oracle)
    assert err <= 0.05, f"L1 error {err}"
    assert elapsed <= 5.0, f"took {elapsed:.2f}s"
    report(1, f"slq density L1 {err:.4f} <= 0.05 in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. benchmark case construction
# ---------------------------------------------------------------------------

def test_c02_case_construction():
    for case_id in (3, 4):
        prob = make_case(case_id, seed=0)
        got = np.sort(exact_eigenvalues(prob.matrix))
        assert np.allclose(got, CASE_EIGS, rtol=1e-8), f"case {case_id} spectrum {got}"
        assert prob.kappa == pytest.approx(5000.0, rel=1e-6)
    report(2, "cases 3 and 4 reproduce the nine listed eigenvalues, kappa = 5000")


# ---------------------------------------------------------------------------
# 3. gradient descent asymptotic rate
# ---------------------------------------------------------------------------

def test_c03_gd_rate():
    prob = make_case(3, seed=0)
    w0 = gaussian_init(9, seed=1)
    t0 = time.perf_counter()
    traj = gd_run(prob, w0, target=1e-8)
    elapsed = time.perf_counter() - t0
    assert traj.status == "converged"
    tail = traj.loss_ratios[-60:]
    factor = float(np.median(tail[1:] / tail[:-1]))
    expected = (4999.0 / 5001.0) ** 2
    assert abs(factor - expected) <= 1e-4, f"tail factor {factor} vs {expected}"
    assert elapsed <= 1.0, f"took {elapsed:.2f}s"
    report(3, f"gd tail factor {factor:.6f} within 1e-4 of (4999/5001)^2, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. gradient descent lower bound on the hard instance
# ---------------------------------------------------------------------------

def test_c04_gd_lower_bound():
    prob, w0 = make_hard_instance()
    rep = theory_report(prob, w0)
    etas = np.append(np.logspace(-6, 0, 200), default_gd_eta(prob))
    violations = 0
    for eta in etas:
        traj = gd_run(prob, w0, eta=float(eta), max_iters=10, target=None)
        check = verify_bounds(traj)
        violations += check.violations
    assert violations == 0
    report(4, f"no contraction-floor violations over {etas.size} step sizes")


# ---------------------------------------------------------------------------
# 5. preconditioned upper bound, per step, 100 initializations
# ---------------------------------------------------------------------------

def test_c05_adam_upper_bound():
    prob = make_case(3, seed=0)
    t0 = time.perf_counter()
    total_violations = 0
    for i in range(100):
        w0 = gaussian_init(9, seed=10, index=i)
        rep = theory_report(prob, w0)
        traj = adam_fixed_run(prob, w0, rep.eta_theory, max_iters=10_000, target=None)
        check = verify_bounds(traj)
        total_violations += check.violations
    elapsed = time.perf_counter() - t0
    assert total_violations == 0
    assert elapsed <= 60.0, f"took {elapsed:.1f}s"
    report(5, f"0 per-step bound violations over 100 runs x 1e4 steps in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. the gradient-ratio statistic is usually moderate
# ---------------------------------------------------------------------------

def test_c06_r_statistic():
    prob = make_case(3, seed=0)
    rs = np.array(
        [theory_report(prob, gaussian_init(9, seed=2, index=i)).r for i in range(1000)]
    )
    frac = float(np.mean(rs <= 1000.0))
    assert frac >= 0.62, f"P(r <= 1000) = {frac}"
    report(6, f"P(r <= 1000) = {frac:.3f} >= 0.62 over 1000 initializations")


# ---------------------------------------------------------------------------
# 7. heterogeneity decides the tuned gd vs preconditioned gap
# ---------------------------------------------------------------------------

def test_c07_heterogeneity_gap():
    medians = {}
    for case_id in (3, 4):
        prob = make_case(case_id, seed=0)
        ratios = []
        for i in range(20):
            w0 = gaussian_init(9, seed=3, index=i)
            gd = grid_search(prob, "gd", default_eta_grid(), w0, budget=60_000, target=1e-6)
            adam = grid_search(prob, "adam_fixed", default_eta_grid(), w0, budget=60_000, target=1e-6)
            ratios.append(gd.best.iterations / adam.best.iterations)
        medians[case_id] = float(np.median(ratios))
    assert medians[3] >= 3.0, f"case 3 median ratio {medians[3]}"
    assert medians[4] <= 2.0, f"case 4 median ratio {medians[4]}"
    report(7, f"median iteration ratios: case3 {medians[3]:.1f} >= 3, case4 {medians[4]:.2f} <= 2")


# ---------------------------------------------------------------------------
# 8. constant-step exponential averaging cycles instead of converging
# ---------------------------------------------------------------------------

def test_c08_limit_cycle():
    prob = scalar_problem(1.0)
    eta = 0.1
    tail_mins = {}
    for beta2, w0 in ((0.0, eta / 2), (0.99, 1.0)):
        traj = adam_ema_run(prob, np.array([w0]), eta, beta2=beta2, max_iters=20_000)
        cyc = detect_limit_cycle(traj, transient=10_000, window=10_000)
        assert cyc.cycling, f"beta2={beta2} failed to cycle"
        assert cyc.tail_min_loss > 1e-4 * eta**2
        tail_mins[beta2] = cyc.tail_min_loss
    assert tail_mins[0.0] >= eta**2 / 8 - 1e-12
    small = adam_ema_run(prob, np.array([1.0]), eta / 10, beta2=0.99, max_iters=20_000)
    cyc_small = detect_limit_cycle(small, transient=10_000, window=10_000)
    assert 0 < cyc_small.tail_min_loss < tail_mins[0.99]
    report(8, f"tail minima {tail_mins[0.0]:.2e} (sign cycle), {tail_mins[0.99]:.2e}; eta/10 shrinks but stays positive")


# ---------------------------------------------------------------------------
# 9. frozen-preconditioner scale invariance
# ---------------------------------------------------------------------------

def test_c09_scale_invariance():
    rng = np.random.default_rng(9)
    blocks = []
    for k in (3, 3):
        g = rng.standard_normal((k, k))
        blocks.append(0.5 * (g + g.T) + 4 * np.eye(k))
    from blockspectra.quadlab import QuadraticProblem

    prob = QuadraticProblem(blocks, h=rng.standard_normal(6))
    w0 = rng.standard_normal(6)
    base = adam_fixed_run(prob, w0, 0.05, max_iters=100, target=None)
    scaled = adam_fixed_run(prob.scaled(7.3), w0, 0.05, max_iters=100, target=None)
    assert dict(base.snapshots).keys() == dict(scaled.snapshots).keys()
    for (t, w1), (_, w2) in zip(base.snapshots, scaled.snapshots):
        assert np.abs(w1 - w2).max() <= 1e-12 * max(1.0, np.abs(w1).max()), f"step {t}"
    gd_base = gd_run(prob, w0, eta=0.01, max_iters=100, target=None)
    gd_scaled = gd_run(prob.scaled(7.3), w0, eta=0.01, max_iters=100, target=None)
    diff = np.abs(dict(gd_base.snapshots)[10] - dict(gd_scaled.snapshots)[10]).max()
    assert diff > 1e-6, "gd unexpectedly scale invariant"
    report(9, "preconditioned iterates invariant to 7.3x problem scaling; gd witness differs")


# ---------------------------------------------------------------------------
# 10. distance suite
# ---------------------------------------------------------------------------

def test_c10_js_suite():
    grid = np.linspace(-20, 20, 4001)
    (p,) = smoothed_densities([[-10.0]], sigma=0.3, grid=grid)
    (q,) = smoothed_densities([[10.0]], sigma=0.3, grid=grid)
    (r,) = smoothed_densities([[-9.0]], sigma=0.8, grid=grid)
    assert js_distance(p, p) == 0.0
    assert js_distance(p, q) == pytest.approx(1.0, abs=1e-6)
    assert js_distance(p, r) == js_distance(r, p)

    js0 = {}
    for case_id in (3, 4):
        prob = make_case(case_id, seed=0)
        densities = blockwise_densities(prob.operator(), prob.partition, SLQParams(seed=0))
        js0[case_id] = pairwise_heatmap(densities, mode="none").js0
    assert js0[3] >= 10 * js0[4], f"js0 ratio {js0[3] / js0[4]:.1f}"
    report(10, f"identity/disjoint/symmetry exact; js0 case3/case4 = {js0[3] / js0[4]:.0f}x")


# ---------------------------------------------------------------------------
# 11. closed-form cross-neuron blocks match finite differences
# ---------------------------------------------------------------------------

def test_c11_cross_block_formula():
    worst = 0.0
    for seed in range(20):
        net = random_toynet(8, 5, seed=seed)
        data = make_blobs(8, 5, seed=seed)
        x, y = data.X[0], data.y[0]
        snap = hessian_fd(net, x[None, :], np.array([y]))
        for i in range(8):
            for j in range(8):
                if i == j:
                    continue
                analytic = cross_neuron_hessian_block(net, x, y, i, j)
                fd = snap.matrix[i * 5 : (i + 1) * 5, j * 5 : (j + 1) * 5]
                scale = max(np.abs(analytic).max(), np.abs(fd).max(), 1e-12)
                worst = max(worst, np.abs(analytic - fd).max() / scale)
    assert worst <= 1e-4, f"worst relative error {worst}"
    report(11, f"cross blocks match finite differences, worst rel err {worst:.2e} over 20 nets")


# ---------------------------------------------------------------------------
# 12. training drives the Hessian toward block-diagonal
# ---------------------------------------------------------------------------

def test_c12_offdiag_mass_decay():
    factors = []
    for seed in range(5):
        net = random_toynet(8, 5, seed=seed)
        data = make_blobs(128, 5, separation=3.0, seed=seed)
        before = offdiag_mass_ratio(hessian_fd(net, data.X, data.y))
        result = train(net, data, optimizer="adam", eta=0.02, steps=3000, batch_size=32, seed=seed)
        assert result.status == "completed"
        assert np.mean(1.0 / (1.0 + np.exp(-data.y * net.logits(data.X)))) >= 0.95  # mean p of the labels
        after = offdiag_mass_ratio(hessian_fd(net, data.X, data.y))
        factors.append(after / before)
    med = float(np.median(factors))
    assert med <= 0.5, f"median factor {med}"
    report(12, f"median off-block mass factor {med:.2f} <= 0.5 after training (5 seeds)")


# ---------------------------------------------------------------------------
# 13. the layer-scale knob controls heterogeneity and the optimizer gap
# ---------------------------------------------------------------------------

def test_c13_heterogeneity_knob():
    widths = (6, 8, 8, 8, 1)
    c_values = (1.0, 2.0, 4.0, 8.0)

    js_medians = []
    blob_data = {s: make_blobs(256, 6, separation=3.0, seed=s) for s in range(5)}
    for c in c_values:
        vals = []
        for s in range(5):
            snap = hessian_fd(scaled_mlp(widths, c, seed=s), blob_data[s].X, blob_data[s].y)
            vals.append(snapshot_js0(snap))
        js_medians.append(float(np.median(vals)))
    assert all(
        js_medians[i] < js_medians[i + 1] for i in range(3)
    ), f"js0 medians not strictly increasing: {js_medians}"
    # strictly increasing medians <=> Spearman rho of 1 against (1, 2, 4, 8)

    lr_grid = (0.001, 0.003, 0.01, 0.03, 0.1)
    gap_medians = {}
    for c in (1.0, 8.0):
        gaps = []
        for s in range(5):
            data = make_xor_blobs(256, 6, separation=4.0, seed=s)
            best = {}
            for opt in ("sgd", "adam"):
                # one stacked run over the grid; each row matches a lone run at its rate
                model = scaled_mlp(widths, c, seed=s)
                res = train(model, data, optimizer=opt, eta=lr_grid, steps=300, batch_size=64, seed=s)
                best[opt] = max(
                    acc[-1] if status == "completed" else 0.0 for acc, status in zip(res.accuracies, res.status)
                )
            gaps.append(best["adam"] - best["sgd"])
        gap_medians[c] = float(np.median(gaps))
    assert gap_medians[8.0] >= gap_medians[1.0], f"gaps {gap_medians}"
    report(
        13,
        f"js0 medians {['%.3f' % v for v in js_medians]} strictly increasing; "
        f"tuned accuracy gap {gap_medians[8.0]:.3f} at c=8 >= {gap_medians[1.0]:.3f} at c=1",
    )


# ---------------------------------------------------------------------------
# 14. manifest determinism across parallelism
# ---------------------------------------------------------------------------

def test_c14_determinism(tmp_path):
    cfg_path = tmp_path / "quad.cfg"
    cfg_path.write_text(
        "case = 3\noptimizer = gd,adam_fixed\neta_grid = true\ngrid_points = 7\n"
        "max_iters = 5000\nseeds = 3\ntarget = 1e-4\n"
    )
    outs = {}
    for jobs in (1, 8):
        out = tmp_path / f"jobs{jobs}"
        assert cli_main(["quadlab", "--config", str(cfg_path), "--out", str(out), "--jobs", str(jobs)]) == 0
        blobs = {}
        for name in sorted(os.listdir(out)):
            if name == "manifest.txt":
                continue
            with open(out / name, "rb") as fh:
                blobs[name] = fh.read()
        outs[jobs] = blobs
    assert outs[1].keys() == outs[8].keys()
    for name in outs[1]:
        assert outs[1][name] == outs[8][name], f"{name} differs between jobs=1 and jobs=8"
    report(14, f"{len(outs[1])} output files byte-identical at parallelism 1 and 8")
