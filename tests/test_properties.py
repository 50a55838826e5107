"""Property tests over generated spectra, matrices, step-size batches and toy networks.

Densities are always built on one shared grid (``smoothed_densities``), so
``js_distance`` never resamples onto the capped union grid.  Every property
runs a bounded, derandomized number of examples so the suite stays fast and
repeatable.
"""

import multiprocessing
import os
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blockspectra.heterogeneity import js_distance
from blockspectra.operators import BlockPartition, DenseSymmetric, exact_eigenvalues, principal_block
from blockspectra.quadlab import KINDS, _run_batch, gaussian_init, make_case, runs
from blockspectra.slq import SLQParams, blockwise_densities, smoothed_densities
from blockspectra import toynet
from blockspectra.toynet import hessian_fd, make_blobs, make_xor_blobs, random_toynet, scaled_mlp, train
from helpers import block_diag, hessian_fd_by_columns

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)

eigenvalue = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
spectrum = st.lists(eigenvalue, min_size=1, max_size=8)
symmetric_matrix = st.integers(1, 5).flatmap(
    lambda n: arrays(float, (n, n), elements=st.floats(-10, 10))
).map(lambda g: 0.5 * (g + g.T))


@PROPERTY
@given(a=spectrum, b=spectrum)
def test_js_distance_is_symmetric_bounded_and_zero_on_identical_inputs(a, b):
    p, q = smoothed_densities([a, b])
    d = js_distance(p, q)
    assert d == js_distance(q, p)
    assert 0.0 <= d <= 1.0
    assert js_distance(p, p) == 0.0


@PROPERTY
@given(st.lists(spectrum, min_size=1, max_size=4))
def test_smoothed_densities_have_unit_mass(spectra):
    for density in smoothed_densities(spectra):
        assert abs(np.trapezoid(density.values, density.grid) - 1.0) <= 1e-12


@PROPERTY
@given(st.lists(symmetric_matrix, min_size=1, max_size=4))
def test_block_diagonal_spectrum_is_union_of_block_spectra(blocks):
    op = DenseSymmetric(block_diag(*blocks))
    union = np.sort(np.concatenate([exact_eigenvalues(m) for m in blocks]))[::-1]
    scale = max(1.0, max(float(np.abs(m).max()) for m in blocks))
    np.testing.assert_allclose(exact_eigenvalues(op), union, rtol=0, atol=1e-12 * op.dim * scale)


@settings(PROPERTY, max_examples=20)
@given(case=st.sampled_from((3, 4)), seed=st.integers(0, 2**32 - 1))
def test_case_block_eigenvalues_are_those_of_the_operator_blocks(case, seed):
    # The heatmap takes a case's block eigenvalues from its operator, as for
    # any matrix source; they must be the very numbers the case caches.  The
    # operator's principal blocks are the case's blocks, bit for bit, so SLQ
    # on a case source runs on the same matrices as ever.
    problem = make_case(case, seed=seed)
    op = problem.operator()
    for b, (a, z) in enumerate(problem.partition.ranges()):
        assert np.array_equal(principal_block(op, a, z).matrix, problem.blocks[b])
        assert np.array_equal(problem.block_eigenvalues[b], exact_eigenvalues(principal_block(op, a, z)))


@settings(PROPERTY, max_examples=25)
@given(
    log_etas=st.lists(st.floats(-6, 0), min_size=3, max_size=8),
    kind=st.sampled_from(KINDS),
    data=st.data(),
)
def test_run_batch_rows_agree_across_batches_of_two_or_more(case3, log_etas, kind, data):
    # Groups of two or more rows all go through the matrix-matrix product,
    # so a row's bits do not depend on which other rows share its group.  No
    # target is set: a group stops when any row converges, which does depend
    # on the other rows.
    etas = 10.0 ** np.array(log_etas)
    W0 = np.array([gaussian_init(9, seed=0, index=k) for k in range(etas.size)])
    beta2 = 0.99 if kind == "adam_ema" else 1.0
    full = _run_batch(case3, W0[None], etas[None], kind, beta2, 200, None)
    rows = data.draw(st.lists(st.sampled_from(range(etas.size)), min_size=2, unique=True))
    sub = _run_batch(case3, W0[rows][None], etas[rows][None], kind, beta2, 200, None)
    for i, tr in zip(rows, sub):
        assert (tr.status, tr.iterations) == (full[i].status, full[i].iterations)
        assert np.array_equal(tr.loss_ratios, full[i].loss_ratios)


@settings(PROPERTY, max_examples=25)
@given(
    log_etas=st.lists(st.floats(-6, 300), min_size=1, max_size=8),
    kind=st.sampled_from(KINDS),
    target=st.sampled_from([None, 0.0, 1e-3]),
    zero_block=st.booleans(),
)
def test_runs_rows_equal_their_lone_runs(case3, log_etas, kind, target, zero_block):
    # Each start is a one-row group, so it keeps the bits of its lone run and
    # stops by its own target, divergence or budget, whatever runs beside it.
    etas = 10.0 ** np.array(log_etas)
    W0 = np.array([gaussian_init(9, seed=2, index=k) for k in range(etas.size)])
    if zero_block and kind == "adam_ema":
        W0[0, 0:3] = 0.0  # the first block starts at its minimizer
    together = runs(case3, kind, W0, etas, 0.5, 150, target)
    for w0, eta, tr in zip(W0, etas, together):
        (alone,) = runs(case3, kind, w0[None], [eta], 0.5, 150, target)
        assert (tr.eta, tr.status, tr.iterations, tr.diagnostics) == (alone.eta, alone.status, alone.iterations, alone.diagnostics)
        assert tr.loss_ratios.tobytes() == alone.loss_ratios.tobytes()
        assert tr.iterates.tobytes() == alone.iterates.tobytes()


@PROPERTY
@given(
    n_hidden=st.integers(1, 4),
    d_in=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    optimizer=st.sampled_from(("sgd", "adam")),
    rates=st.lists(st.sampled_from((0.0, 0.02, 0.5, 1e308)), min_size=1, max_size=4),
    stride=st.sampled_from((0, 1, 3)),
)
def test_train_and_hessian_fd_leave_the_model_bit_identical(n_hidden, d_in, seed, optimizer, rates, stride):
    # 1e308 diverges on most nets within a few steps.
    net = random_toynet(n_hidden, d_in, seed=seed)
    data = make_blobs(12, d_in, seed=seed)
    before = net.get_flat().tobytes()
    kw = dict(optimizer=optimizer, steps=10, batch_size=4, seed=seed, snapshot_stride=stride)
    result = train(net, data, eta=rates, **kw)
    assert net.get_flat().tobytes() == before
    hessian_fd(net, data.X, data.y)
    assert net.get_flat().tobytes() == before
    assert result.params.shape == (len(rates), net.num_params)
    for row, eta in enumerate(rates):
        alone = train(net, data, eta=eta, **kw)
        assert result.params[row].tobytes() == alone.params[0].tobytes()
        # Each recorded row is the one-rate call's, bit for bit, while that
        # call still trains, and NaN after the row stops.
        recorded = dict(alone.snapshots)
        assert set(recorded) <= {step for step, _ in result.snapshots}
        for step, theta in result.snapshots:
            if step in recorded:
                assert theta[row].tobytes() == recorded[step][0].tobytes()
            else:
                assert np.all(np.isnan(theta[row]))
    assert net.get_flat().tobytes() == before


@settings(PROPERTY, max_examples=10)
@given(
    sizes=st.lists(st.integers(1, 12), min_size=1, max_size=4),
    steps=st.integers(1, 12),
    probes=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_blockwise_densities_are_bit_identical_at_one_and_two_jobs(sizes, steps, probes, seed):
    # Random SPD blocks, weakly coupled; each block's probe stack is one task.
    g = np.random.default_rng(seed).standard_normal((sum(sizes), sum(sizes) + 2))
    op = DenseSymmetric(g @ g.T + 1e-3 * np.eye(sum(sizes)))
    params = SLQParams(steps=steps, probes=probes, seed=seed)
    with mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}):
        one, two = (blockwise_densities(op, BlockPartition(sizes), params, jobs=jobs) for jobs in (1, 2))
    assert multiprocessing.active_children() == []
    assert len(one) == len(two) == len(sizes)
    for a, b in zip(one, two):
        assert a.sigma == b.sigma
        assert np.array_equal(a.grid, b.grid) and np.array_equal(a.values, b.values)


@settings(PROPERTY, max_examples=15)
@given(
    widths=st.lists(st.integers(1, 6), min_size=4, max_size=4),
    scale=st.floats(1.0, 8.0),
    seed=st.integers(0, 2**16),
    samples=st.integers(4, 40),
    chunk=st.integers(1, 9),
)
def test_hessian_fd_is_the_column_loop_bit_for_bit(widths, scale, seed, samples, chunk):
    mlp = scaled_mlp(widths + [1], scale, seed=seed)
    data = make_xor_blobs(samples, max(widths[0], 2), seed=seed)
    X = data.X[:, : widths[0]]
    # The byte budget that gives ``chunk`` columns per stacked pass.
    with mock.patch.object(toynet, "FD_STACK_BYTES", chunk * 2 * 8 * samples):
        snap = hessian_fd(mlp, X, data.y)
    reference = hessian_fd_by_columns(mlp, X, data.y)
    assert snap.matrix.tobytes() == reference.matrix.tobytes()
    assert snap.asymmetry == reference.asymmetry
