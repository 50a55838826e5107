"""Property tests over generated spectra, matrices and step-size batches.

Densities are always built on one shared grid (``smoothed_densities``), so
``js_distance`` never resamples onto the capped union grid.  Every property
runs a bounded, derandomized number of examples so the suite stays fast and
repeatable.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blockspectra.heterogeneity import js_distance
from blockspectra.operators import DenseSymmetric, exact_eigenvalues, principal_block
from blockspectra.quadlab import KINDS, _run_batch, gaussian_init, make_case
from blockspectra.slq import smoothed_densities
from helpers import block_diag

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
    # Batches of two or more rows all go through the matrix-matrix product,
    # so a row's bits do not depend on which other rows share its batch.  No
    # target is set: a batch stops when any row converges, which does depend
    # on the other rows.
    etas = 10.0 ** np.array(log_etas)
    W0 = np.array([gaussian_init(9, seed=0, index=k) for k in range(etas.size)])
    beta2 = 0.99 if kind == "adam_ema" else 1.0
    full = _run_batch(case3, W0, etas, kind, beta2, 200, None)
    rows = data.draw(st.lists(st.sampled_from(range(etas.size)), min_size=2, unique=True))
    sub = _run_batch(case3, W0[rows], etas[rows], kind, beta2, 200, None)
    for i, tr in zip(rows, sub):
        assert (tr.status, tr.iterations) == (full[i].status, full[i].iterations)
        assert np.array_equal(tr.loss_ratios, full[i].loss_ratios)
