import numpy as np
import pytest

from blockspectra.operators import (
    BlockPartition,
    DenseSymmetric,
    exact_eigenvalues,
    principal_block,
)
from blockspectra.slq import (
    EXP_CUTOFF,
    GridError,
    LanczosFactorization,
    SLQParams,
    blockwise_densities,
    lanczos,
    lanczos_stack,
    ritz_quadrature,
    save_density_csv,
    smoothed_densities,
)
from blockspectra.slq import _gaussian_mixture
from helpers import block_diag, l1_distance, read_density


def random_symmetric(dim, rng):
    g = rng.standard_normal((dim, dim))
    return DenseSymmetric(0.5 * (g + g.T))


# ---------------------------------------------------------------------------
# lanczos
# ---------------------------------------------------------------------------

def test_lanczos_identity_terminates_after_one_step():
    op = DenseSymmetric(np.diag(np.ones(5)))
    v0 = np.ones(5) / np.sqrt(5)
    fact = lanczos(op, v0, 5)
    assert fact.steps == 1
    assert fact.alphas[0] == pytest.approx(1.0, abs=1e-14)
    assert fact.betas.size == 0


def test_lanczos_full_krylov_recovers_spectrum():
    op = DenseSymmetric(np.diag(np.array([1.0, 2.0, 3.0])))
    v0 = np.ones(3) / np.sqrt(3)
    fact = lanczos(op, v0, 3)
    eigs = np.linalg.eigvalsh(fact.tridiagonal())
    assert np.allclose(eigs, [1.0, 2.0, 3.0], atol=1e-10)


def test_lanczos_case3_full_space(case3, rng):
    op = case3.operator()
    v0 = rng.standard_normal(9)
    v0 /= np.linalg.norm(v0)
    fact = lanczos(op, v0, 9)
    eigs = np.sort(np.linalg.eigvalsh(fact.tridiagonal()))[::-1]
    assert np.allclose(eigs, case3.eigenvalues, rtol=1e-6)


def test_lanczos_tridiagonal_is_projection(rng):
    op = random_symmetric(30, rng)
    v0 = rng.standard_normal(30)
    v0 /= np.linalg.norm(v0)
    fact = lanczos(op, v0, 12)
    V = fact.basis
    assert np.abs(V.T @ V - np.eye(fact.steps)).max() <= 1e-8
    T = V.T @ op.matrix @ V
    assert np.abs(T - fact.tridiagonal()).max() <= 1e-8


def test_lanczos_input_validation(rng):
    op = random_symmetric(5, rng)
    with pytest.raises(ValueError):
        lanczos(op, np.ones(5), 3)  # not unit norm
    v0 = np.ones(5) / np.sqrt(5)
    with pytest.raises(ValueError):
        lanczos(op, v0, 6)  # m > dim
    with pytest.raises(ValueError):
        lanczos(op, v0, 0)


def _column_stack_lanczos(op, v0, m):
    # Reference recursion: the basis re-stacked from a list of vectors and the
    # Gershgorin scale recomputed over every tridiagonal row at each step.
    vectors, alphas, betas = [v0], [], []
    q, q_prev = v0, None
    for j in range(m):
        w = op.apply(q)
        alpha = float(q @ w)
        alphas.append(alpha)
        w = w - alpha * q
        if q_prev is not None:
            w = w - betas[-1] * q_prev
        basis = np.column_stack(vectors)
        for _ in range(2):
            w = w - basis @ (basis.T @ w)
        beta = float(np.linalg.norm(w))
        scale = 0.0
        for i in range(len(alphas)):
            row = abs(alphas[i])
            if i > 0:
                row += abs(betas[i - 1])
            if i < len(betas):
                row += abs(betas[i])
            scale = max(scale, row)
        if j == m - 1 or beta < 1e-12 * max(scale, 1e-300):
            break
        betas.append(beta)
        q_prev, q = q, w / beta
        vectors.append(q)
    return np.asarray(alphas), np.asarray(betas), np.column_stack(vectors)


def _lanczos_cases(case3):
    rng = np.random.default_rng(7)
    for dim in (5, 50, 300):
        op = random_symmetric(dim, rng)
        for m in sorted({dim, max(1, dim // 3), 1}):
            yield f"dense{dim}_m{m}", op, m
    yield "identity", DenseSymmetric(np.diag(np.ones(5))), 5
    yield "diag123", DenseSymmetric(np.diag(np.array([1.0, 2.0, 3.0]))), 3
    yield "constant", DenseSymmetric(np.diag(np.full(6, 2.5))), 6
    yield "case3", case3.operator(), 9
    yield "principal", principal_block(case3.operator(), 2, 7), 5


def _assert_row_matches(fact, alphas, betas, name):
    # A stacked product is a gemm where the reference makes gemvs, so the
    # coefficients may differ in their last bits; the quadrature rule and the
    # basis may not move beyond rounding.
    assert fact.steps == alphas.size, name
    quad = ritz_quadrature(fact)
    ref = ritz_quadrature(LanczosFactorization(alphas=alphas, betas=betas))
    assert np.abs(quad.nodes - ref.nodes).max() <= 1e-12 * np.abs(ref.nodes).max(), name
    assert np.abs(quad.weights - ref.weights).max() <= 1e-12, name
    V = fact.basis
    assert V.shape[1] == fact.steps, name
    assert np.abs(V.T @ V - np.eye(fact.steps)).max() <= 1e-12, name


def test_lanczos_stack_rows_match_the_column_stack_recursion(case3):
    rng = np.random.default_rng(11)
    for name, op, m in _lanczos_cases(case3):
        starts = np.stack([np.ones(op.dim)] + [rng.standard_normal(op.dim) for _ in range(2)])
        starts /= np.linalg.norm(starts, axis=1, keepdims=True)
        refs = [_column_stack_lanczos(op, v0, m) for v0 in starts]
        for i in range(2):
            (fact,) = lanczos_stack(op, starts[i : i + 1], m)
            _assert_row_matches(fact, *refs[i][:2], f"{name} k=1 row {i}")
        for i, fact in enumerate(lanczos_stack(op, starts, m)):
            _assert_row_matches(fact, *refs[i][:2], f"{name} k=3 row {i}")


def test_lanczos_stack_rows_stop_at_their_own_breakdowns():
    # Start vectors spanning 6, 1 and 2 eigenvectors of diag(1..6): the
    # Krylov spaces have those dimensions, so the rows stop at steps 6, 1 and
    # 2, and each row's rule is the exact spectral measure of its start vector.
    eigs = np.arange(1.0, 7.0)
    op = DenseSymmetric(np.diag(eigs))
    starts = np.zeros((3, 6))
    starts[0] = 1 / np.sqrt(6)
    starts[1, 2] = 1.0
    starts[2, [0, 3]] = 1 / np.sqrt(2)
    facts = lanczos_stack(op, starts, 6)
    assert [f.steps for f in facts] == [6, 1, 2]
    for v0, fact in zip(starts, facts):
        support = np.flatnonzero(v0)
        quad = ritz_quadrature(fact)
        assert np.abs(quad.nodes - eigs[support]).max() <= 1e-12 * eigs.max()
        assert np.abs(quad.weights - v0[support] ** 2).max() <= 1e-12
        # Row 0 runs on after the others leave the stack: it still matches its lone run.
        (lone,) = lanczos_stack(op, v0[None, :], 6)
        _assert_row_matches(fact, lone.alphas, lone.betas, f"support {support}")


def test_lanczos_stack_input_validation():
    op = DenseSymmetric(np.diag(np.arange(1.0, 6.0)))
    unit = np.ones(5) / np.sqrt(5)
    for bad in (unit, np.zeros((0, 5)), np.ones((2, 4)) / 2, unit[None, None, :]):
        with pytest.raises(ValueError, match="V0 has shape"):
            lanczos_stack(op, bad, 3)
    with pytest.raises(ValueError, match="row 1"):
        lanczos_stack(op, np.stack([unit, 2 * unit]), 3)


# ---------------------------------------------------------------------------
# ritz quadrature
# ---------------------------------------------------------------------------

def test_ritz_single_step():
    fact = LanczosFactorization(alphas=np.array([4.2]), betas=np.array([]))
    quad = ritz_quadrature(fact)
    assert np.array_equal(quad.nodes, [4.2])
    assert np.array_equal(quad.weights, [1.0])


def test_ritz_uniform_projection_weights():
    op = DenseSymmetric(np.diag(np.array([1.0, 2.0, 3.0])))
    v0 = np.ones(3) / np.sqrt(3)
    quad = ritz_quadrature(lanczos(op, v0, 3))
    assert np.allclose(quad.nodes, [1.0, 2.0, 3.0], atol=1e-10)
    assert np.allclose(quad.weights, [1 / 3, 1 / 3, 1 / 3], atol=1e-10)


def test_ritz_weights_are_probabilities(rng):
    op = random_symmetric(20, rng)
    for _ in range(3):
        v0 = rng.standard_normal(20)
        v0 /= np.linalg.norm(v0)
        quad = ritz_quadrature(lanczos(op, v0, 8))
        assert np.all(quad.weights >= 0)
        assert quad.weights.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.diff(quad.nodes) >= 0)


def test_ritz_rejects_empty():
    with pytest.raises(ValueError):
        ritz_quadrature(LanczosFactorization(alphas=np.array([]), betas=np.array([])))


def test_quadrature_exact_for_low_degree_polynomials(rng):
    # degree <= 2m-1 moments match v' A^k v computed from the dense matrix
    op = random_symmetric(6, rng)
    m = 3
    for _ in range(3):
        v0 = rng.standard_normal(6)
        v0 /= np.linalg.norm(v0)
        quad = ritz_quadrature(lanczos(op, v0, m))
        a_pow = np.eye(6)
        for k in range(2 * m):
            exact = v0 @ a_pow @ v0
            estimate = np.sum(quad.weights * quad.nodes**k)
            assert estimate == pytest.approx(exact, rel=1e-6, abs=1e-9)
            a_pow = a_pow @ op.matrix


def test_ritz_nodes_inside_spectrum(rng):
    op = random_symmetric(25, rng)
    eigs = exact_eigenvalues(op)
    v0 = rng.standard_normal(25)
    v0 /= np.linalg.norm(v0)
    quad = ritz_quadrature(lanczos(op, v0, 10))
    assert quad.nodes.min() >= eigs[-1] - 1e-8 * abs(eigs[-1]) - 1e-12
    assert quad.nodes.max() <= eigs[0] + 1e-8 * abs(eigs[0]) + 1e-12


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def test_density_scalar_operator_single_bump():
    op = DenseSymmetric(np.diag(np.full(6, 2.5)))
    (dens,) = blockwise_densities(op, params=SLQParams(steps=3, probes=2, seed=0))
    assert np.trapezoid(dens.values, dens.grid) == pytest.approx(1.0, abs=1e-3)
    peak = dens.grid[np.argmax(dens.values)]
    assert peak == pytest.approx(2.5, abs=2 * dens.sigma)


def test_density_matches_smoothed_oracle(rng):
    u = rng.random((200, 200))
    op = DenseSymmetric(0.5 * (u + u.T))
    (dens,) = blockwise_densities(op, params=SLQParams(steps=80, probes=10, seed=0))
    (oracle,) = smoothed_densities([exact_eigenvalues(op)], sigma=dens.sigma, grid=dens.grid)
    assert l1_distance(dens, oracle) <= 0.05


def test_density_block_average_property(rng):
    u1 = rng.random((100, 100))
    u2 = rng.random((100, 100))
    b1 = DenseSymmetric(0.5 * (u1 + u1.T))
    b2 = DenseSymmetric(0.5 * (u2 + u2.T))
    comp = DenseSymmetric(block_diag(b1.matrix, b2.matrix))
    (dens,) = blockwise_densities(comp, params=SLQParams(steps=60, probes=60, seed=0))
    (d1,) = blockwise_densities(
        b1, params=SLQParams(steps=60, probes=60, sigma=dens.sigma, seed=1), grid=dens.grid
    )
    (d2,) = blockwise_densities(
        b2, params=SLQParams(steps=60, probes=60, sigma=dens.sigma, seed=2), grid=dens.grid
    )
    avg = 0.5 * (d1.values + d2.values)
    assert np.trapezoid(np.abs(dens.values - avg), dens.grid) <= 0.05


def test_density_deterministic_given_seed(rng):
    op = random_symmetric(30, rng)
    (a,) = blockwise_densities(op, params=SLQParams(steps=10, probes=3, seed=7))
    (b,) = blockwise_densities(op, params=SLQParams(steps=10, probes=3, seed=7))
    assert np.array_equal(a.values, b.values) and np.array_equal(a.grid, b.grid)
    (c,) = blockwise_densities(op, params=SLQParams(steps=10, probes=3, seed=8))
    assert not np.array_equal(a.values, c.values)


def test_probe_count_reduces_error(rng):
    u = rng.random((80, 80))
    op = DenseSymmetric(0.5 * (u + u.T))
    eigs = exact_eigenvalues(op)
    lo_err, hi_err = [], []
    for seed in range(20):
        (d2,) = blockwise_densities(op, params=SLQParams(steps=40, probes=2, seed=seed))
        (d8,) = blockwise_densities(op, params=SLQParams(steps=40, probes=8, seed=seed))
        lo_err.append(l1_distance(d2, smoothed_densities([eigs], sigma=d2.sigma, grid=d2.grid)[0]))
        hi_err.append(l1_distance(d8, smoothed_densities([eigs], sigma=d8.sigma, grid=d8.grid)[0]))
    assert np.median(hi_err) <= np.median(lo_err)


def test_density_grid_too_narrow():
    with pytest.raises(GridError):
        smoothed_densities([[0.0, 10.0]], sigma=0.1, grid=np.linspace(-1, 5, 512))


def test_mass_leak_diagnostic():
    from blockspectra.slq import _finalize_density

    grid = np.linspace(-1.0, 1.0, 256)
    # a mixture that leaks well over 1% of its mass outside the grid
    leaky = np.exp(-0.5 * ((grid - 0.9) / 0.5) ** 2) / (0.5 * np.sqrt(2 * np.pi))
    with pytest.raises(GridError):
        _finalize_density(grid, leaky, 0.5)


def test_density_explicit_grid_must_cover_support():
    op = DenseSymmetric(np.diag(np.array([0.0, 10.0])))
    with pytest.raises(GridError):
        blockwise_densities(
            op, params=SLQParams(steps=2, probes=1, sigma=0.1, seed=0), grid=np.linspace(-1, 5, 128)
        )


def test_density_rejects_bad_probe_counts(rng):
    op = random_symmetric(5, rng)
    with pytest.raises(ValueError):
        blockwise_densities(op, params=SLQParams(steps=3, probes=0))


# ---------------------------------------------------------------------------
# blockwise densities
# ---------------------------------------------------------------------------

def test_blockwise_identical_blocks_agree(rng):
    # independent probe streams per block, so only sampling noise separates
    # the two estimates
    u = rng.random((300, 300))
    b = DenseSymmetric(0.5 * (u + u.T))
    comp = DenseSymmetric(block_diag(b.matrix, b.matrix))
    densities = blockwise_densities(comp, BlockPartition([300, 300]), SLQParams(steps=60, probes=150, seed=0))
    assert np.array_equal(densities[0].grid, densities[1].grid)
    assert l1_distance(densities[0], densities[1]) <= 2e-2


def test_blockwise_case3_disjoint_supports(case3):
    # sigma = 10 resolves the three eigenvalue clusters {1..3}, {99..101},
    # {4998..5000}; each block's mass stays in its own window
    params = SLQParams(steps=3, probes=256, sigma=10.0, seed=0)
    densities = blockwise_densities(case3.operator(), case3.partition, params)
    windows = [(-60.0, 60.0), (40.0, 160.0), (4940.0, 5060.0)]
    for dens, (lo, hi) in zip(densities, windows):
        inside = (dens.grid >= lo) & (dens.grid <= hi)
        mass_inside = np.trapezoid(dens.values[inside], dens.grid[inside])
        assert mass_inside >= 0.95


def test_blockwise_case4_near_identical(case4):
    # at the default kernel width the 1-2 unit eigenvalue offsets between
    # blocks are far below sigma, so the densities nearly coincide
    params = SLQParams(steps=3, probes=2048, seed=0)
    densities = blockwise_densities(case4.operator(), case4.partition, params)
    for i in range(3):
        for j in range(i + 1, 3):
            assert l1_distance(densities[i], densities[j]) <= 0.1


def test_blockwise_rejects_mismatched_partition(case3, case4):
    with pytest.raises(ValueError):
        blockwise_densities(case3.operator(), BlockPartition([4, 5, 4]), SLQParams())


def test_gaussian_mixture_skips_only_exps_that_underflow():
    assert np.exp(np.nextafter(EXP_CUTOFF, -np.inf)) == 0.0
    # z runs to +-60, past the subnormal band z in (37.6, 38.6) where
    # exp(-z**2 / 2) is below the smallest normal double but not 0.
    sigma = 0.7
    grid = np.linspace(-42.0, 42.0, 20001)
    nodes = np.array([-30.0, -1.3, 0.0, 2.5, 11.0])
    weights = np.array([0.1, 0.2, 0.3, 0.15, 0.25])
    z = (grid[None, :] - nodes[:, None]) / sigma
    plain = np.exp(-0.5 * z * z) / (sigma * np.sqrt(2 * np.pi))
    assert np.any(plain == 0) and np.any((plain > 0) & (plain < np.finfo(float).tiny))
    assert np.array_equal(_gaussian_mixture(grid, nodes, weights, sigma), weights @ plain)
    for i in range(nodes.size):
        alone = _gaussian_mixture(grid, nodes[i : i + 1], np.ones(1), sigma)
        assert np.array_equal(alone, plain[i])
    assert np.isnan(_gaussian_mixture(grid[:3], np.array([np.nan]), np.ones(1), 1.0)).all()


def test_smoothed_densities_share_grid():
    lists = [[1.0, 2.0], [5.0, 6.0, 7.0]]
    densities = smoothed_densities(lists)
    assert np.array_equal(densities[0].grid, densities[1].grid)
    for d in densities:
        assert np.trapezoid(d.values, d.grid) == pytest.approx(1.0, abs=1e-3)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_density_csv_roundtrip(tmp_path):
    (dens,) = smoothed_densities([[1.0, 3.0]], sigma=0.2)
    path = tmp_path / "d.csv"
    save_density_csv(path, dens)
    grid, values = read_density(path)
    assert np.array_equal(grid, dens.grid)
    assert np.array_equal(values, dens.values)


def test_params_cheap_preset():
    params = SLQParams.cheap(seed=5)
    assert params.steps == 10 and params.probes == 1 and params.seed == 5
