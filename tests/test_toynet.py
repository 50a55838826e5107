import numpy as np
import pytest

from blockspectra.operators import BlockPartition, block_eigenvalues
from blockspectra.rng import TAG_TRAIN, derive_rng
from blockspectra.toynet import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    SGD_MOMENTUM,
    Dataset,
    HessianSnapshot,
    ScaledMLP,
    ToyNet,
    TrainResult,
    _accuracy,
    hessian_fd,
    load_dataset_csv,
    make_blobs,
    make_xor_blobs,
    offdiag_mass_ratio,
    random_toynet,
    save_dataset_csv,
    scaled_mlp,
    snapshot_js0,
    train,
)
from blockspectra import toynet
from helpers import cross_neuron_hessian_block, hessian_fd_by_columns


def fd_loss_gradient(model, X, y, step=1e-6):
    theta = model.get_flat()
    out = np.empty_like(theta)
    for j in range(theta.size):
        h = step * (1 + abs(theta[j]))
        up = theta.copy()
        up[j] += h
        model.set_flat(up)
        lp, _ = model.loss_grad(X, y)
        dn = theta.copy()
        dn[j] -= h
        model.set_flat(dn)
        lm, _ = model.loss_grad(X, y)
        out[j] = (lp - lm) / (2 * h)
    model.set_flat(theta)
    return out


# ---------------------------------------------------------------------------
# loss and gradient
# ---------------------------------------------------------------------------

def test_loss_at_zero_logit_is_log_two():
    net = ToyNet(np.ones((3, 2)), np.zeros(3))
    data = make_blobs(8, 2, seed=0)
    loss, grad = net.loss_grad(data.X, data.y)
    assert loss == pytest.approx(np.log(2.0), rel=1e-12)


def test_loss_confident_prediction_tiny():
    net = ToyNet(np.array([[30.0, 0.0]]), np.array([30.0]))
    X = np.array([[1.0, 0.0]])
    y = np.array([1.0])
    # y * f = 30 * tanh(30) ~ 30, logistic loss ~ exp(-30)
    loss, _ = net.loss_grad(X, y)
    assert loss <= 2.1e-9


@pytest.mark.parametrize("seed", range(5))
def test_gradient_matches_finite_differences(seed):
    net = random_toynet(8, 5, seed=seed)
    data = make_blobs(16, 5, seed=seed)
    _, grad = net.loss_grad(data.X, data.y)
    fd = fd_loss_gradient(net, data.X, data.y)
    rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-10)
    assert rel.max() <= 1e-6


def test_loss_rejects_empty_batch():
    net = random_toynet(2, 2, seed=0)
    with pytest.raises(ValueError):
        net.loss_grad(np.empty((0, 2)), np.empty(0))


def test_nonfinite_logit_gives_a_nan_loss_and_gradient():
    net = ToyNet(np.ones((1, 1)), np.array([np.inf]))
    loss, grad = net.loss_grad(np.array([[1.0]]), np.array([1.0]))
    assert np.isnan(loss) and grad.shape == (2,) and np.all(np.isnan(grad))


def test_flatten_roundtrip_toynet():
    net = random_toynet(4, 3, seed=2)
    theta = net.get_flat()
    net.set_flat(theta)
    assert np.array_equal(net.get_flat(), theta)
    assert theta.size == 4 * 3 + 4


def test_toynet_flattens_neuron_by_neuron():
    W = np.arange(12.0).reshape(3, 4) + 1
    v = np.array([-1.0, -2.0, -3.0])
    net = ToyNet(W, v)
    assert np.array_equal(net.get_flat(), np.concatenate([W.ravel(), v]))
    assert np.array_equal(net.W, W) and np.array_equal(net.v, v)


def test_toynet_partition_blocks_are_its_neurons():
    net = random_toynet(3, 4, seed=0)
    start, W, v = net.get_flat(), net.W.copy(), net.v.copy()
    for i, (a, z) in enumerate(net.partition().ranges()[:-1]):
        theta = start.copy()
        theta[a:z] += 1.0
        net.set_flat(theta)
        moved = W.copy()
        moved[i] += 1.0
        assert np.array_equal(net.W, moved) and np.array_equal(net.v, v)


def test_toynet_stack_sizes_describe_one_copy():
    net = random_toynet(3, 4, seed=0)
    dim = net.num_params
    net.set_flat(np.tile(net.get_flat(), (2, 1)))
    assert net.num_params == net.partition().dim == dim == 3 * 4 + 3
    assert net.W.shape == (2, 3, 4) and net.v.shape == (2, 3)


def test_flatten_roundtrip_mlp():
    mlp = scaled_mlp((4, 5, 5, 5, 1), 2.0, seed=1)
    theta = mlp.get_flat()
    mlp.set_flat(theta)
    assert np.array_equal(mlp.get_flat(), theta)
    assert theta.size == mlp.num_params


# ---------------------------------------------------------------------------
# cross-neuron Hessian blocks
# ---------------------------------------------------------------------------

def test_cross_block_zero_when_output_weight_zero():
    net = random_toynet(4, 3, seed=0)
    net.v[1] = 0.0
    data = make_blobs(4, 3, seed=0)
    block = cross_neuron_hessian_block(net, data.X[0], data.y[0], 1, 2)
    assert np.array_equal(block, np.zeros((3, 3)))


def test_cross_block_vanishes_with_confidence():
    # f = 2 V tanh(3) grows with V while p(1-p) ~ exp(-f) collapses, so the
    # cross block dies despite the v_i v_j factor growing like V^2
    W = np.eye(2)
    x = np.array([1.0, 1.0])
    mild = cross_neuron_hessian_block(ToyNet(W, np.array([0.5, 0.5])), x, 1.0, 0, 1)
    sharp = cross_neuron_hessian_block(ToyNet(W, np.array([60.0, 60.0])), x, 1.0, 0, 1)
    assert np.abs(mild).max() > 1e-3
    assert np.abs(sharp).max() <= 1e-30


def test_cross_block_rejects_diagonal_and_out_of_range():
    net = random_toynet(3, 2, seed=0)
    x = np.zeros(2)
    with pytest.raises(ValueError):
        cross_neuron_hessian_block(net, x, 1.0, 1, 1)
    with pytest.raises(ValueError):
        cross_neuron_hessian_block(net, x, 1.0, 0, 3)


@pytest.mark.parametrize("seed", range(3))
def test_cross_blocks_match_fd_hessian(seed):
    net = random_toynet(8, 5, seed=seed)
    data = make_blobs(8, 5, seed=seed)
    x, y = data.X[seed % 8], data.y[seed % 8]
    snap = hessian_fd(net, x[None, :], np.array([y]))
    for i in range(8):
        for j in range(8):
            if i == j:
                continue
            analytic = cross_neuron_hessian_block(net, x, y, i, j)
            fd = snap.matrix[i * 5 : (i + 1) * 5, j * 5 : (j + 1) * 5]
            scale = max(np.abs(analytic).max(), np.abs(fd).max(), 1e-12)
            assert np.abs(analytic - fd).max() <= 1e-4 * scale


# ---------------------------------------------------------------------------
# finite-difference Hessians
# ---------------------------------------------------------------------------

class _QuadraticModel:
    """Harness with a known quadratic loss 0.5 th' A th + b' th, A symmetric.

    The parameters may carry a leading stack axis, as a network's do, and
    ``block_grads`` follows the networks' protocol for ``hessian_fd``.  Its
    logits are zero, so the full-dataset loss in ``train`` stays finite and
    a rate that is too large diverges through a non-finite minibatch gradient.
    """

    def __init__(self, A, b):
        self.A = A
        self.b = b
        self.theta = np.zeros(A.shape[0])

    @property
    def num_params(self):
        return self.theta.shape[-1]

    def get_flat(self):
        return self.theta.copy()

    def set_flat(self, theta):
        self.theta = np.asarray(theta, dtype=float).copy()

    def loss_grad(self, X, y):
        At = self.theta @ self.A
        return np.sum((0.5 * At + self.b) * self.theta, axis=-1), At + self.b

    def block_grads(self, X, y, start, values):
        theta = np.tile(self.theta, (len(values), 1))
        theta[:, start : start + values.shape[1]] = values
        return theta @ self.A + self.b

    def logits(self, X):
        return np.zeros(self.theta.shape[:-1] + (len(X),))

    def partition(self):
        return BlockPartition([self.num_params])


def test_hessian_fd_recovers_quadratic(rng):
    g = rng.standard_normal((7, 7))
    A = 0.5 * (g + g.T) + 3 * np.eye(7)
    model = _QuadraticModel(A, rng.standard_normal(7))
    model.set_flat(rng.standard_normal(7))
    snap = hessian_fd(model, None, None)
    assert np.abs(snap.matrix - A).max() <= 1e-6 * np.abs(A).max()
    assert snap.asymmetry <= 1e-6


def test_hessian_fd_rejects_a_non_finite_parameter():
    net = ToyNet(np.ones((2, 2)), [np.inf, 1.0])
    data = make_blobs(8, 2, seed=0)
    before = net.get_flat()
    with pytest.raises(ValueError, match="non-finite parameter inf at index 4"):
        hessian_fd(net, data.X, data.y)
    assert np.array_equal(net.get_flat(), before)


def test_hessian_fd_rejects_a_non_finite_column(rng):
    # A NaN gradient entry, as a network with a non-finite logit gives, makes
    # every column non-finite; no floating-point flag is raised on the way.
    model = _QuadraticModel(np.eye(3), np.array([0.0, np.nan, 0.0]))
    model.set_flat(rng.standard_normal(3))
    before = model.get_flat()
    with pytest.raises(ValueError, match="finite-difference Hessian failed: non-finite value in column 0"):
        hessian_fd(model, None, None)
    assert np.array_equal(model.get_flat(), before)


@pytest.mark.parametrize(
    "make_model",
    [lambda: random_toynet(4, 3, seed=1), lambda: scaled_mlp((3, 4, 4, 4, 1), 2.0, seed=1)],
    ids=["toynet", "scaled_mlp"],
)
def test_models_share_the_partition_protocol(make_model):
    model = make_model()
    data = make_blobs(16, 3, seed=1)
    assert model.partition().dim == model.num_params
    assert hessian_fd(model, data.X, data.y).partition == model.partition()


@pytest.mark.parametrize(
    "make_model",
    [lambda: random_toynet(8, 5, seed=0), lambda: scaled_mlp((5, 8, 8, 8, 1), 4.0, seed=0)],
    ids=["toynet", "scaled_mlp"],
)
def test_hessian_fd_restores_the_parameters_bit_for_bit(make_model):
    model = make_model()
    data = make_xor_blobs(32, 5, seed=0)
    before = model.get_flat()
    hessian_fd(model, data.X, data.y)
    assert np.array_equal(model.get_flat(), before)


def test_hessian_fd_and_train_reject_a_stacked_model():
    mlp = scaled_mlp((2, 3, 3, 3, 1), 1.0)
    mlp.set_flat(np.tile(mlp.get_flat(), (2, 1)))
    data = make_blobs(8, 2, seed=0)
    with pytest.raises(ValueError, match="stack of 2"):
        hessian_fd(mlp, data.X, data.y)
    for eta in (0.1, [0.1, 0.2]):
        with pytest.raises(ValueError, match="stack of 2"):
            train(mlp, data, eta=eta, steps=2)


def test_hessian_fd_symmetric_exactly(rng):
    net = random_toynet(4, 3, seed=1)
    data = make_blobs(16, 3, seed=1)
    snap = hessian_fd(net, data.X, data.y)
    assert np.array_equal(snap.matrix, snap.matrix.T)
    assert snap.asymmetry <= 1e-6
    assert snap.partition.block_sizes == (3, 3, 3, 3, 4)


def test_hessian_fd_dim_cap():
    mlp = scaled_mlp((30, 30, 30, 30, 1), 1.0, seed=0)
    assert mlp.num_params > 500
    with pytest.raises(ValueError):
        hessian_fd(mlp, np.zeros((2, 30)), np.array([1.0, -1.0]))


@pytest.mark.parametrize("budget", [1, toynet.FD_STACK_BYTES, 1 << 30], ids=["chunk1", "default", "whole_blocks"])
@pytest.mark.parametrize(
    "make_model",
    [
        lambda: scaled_mlp((6, 8, 8, 8, 1), 1.0, seed=0),
        lambda: scaled_mlp((6, 8, 8, 8, 1), 8.0, seed=1),
        # Arrays of 25, 5, 35, 7, 21, 3, 3 and 1 entries: none is a multiple
        # of the default 8-column chunk at 256 samples.
        lambda: scaled_mlp((5, 5, 7, 3, 1), 3.0, seed=2),
        lambda: random_toynet(7, 6, seed=3),
    ],
    ids=["scaled_c1", "scaled_c8", "ragged_widths", "toynet"],
)
def test_hessian_fd_matches_the_column_loop_bit_for_bit(monkeypatch, make_model, budget):
    model = make_model()
    data = make_xor_blobs(256, model.weights[0].shape[0], seed=4)
    monkeypatch.setattr(toynet, "FD_STACK_BYTES", budget)
    snap = hessian_fd(model, data.X, data.y)
    reference = hessian_fd_by_columns(model, data.X, data.y)
    assert snap.matrix.tobytes() == reference.matrix.tobytes()
    assert snap.asymmetry == reference.asymmetry
    assert snap.partition == reference.partition


# ---------------------------------------------------------------------------
# off-diagonal mass ratio
# ---------------------------------------------------------------------------

def test_mass_ratio_block_diagonal_is_zero():
    m = np.zeros((4, 4))
    m[:2, :2] = 1.0
    m[2:, 2:] = 2.0
    assert offdiag_mass_ratio(HessianSnapshot(matrix=m, partition=BlockPartition([2, 2]))) == 0.0


def test_mass_ratio_all_ones_half():
    m = np.ones((6, 6))
    assert offdiag_mass_ratio(HessianSnapshot(matrix=m, partition=BlockPartition([3, 3]))) == pytest.approx(0.5, rel=1e-12)


def test_mass_ratio_zero_matrix_errors():
    with pytest.raises(ValueError, match="^Hessian is zero: off-diagonal mass ratio is undefined$"):
        offdiag_mass_ratio(HessianSnapshot(matrix=np.zeros((4, 4)), partition=BlockPartition([2, 2])))


def test_mass_ratio_invariant_under_within_block_permutation(rng):
    g = rng.standard_normal((6, 6))
    m = 0.5 * (g + g.T)
    part = BlockPartition([3, 3])
    base = offdiag_mass_ratio(HessianSnapshot(matrix=m, partition=part))
    perm = np.array([2, 0, 1, 3, 5, 4])  # permutes inside each block only
    permuted = m[np.ix_(perm, perm)]
    assert offdiag_mass_ratio(HessianSnapshot(matrix=permuted, partition=part)) == pytest.approx(base, rel=1e-12)


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

def test_blobs_have_both_classes():
    data = make_blobs(33, 4, seed=0)
    assert set(np.unique(data.y)) == {-1.0, 1.0}
    assert data.X.shape == (33, 4)


def test_xor_blobs_not_linearly_separable_by_first_feature():
    data = make_xor_blobs(400, 3, separation=6.0, seed=0)
    # sign of x0 alone misclassifies about half of everything
    acc = np.mean((data.X[:, 0] > 0) == (data.y > 0))
    assert 0.3 <= acc <= 0.7


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(X=np.ones((3, 2)), y=np.array([1.0, 1.0, 1.0]))  # one class
    with pytest.raises(ValueError):
        Dataset(X=np.ones((2, 2)), y=np.array([1.0, 0.5]))  # bad label


def test_dataset_csv_roundtrip(tmp_path):
    data = make_blobs(12, 3, seed=5)
    path = tmp_path / "data.csv"
    save_dataset_csv(path, data)
    back = load_dataset_csv(path)
    assert np.array_equal(back.X, data.X)
    assert np.array_equal(back.y, data.y)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_zero_learning_rate_keeps_loss_constant():
    net = random_toynet(4, 3, seed=0)
    data = make_blobs(32, 3, seed=0)
    result = train(net, data, optimizer="sgd", eta=0.0, steps=20, seed=0)
    assert result.status == ["completed"] and result.losses.shape == (1, 21)
    assert np.all(result.losses[0] == result.losses[0, 0])


def test_adam_learns_separable_blobs():
    net = random_toynet(8, 5, seed=0)
    data = make_blobs(256, 5, separation=3.0, seed=0)
    result = train(net, data, optimizer="adam", eta=0.02, steps=2000, batch_size=64, seed=0)
    assert result.status == ["completed"]
    assert result.accuracies.shape == (1, 2001) and result.accuracies[0, -1] >= 0.99


def test_training_divergence_is_reported(rng):
    # the unbounded quadratic harness blows up geometrically at this step size
    g = rng.standard_normal((5, 5))
    model = _QuadraticModel(0.5 * (g + g.T) + 3 * np.eye(5), rng.standard_normal(5))
    model.set_flat(rng.standard_normal(5))
    data = make_blobs(8, 2, seed=0)
    result = train(model, data, optimizer="sgd", eta=1e150, steps=50, seed=0)
    assert result.status == ["diverged"]
    reached = np.count_nonzero(np.isfinite(result.losses[0]))
    assert 0 < reached < 51
    assert np.all(np.isnan(result.losses[0, reached:]))


def _parent_train(model, dataset, optimizer, eta, steps, batch_size, seed):
    """The lone-network training loop before it shared one forward pass per step.

    Each step evaluated the full-dataset loss with ``loss_grad`` and the
    accuracy with a second forward pass; the loss gradient was discarded.
    A non-finite logit makes ``loss_grad`` NaN, which ends the run.  Returns
    the losses and accuracies reached, the status, and the parameters the
    run ended on.
    """
    rng = derive_rng(seed, TAG_TRAIN, steps)
    theta = model.get_flat()
    buf = np.zeros_like(theta)
    vbuf = np.zeros_like(theta)
    losses, accs = [], []
    status = "completed"
    n = len(dataset)
    batch_size = min(batch_size, n)
    for step in range(steps + 1):
        full_loss, _ = model.loss_grad(dataset.X, dataset.y)
        if not np.isfinite(full_loss):
            status = "diverged"
            break
        losses.append(full_loss)
        accs.append(_accuracy(model.logits(dataset.X), dataset.y))
        if step == steps:
            break
        idx = rng.integers(0, n, size=batch_size)
        _, g = model.loss_grad(dataset.X[idx], dataset.y[idx])
        if not np.all(np.isfinite(g)):
            status = "diverged"
            break
        if optimizer == "sgd":
            buf = SGD_MOMENTUM * buf + g
            theta = theta - eta * buf
        else:
            buf = ADAM_BETA1 * buf + (1 - ADAM_BETA1) * g
            vbuf = ADAM_BETA2 * vbuf + (1 - ADAM_BETA2) * g * g
            mhat = buf / (1 - ADAM_BETA1 ** (step + 1))
            vhat = vbuf / (1 - ADAM_BETA2 ** (step + 1))
            theta = theta - eta * mhat / (np.sqrt(vhat) + ADAM_EPS)
        model.set_flat(theta)
    return np.asarray(losses), np.asarray(accs), status, model.get_flat()


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
@pytest.mark.parametrize("kind", ["toynet", "mlp"])
@pytest.mark.parametrize("eta", [0.05, 1e307], ids=["converging", "diverging"])
def test_train_matches_the_two_pass_loop_bit_for_bit(kind, optimizer, eta):
    def make():
        if kind == "toynet":
            return random_toynet(6, 4, seed=1)
        return scaled_mlp((4, 6, 6, 6, 1), 4.0, seed=1)

    data = make_xor_blobs(48, 4, seed=1)
    result = train(make(), data, optimizer=optimizer, eta=eta, steps=40, batch_size=16, seed=2)
    with np.errstate(over="ignore", invalid="ignore"):
        losses, accs, status, params = _parent_train(make(), data, optimizer, eta, 40, 16, 2)
    assert result.status == [status] == ["diverged" if eta > 1 else "completed"]
    m = losses.size
    assert result.losses.shape == result.accuracies.shape == (1, 41)
    assert np.all(result.losses[0, :m] == losses) and np.all(result.accuracies[0, :m] == accs)
    assert np.all(np.isnan(result.losses[0, m:])) and np.all(np.isnan(result.accuracies[0, m:]))
    assert np.array_equal(result.params[0], params)


def _lone_and_stacked(make, data, optimizer, grid, **kw):
    """k one-rate calls, joined row by row, and one k-rate call."""
    lone = [train(make(), data, optimizer=optimizer, eta=lr, **kw) for lr in grid]
    stacked = train(make(), data, optimizer=optimizer, eta=grid, **kw)
    joined = TrainResult(
        losses=np.vstack([r.losses for r in lone]),
        accuracies=np.vstack([r.accuracies for r in lone]),
        status=[s for r in lone for s in r.status],
        params=np.vstack([r.params for r in lone]),
        snapshots=[],
    )
    return joined, stacked


def _assert_same_rows(lone, stacked):
    assert stacked.status == lone.status
    for field in ("losses", "accuracies", "params"):
        a, b = getattr(lone, field), getattr(stacked, field)
        assert a.shape == b.shape and np.array_equal(a, b, equal_nan=True), field


def _stacking_mlp():
    return scaled_mlp((4, 6, 6, 6, 1), 4.0, seed=1)


def _stacking_toynet():
    return random_toynet(6, 4, seed=1)


@pytest.mark.parametrize(
    "make, optimizer",
    [(_stacking_mlp, "sgd"), (_stacking_mlp, "adam"), (_stacking_toynet, "sgd"), (_stacking_toynet, "adam")],
    ids=["sgd", "adam", "toynet-sgd", "toynet-adam"],
)
def test_stacked_train_matches_lone_runs_bit_for_bit(make, optimizer):
    data = make_xor_blobs(48, 4, seed=1)
    grid = [0.003, 0.05, 1e307, 0.3]
    lone, stacked = _lone_and_stacked(make, data, optimizer, grid, steps=40, batch_size=16, seed=2)
    assert stacked.losses.shape == stacked.accuracies.shape == (4, 41)
    assert stacked.status == ["completed", "completed", "diverged", "completed"]
    _assert_same_rows(lone, stacked)


def test_stacked_rows_drop_out_at_their_own_gradient_divergence(rng):
    a, b, start = rng.uniform(1, 4, 5), rng.standard_normal(5), rng.standard_normal(5)

    def make():
        model = _QuadraticModel(np.diag(a), b)
        model.set_flat(start)
        return model

    grid = [0.01, 1e150, 0.1, 1e60]
    lone, stacked = _lone_and_stacked(make, make_blobs(8, 2, seed=0), "sgd", grid, steps=50, batch_size=4)
    assert stacked.status == ["completed", "diverged", "completed", "diverged"]
    lengths = np.count_nonzero(~np.isnan(stacked.losses), axis=1)
    assert lengths[1] < lengths[3] < 51 == lengths[0] == lengths[2]
    _assert_same_rows(lone, stacked)


def test_stacked_train_leaves_the_model_as_it_found_it():
    mlp = scaled_mlp((4, 6, 6, 6, 1), 2.0, seed=0)
    before = mlp.get_flat()
    train(mlp, make_xor_blobs(32, 4, seed=0), optimizer="adam", eta=[0.01, 0.1], steps=5, batch_size=8)
    assert mlp.get_flat().shape == before.shape and np.array_equal(mlp.get_flat(), before)


def _check_stacked_rows_match_lone_networks(make):
    model = make()
    data = make_xor_blobs(40, 4, seed=3)
    rng = np.random.default_rng(0)
    stack = model.get_flat() + 0.1 * rng.standard_normal((3, model.num_params))
    # the output bias, or the last output weight: every logit of row 1 is infinite
    stack[1, -1] = np.inf
    model.set_flat(stack)
    assert np.array_equal(model.get_flat(), stack)
    assert model.num_params == stack.shape[1] and model.partition().dim == stack.shape[1]
    logits = model.logits(data.X)
    losses, grads = model.loss_grad(data.X[:16], data.y[:16])
    assert logits.shape == (3, 40) and losses.shape == (3,) and grads.shape == stack.shape
    assert np.isnan(losses[1]) and np.all(np.isnan(grads[1]))
    lone = make()
    for row in range(3):
        lone.set_flat(stack[row])
        assert np.array_equal(lone.logits(data.X), logits[row])
        loss, grad = lone.loss_grad(data.X[:16], data.y[:16])
        assert np.array_equal(loss, losses[row], equal_nan=True) and np.array_equal(grad, grads[row], equal_nan=True)


def test_stacked_mlp_rows_match_lone_networks_bit_for_bit():
    _check_stacked_rows_match_lone_networks(lambda: scaled_mlp((4, 6, 6, 6, 1), 4.0, seed=3))


def test_stacked_toynet_rows_match_lone_networks_bit_for_bit():
    _check_stacked_rows_match_lone_networks(lambda: random_toynet(6, 4, seed=3))


@pytest.mark.parametrize(
    "make_model, eta, kwargs",
    [
        (lambda: scaled_mlp((2, 3, 3, 3, 1), 1.0), [], {}),
        (lambda: scaled_mlp((2, 3, 3, 3, 1), 1.0), [[0.1, 0.2]], {}),
        (lambda: scaled_mlp((2, 3, 3, 3, 1), 1.0), [0.1, -0.1], {}),
        (lambda: scaled_mlp((2, 3, 3, 3, 1), 1.0), [0.1, float("nan")], {}),
        (lambda: scaled_mlp((2, 3, 3, 3, 1), 1.0), float("nan"), {}),
        (lambda: scaled_mlp((2, 3, 3, 3, 1), 1.0), "fast", {}),
        (lambda: random_toynet(2, 2, seed=0), float("nan"), {}),
    ],
    ids=["empty", "2d", "negative", "nan_entry", "nan_scalar", "text", "toynet_nan"],
)
def test_train_rejects_bad_eta_naming_it(make_model, eta, kwargs):
    with pytest.raises(ValueError, match="eta"):
        train(make_model(), make_blobs(8, 2, seed=0), eta=eta, steps=3, **kwargs)


def test_train_snapshots_a_stack_row_by_row():
    model = scaled_mlp((2, 3, 3, 3, 1), 1.0)
    data = make_blobs(8, 2, seed=0)
    result = train(model, data, eta=[0.1, 0.2], steps=3, snapshot_stride=2)
    assert [step for step, _ in result.snapshots] == [0, 2, 3]
    for _, theta in result.snapshots:
        assert theta.shape == (2, model.num_params)
    # Every row starts from the model, and the last pair holds the trained rows.
    assert np.all(result.snapshots[0][1] == model.get_flat())
    assert np.array_equal(result.snapshots[-1][1], result.params)


def _per_lr_gap(data, widths, c, seed, lr_grid, steps, batch):
    """One ``gap.csv`` row with one lone ``train`` call per rate, a fresh network each."""
    best = {}
    for opt in ("sgd", "adam"):
        accs = []
        for lr in lr_grid:
            model = scaled_mlp(widths, c, seed=seed)
            res = train(model, data, optimizer=opt, eta=lr, steps=steps, batch_size=batch, seed=seed)
            accs.append(res.accuracies[0, -1] if res.status == ["completed"] else 0.0)
        best[opt] = max(accs)
    return [c, seed, best["sgd"], best["adam"], best["adam"] - best["sgd"]]


def test_scaled_gap_matches_the_per_rate_loop(tmp_path):
    from blockspectra.cli import main
    from blockspectra.fileio import read_table

    data = make_xor_blobs(48, 4, seed=2)
    save_dataset_csv(tmp_path / "xor.csv", data)
    widths, lr_grid = (4, 5, 5, 5, 1), (0.01, 1e307, 0.3)
    (tmp_path / "t.cfg").write_text(
        "experiment = scaled\nwidths = 4,5,5,5,1\nc_values = 1,8\nseeds = 2\ngap = true\n"
        f"gap_steps = 25\nbatch = 16\nlr_grid = 0.01,1e307,0.3\ndata_csv = {tmp_path / 'xor.csv'}\n"
    )
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["toynet", "--config", str(tmp_path / "t.cfg"), "--out", str(tmp_path / "out")]) == 0
        expected = [_per_lr_gap(data, widths, c, s, lr_grid, 25, 16) for c in (1.0, 8.0) for s in range(2)]
    header, table = read_table(tmp_path / "out" / "gap.csv", header_required=True)
    assert header == ["scale", "seed", "best_sgd", "best_adam", "gap"]
    assert table.tolist() == expected


def test_train_rejects_bad_counts_naming_them():
    net = random_toynet(2, 2, seed=0)
    data = make_blobs(8, 2, seed=0)
    with pytest.raises(ValueError, match="steps"):
        train(net, data, steps=-2)
    with pytest.raises(ValueError, match="batch_size"):
        train(net, data, steps=5, batch_size=0)
    with pytest.raises(ValueError, match="batch_size"):
        train(net, data, steps=5, batch_size=-3)


def test_train_rejects_unknown_optimizer():
    net = random_toynet(2, 2, seed=0)
    data = make_blobs(8, 2, seed=0)
    with pytest.raises(ValueError):
        train(net, data, optimizer="lbfgs", eta=0.1, steps=1)


def test_train_snapshots_at_stride():
    net = random_toynet(4, 3, seed=0)
    data = make_blobs(32, 3, seed=0)
    result = train(net, data, optimizer="adam", eta=0.02, steps=100, seed=0, snapshot_stride=50)
    assert [step for step, _ in result.snapshots] == [0, 50, 100]


# ---------------------------------------------------------------------------
# scaled MLP heterogeneity
# ---------------------------------------------------------------------------

def test_scaled_mlp_validation():
    with pytest.raises(ValueError):
        scaled_mlp((4, 5, 5, 1), 2.0)
    with pytest.raises(ValueError):
        scaled_mlp((4, 5, 5, 5, 1), 0.5)
    with pytest.raises(ValueError):
        scaled_mlp((4, 0, 5, 5, 1), 2.0)
    with pytest.raises(ValueError, match="widths"):
        scaled_mlp((4, 5, 5, 5, 2), 2.0)
    with pytest.raises(ValueError, match="1 output column"):
        ScaledMLP([np.ones((3, 2))], [np.zeros(2)])


@pytest.mark.parametrize(
    "c", [1e200, np.float64(1e200), float("inf"), float("nan")], ids=["float", "numpy_float", "inf", "nan"]
)
def test_scaled_mlp_rejects_a_non_finite_initial_scale(c):
    # scale_growth**2 overflows: a Python float raises, a numpy float gives inf.
    with pytest.raises(ValueError, match="scale_growth"):
        scaled_mlp((4, 5, 5, 5, 1), c)
    # Far below the float range's square root, every weight is finite.
    assert np.all(np.isfinite(scaled_mlp((4, 5, 5, 5, 1), 1e100).get_flat()))


def test_scaled_mlp_layer_partition():
    mlp = scaled_mlp((4, 5, 5, 5, 1), 2.0, seed=0)
    part = mlp.partition()
    assert part.block_sizes == (20, 5, 25, 5, 25, 5, 5, 1)
    assert part.dim == mlp.num_params


def test_scaled_mlp_hidden_layer_scales_grow():
    mlp = scaled_mlp((30, 30, 30, 30, 1), 3.0, seed=0)
    stds = [w.std() for w in mlp.weights]
    assert stds[1] == pytest.approx(3 * stds[0], rel=0.15)
    assert stds[2] == pytest.approx(3 * stds[1], rel=0.15)
    # the output layer stays at base scale
    assert stds[3] < 2 * stds[0]


def test_mlp_gradient_matches_finite_differences():
    mlp = scaled_mlp((3, 4, 4, 4, 1), 2.0, seed=0)
    data = make_xor_blobs(16, 3, seed=0)
    _, grad = mlp.loss_grad(data.X, data.y)
    fd = fd_loss_gradient(mlp, data.X, data.y)
    rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-10)
    assert rel.max() <= 1e-5


def test_snapshot_js0_grows_with_layer_scaling():
    data = make_blobs(128, 6, separation=3.0, seed=0)
    scores = {}
    for c in (1.0, 4.0):
        vals = []
        for seed in range(3):
            mlp = scaled_mlp((6, 8, 8, 8, 1), c, seed=seed)
            snap = hessian_fd(mlp, data.X, data.y)
            vals.append(snapshot_js0(snap))
        scores[c] = np.median(vals)
    assert scores[4.0] >= scores[1.0]


def test_trained_toynet_offdiag_mass_halves():
    factors = []
    for seed in range(3):
        net = random_toynet(8, 5, seed=seed)
        data = make_blobs(128, 5, separation=3.0, seed=seed)
        before = offdiag_mass_ratio(hessian_fd(net, data.X, data.y))
        result = train(net, data, optimizer="adam", eta=0.02, steps=3000, batch_size=32, seed=seed)
        assert result.status == ["completed"]
        net.set_flat(result.params[0])
        assert np.mean(1.0 / (1.0 + np.exp(-data.y * net.logits(data.X)))) >= 0.95  # mean p of the labels
        after = offdiag_mass_ratio(hessian_fd(net, data.X, data.y))
        factors.append(after / before)
    assert np.median(factors) <= 0.5


def test_snapshot_block_eigenvalues_shapes():
    net = random_toynet(3, 2, seed=0)
    data = make_blobs(16, 2, seed=0)
    snap = hessian_fd(net, data.X, data.y)
    eigs = block_eigenvalues(snap.matrix, snap.partition)
    assert [e.size for e in eigs] == [2, 2, 2, 3]
    for e in eigs:
        assert np.all(np.diff(e) <= 0)
