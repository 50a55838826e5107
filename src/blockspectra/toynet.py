"""Small dense networks with exact gradients and finite-difference Hessians.

Two models live here: a one-hidden-layer tanh network whose off-diagonal
Hessian blocks have a closed form worth checking numerically, and a deeper
tanh MLP whose per-layer initialization scale can be swept to dial the
spectral heterogeneity across parameter blocks up and down.

Both models expose the same protocol, which ``hessian_fd`` and ``train``
rely on: ``num_params``; ``get_flat`` / ``set_flat`` for the flattened
parameter vector; ``loss_grad`` returning the mean logistic loss and its
analytic gradient over a batch; ``logits``; and ``partition()``, the
``BlockPartition`` of the flattened vector into the model's parameter blocks.
Labels are -1/+1 and the per-sample probability of the observed label is
p = 1 / (1 + exp(-y f)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from blockspectra import fileio
from blockspectra.operators import BlockPartition
from blockspectra.rng import TAG_DATA, TAG_INIT, TAG_TRAIN, derive_rng

MAX_FD_DIM = 500
FD_STEP = 1e-4
SGD_MOMENTUM = 0.9
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _logistic_loss(f: np.ndarray, y: np.ndarray) -> float:
    """Mean logistic loss of logits ``f`` on -1/+1 labels ``y``."""
    return float(np.mean(np.logaddexp(0.0, -y * f)))


def _accuracy(f: np.ndarray, y) -> float:
    return float(np.mean((f > 0) == (np.asarray(y) > 0)))


def _check_finite_logits(f: np.ndarray):
    bad = np.where(~np.isfinite(f))[0]
    if bad.size:
        raise FloatingPointError(f"non-finite activation at sample index {int(bad[0])}")


class ToyNet:
    """f(x) = sum_i v_i tanh(w_i . x) with logistic loss on -1/+1 labels.

    Parameters flatten deterministically: the hidden rows w_1..w_n
    (row-major) followed by the output weights v_1..v_n.
    """

    def __init__(self, hidden_weights: np.ndarray, output_weights: np.ndarray):
        W = np.asarray(hidden_weights, dtype=float)
        v = np.asarray(output_weights, dtype=float)
        if W.ndim != 2 or v.ndim != 1 or W.shape[0] != v.size:
            raise ValueError(f"incompatible shapes W{W.shape}, v{v.shape}")
        self.W = W.copy()
        self.v = v.copy()

    @property
    def n_hidden(self) -> int:
        return self.v.size

    @property
    def d_in(self) -> int:
        return self.W.shape[1]

    @property
    def num_params(self) -> int:
        return self.W.size + self.v.size

    def get_flat(self) -> np.ndarray:
        return np.concatenate([self.W.ravel(), self.v])

    def set_flat(self, theta: np.ndarray):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.num_params,):
            raise ValueError(f"expected {self.num_params} parameters, got {theta.shape}")
        self.W = theta[: self.W.size].reshape(self.W.shape).copy()
        self.v = theta[self.W.size :].copy()

    def logits(self, X: np.ndarray) -> np.ndarray:
        return np.tanh(X @ self.W.T) @ self.v

    def loss_grad(self, X: np.ndarray, y: np.ndarray):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float)
        if X.shape[0] == 0:
            raise ValueError("empty batch")
        t = np.tanh(X @ self.W.T)  # (b, n)
        f = t @ self.v
        _check_finite_logits(f)
        loss = _logistic_loss(f, y)
        # d loss / d f = -y (1 - p) with p = sigmoid(y f)
        dldf = -y * _sigmoid(-y * f) / X.shape[0]
        gv = t.T @ dldf
        gW = ((dldf[:, None] * (1.0 - t * t)) * self.v[None, :]).T @ X
        return loss, np.concatenate([gW.ravel(), gv])

    def mean_prob(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean probability assigned to the observed labels."""
        return float(np.mean(_sigmoid(np.asarray(y, dtype=float) * self.logits(X))))

    def partition(self) -> BlockPartition:
        """One block per hidden neuron's input weights, plus the output block."""
        return BlockPartition([self.d_in] * self.n_hidden + [self.n_hidden])


def random_toynet(n_hidden: int, d_in: int, seed: int = 0) -> ToyNet:
    rng = derive_rng(seed, TAG_INIT, n_hidden, d_in)
    W = rng.standard_normal((n_hidden, d_in)) / np.sqrt(d_in)
    v = rng.standard_normal(n_hidden) / np.sqrt(n_hidden)
    return ToyNet(W, v)


def cross_neuron_hessian_block(net: ToyNet, x: np.ndarray, y: float, i: int, j: int) -> np.ndarray:
    """Closed-form cross-neuron Hessian block of the single-sample loss.

    For distinct hidden neurons i and j the second derivative of the
    logistic loss w.r.t. (w_i, w_j) is

        p (1 - p) v_i v_j tanh'(w_i.x) tanh'(w_j.x) x x'

    which decays like p(1 - p) as the prediction becomes confident.  The
    diagonal block (i == j) has extra terms and is rejected.
    """
    if i == j:
        raise ValueError("the diagonal block has additional terms; need i != j")
    n = net.n_hidden
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"neuron indices must lie in [0, {n}), got ({i}, {j})")
    x = np.asarray(x, dtype=float)
    f = float(net.logits(x[None, :])[0])
    p = float(_sigmoid(y * f))
    phi_i = 1.0 - np.tanh(net.W[i] @ x) ** 2
    phi_j = 1.0 - np.tanh(net.W[j] @ x) ** 2
    return p * (1.0 - p) * net.v[i] * net.v[j] * phi_i * phi_j * np.outer(x, x)


@dataclass
class HessianSnapshot:
    """Dense Hessian of the mean batch loss, with its parameter partition."""

    matrix: np.ndarray
    partition: BlockPartition
    step_index: int = 0
    asymmetry: float = 0.0

    def block(self, i: int) -> np.ndarray:
        a, z = self.partition.ranges()[i]
        return self.matrix[a:z, a:z]


def hessian_fd(model, X, y, step_index: int = 0) -> HessianSnapshot:
    """Full Hessian by central differences of the analytic gradient.

    Column j uses step h_j = FD_STEP * (1 + |theta_j|); the result is
    symmetrized as (H + H')/2 and the pre-symmetrization defect is kept for
    inspection.  The snapshot carries ``model.partition()``.  Quadratic cost,
    so the flattened dimension is capped.
    """
    dim = model.num_params
    if dim > MAX_FD_DIM:
        raise ValueError(f"model has {dim} parameters, finite differences capped at {MAX_FD_DIM}")
    theta = model.get_flat()
    H = np.empty((dim, dim))
    try:
        for j in range(dim):
            hj = FD_STEP * (1.0 + abs(theta[j]))
            theta[j] += hj
            model.set_flat(theta)
            _, g_plus = model.loss_grad(X, y)
            theta[j] -= 2 * hj
            model.set_flat(theta)
            _, g_minus = model.loss_grad(X, y)
            theta[j] += hj
            H[:, j] = (g_plus - g_minus) / (2 * hj)
    finally:
        model.set_flat(theta)
    asym = float(np.abs(H - H.T).max())
    H = 0.5 * (H + H.T)
    return HessianSnapshot(matrix=H, partition=model.partition(), step_index=step_index, asymmetry=asym)


def offdiag_mass_ratio(snapshot, partition: BlockPartition | None = None) -> float:
    """Share of squared Frobenius mass outside the partition's diagonal blocks."""
    if isinstance(snapshot, HessianSnapshot):
        matrix = snapshot.matrix
        partition = partition or snapshot.partition
    else:
        matrix = np.asarray(snapshot, dtype=float)
        if partition is None:
            raise ValueError("a raw matrix needs an explicit partition")
    if matrix.shape != (partition.dim, partition.dim):
        raise ValueError(f"matrix shape {matrix.shape} does not match partition dim {partition.dim}")
    total = float(np.sum(matrix * matrix))
    if total == 0:
        raise ValueError("zero matrix: off-diagonal mass ratio is undefined")
    on = sum(float(np.sum(matrix[a:z, a:z] ** 2)) for a, z in partition.ranges())
    return (total - on) / total


class ScaledMLP:
    """Dense tanh MLP with geometrically scaled per-layer initialization.

    Layer l's weights are initialized with standard deviation
    scale_growth^(l-1) / sqrt(fan_in), so scale_growth > 1 makes successive
    layers progressively larger and their Hessian blocks progressively more
    dissimilar.  The output is a single logit trained with logistic loss.
    """

    def __init__(self, weights, biases):
        if len(weights) != len(biases) or not weights:
            raise ValueError("need matching nonempty weight and bias lists")
        self.weights = [np.asarray(w, dtype=float).copy() for w in weights]
        self.biases = [np.asarray(b, dtype=float).copy() for b in biases]
        for w, b in zip(self.weights, self.biases):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError("each bias must match its weight matrix's output width")

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def num_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def get_flat(self) -> np.ndarray:
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b)
        return np.concatenate(parts)

    def set_flat(self, theta: np.ndarray):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.num_params,):
            raise ValueError(f"expected {self.num_params} parameters, got {theta.shape}")
        pos = 0
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            self.weights[k] = theta[pos : pos + w.size].reshape(w.shape).copy()
            pos += w.size
            self.biases[k] = theta[pos : pos + b.size].copy()
            pos += b.size

    def partition(self) -> BlockPartition:
        """One block per weight matrix and per bias vector."""
        sizes = []
        for w, b in zip(self.weights, self.biases):
            sizes.append(w.size)
            sizes.append(b.size)
        return BlockPartition(sizes)

    def _forward(self, X: np.ndarray):
        activations = [np.atleast_2d(np.asarray(X, dtype=float))]
        for k in range(self.num_layers - 1):
            activations.append(np.tanh(activations[-1] @ self.weights[k] + self.biases[k]))
        logits = (activations[-1] @ self.weights[-1] + self.biases[-1])[:, 0]
        return activations, logits

    def logits(self, X: np.ndarray) -> np.ndarray:
        return self._forward(X)[1]

    def loss_grad(self, X, y):
        y = np.asarray(y, dtype=float)
        activations, f = self._forward(X)
        _check_finite_logits(f)
        b = activations[0].shape[0]
        if b == 0:
            raise ValueError("empty batch")
        loss = _logistic_loss(f, y)
        delta = (-y * _sigmoid(-y * f) / b)[:, None]
        grads_w = [None] * self.num_layers
        grads_b = [None] * self.num_layers
        for k in range(self.num_layers - 1, -1, -1):
            grads_w[k] = activations[k].T @ delta
            grads_b[k] = delta.sum(axis=0)
            if k > 0:
                delta = (delta @ self.weights[k].T) * (1.0 - activations[k] ** 2)
        parts = []
        for gw, gb in zip(grads_w, grads_b):
            parts.append(gw.ravel())
            parts.append(gb)
        return loss, np.concatenate(parts)


def scaled_mlp(widths, scale_growth: float, seed: int = 0) -> ScaledMLP:
    """Four-layer tanh MLP whose hidden layers get geometrically scaled inits.

    Hidden layer k (k = 1, 2, 3) is initialized with standard deviation
    scale_growth^(k-1) / sqrt(fan_in); the output layer stays at base scale
    so the logit, and with it the curvature of the logistic loss, remains
    O(1) even at large scale_growth.  Growing scale_growth therefore spreads
    the Hessian blocks of the layers across orders of magnitude without
    flattening the loss surface itself.
    """
    widths = [int(w) for w in widths]
    if len(widths) != 5:
        raise ValueError(f"expected 5 widths (input, 3 hidden, output), got {len(widths)}")
    if any(w <= 0 for w in widths):
        raise ValueError(f"widths must be positive, got {widths}")
    if scale_growth < 1:
        raise ValueError(f"scale_growth must be >= 1, got {scale_growth}")
    rng = derive_rng(seed, TAG_INIT, *widths)
    weights, biases = [], []
    for k in range(4):
        mult = scale_growth**k if k < 3 else 1.0
        std = mult / np.sqrt(widths[k])
        weights.append(rng.standard_normal((widths[k], widths[k + 1])) * std)
        biases.append(np.zeros(widths[k + 1]))
    return ScaledMLP(weights, biases)


# ---------------------------------------------------------------------------
# Data
# ---------------------------------------------------------------------------

@dataclass
class Dataset:
    """Feature matrix plus -1/+1 labels."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise ValueError(f"incompatible shapes X{X.shape}, y{y.shape}")
        if not np.all(np.isfinite(X)):
            raise ValueError("features contain non-finite values")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if np.unique(y).size < 2:
            raise ValueError("both classes must be present")
        self.X = X
        self.y = y

    def __len__(self) -> int:
        return self.X.shape[0]


def make_blobs(n_samples: int, d_in: int, separation: float = 3.0, seed: int = 0) -> Dataset:
    """Two spherical Gaussian clusters at +/- (separation/2) e1."""
    rng = derive_rng(seed, TAG_DATA, n_samples, d_in)
    half = n_samples // 2
    y = np.concatenate([np.ones(n_samples - half), -np.ones(half)])
    centers = np.zeros((n_samples, d_in))
    centers[:, 0] = y * (separation / 2.0)
    X = centers + rng.standard_normal((n_samples, d_in))
    return Dataset(X=X, y=y)


def make_xor_blobs(n_samples: int, d_in: int, separation: float = 4.0, seed: int = 0) -> Dataset:
    """Four Gaussian clusters in an XOR layout over the first two features.

    Same-sign quadrants are class +1, mixed-sign quadrants class -1, so the
    task is not linearly separable and genuinely exercises the hidden layers.
    """
    if d_in < 2:
        raise ValueError("xor blobs need at least 2 features")
    rng = derive_rng(seed, TAG_DATA, n_samples, d_in, 2)
    quarter = n_samples // 4
    counts = [n_samples - 3 * quarter, quarter, quarter, quarter]
    layout = [((1, 1), 1.0), ((-1, -1), 1.0), ((1, -1), -1.0), ((-1, 1), -1.0)]
    a = separation / 2.0
    xs, ys = [], []
    for cnt, ((sx, sy), label) in zip(counts, layout):
        centers = np.zeros((cnt, d_in))
        centers[:, 0] = sx * a
        centers[:, 1] = sy * a
        xs.append(centers + rng.standard_normal((cnt, d_in)))
        ys.append(np.full(cnt, label))
    return Dataset(X=np.vstack(xs), y=np.concatenate(ys))


def save_dataset_csv(path, dataset: Dataset) -> None:
    fileio.write_csv(
        path,
        [f"x{j}" for j in range(dataset.X.shape[1])] + ["label"],
        np.column_stack([dataset.X, dataset.y]),
    )


def load_dataset_csv(path) -> Dataset:
    """Samples as feature columns then a label column; the header row is optional."""
    table = fileio.read_table(path)[1]
    if table.shape[1] < 2:
        raise ValueError(f"{path} has no feature column, expected features then a label column")
    return Dataset(X=table[:, :-1], y=table[:, -1])


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    losses: np.ndarray
    accuracies: np.ndarray
    status: str
    snapshots: list


def accuracy(model, X, y) -> float:
    return _accuracy(model.logits(X), y)


def train(
    model,
    dataset: Dataset,
    optimizer: str = "adam",
    eta: float = 0.01,
    steps: int = 1000,
    batch_size: int = 64,
    seed: int = 0,
    snapshot_stride: int = 0,
) -> TrainResult:
    """Minibatch training with heavy-ball SGD or bias-corrected Adam.

    Each step evaluates the full dataset with one forward pass: the logistic
    loss and the accuracy both come from the same ``model.logits`` call, and
    only the minibatch gradient runs a backward pass.  When
    ``snapshot_stride`` > 0 a finite-difference Hessian of the full-dataset
    loss is captured at that stride (and at the final step), which is only
    practical for small models.
    """
    if optimizer not in ("sgd", "adam"):
        raise ValueError(f"optimizer must be 'sgd' or 'adam', got {optimizer!r}")
    if eta < 0:
        raise ValueError(f"eta must be nonnegative, got {eta}")
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    rng = derive_rng(seed, TAG_TRAIN, steps)
    theta = model.get_flat()
    buf = np.zeros_like(theta)  # momentum / first moment
    vbuf = np.zeros_like(theta)  # second moment (adam)
    losses, accs, snapshots = [], [], []
    status = "completed"
    n = len(dataset)
    batch_size = min(batch_size, n)

    for step in range(steps + 1):
        try:
            f = model.logits(dataset.X)
            _check_finite_logits(f)
        except FloatingPointError:
            status = "diverged"
            break
        full_loss = _logistic_loss(f, dataset.y)
        if not np.isfinite(full_loss):
            status = "diverged"
            break
        losses.append(full_loss)
        accs.append(_accuracy(f, dataset.y))
        want_snapshot = snapshot_stride > 0 and (
            step % snapshot_stride == 0 or step == steps
        )
        if want_snapshot:
            snapshots.append(hessian_fd(model, dataset.X, dataset.y, step_index=step))
        if step == steps:
            break
        idx = rng.integers(0, n, size=batch_size)
        try:
            _, g = model.loss_grad(dataset.X[idx], dataset.y[idx])
        except FloatingPointError:
            status = "diverged"
            break
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

    return TrainResult(
        losses=np.asarray(losses),
        accuracies=np.asarray(accs),
        status=status,
        snapshots=snapshots,
    )


def blockwise_exact_eigenvalues(snapshot: HessianSnapshot) -> list[np.ndarray]:
    """Descending eigenvalues of each partition block of a Hessian snapshot."""
    return [np.linalg.eigvalsh(snapshot.block(i))[::-1] for i in range(snapshot.partition.num_blocks)]


def snapshot_js0(snapshot: HessianSnapshot) -> float:
    """Mean pairwise distance between the blocks' log-magnitude spectra.

    Block spectra of layer-scaled networks differ mainly multiplicatively, so
    the blocks' eigenvalue magnitudes are compared on a log10 axis where a
    scale gap becomes a translation the smoothing kernel can resolve;
    magnitudes below 1e-8 times the largest one are clamped to that floor.
    """
    from blockspectra.heterogeneity import log_magnitude_spectra, pairwise_heatmap
    from blockspectra.slq import smoothed_densities

    eigs = blockwise_exact_eigenvalues(snapshot)
    logs = log_magnitude_spectra(eigs)
    densities = smoothed_densities(logs)
    return pairwise_heatmap(densities, mode="none").js0
