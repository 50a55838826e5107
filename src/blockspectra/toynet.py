"""Small dense networks with exact gradients and finite-difference Hessians.

Two models live here, and one class computes both.  ``ScaledMLP`` is a
deeper tanh MLP whose per-layer initialization scale can be swept to dial
the spectral heterogeneity across parameter blocks up and down.  ``ToyNet``,
a one-hidden-layer tanh network, is a ``ScaledMLP`` without biases that
differs only in its parameter layout: its flat vector and partition go
neuron by neuron.  Its off-diagonal Hessian blocks have a closed form; that
oracle lives with the tests (``tests/helpers.py``), which check
``hessian_fd`` against it.

Both expose the protocol that ``hessian_fd`` and ``train`` rely on:
``num_params``; ``get_flat`` / ``set_flat`` for the flattened parameter
vector; ``loss_grad`` returning the mean logistic loss and its analytic
gradient over a batch; ``logits``; and ``partition()``, the
``BlockPartition`` of the flattened vector into the model's parameter
blocks.  Labels are -1/+1 and the per-sample probability of the observed
label is p = 1 / (1 + exp(-y f)).

The flattened vector may carry a leading stack axis of k copies:
``set_flat`` / ``get_flat`` take and return (k, num_params), ``logits``
returns (k, n), and ``loss_grad`` returns k losses and a (k, num_params)
gradient.  ``train`` uses it to step a whole grid of learning rates at once;
``num_params`` and ``partition()`` always describe one copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from blockspectra import fileio
from blockspectra.operators import BlockPartition, block_eigenvalues
from blockspectra.rng import TAG_DATA, TAG_INIT, TAG_TRAIN, derive_rng

MAX_FD_DIM = 500
FD_STEP = 1e-4
SGD_MOMENTUM = 0.9
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _logistic_loss(f: np.ndarray, y: np.ndarray):
    """Mean logistic loss of logits ``f`` on -1/+1 labels ``y``, one per stack row."""
    return np.mean(np.logaddexp(0.0, -y * f), axis=-1)


def _accuracy(f: np.ndarray, y):
    """Share of correctly signed logits, one per stack row."""
    return np.mean((f > 0) == (np.asarray(y) > 0), axis=-1)


def _check_finite_logits(f: np.ndarray):
    bad = np.where(~np.isfinite(f))[0]
    if bad.size:
        raise FloatingPointError(f"non-finite activation at sample index {int(bad[0])}")


class ScaledMLP:
    """Dense tanh MLP with one output logit, trained with logistic loss.

    ``scaled_mlp`` builds one whose layer l is initialized with standard
    deviation scale_growth^(l-1) / sqrt(fan_in), so scale_growth > 1 makes
    successive layers progressively larger and their Hessian blocks
    progressively more dissimilar.

    The parameters are one private flat array, each weight matrix followed by
    its bias, and ``weights`` and ``biases`` are views of it.  The array may
    carry a leading stack axis of k independent copies of the network:
    ``set_flat`` with shape (k, dim) makes a stack, after which ``get_flat``
    returns (k, dim), ``logits`` (k, n), and ``loss_grad`` k losses and a
    (k, dim) gradient.  Each row is computed by the same operations as a lone
    network, so it matches that network bit for bit.
    """

    def __init__(self, weights, biases):
        if len(weights) != len(biases) or not weights:
            raise ValueError("need matching nonempty weight and bias lists")
        weights = [np.asarray(w, dtype=float) for w in weights]
        biases = [np.asarray(b, dtype=float) for b in biases]
        for w, b in zip(weights, biases):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError("each bias must match its weight matrix's output width")
        if weights[-1].shape[1] != 1:
            raise ValueError(f"the last weight matrix must have 1 output column, got {weights[-1].shape[1]}")
        arrays = [a for pair in zip(weights, biases) for a in pair]
        # One copy's arrays in flattening order, with where each starts.
        self._shapes = [a.shape for a in arrays]
        self._offsets = list(accumulate((a.size for a in arrays), initial=0))
        self.set_flat(np.concatenate([a.ravel() for a in arrays]))

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def num_params(self) -> int:
        """Parameters of one network, whether or not the model is a stack."""
        return self._offsets[-1]

    def _views(self, flat: np.ndarray):
        """Per-layer weight and bias views of a flat vector or a (k, dim) stack.

        A layer without biases has ``None`` for its bias view.
        """
        lead = flat.shape[:-1]
        bounds = zip(self._offsets, self._offsets[1:], self._shapes)
        arrays = [flat[..., a:z].reshape(lead + shape) for a, z, shape in bounds]
        return arrays[0::2], arrays[1::2]

    def get_flat(self) -> np.ndarray:
        return self._flat.copy()

    def set_flat(self, theta: np.ndarray):
        # One private copy; the weights and biases are views of it.
        theta = np.array(theta, dtype=float)
        dim = self.num_params
        if theta.ndim not in (1, 2) or theta.shape[-1] != dim:
            raise ValueError(f"expected {dim} parameters or a (k, {dim}) stack, got {theta.shape}")
        self._flat = theta
        self.weights, self.biases = self._views(theta)

    def partition(self) -> BlockPartition:
        """One block per weight matrix and per bias vector."""
        return BlockPartition([math.prod(shape) for shape in self._shapes])

    @staticmethod
    def _affine(a, w, b):
        z = a @ w
        return z if b is None else z + b[..., None, :]

    def _forward(self, X: np.ndarray):
        """Each layer's input, and the logits."""
        activations = [np.atleast_2d(np.asarray(X, dtype=float))]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            activations.append(np.tanh(self._affine(activations[-1], w, b)))
        return activations, self._affine(activations[-1], self.weights[-1], self.biases[-1])[..., 0]

    def logits(self, X: np.ndarray) -> np.ndarray:
        return self._forward(X)[1]

    def loss_grad(self, X, y):
        """Mean logistic loss over the batch and its analytic gradient.

        A lone network raises ``FloatingPointError`` on a non-finite logit.
        A stack instead gives that row a NaN loss and a NaN gradient, and
        the other rows are unaffected.
        """
        y = np.asarray(y, dtype=float)
        activations, f = self._forward(X)
        if f.ndim == 1:
            _check_finite_logits(f)
        b = activations[0].shape[0]
        if b == 0:
            raise ValueError("empty batch")
        loss = _logistic_loss(f, y)
        delta = (-y * _sigmoid(-y * f) / b)[..., None]
        grad = np.empty(f.shape[:-1] + (self.num_params,))
        grads_w, grads_b = self._views(grad)
        for k in range(self.num_layers - 1, -1, -1):
            grads_w[k][...] = activations[k].mT @ delta
            if grads_b[k] is not None:
                grads_b[k][...] = delta.sum(axis=-2)
            if k > 0:
                delta = (delta @ self.weights[k].mT) * (1.0 - activations[k] ** 2)
        if f.ndim > 1:
            bad = ~np.all(np.isfinite(f), axis=-1)
            loss[bad] = np.nan
            grad[bad] = np.nan
        return loss, grad


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
    if widths[-1] != 1:
        raise ValueError(f"widths must end in 1, the one output logit, got {widths}")
    if scale_growth < 1:
        raise ValueError(f"scale_growth must be >= 1, got {scale_growth}")
    # A float past about 1.34e154 overflows scale_growth**2: Python floats
    # raise, numpy floats return inf.
    try:
        with np.errstate(over="ignore"):
            mults = [scale_growth**k for k in range(3)] + [1.0]
    except OverflowError:
        mults = [math.inf]
    if not all(map(math.isfinite, mults)):
        raise ValueError(f"scale_growth = {scale_growth!r} makes an initial weight scale non-finite")
    rng = derive_rng(seed, TAG_INIT, *widths)
    weights, biases = [], []
    for k, mult in enumerate(mults):
        std = mult / np.sqrt(widths[k])
        weights.append(rng.standard_normal((widths[k], widths[k + 1])) * std)
        biases.append(np.zeros(widths[k + 1]))
    return ScaledMLP(weights, biases)


class ToyNet(ScaledMLP):
    """f(x) = sum_i v_i tanh(w_i . x) with logistic loss on -1/+1 labels.

    A ``ScaledMLP`` with one hidden layer and no biases, in its own layout:
    the flat vector holds the hidden rows w_1..w_n (row-major), so each
    neuron's input weights are contiguous, followed by the output weights
    v_1..v_n.  ``W`` and ``v`` are views of it.
    """

    def __init__(self, hidden_weights: np.ndarray, output_weights: np.ndarray):
        W = np.asarray(hidden_weights, dtype=float)
        v = np.asarray(output_weights, dtype=float)
        if W.ndim != 2 or v.ndim != 1 or W.shape[0] != v.size:
            raise ValueError(f"incompatible shapes W{W.shape}, v{v.shape}")
        self.n_hidden, self.d_in = W.shape
        self.set_flat(np.concatenate([W.ravel(), v]))

    @property
    def num_params(self) -> int:
        return self.n_hidden * (self.d_in + 1)

    # ScaledMLP's own function, named here because bench/layertrace.py traces
    # ToyNet's calls through vars(ToyNet)["loss_grad"].
    loss_grad = ScaledMLP.loss_grad

    def _views(self, flat: np.ndarray):
        nd = self.n_hidden * self.d_in
        W = flat[..., :nd].reshape(flat.shape[:-1] + (self.n_hidden, self.d_in))
        return [W.mT, flat[..., nd:, None]], [None, None]

    @property
    def W(self) -> np.ndarray:
        """Hidden weights, one row per neuron."""
        return self.weights[0].mT

    @property
    def v(self) -> np.ndarray:
        """Output weights."""
        return self.weights[1][..., 0]

    def partition(self) -> BlockPartition:
        """One block per hidden neuron's input weights, plus the output block."""
        return BlockPartition([self.d_in] * self.n_hidden + [self.n_hidden])


def random_toynet(n_hidden: int, d_in: int, seed: int = 0) -> ToyNet:
    rng = derive_rng(seed, TAG_INIT, n_hidden, d_in)
    W = rng.standard_normal((n_hidden, d_in)) / np.sqrt(d_in)
    v = rng.standard_normal(n_hidden) / np.sqrt(n_hidden)
    return ToyNet(W, v)


@dataclass
class HessianSnapshot:
    """Dense Hessian of the mean batch loss, with its parameter partition."""

    matrix: np.ndarray
    partition: BlockPartition
    step_index: int = 0
    asymmetry: float = 0.0


def hessian_fd(model, X, y, step_index: int = 0) -> HessianSnapshot:
    """Full Hessian by central differences of the analytic gradient.

    Column j uses step h_j = FD_STEP * (1 + |theta_j|); the result is
    symmetrized as (H + H')/2 and the pre-symmetrization defect is kept for
    inspection.  The snapshot carries ``model.partition()``.  Quadratic cost,
    so the flattened dimension is capped.  The model's parameters come back
    bit for bit as they were, so every column is taken about the same point.
    An overflow or invalid value anywhere in the differencing raises a
    ``ValueError`` naming it, rather than yielding a Hessian of overflowed
    layers.
    """
    dim = model.num_params
    if dim > MAX_FD_DIM:
        raise ValueError(f"model has {dim} parameters, finite differences capped at {MAX_FD_DIM}")
    theta = model.get_flat()
    if theta.ndim != 1:
        raise ValueError(f"hessian_fd needs one network, got a stack of {theta.shape[0]}")
    H = np.empty((dim, dim))
    try:
        with np.errstate(over="raise", invalid="raise"):
            for j in range(dim):
                t = theta[j]
                hj = FD_STEP * (1.0 + abs(t))
                theta[j] = t + hj
                model.set_flat(theta)
                _, g_plus = model.loss_grad(X, y)
                theta[j] = (t + hj) - 2 * hj
                model.set_flat(theta)
                _, g_minus = model.loss_grad(X, y)
                # t + hj - hj need not be t in floating point, so restore t itself
                theta[j] = t
                H[:, j] = (g_plus - g_minus) / (2 * hj)
            asym = float(np.abs(H - H.T).max())
            H = 0.5 * (H + H.T)
    except FloatingPointError as exc:
        raise ValueError(f"finite-difference Hessian failed: {exc}") from None
    finally:
        model.set_flat(theta)
    return HessianSnapshot(matrix=H, partition=model.partition(), step_index=step_index, asymmetry=asym)


def offdiag_mass_ratio(snapshot: HessianSnapshot) -> float:
    """Share of squared Frobenius mass outside the snapshot's diagonal blocks."""
    matrix = snapshot.matrix
    total = float(np.sum(matrix * matrix))
    if total == 0:
        raise ValueError("zero matrix: off-diagonal mass ratio is undefined")
    on = sum(float(np.sum(matrix[a:z, a:z] ** 2)) for a, z in snapshot.partition.ranges())
    return (total - on) / total


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
    """Full-dataset loss and accuracy at each step of a training run.

    With a scalar ``eta`` the arrays hold one value per step reached and
    ``status`` is "completed" or "diverged".  With a sequence of k rates the
    arrays are (k, steps + 1), NaN after a row's last step, and ``status``
    is a list of k such strings.
    """

    losses: np.ndarray
    accuracies: np.ndarray
    status: str | list[str]
    snapshots: list


def _learning_rates(eta, snapshot_stride: int) -> np.ndarray:
    """``eta`` as a float array of shape () or (k,)."""
    try:
        rates = np.asarray(eta, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"eta must be a number or a 1-D sequence of numbers, got {eta!r}") from None
    if rates.ndim > 1 or rates.size == 0:
        raise ValueError(f"eta must be a number or a nonempty 1-D sequence, got shape {rates.shape}")
    if not np.all(rates >= 0):
        raise ValueError(f"eta must be nonnegative, got {eta}")
    if rates.ndim and snapshot_stride > 0:
        raise ValueError("eta is a sequence, but snapshot_stride > 0 needs a single rate")
    return rates


def train(
    model,
    dataset: Dataset,
    optimizer: str = "adam",
    eta=0.01,
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

    ``eta`` is one learning rate, or a 1-D sequence of k rates.  A sequence
    trains k copies of the model as one stack: every copy starts from the
    model's parameters and draws the same minibatches, so each step is one
    forward and one backward pass for all rates, and each row matches a lone
    run at its rate bit for bit.  A row leaves the stack at the step where
    its lone run would diverge (a non-finite full-dataset logit or loss,
    minibatch logit or gradient), and the other rows go on.  A lone run
    leaves its trained parameters in the model; a stacked run leaves the
    model's parameters as it found them.
    """
    if optimizer not in ("sgd", "adam"):
        raise ValueError(f"optimizer must be 'sgd' or 'adam', got {optimizer!r}")
    rates = _learning_rates(eta, snapshot_stride)
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    rng = derive_rng(seed, TAG_TRAIN, steps)
    stacked = rates.ndim == 1
    k = rates.size
    start = model.get_flat()
    if start.ndim != 1:
        raise ValueError(f"train needs one network, got a stack of {start.shape[0]}")
    # One row per rate still training; ``rows`` maps each to its result row.
    rows = np.arange(k)
    eta_col = rates.reshape(k, 1)
    theta = np.tile(start, (k, 1))
    buf = np.zeros_like(theta)  # momentum / first moment
    vbuf = np.zeros_like(theta)  # second moment (adam)
    losses = np.full((k, steps + 1), np.nan)
    accs = np.full((k, steps + 1), np.nan)
    status = ["completed"] * k
    snapshots = []
    n = len(dataset)
    batch_size = min(batch_size, n)

    def place():
        model.set_flat(theta if stacked else theta[0])

    def keep_rows(keep):
        nonlocal rows, eta_col, theta, buf, vbuf
        for r in rows[~keep]:
            status[r] = "diverged"
        rows, eta_col, theta, buf, vbuf = (a[keep] for a in (rows, eta_col, theta, buf, vbuf))

    if stacked:
        place()
    # A diverging row overflows before the finiteness checks below drop it,
    # and its status says so, so numpy's overflow warnings would only repeat it.
    # A snapshot is no training row, so it runs under the caller's settings
    # (hessian_fd raises on its own overflows).
    caller_err = np.geterr()
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps + 1):
            f = model.logits(dataset.X).reshape(rows.size, n)
            full_loss = _logistic_loss(f, dataset.y)
            keep = np.all(np.isfinite(f), axis=1) & np.isfinite(full_loss)
            if not keep.all():
                keep_rows(keep)
                if not rows.size:
                    break
                f, full_loss = f[keep], full_loss[keep]
                place()
            losses[rows, step] = full_loss
            accs[rows, step] = _accuracy(f, dataset.y)
            want_snapshot = snapshot_stride > 0 and (
                step % snapshot_stride == 0 or step == steps
            )
            if want_snapshot:
                with np.errstate(**caller_err):
                    snapshots.append(hessian_fd(model, dataset.X, dataset.y, step_index=step))
            if step == steps:
                break
            idx = rng.integers(0, n, size=batch_size)
            try:
                _, g = model.loss_grad(dataset.X[idx], dataset.y[idx])
            except FloatingPointError:  # a lone network's non-finite logit; a stack row gets a NaN gradient
                g = np.nan
            g = np.broadcast_to(g, theta.shape)
            keep = np.all(np.isfinite(g), axis=1)
            if not keep.all():
                keep_rows(keep)
                if not rows.size:
                    break
                g = g[keep]
            if optimizer == "sgd":
                buf = SGD_MOMENTUM * buf + g
                theta = theta - eta_col * buf
            else:
                buf = ADAM_BETA1 * buf + (1 - ADAM_BETA1) * g
                vbuf = ADAM_BETA2 * vbuf + (1 - ADAM_BETA2) * g * g
                mhat = buf / (1 - ADAM_BETA1 ** (step + 1))
                vhat = vbuf / (1 - ADAM_BETA2 ** (step + 1))
                theta = theta - eta_col * mhat / (np.sqrt(vhat) + ADAM_EPS)
            place()

    if stacked:
        model.set_flat(start)
        return TrainResult(losses=losses, accuracies=accs, status=status, snapshots=snapshots)
    reached = ~np.isnan(losses[0])
    return TrainResult(
        losses=losses[0, reached],
        accuracies=accs[0, reached],
        status=status[0],
        snapshots=snapshots,
    )


def snapshot_js0(snapshot: HessianSnapshot) -> float:
    """Mean pairwise distance between the blocks' log-magnitude spectra.

    Block spectra of layer-scaled networks differ mainly multiplicatively, so
    the blocks' eigenvalue magnitudes are compared on a log10 axis where a
    scale gap becomes a translation the smoothing kernel can resolve;
    magnitudes below 1e-8 times the largest one are clamped to that floor.
    """
    from blockspectra.heterogeneity import log_magnitude_spectra, pairwise_heatmap
    from blockspectra.slq import smoothed_densities

    eigs = block_eigenvalues(snapshot.matrix, snapshot.partition)
    logs = log_magnitude_spectra(eigs)
    densities = smoothed_densities(logs)
    return pairwise_heatmap(densities, mode="none").js0
