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
gradient over a batch; ``block_grads``, the gradients of a stack of copies
that differ only in one run of entries; ``logits``; and ``partition()``, the
``BlockPartition`` of the flattened vector into the model's parameter
blocks.  ``loss_grad`` and ``block_grads`` share one forward and one backward
pass, which takes each layer's weight and bias arrays with or without a stack
axis.  Labels are -1/+1 and the per-sample probability of the observed
label is p = 1 / (1 + exp(-y f)).

The flattened vector may carry a leading stack axis of k copies:
``set_flat`` / ``get_flat`` take and return (k, num_params), ``logits``
returns (k, n), and ``loss_grad`` returns k losses and a (k, num_params)
gradient.  ``train`` steps every run as such a stack, one row per learning
rate, and only trains: its snapshots are the rows' parameters, and the caller
chooses which Hessian to take of them.  ``hessian_fd`` differences its
columns in chunks, each chunk's perturbed copies one stack through
``block_grads``, in which only the perturbed weight or bias array carries the
stack axis.  ``num_params`` and ``partition()`` always describe one copy.

Two rules hold throughout.  No function here leaves a model changed: ``train``
works on a copy and returns the trained parameters, and ``hessian_fd`` only
reads the model's parameters.  A network, or a row of a stack, whose logits
are not all finite has a NaN loss and a NaN gradient; ``train`` scores such a
row as diverged, and ``hessian_fd`` raises.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from blockspectra import fileio
from blockspectra.heterogeneity import log_magnitude_spectra, pairwise_heatmap
from blockspectra.operators import BlockPartition, block_eigenvalues
from blockspectra.rng import TAG_DATA, TAG_INIT, TAG_TRAIN, derive_rng
from blockspectra.slq import smoothed_densities

MAX_FD_DIM = 500
FD_STEP = 1e-4
# Byte budget for the logits of one stacked pass of ``hessian_fd``: 2c rows of
# n float64, so c = 8 columns at n = 256.  Each layer's activations take its
# width times this (256 KiB at width 8).  Of 4, 6, 8, 12 and 16 columns at
# n = 256, 8 gave the fastest whole ``toynet scaled`` runs.
FD_STACK_BYTES = 32 * 1024
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
    network, so it matches that network bit for bit, a row with a non-finite
    logit included: its loss and gradient are NaN either way.
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
        if b is None:
            return z
        b = b[..., None, :]
        # In place when z already has the stacked shape: one temporary fewer.
        return np.add(z, b, out=z) if z.ndim >= b.ndim else z + b

    def _forward(self, X: np.ndarray, weights, biases):
        """Each layer's input, and the logits."""
        activations = [np.atleast_2d(np.asarray(X, dtype=float))]
        for w, b in zip(weights[:-1], biases[:-1]):
            z = self._affine(activations[-1], w, b)
            activations.append(np.tanh(z, out=z))
        return activations, self._affine(activations[-1], weights[-1], biases[-1])[..., 0]

    def _gradient(self, X, y, weights, biases):
        """Logits and analytic gradient of the mean logistic loss.

        ``weights`` and ``biases`` are one array per layer, each with or
        without a leading stack axis; the logits and the (k, dim) gradient
        carry the stack axis if any array does.  A row with a non-finite
        logit gets a NaN gradient.  The loss itself is not computed.
        """
        activations, f = self._forward(X, weights, biases)
        b = activations[0].shape[0]
        if b == 0:
            raise ValueError("empty batch")
        delta = (-y * _sigmoid(-y * f) / b)[..., None]
        if not np.isfinite(f).all():
            # A NaN delta carries a bad row through the backward pass quietly,
            # where an infinite logit's would meet inf * 0.
            delta[~np.isfinite(f).all(axis=-1)] = np.nan
        grad = np.empty(f.shape[:-1] + (self.num_params,))
        grads_w, grads_b = self._views(grad)
        for k in range(self.num_layers - 1, -1, -1):
            # Each layer's input is dropped once used, and becomes tanh' =
            # 1 - a**2 in place: the pass holds one activation fewer at its peak.
            a = activations.pop()
            grads_w[k][...] = a.mT @ delta
            if grads_b[k] is not None:
                grads_b[k][...] = delta.sum(axis=-2)
            if k > 0:
                np.square(a, out=a)
                np.subtract(1.0, a, out=a)
                delta = delta @ weights[k].mT
                delta *= a
        return f, grad

    def logits(self, X: np.ndarray) -> np.ndarray:
        return self._forward(X, self.weights, self.biases)[1]

    def loss_grad(self, X, y):
        """Mean logistic loss over the batch and its analytic gradient.

        A network, or a row of a stack, with a non-finite logit gets a NaN
        loss and a NaN gradient; the other rows are unaffected.
        """
        y = np.asarray(y, dtype=float)
        f, grad = self._gradient(X, y, self.weights, self.biases)
        loss = _logistic_loss(f, y)
        if not np.isfinite(f).all():
            loss = np.where(~np.isfinite(f).all(axis=-1), np.nan, loss)
        return loss, grad

    def block_grads(self, X, y, start: int, values: np.ndarray) -> np.ndarray:
        """Gradients of k copies of this network that differ in one run of entries.

        Copy r holds ``values[r]`` at flat entries start:start + width and
        this network's parameters elsewhere; the result is (k, dim).  Only the
        weight and bias arrays holding those entries carry the stack axis, so
        the other layers' products are plain broadcast matmuls.  Each row
        matches ``loss_grad`` of a lone network at that copy bit for bit.
        """
        if self._flat.ndim != 1:
            raise ValueError(f"block_grads needs one network, got a stack of {self._flat.shape[0]}")
        stop = start + values.shape[1]
        stack = np.tile(self._flat, (len(values), 1))
        stack[:, start:stop] = values
        varies = np.zeros(self.num_params, dtype=bool)
        varies[start:stop] = True
        weights, biases = (
            [s if m is not None and m.any() else a for a, s, m in zip(*arrays)]
            for arrays in zip(self._views(self._flat), self._views(stack), self._views(varies))
        )
        return self._gradient(X, np.asarray(y, dtype=float), weights, biases)[1]


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
    asymmetry: float = 0.0


def hessian_fd(model, X, y) -> HessianSnapshot:
    """Full Hessian by central differences of the analytic gradient.

    Column j uses step h_j = FD_STEP * (1 + |theta_j|); the result is
    symmetrized as (H + H')/2 and the pre-symmetrization defect is kept for
    inspection.  The snapshot carries ``model.partition()``.  Quadratic cost,
    so the flattened dimension is capped.

    The columns are differenced one partition block at a time, c columns
    at once, c as large as keeps the logits of 2c stacked copies within
    ``FD_STACK_BYTES`` (8 columns at 256 samples).  A chunk's copies at +h
    and at -h are one stack through ``model.block_grads``; each differs from
    the model's parameters in one entry and goes through the same operations
    as a lone network at it, so the Hessian is the same, bit for bit, at any
    chunk size.  The model's own parameters are only read.
    A non-finite parameter, an overflow or invalid value anywhere in the
    differencing, or a non-finite column (a NaN gradient, see
    ``ScaledMLP.loss_grad``) raises a ``ValueError`` naming it, rather than
    yielding a Hessian of overflowed layers.
    """
    dim = model.num_params
    if dim > MAX_FD_DIM:
        raise ValueError(f"model has {dim} parameters, finite differences capped at {MAX_FD_DIM}")
    theta = model.get_flat()
    if theta.ndim != 1:
        raise ValueError(f"hessian_fd needs one network, got a stack of {theta.shape[0]}")
    bad = np.flatnonzero(~np.isfinite(theta))
    if bad.size:
        raise ValueError(f"finite-difference Hessian failed: non-finite parameter {theta[bad[0]]} at index {bad[0]}")
    chunk = max(1, FD_STACK_BYTES // (2 * 8 * np.size(y)))
    partition = model.partition()
    H = np.empty((dim, dim))
    try:
        with np.errstate(over="raise", invalid="raise"):
            for start, stop in partition.ranges():
                for j in range(start, stop, chunk):
                    t = theta[j : min(j + chunk, stop)]
                    c = t.size
                    h = FD_STEP * (1.0 + np.abs(t))
                    # Rows 0..c-1 step column j + r up by h, rows c..2c-1 down.
                    values = np.tile(t, (2 * c, 1))
                    diag = np.arange(c)
                    values[diag, diag] = t + h
                    values[c + diag, diag] = (t + h) - 2 * h
                    g = model.block_grads(X, y, j, values)
                    H[:, j : j + c] = ((g[:c] - g[c:]) / (2 * h)[:, None]).T
            bad = np.flatnonzero(~np.all(np.isfinite(H), axis=0))
            if bad.size:
                raise ValueError(f"finite-difference Hessian failed: non-finite value in column {bad[0]}")
            asym = float(np.abs(H - H.T).max())
            H = 0.5 * (H + H.T)
    except FloatingPointError as exc:
        raise ValueError(f"finite-difference Hessian failed: {exc}") from None
    return HessianSnapshot(matrix=H, partition=partition, asymmetry=asym)


def offdiag_mass_ratio(snapshot: HessianSnapshot) -> float:
    """Share of squared Frobenius mass outside the snapshot's diagonal blocks."""
    matrix = snapshot.matrix
    total = float(np.sum(matrix * matrix))
    if total == 0:
        raise ValueError("Hessian is zero: off-diagonal mass ratio is undefined")
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
    """Full-dataset loss and accuracy at each step of k training runs.

    ``losses`` and ``accuracies`` are (k, steps + 1), NaN after a row's last
    step, and ``status`` holds k strings, "completed" or "diverged".
    ``params`` is (k, num_params): the parameters each row held when it
    stopped, which for a diverged row are those that gave the non-finite
    value.  ``snapshots`` holds the recorded ``(step, (k, num_params))``
    pairs, in step order.
    """

    losses: np.ndarray
    accuracies: np.ndarray
    status: list[str]
    params: np.ndarray
    snapshots: list


def _learning_rates(eta) -> np.ndarray:
    """``eta`` as a float array of shape (k,)."""
    try:
        rates = np.asarray(eta, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"eta must be a number or a 1-D sequence of numbers, got {eta!r}") from None
    if rates.ndim > 1 or rates.size == 0:
        raise ValueError(f"eta must be a number or a nonempty 1-D sequence, got shape {rates.shape}")
    if not np.all(rates >= 0):
        raise ValueError(f"eta must be nonnegative, got {eta}")
    return rates.reshape(-1)


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

    ``eta`` is one learning rate, or a 1-D sequence of k rates; one rate is
    k = 1.  The k runs are stepped as one stack of copies of the model: every
    copy starts from the model's parameters and draws the same minibatches,
    so each step is one forward and one backward pass for all rates, and
    each row matches a one-rate call at its rate bit for bit.  Each step
    evaluates the full dataset with one forward pass: the logistic loss and
    the accuracy both come from the same ``model.logits`` call, and only the
    minibatch gradient runs a backward pass.

    A row leaves the stack at the step where it diverges (a non-finite
    full-dataset logit or loss, or a non-finite minibatch gradient), and the
    other rows go on.  The trained parameters are ``TrainResult.params``;
    the stack is a copy of the model, whose own parameters never change.

    When ``snapshot_stride`` > 0, every row's parameters are recorded at that
    stride and at the final step, while any row still trains, as a
    ``(step, (k, num_params) array)`` pair in ``TrainResult.snapshots``.  A
    row that has stopped is NaN there.  A row's parameters at a step are
    those its loss at that step was computed from.
    """
    if optimizer not in ("sgd", "adam"):
        raise ValueError(f"optimizer must be 'sgd' or 'adam', got {optimizer!r}")
    rates = _learning_rates(eta)
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    rng = derive_rng(seed, TAG_TRAIN, steps)
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
    params = np.empty_like(theta)
    snapshots = []
    n = len(dataset)
    batch_size = min(batch_size, n)

    def keep_rows(keep):
        nonlocal rows, eta_col, theta, buf, vbuf
        for r in rows[~keep]:
            status[r] = "diverged"
        params[rows[~keep]] = theta[~keep]
        rows, eta_col, theta, buf, vbuf = (a[keep] for a in (rows, eta_col, theta, buf, vbuf))

    stack = copy.copy(model)
    stack.set_flat(theta)
    # A diverging row overflows before the finiteness checks below drop it,
    # and its status says so, so numpy's overflow warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps + 1):
            f = stack.logits(dataset.X)
            full_loss = _logistic_loss(f, dataset.y)
            keep = np.all(np.isfinite(f), axis=1) & np.isfinite(full_loss)
            if not keep.all():
                keep_rows(keep)
                if not rows.size:
                    break
                f, full_loss = f[keep], full_loss[keep]
                stack.set_flat(theta)
            losses[rows, step] = full_loss
            accs[rows, step] = _accuracy(f, dataset.y)
            if snapshot_stride > 0 and (step % snapshot_stride == 0 or step == steps):
                recorded = np.full((k, theta.shape[1]), np.nan)
                recorded[rows] = theta
                snapshots.append((step, recorded))
            if step == steps:
                break
            idx = rng.integers(0, n, size=batch_size)
            _, g = stack.loss_grad(dataset.X[idx], dataset.y[idx])
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
            stack.set_flat(theta)
    params[rows] = theta
    return TrainResult(losses=losses, accuracies=accs, status=status, params=params, snapshots=snapshots)


def snapshot_js0(snapshot: HessianSnapshot) -> float:
    """Mean pairwise distance between the blocks' log-magnitude spectra.

    Block spectra of layer-scaled networks differ mainly multiplicatively, so
    the blocks' eigenvalue magnitudes are compared on a log10 axis where a
    scale gap becomes a translation the smoothing kernel can resolve;
    magnitudes below 1e-8 times the largest one are clamped to that floor.
    """
    eigs = block_eigenvalues(snapshot.matrix, snapshot.partition)
    logs = log_magnitude_spectra(eigs)
    densities = smoothed_densities(logs)
    return pairwise_heatmap(densities, mode="none").js0
