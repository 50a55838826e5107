"""Oracles, fixture writers and a density reader that only the tests use.

The package has no caller for any of these, so they live here rather than in
``blockspectra``.  Test modules import them as ``from helpers import ...``.
"""

import copy

import numpy as np

from blockspectra import fileio
from blockspectra.quadlab import QuadraticProblem
from blockspectra.slq import SpectralDensity
from blockspectra.toynet import FD_STEP, HessianSnapshot, ToyNet, _sigmoid


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def l1_distance(p: SpectralDensity, q: SpectralDensity) -> float:
    """Integrated absolute difference of two densities on the same grid."""
    if p.grid.shape != q.grid.shape or not np.array_equal(p.grid, q.grid):
        raise ValueError("densities must share an identical grid")
    return float(np.trapezoid(np.abs(p.values - q.values), p.grid))


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


def hessian_fd_by_columns(model, X, y) -> HessianSnapshot:
    """``hessian_fd`` one column at a time, through the model's own ``loss_grad``.

    The reference for the stacked differences: column j sets entry j of a
    copy's parameters to theta_j + h_j, then to (theta_j + h_j) - 2 h_j, and
    differences the two lone gradients, with the steps, symmetrization and
    floating-point checks of ``hessian_fd``.
    """
    theta = model.get_flat()
    dim = theta.size
    model = copy.copy(model)
    H = np.empty((dim, dim))
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
    return HessianSnapshot(matrix=H, partition=model.partition(), asymmetry=asym)


def block_diag(*blocks) -> np.ndarray:
    """The square ``blocks`` on the diagonal of one matrix, zeros elsewhere."""
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    dim = sum(b.shape[0] for b in blocks)
    out = np.zeros((dim, dim))
    a = 0
    for b in blocks:
        out[a : a + b.shape[0], a : a + b.shape[0]] = b
        a += b.shape[0]
    return out


def scaled_problem(problem: QuadraticProblem, c: float) -> QuadraticProblem:
    """The problem (c H, c h) for a positive constant c."""
    return QuadraticProblem([c * m for m in problem.blocks], c * problem.h)


# ---------------------------------------------------------------------------
# Fixture writers: the files the CLI reads as ``matrix`` and ``spectrum_files``
# ---------------------------------------------------------------------------

def write_matrix_csv(path, matrix) -> None:
    """One row per matrix row, under a c0, c1, ... header."""
    m = np.asarray(matrix, dtype=float)
    fileio.write_csv(path, [f"c{j}" for j in range(m.shape[1])], m)


def write_spectrum_csv(path, eigenvalues) -> None:
    """One eigenvalue per row, under an ``eigenvalue`` header."""
    fileio.write_csv(path, ["eigenvalue"], np.asarray(eigenvalues, dtype=float)[:, None])


def read_density(path):
    """(grid, values) of a density CSV that ``save_density_csv`` wrote."""
    header, table = fileio.read_table(path, header_required=True)
    assert header == ["t", "density"]
    return table[:, 0], table[:, 1]
