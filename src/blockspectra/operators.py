"""Symmetric linear operators and the exact eigendecomposition oracle.

Operators expose only a dimension and a matrix-vector product, which is the
sole access path the stochastic Lanczos machinery needs.  The one concrete
realization is ``DenseSymmetric``: every operator the package builds (a
matrix CSV, a quadratic case, a finite-difference Hessian) is a dense
symmetric matrix, so its principal blocks can be cross-checked against an
exact eigendecomposition.
"""

from __future__ import annotations

import numpy as np

from blockspectra import fileio

# Exact eigendecompositions are meant for desk-scale oracles only.
MAX_ORACLE_DIM = 2000
SYMMETRY_TOL = 1e-8


class SymmetricOperator:
    """A symmetric linear map given by its dimension and a matvec.

    Subclasses implement ``apply``, which must be deterministic, side-effect
    free, and symmetric: <u, A v> == <v, A u> for all u, v.  Instances are
    immutable after construction and safe to share across threads.
    """

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def apply(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_vector(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"expected vector of shape ({self.dim},), got {v.shape}")
        return v


class DenseSymmetric(SymmetricOperator):
    """Dense symmetric matrix, stored so that M == M.T holds exactly.

    The constructor keeps the upper triangle of the input and mirrors it, so
    an asymmetry up to ``SYMMETRY_TOL`` times max(largest |entry|, 1) is
    silently repaired and anything larger is rejected.
    """

    def __init__(self, matrix: np.ndarray):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix has non-finite entries")
        scale = np.abs(m).max() if m.size else 0.0
        if scale > 0 and np.abs(m - m.T).max() > SYMMETRY_TOL * max(scale, 1.0):
            raise ValueError("matrix is not symmetric within tolerance")
        upper = np.triu(m)
        self._matrix = upper + np.triu(m, 1).T
        self._matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self._matrix @ self._check_vector(v)


class BlockPartition:
    """Contiguous partition of coordinate indices into ordered blocks."""

    def __init__(self, block_sizes):
        sizes = [int(s) for s in block_sizes]
        if not sizes:
            raise ValueError("partition needs at least one block")
        if any(s <= 0 for s in sizes):
            raise ValueError(f"block sizes must be positive, got {sizes}")
        self.block_sizes = tuple(sizes)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        self._ranges = tuple(
            (int(offsets[i]), int(offsets[i + 1])) for i in range(len(sizes))
        )

    @property
    def dim(self) -> int:
        return self._ranges[-1][1]

    @property
    def num_blocks(self) -> int:
        return len(self.block_sizes)

    def ranges(self):
        """(start, stop) index pairs, disjoint, ordered, covering [0, dim)."""
        return self._ranges

    def split(self, v: np.ndarray):
        v = np.asarray(v)
        if v.shape[-1] != self.dim:
            raise ValueError(f"vector of dim {v.shape[-1]} does not match partition dim {self.dim}")
        return [v[..., a:b] for a, b in self._ranges]

    def __eq__(self, other):
        return isinstance(other, BlockPartition) and self.block_sizes == other.block_sizes

    def __repr__(self):
        return f"BlockPartition({list(self.block_sizes)})"


def principal_block(op: DenseSymmetric, start: int, stop: int) -> DenseSymmetric:
    """Principal sub-operator on coordinates [start, stop)."""
    if not (0 <= start < stop <= op.dim):
        raise ValueError(f"invalid range [{start}, {stop}) for dim {op.dim}")
    return DenseSymmetric(op.matrix[start:stop, start:stop])


def exact_eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted descending.

    This is the testing oracle: LAPACK's symmetric eigensolver (Householder
    tridiagonalization followed by implicit QR) via numpy.  Accepts a
    DenseSymmetric or a raw array.
    """
    a = m.matrix if isinstance(m, DenseSymmetric) else np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] > MAX_ORACLE_DIM:
        raise ValueError(f"dim {a.shape[0]} exceeds oracle limit {MAX_ORACLE_DIM}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    a = 0.5 * (a + a.T)
    return np.linalg.eigvalsh(a)[::-1].copy()


def block_eigenvalues(matrix: np.ndarray, partition: BlockPartition) -> list[np.ndarray]:
    """``exact_eigenvalues`` of each principal block of ``matrix`` that ``partition`` names."""
    return [exact_eigenvalues(matrix[a:z, a:z]) for a, z in partition.ranges()]


def condition_number(eigs) -> float:
    """lambda_max / lambda_min for a strictly positive spectrum."""
    e = np.asarray(eigs, dtype=float)
    if e.size == 0:
        raise ValueError("empty spectrum")
    lo = e.min()
    if lo <= 0:
        raise ValueError(f"spectrum is not strictly positive (min eigenvalue {lo})")
    return float(e.max() / lo)


# ---------------------------------------------------------------------------
# CSV readers: matrices as one row per matrix row, spectra as one value per
# line.  A non-numeric first row is skipped as a header.  The package writes
# neither kind of file; the tests' fixture writers live in tests/helpers.py.
# ---------------------------------------------------------------------------

def load_matrix_csv(path) -> np.ndarray:
    return fileio.read_table(path)[1]


def load_spectrum_csv(path) -> np.ndarray:
    """The one column of finite eigenvalues of a spectrum file."""
    table = fileio.read_table(path)[1]
    if table.shape[1] != 1:
        raise ValueError(f"{path}: expected one column of eigenvalues, got {table.shape[1]}")
    bad = np.flatnonzero(~np.isfinite(table[:, 0]))
    if bad.size:
        raise ValueError(f"{path}: eigenvalue {bad[0] + 1} is {table[bad[0], 0]}, not a finite number")
    return table[:, 0]
