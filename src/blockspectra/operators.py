"""Symmetric linear operators and the exact eigendecomposition oracle.

Operators expose only a dimension and a matrix-vector product, which is the
sole access path the stochastic Lanczos machinery needs.  Concrete dense and
diagonal realizations exist so that small problems can be cross-checked
against an exact eigendecomposition.
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


class DiagonalOperator(SymmetricOperator):
    """Multiplication by a fixed diagonal."""

    def __init__(self, values: np.ndarray):
        d = np.asarray(values, dtype=float)
        if d.ndim != 1 or d.size == 0:
            raise ValueError("diagonal must be a nonempty 1-d array")
        if not np.all(np.isfinite(d)):
            raise ValueError("diagonal has non-finite entries")
        self._diag = d.copy()
        self._diag.setflags(write=False)

    @property
    def dim(self) -> int:
        return self._diag.size

    @property
    def diagonal(self) -> np.ndarray:
        return self._diag

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self._diag * self._check_vector(v)


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


class _BlockDiagonal(SymmetricOperator):
    def __init__(self, blocks, partition: BlockPartition):
        self._blocks = tuple(blocks)
        self.partition = partition

    @property
    def dim(self) -> int:
        return self.partition.dim

    @property
    def blocks(self):
        return self._blocks

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = self._check_vector(v)
        out = np.empty_like(v)
        for block, (a, b) in zip(self._blocks, self.partition.ranges()):
            out[a:b] = block.apply(v[a:b])
        return out


def block_diagonal(blocks) -> SymmetricOperator:
    """Compose symmetric blocks into one operator on the concatenated space.

    ``apply`` routes each contiguous sub-vector through its block, so the
    composite spectrum is the multiset union of the block spectra.
    """
    blocks = list(blocks)
    if not blocks:
        raise ValueError("block_diagonal needs at least one block")
    for i, b in enumerate(blocks):
        if not isinstance(b, SymmetricOperator):
            raise TypeError(f"block {i} is not a SymmetricOperator")
    partition = BlockPartition([b.dim for b in blocks])
    return _BlockDiagonal(blocks, partition)


class _PrincipalBlock(SymmetricOperator):
    """Restriction of an operator to a contiguous coordinate range.

    apply(v) = (A [0, ..., v, ..., 0]) restricted back to the range, i.e. the
    principal sub-matrix as a matrix-free operator.
    """

    def __init__(self, op: SymmetricOperator, start: int, stop: int):
        self._op = op
        self._start = start
        self._stop = stop

    @property
    def dim(self) -> int:
        return self._stop - self._start

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = self._check_vector(v)
        full = np.zeros(self._op.dim)
        full[self._start:self._stop] = v
        return self._op.apply(full)[self._start:self._stop]


def principal_block(op: SymmetricOperator, start: int, stop: int) -> SymmetricOperator:
    """Principal sub-operator on coordinates [start, stop)."""
    if not (0 <= start < stop <= op.dim):
        raise ValueError(f"invalid range [{start}, {stop}) for dim {op.dim}")
    if isinstance(op, DenseSymmetric):
        return DenseSymmetric(op.matrix[start:stop, start:stop])
    if isinstance(op, DiagonalOperator):
        return DiagonalOperator(op.diagonal[start:stop])
    if isinstance(op, _BlockDiagonal):
        # Fast path when the range coincides with one stored block.
        for block, (a, b) in zip(op.blocks, op.partition.ranges()):
            if (a, b) == (start, stop):
                return block
    return _PrincipalBlock(op, start, stop)


def as_dense(op: SymmetricOperator) -> np.ndarray:
    """Materialize an operator column by column (oracle / small dims only)."""
    if op.dim > MAX_ORACLE_DIM:
        raise ValueError(f"refusing to densify dim {op.dim} > {MAX_ORACLE_DIM}")
    if isinstance(op, DenseSymmetric):
        return op.matrix.copy()
    cols = np.empty((op.dim, op.dim))
    e = np.zeros(op.dim)
    for j in range(op.dim):
        e[j] = 1.0
        cols[:, j] = op.apply(e)
        e[j] = 0.0
    return cols


def exact_eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted descending.

    This is the testing oracle: LAPACK's symmetric eigensolver (Householder
    tridiagonalization followed by implicit QR) via numpy.  Accepts a
    DenseSymmetric, any SymmetricOperator of oracle size, or a raw array.
    """
    if isinstance(m, SymmetricOperator):
        a = as_dense(m)
    else:
        a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] > MAX_ORACLE_DIM:
        raise ValueError(f"dim {a.shape[0]} exceeds oracle limit {MAX_ORACLE_DIM}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    a = 0.5 * (a + a.T)
    return np.linalg.eigvalsh(a)[::-1].copy()


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
    return fileio.read_table(path)[1][:, 0]
