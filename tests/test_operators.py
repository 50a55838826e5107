import numpy as np
import pytest

from blockspectra.operators import (
    BlockPartition,
    DenseSymmetric,
    block_eigenvalues,
    condition_number,
    exact_eigenvalues,
    load_matrix_csv,
    load_spectrum_csv,
    principal_block,
)
from helpers import write_matrix_csv, write_spectrum_csv


def _symmetry_defect(op, n_samples=8, seed=0):
    """max over sampled unit pairs of |<u, Av> - <v, Au>| / (|Au| |v|)."""
    rng = np.random.default_rng([seed, op.dim])
    worst = 0.0
    for _ in range(n_samples):
        u = rng.standard_normal(op.dim)
        v = rng.standard_normal(op.dim)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        au = op.apply(u)
        av = op.apply(v)
        denom = np.linalg.norm(au) * np.linalg.norm(v)
        if denom == 0:
            continue
        worst = max(worst, abs(u @ av - v @ au) / denom)
    return worst


def test_block_diagonal_spectrum_union(case3):
    composite = exact_eigenvalues(case3.operator())
    union = np.sort(np.concatenate(case3.block_eigenvalues))[::-1]
    assert np.allclose(composite, union, rtol=1e-8)


def test_exact_eigenvalues_diagonal():
    assert np.array_equal(exact_eigenvalues(np.diag([1.0, 2.0, 3.0])), [3.0, 2.0, 1.0])


def test_exact_eigenvalues_2x2_analytic():
    assert np.allclose(exact_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]])), [3.0, 1.0])


def test_exact_eigenvalues_rotation_invariant(rng):
    lam = np.array([4998.0, 99.0, 1.0])
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    m = (q * lam) @ q.T
    got = exact_eigenvalues(0.5 * (m + m.T))
    assert np.allclose(got, sorted(lam, reverse=True), rtol=1e-8)


def test_exact_eigenvalues_trace_match(rng):
    g = rng.standard_normal((40, 40))
    m = 0.5 * (g + g.T)
    eigs = exact_eigenvalues(m)
    assert np.trace(m) == pytest.approx(eigs.sum(), rel=1e-8, abs=1e-8)


def test_exact_eigenvalues_rejects_nonfinite():
    bad = np.eye(3)
    bad[0, 1] = np.inf
    with pytest.raises(ValueError):
        exact_eigenvalues(bad)


def test_exact_eigenvalues_dim_cap():
    with pytest.raises(ValueError):
        exact_eigenvalues(np.zeros((2001, 2001)))


def test_block_eigenvalues_are_those_of_each_principal_block(rng):
    g = rng.standard_normal((9, 9))
    m = 0.5 * (g + g.T)
    partition = BlockPartition([2, 3, 4])
    got = block_eigenvalues(m, partition)
    assert len(got) == 3
    for eigs, (a, z) in zip(got, partition.ranges()):
        assert np.array_equal(eigs, exact_eigenvalues(m[a:z, a:z]))
        assert np.array_equal(eigs, exact_eigenvalues(DenseSymmetric(m[a:z, a:z])))


def test_condition_number():
    assert condition_number([5000.0, 1.0]) == 5000.0
    assert condition_number([7.0, 7.0]) == 1.0
    with pytest.raises(ValueError):
        condition_number([3.0, 0.0])
    with pytest.raises(ValueError):
        condition_number([3.0, -1.0])


def test_condition_number_case3(case3):
    assert condition_number(case3.eigenvalues) == pytest.approx(5000.0, rel=1e-6)


def test_dense_symmetric_exact_transpose(rng):
    g = rng.standard_normal((6, 6))
    d = DenseSymmetric(0.5 * (g + g.T))
    assert np.array_equal(d.matrix, d.matrix.T)


def test_dense_symmetric_rejects_asymmetric():
    with pytest.raises(ValueError):
        DenseSymmetric([[1.0, 2.0], [0.0, 1.0]])


def test_dense_symmetric_rejects_nonsquare():
    with pytest.raises(ValueError):
        DenseSymmetric(np.ones((2, 3)))


def test_operator_symmetry_sampled(case3, rng):
    g = rng.standard_normal((8, 8))
    ops = [
        DenseSymmetric(0.5 * (g + g.T)),
        DenseSymmetric(np.diag(rng.standard_normal(7))),
        case3.operator(),
        principal_block(case3.operator(), 2, 7),
    ]
    for op in ops:
        assert _symmetry_defect(op) <= 1e-10


def test_principal_block_matches_submatrix(rng):
    g = rng.standard_normal((7, 7))
    d = DenseSymmetric(0.5 * (g + g.T))
    sub = principal_block(d, 2, 5)
    assert sub.dim == 3
    v = rng.standard_normal(3)
    assert np.allclose(sub.apply(v), d.matrix[2:5, 2:5] @ v)


def test_partition_validation():
    p = BlockPartition([2, 3])
    assert p.dim == 5
    assert p.ranges() == ((0, 2), (2, 5))
    with pytest.raises(ValueError):
        BlockPartition([])
    with pytest.raises(ValueError):
        BlockPartition([2, 0])


def test_matrix_csv_roundtrip(tmp_path, rng):
    m = rng.standard_normal((4, 4))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, m)
    with open(path) as fh:
        assert fh.readline().startswith("c0,")
    assert np.array_equal(load_matrix_csv(path), m)


def test_spectrum_csv_roundtrip(tmp_path):
    eigs = np.array([3.25, -1.5, 0.0])
    path = tmp_path / "s.csv"
    write_spectrum_csv(path, eigs)
    assert np.array_equal(load_spectrum_csv(path), eigs)
