import warnings

import numpy as np
import pytest

from blockspectra.heterogeneity import (
    HeterogeneityReport,
    js_distance,
    load_heatmap_csv,
    log_magnitude_spectra,
    normalize_spectrum,
    pairwise_heatmap,
    rescale_density,
    save_heatmap_csv,
    save_js0_summary,
)
from blockspectra.slq import SLQParams, blockwise_densities, smoothed_densities


def gaussian_density(center, sigma, grid):
    return smoothed_densities([[center]], sigma=sigma, grid=grid)[0]


def normalize_eigenvalues(eigs, mode):
    """Normalize the exactly smoothed density of ``eigs`` by its own eigenvalues."""
    (dens,) = smoothed_densities([eigs])
    return dens, normalize_spectrum(dens, mode=mode, eigenvalues=eigs)


def local_maxima(density):
    v = density.values
    inner = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] >= v[2:])) + 1
    return density.grid[inner]


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_tenth_largest_exact_ten():
    eigs = np.arange(10.0, 0.0, -1.0)  # 10, 9, ..., 1
    dens, ns = normalize_eigenvalues(eigs, "tenth_largest")
    assert ns.scale == 1.0
    assert np.array_equal(ns.value.grid, dens.grid)
    assert ns.warning is None


def test_normalize_max_abs_constant():
    dens, ns = normalize_eigenvalues(np.full(5, 4.0), "max_abs")
    assert ns.scale == 4.0
    assert np.array_equal(ns.value.grid, dens.grid / 4.0)
    assert local_maxima(ns.value) == pytest.approx([1.0], abs=1e-9)


def test_normalize_case3_top_block():
    _, ns = normalize_eigenvalues(np.array([4998.0, 4999.0, 5000.0]), "max_abs")
    assert np.allclose(local_maxima(ns.value), [0.99960, 0.99980, 1.0], atol=5e-6)


def test_normalize_fallback_warns():
    _, ns = normalize_eigenvalues(np.array([3.0, 2.0]), "tenth_largest")
    assert ns.warning is not None
    assert ns.scale == 3.0


def test_normalize_rejects_zero_scale():
    with pytest.raises(ValueError, match="scale must be positive"):
        normalize_eigenvalues(np.zeros(4), "max_abs")


def test_normalize_none_is_identity():
    (dens,) = smoothed_densities([[5.0, 1.0]])
    ns = normalize_spectrum(dens, mode="none")
    assert ns.value is dens and ns.scale == 1.0


@pytest.mark.parametrize("mode", ["tenth_largest", "max_abs"])
def test_normalize_needs_eigenvalues_unless_mode_none(mode):
    (dens,) = smoothed_densities([[2.0, 4.0]])
    with pytest.raises(ValueError, match="eigenvalues"):
        normalize_spectrum(dens, mode=mode)


def test_normalize_density_rescales_axis():
    (dens,) = smoothed_densities([[2.0, 4.0]], sigma=0.1)
    ns = normalize_spectrum(dens, mode="max_abs", eigenvalues=[2.0, 4.0])
    assert ns.scale == 4.0
    assert np.trapezoid(ns.value.values, ns.value.grid) == pytest.approx(1.0, abs=1e-3)
    peak = ns.value.grid[np.argmax(ns.value.values)]
    assert abs(peak - 0.5) < 0.1 or abs(peak - 1.0) < 0.1


def test_rescale_density_preserves_mass():
    (dens,) = smoothed_densities([[1.0, 3.0]], sigma=0.2)
    scaled = rescale_density(dens, 3.0)
    assert np.trapezoid(scaled.values, scaled.grid) == pytest.approx(1.0, abs=1e-6)


def test_log_magnitude_spectra():
    logs = log_magnitude_spectra([[100.0, -10.0], [1.0]])
    assert np.allclose(logs[0], [2.0, 1.0])
    assert np.allclose(logs[1], [0.0])
    floored = log_magnitude_spectra([[100.0], [1e-30]])
    assert np.allclose(floored[1], [-6.0])  # 100 * 1e-8


# ---------------------------------------------------------------------------
# js distance
# ---------------------------------------------------------------------------

def test_js_identical_is_exactly_zero():
    grid = np.linspace(-5, 5, 1001)
    p = gaussian_density(0.0, 0.5, grid)
    assert js_distance(p, p) == 0.0


def test_js_disjoint_is_one():
    grid = np.linspace(-20, 20, 4001)
    p = gaussian_density(-10.0, 0.3, grid)
    q = gaussian_density(10.0, 0.3, grid)
    assert js_distance(p, q) == pytest.approx(1.0, abs=1e-6)


def test_js_symmetric_exactly():
    grid = np.linspace(-10, 10, 2001)
    p = gaussian_density(-1.0, 0.7, grid)
    q = gaussian_density(2.0, 1.2, grid)
    assert js_distance(p, q) == js_distance(q, p)


def test_js_bounded():
    grid = np.linspace(-10, 10, 2001)
    p = gaussian_density(0.0, 0.5, grid)
    q = gaussian_density(0.5, 0.8, grid)
    val = js_distance(p, q)
    assert 0.0 <= val <= 1.0


def test_js_one_sigma_apart_matches_fine_grid():
    # same computation on a 16x finer grid serves as the quadrature reference
    sigma = 0.5
    coarse = np.linspace(-5, 6, 1001)
    fine = np.linspace(-5, 6, 16001)
    val = js_distance(gaussian_density(0, sigma, coarse), gaussian_density(sigma, sigma, coarse))
    ref = js_distance(gaussian_density(0, sigma, fine), gaussian_density(sigma, sigma, fine))
    assert val == pytest.approx(ref, abs=1e-3)


def test_js_resamples_mismatched_grids():
    p = gaussian_density(0.0, 0.4, np.linspace(-4, 4, 801))
    q = gaussian_density(0.0, 0.4, np.linspace(-6, 6, 1201))
    assert js_distance(p, q) <= 1e-4


def test_js_warns_when_the_union_grid_is_capped():
    # spacing 1e-3 across [-100, 100] needs ~200001 points, past MAX_UNION_POINTS
    p = gaussian_density(0.0, 0.2, np.linspace(-1, 1, 2001))
    q = gaussian_density(0.0, 20.0, np.linspace(-100, 100, 2001))
    with pytest.warns(RuntimeWarning, match=r"\[-1\.0, 1\.0\] and \[-100\.0, 100\.0\] needs 2000\d\d points; capped at 65536"):
        js_distance(p, q)


def test_js_does_not_warn_below_the_cap():
    shared = np.linspace(-5, 5, 1001)
    p = gaussian_density(0.0, 0.4, shared)
    q = gaussian_density(1.0, 0.4, shared)
    r = gaussian_density(0.0, 0.4, np.linspace(-6, 6, 1201))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        js_distance(p, q)  # shared grid: no resampling
        js_distance(p, r)  # union grid under the cap


# ---------------------------------------------------------------------------
# pairwise heatmap
# ---------------------------------------------------------------------------

def test_heatmap_identical_blocks_zero():
    grid = np.linspace(-5, 5, 1001)
    p = gaussian_density(1.0, 0.5, grid)
    report = pairwise_heatmap([p, p, p], mode="none")
    assert np.array_equal(report.pairwise, np.zeros((3, 3)))
    assert report.js0 == 0.0


def test_heatmap_two_blocks_equals_distance():
    grid = np.linspace(-10, 10, 2001)
    p = gaussian_density(-2.0, 0.5, grid)
    q = gaussian_density(2.0, 0.5, grid)
    report = pairwise_heatmap([p, q], mode="none")
    assert report.js0 == js_distance(p, q)


def test_heatmap_permutation_invariant_js0():
    grid = np.linspace(-10, 10, 2001)
    densities = [gaussian_density(c, 0.6, grid) for c in (-3.0, 0.0, 2.0, 5.0)]
    base = pairwise_heatmap(densities, mode="none")
    perm = [2, 0, 3, 1]
    shuffled = pairwise_heatmap([densities[i] for i in perm], mode="none")
    assert shuffled.js0 == pytest.approx(base.js0, rel=1e-12)
    assert np.allclose(
        shuffled.pairwise, base.pairwise[np.ix_(perm, perm)], atol=1e-15
    )


def test_heatmap_requires_two_blocks():
    grid = np.linspace(-5, 5, 1001)
    with pytest.raises(ValueError):
        pairwise_heatmap([gaussian_density(0, 0.5, grid)])


def test_heatmap_js0_is_upper_triangle_mean():
    grid = np.linspace(-10, 10, 2001)
    densities = [gaussian_density(c, 0.6, grid) for c in (-3.0, 1.0, 4.0)]
    report = pairwise_heatmap(densities, mode="none")
    m = report.pairwise
    assert report.js0 == pytest.approx((m[0, 1] + m[0, 2] + m[1, 2]) / 3, rel=1e-15)


def test_heatmap_case3_vs_case4(case3, case4):
    js0 = {}
    for name, prob in (("case3", case3), ("case4", case4)):
        densities = blockwise_densities(
            prob.operator(), prob.partition, SLQParams(steps=3, probes=64, seed=0)
        )
        js0[name] = pairwise_heatmap(densities, mode="none").js0
    assert js0["case3"] >= 10 * js0["case4"]


def test_report_validation():
    with pytest.raises(ValueError):
        HeterogeneityReport(
            labels=("a", "b"),
            pairwise=np.array([[0.0, 0.5], [0.4, 0.0]]),  # not symmetric
            js0=0.45,
            normalization_mode="none",
        )
    with pytest.raises(ValueError):
        HeterogeneityReport(
            labels=("a", "b"),
            pairwise=np.array([[0.0, 1.5], [1.5, 0.0]]),  # out of range
            js0=1.5,
            normalization_mode="none",
        )


def test_heatmap_csv_roundtrip(tmp_path):
    grid = np.linspace(-10, 10, 2001)
    densities = [gaussian_density(c, 0.6, grid) for c in (-3.0, 1.0, 4.0)]
    report = pairwise_heatmap(densities, mode="none", labels=("emb", "attn", "mlp"))
    path = tmp_path / "heat.csv"
    save_heatmap_csv(path, report)
    labels, matrix = load_heatmap_csv(path)
    assert labels == ("emb", "attn", "mlp")
    assert np.array_equal(matrix, report.pairwise)
    spath = tmp_path / "summary.txt"
    save_js0_summary(spath, report)
    text = spath.read_text()
    assert f"js0 = {report.js0!r}" in text


def test_heatmap_density_normalization_collapses_scaled_copies():
    # two spectra that differ only by a factor look identical after max_abs
    a = np.array([1.0, 2.0, 3.0])
    densities = smoothed_densities([a, 10 * a])
    raw = pairwise_heatmap(densities, mode="none").js0
    # Each spectrum smoothed on its own grid, so the two differ only in scale.
    own = [smoothed_densities([e])[0] for e in (a, 10 * a)]
    normed = pairwise_heatmap(own, mode="max_abs", eigenvalues=[a, 10 * a]).js0
    assert normed <= 1e-6
    assert raw > 0.5
