import csv
import json
import os
import re
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from blockspectra.cli import main, parse_config
from blockspectra.heterogeneity import load_heatmap_csv
from helpers import l1_distance, read_density, write_matrix_csv, write_spectrum_csv


def write_config(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def dir_csv_bytes(path):
    # manifest.txt records the jobs flag itself, so it is excluded from
    # cross-parallelism comparisons; the data outputs must match exactly
    out = {}
    for name in sorted(os.listdir(path)):
        if name == "manifest.txt":
            continue
        if name.endswith(".csv") or name.endswith(".txt"):
            with open(os.path.join(path, name), "rb") as fh:
                out[name] = fh.read()
    return out


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_config_coercions(tmp_path):
    # parse_config keeps the text as written; the resolver converts it by kind.
    from blockspectra.cli import FLAG, INTEGER, NUMBER, PATH, list_of, resolve_config

    raw = parse_config(
        write_config(
            tmp_path / "c.cfg",
            "a = 3\nb = 0.5\nc = true\nd = hello\ne = 1,2,3\n# comment\nf = off  # trailing\n",
        )
    )
    assert raw == {"a": "3", "b": "0.5", "c": "true", "d": "hello", "e": "1,2,3", "f": "off"}
    table = {
        "a": (INTEGER, None), "b": (NUMBER, None), "c": (FLAG, None), "d": (PATH, None),
        "e": (list_of(INTEGER), None), "f": (FLAG, None), "unset": (NUMBER, 7.5),
    }
    cfg = resolve_config(raw, table)
    assert cfg == {"a": 3, "b": 0.5, "c": True, "d": "hello", "e": [1, 2, 3], "f": False, "unset": 7.5}
    assert type(cfg["a"]) is int and type(cfg["b"]) is float


def test_parse_config_rejects_garbage(tmp_path):
    from blockspectra.cli import ConfigError

    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path / "bad.cfg", "not a key value line\n"))


def test_unparsable_config_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.cfg", "case = 3\nnot a key value line\n")
    assert main(["quadlab", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read config: ")


def test_unknown_key_exits_2_naming_the_closest_key(tmp_path, monkeypatch, capsys):
    from blockspectra import quadlab

    def no_run(*args, **kwargs):
        raise AssertionError("the optimizer ran before the config was checked")

    monkeypatch.setattr(quadlab, "runs", no_run)
    cfg = write_config(tmp_path / "q.cfg", "case = 3\noptimizer = gd\nmax_iter = 50\n")
    out = tmp_path / "out"
    assert main(["quadlab", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown key 'max_iter'") and "'max_iters'" in err
    assert not (out / "summary.csv").exists()


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_identity_matrix_single_bump(tmp_path):
    mpath = tmp_path / "ident.csv"
    write_matrix_csv(mpath, np.eye(12))
    cfg = write_config(tmp_path / "s.cfg", f"source = matrix\nmatrix = {mpath}\n")
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out), "--cheap"]) == 0
    grid, values = read_density(out / "density_full.csv")
    assert np.trapezoid(values, grid) == pytest.approx(1.0, abs=1e-3)
    assert grid[np.argmax(values)] == pytest.approx(1.0, abs=0.1)
    assert (out / "manifest.txt").exists()


def test_spectrum_case3_blockwise(tmp_path):
    cfg = write_config(tmp_path / "s.cfg", "source = case\ncase = 3\nsvg = true\n")
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    for i in range(3):
        grid, values = read_density(out / f"density_block{i:02d}.csv")
        assert 0.999 <= np.trapezoid(values, grid) <= 1.001
    assert (out / "spectrum.svg").exists()


def test_spectrum_cheap_mode_degrades_gracefully(tmp_path, rng):
    u = rng.random((200, 200))
    m = 0.5 * (u + u.T)
    mpath = tmp_path / "m.csv"
    write_matrix_csv(mpath, m)
    cfg = write_config(tmp_path / "s.cfg", f"source = matrix\nmatrix = {mpath}\n")

    from blockspectra.operators import DenseSymmetric, exact_eigenvalues
    from blockspectra.slq import SLQParams, blockwise_densities, smoothed_densities

    op = DenseSymmetric(m)
    eigs = exact_eigenvalues(op)
    ratios = []
    for seed in range(10):
        (full,) = blockwise_densities(op, params=SLQParams(steps=80, probes=10, seed=seed))
        (cheap,) = blockwise_densities(op, params=SLQParams(steps=10, probes=1, seed=seed))
        e_full = l1_distance(full, smoothed_densities([eigs], sigma=full.sigma, grid=full.grid)[0])
        e_cheap = l1_distance(cheap, smoothed_densities([eigs], sigma=cheap.sigma, grid=cheap.grid)[0])
        ratios.append(e_cheap / e_full)
    assert np.median(ratios) <= 4.0


def test_spectrum_bad_case_id(tmp_path):
    cfg = write_config(tmp_path / "s.cfg", "source = case\ncase = 9\n")
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_spectrum_unreadable_matrix(tmp_path):
    cfg = write_config(tmp_path / "s.cfg", "source = matrix\nmatrix = /nonexistent.csv\n")
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[1.0, np.nan], [np.nan, 1.0]], "matrix has non-finite entries"),
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "expected a square matrix, got shape (2, 3)"),
        ([[1.0, 0.5], [0.0, 1.0]], "matrix is not symmetric within tolerance"),
    ],
    ids=["nan", "not_square", "asymmetric"],
)
@pytest.mark.parametrize("subcommand", ["spectrum", "heatmap"])
def test_bad_matrix_file_exits_2_naming_it(tmp_path, capsys, subcommand, matrix, message):
    path = tmp_path / "m.csv"
    write_matrix_csv(path, matrix)
    cfg = write_config(tmp_path / "s.cfg", f"source = matrix\nmatrix = {path}\nblocks = 1,1\n")
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_spectrum_kernel_narrower_than_the_grid_spacing_names_both(tmp_path, capsys):
    # The grid always has a 3-sigma margin, so mass leaks only from a kernel
    # that falls between grid points.
    cfg = write_config(tmp_path / "s.cfg", "source = case\ncase = 4\nsigma = 1e-12\n")
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: mass leakage 1 exceeds 0.01; the kernel is too narrow for the grid: ")
    assert re.fullmatch(r".*its width 1e-12 is below the grid spacing [0-9.]+\n", err)


# ---------------------------------------------------------------------------
# heatmap
# ---------------------------------------------------------------------------

def test_heatmap_duplicated_blocks_all_zero(tmp_path, rng):
    g = rng.standard_normal((4, 4))
    block = 0.5 * (g + g.T) + 4 * np.eye(4)
    m = np.zeros((8, 8))
    m[:4, :4] = block
    m[4:, 4:] = block
    mpath = tmp_path / "dup.csv"
    write_matrix_csv(mpath, m)
    cfg = write_config(
        tmp_path / "h.cfg",
        f"source = matrix\nmatrix = {mpath}\nblocks = 4,4\nestimator = exact\n",
    )
    out = tmp_path / "out"
    assert main(["heatmap", "--config", cfg, "--out", str(out)]) == 0
    _, matrix = load_heatmap_csv(out / "heatmap.csv")
    assert np.array_equal(matrix, np.zeros((2, 2)))


def test_heatmap_case3_much_larger_than_case4(tmp_path):
    js0 = {}
    for case in (3, 4):
        cfg = write_config(tmp_path / f"h{case}.cfg", f"source = case\ncase = {case}\nsvg = true\n")
        out = tmp_path / f"out{case}"
        assert main(["heatmap", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "summary.txt").read_text()
        js0[case] = float(text.splitlines()[0].split("=")[1])
    assert js0[4] <= 0.1 * js0[3]


def test_heatmap_single_block_rejected(tmp_path):
    mpath = tmp_path / "m.csv"
    write_matrix_csv(mpath, np.eye(4))
    cfg = write_config(tmp_path / "h.cfg", f"source = matrix\nmatrix = {mpath}\nblocks = 4\n")
    assert main(["heatmap", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "settings, mode",
    [("estimator = exact\nmode = tenth_largest\n", "tenth_largest"), ("log_axis = true\n", "none")],
)
def test_heatmap_from_exact_eigenvalues_follows_the_slq_path(tmp_path, rng, settings, mode):
    # Exact spectra are smoothed on one shared grid and normalized afterwards,
    # exactly as SLQ densities are.
    from blockspectra.heterogeneity import log_magnitude_spectra, pairwise_heatmap
    from blockspectra.operators import BlockPartition, DenseSymmetric, exact_eigenvalues, principal_block
    from blockspectra.slq import smoothed_densities

    blocks = [12, 12, 14]
    m = np.zeros((38, 38))
    start = 0
    for n, scale in zip(blocks, (1.0, 30.0, 900.0)):
        g = rng.standard_normal((n, 2 * n))
        m[start : start + n, start : start + n] = scale * (g @ g.T) / (2 * n)
        start += n
    mpath = tmp_path / "m.csv"
    write_matrix_csv(mpath, m)
    cfg = write_config(tmp_path / "h.cfg", f"source = matrix\nmatrix = {mpath}\nblocks = 12,12,14\n{settings}")
    out = tmp_path / "out"

    def capped():
        # Rescaled by their tenth-largest eigenvalues, the blocks' supports are
        # too far apart for the capped union grid, and the cap must be reported.
        if mode == "tenth_largest":
            return pytest.warns(RuntimeWarning, match="capped at")
        return nullcontext()

    with capped():
        assert main(["heatmap", "--config", cfg, "--out", str(out)]) == 0

    op = DenseSymmetric(m)
    eigs = [exact_eigenvalues(principal_block(op, a, z)) for a, z in BlockPartition(blocks).ranges()]
    spectra = log_magnitude_spectra(eigs) if "log_axis" in settings else eigs
    with capped():
        expected = pairwise_heatmap(smoothed_densities(spectra), mode=mode, eigenvalues=eigs)
    _, matrix = load_heatmap_csv(out / "heatmap.csv")
    assert np.array_equal(matrix, expected.pairwise)
    summary = (out / "summary.txt").read_text().splitlines()
    assert summary[0] == f"js0 = {expected.js0!r}"
    assert f"normalization_mode = {mode}" in summary


# ---------------------------------------------------------------------------
# quadlab
# ---------------------------------------------------------------------------

def test_quadlab_reports_zero_preconditioner_skips_on_stderr(tmp_path, capsys):
    # The first step lands on the minimizer; with beta2 = 0 the second moment
    # is then exactly 0, so each of the other 9 updates is skipped.
    cfg = write_config(
        tmp_path / "q.cfg",
        "case = scalar\nw0 = 0.1\noptimizer = adam_ema\neta = 0.1\nbeta2 = 0\nmax_iters = 10\n",
    )
    out = tmp_path / "out"
    assert main(["quadlab", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == (
        "warning: adam_ema seed 0: skipped 9 coordinate updates with zero preconditioner\n"
    )
    # The outputs carry no trace of the warning.
    assert (out / "summary.csv").read_bytes() == (
        b"case,optimizer,seed,eta,beta2,status,iterations,final_ratio,violations,cycling,tail_min_loss\r\n"
        b"scalar,adam_ema,0,0.1,0.0,max_iters,10,0.0,,false,0.0\r\n"
    )
    assert (out / "run_adam_ema_s000.csv").read_bytes() == b"iter,loss_ratio\r\n0,1.0\r\n" + b"".join(
        b"%d,0.0\r\n" % t for t in range(1, 11)
    )


def test_quadlab_limit_cycle_preset(tmp_path):
    cfg = write_config(
        tmp_path / "q.cfg",
        "case = scalar\noptimizer = adam_ema\neta = 0.1\nbeta2 = 0.99\nw0 = 1.0\n"
        "max_iters = 25000\ntransient = 10000\nwindow = 10000\nseeds = 1\n",
    )
    out = tmp_path / "out"
    assert main(["quadlab", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "summary.csv")
    header, row = rows[0], rows[1]
    assert row[header.index("cycling")] == "true"
    assert float(row[header.index("tail_min_loss")]) > 0


def test_quadlab_sign_descent_exact_cycle(tmp_path):
    # w0 = eta/2 sits on the exact two-point cycle of the beta2 = 0 update
    cfg = write_config(
        tmp_path / "q.cfg",
        "case = scalar\noptimizer = adam_ema\neta = 0.1\nbeta2 = 0.0\nw0 = 0.05\n"
        "max_iters = 3000\ntransient = 1000\nwindow = 1000\nseeds = 1\n",
    )
    out = tmp_path / "out"
    assert main(["quadlab", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "summary.csv")
    header, row = rows[0], rows[1]
    assert row[header.index("cycling")] == "true"
    assert float(row[header.index("tail_min_loss")]) == pytest.approx(0.1**2 / 8, rel=1e-9)


def test_quadlab_unset_window_keeps_the_default(tmp_path):
    # Unset, the transient is half the run and the window is the rest of it.
    # A transient that covers the whole run is rejected before any run (see
    # test_quadlab_config_faults_exit_2_before_any_run).
    base = "case = scalar\noptimizer = adam_ema\neta = 0.1\nbeta2 = 0.0\nw0 = 0.05\nmax_iters = 3000\n"
    for name, extra in (("half", ""), ("window", "window = 1500\n")):
        cfg = write_config(tmp_path / f"{name}.cfg", base + extra)
        out = tmp_path / name
        assert main(["quadlab", "--config", cfg, "--out", str(out)]) == 0
        header, row = read_rows(out / "summary.csv")
        assert row[header.index("cycling")] == "true"


def test_quadlab_fixed_step_adam_ema_stops_at_an_explicit_target(tmp_path):
    # Unset, the target leaves a fixed-step adam_ema run its whole budget;
    # set, the run stops once its loss ratio reaches it.
    base = "case = 3\noptimizer = adam_ema\neta = 0.01\nbeta2 = 0.9\nmax_iters = 3000\n"
    results = {}
    for name, extra in (("unset", ""), ("set", "target = 0.5\n")):
        out = tmp_path / name
        assert main(["quadlab", "--config", write_config(tmp_path / f"{name}.cfg", base + extra), "--out", str(out)]) == 0
        header, row = read_rows(out / "summary.csv")
        results[name] = dict(zip(header, row))
    assert results["unset"]["status"] == "max_iters" and results["unset"]["iterations"] == "3000"
    assert results["set"]["status"] == "converged"
    assert int(results["set"]["iterations"]) < 3000
    assert float(results["set"]["final_ratio"]) <= 0.5


@pytest.mark.parametrize(
    "name, eigenvalues, message",
    [
        ("two_columns", np.stack([np.arange(1.0, 31.0), np.arange(31.0, 61.0)], axis=1),
         "expected one column of eigenvalues, got 2"),
        ("nan", np.r_[np.arange(1.0, 30.0), np.nan], "eigenvalue 30 is nan, not a finite number"),
    ],
    ids=["two_columns", "nan"],
)
def test_quadlab_bad_spectrum_file_exits_2_naming_it(tmp_path, capsys, name, eigenvalues, message):
    path = tmp_path / f"{name}.csv"
    if eigenvalues.ndim == 2:
        write_matrix_csv(path, eigenvalues)
    else:
        write_spectrum_csv(path, eigenvalues)
    cfg = write_config(tmp_path / "q.cfg", f"case = 1\nspectrum_files = {path}\nmax_iters = 10\n")
    assert main(["quadlab", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_quadlab_bad_window_exits_2_before_any_run(tmp_path, monkeypatch, capsys):
    from blockspectra import quadlab

    def no_run(*args, **kwargs):
        raise AssertionError("the optimizer ran before the config was checked")

    monkeypatch.setattr(quadlab, "runs", no_run)
    cfg = write_config(
        tmp_path / "q.cfg", "case = 3\noptimizer = adam_ema\neta = 0.01\nmax_iters = 50\nwindow = -5\n"
    )
    assert main(["quadlab", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "window must" in capsys.readouterr().err


LONG_RUNS = "case = 3\nmax_iters = 200000\ntarget = 0\n"
EMA = "optimizer = adam_ema\neta = 0.01\nmax_iters = 100\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (LONG_RUNS + "optimizer = gd,adam_ema\n", "adam_ema needs an explicit numeric eta"),
        (LONG_RUNS + "optimizer = gd,adam_ema\neta = default\n", "adam_ema needs an explicit numeric eta"),
        (LONG_RUNS + "optimizer = gd,adam_ema\neta = 0.0001\nbeta2 = 1.5\n", "beta2 must be in [0, 1)"),
        ("case = 3\n" + EMA + "transient = 500\nwindow = 1000\n", "transient + window must"),
        ("case = 3\n" + EMA + "transient = 101\n", "transient + window must"),
        ("case = 3\n" + EMA + "window = 60\n", "transient + window must"),
        ("case = 3\noptimizer = adam_ema\neta_grid = true\nmax_iters = 100\ntransient = 101\n", "transient + window must"),
    ],
    ids=[
        "ema_eta_unset", "ema_eta_default", "ema_beta2_after_gd", "transient_and_window_too_long",
        "transient_too_long", "window_too_long", "grid_transient_too_long",
    ],
)
def test_quadlab_config_faults_exit_2_before_any_run(tmp_path, monkeypatch, capsys, text, message):
    # Each fault joins two keys; it is found before the first optimizer runs.
    from blockspectra import quadlab

    def no_run(*args, **kwargs):
        raise AssertionError("the optimizer ran before the config was checked")

    for name in ("runs", "grid_search"):
        monkeypatch.setattr(quadlab, name, no_run)
    cfg = write_config(tmp_path / "q.cfg", text)
    assert main(["quadlab", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["false", "true"])
def test_quadlab_adam_ema_rejects_beta2_outside_unit_interval(tmp_path, capsys, grid):
    cfg = write_config(
        tmp_path / "q.cfg",
        f"case = 3\noptimizer = adam_ema\neta = 0.01\neta_grid = {grid}\nbeta2 = 1.5\nmax_iters = 200\n",
    )
    out = tmp_path / "out"
    assert main(["quadlab", "--config", cfg, "--out", str(out)]) == 2
    assert "beta2 must be in [0, 1)" in capsys.readouterr().err
    assert not (out / "summary.csv").exists()


def test_quadlab_hard_instance_verification(tmp_path):
    cfg = write_config(
        tmp_path / "q.cfg",
        "case = hard\noptimizer = gd\neta = 0.0001\nmax_iters = 200\nseeds = 1\ntarget = 1e-9\n",
    )
    out = tmp_path / "out"
    assert main(["quadlab", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "summary.csv")
    assert rows[1][rows[0].index("violations")] == "0"


def test_quadlab_grid_best_is_not_checked_against_adam_upper(tmp_path):
    # adam_upper holds only at eta_theory, so the best grid step (1e-6 here)
    # is checked against no bound; test_quadlab_theory_record covers the
    # eta = theory run, which is.
    cfg = write_config(
        tmp_path / "q.cfg",
        "case = 3\noptimizer = adam_fixed\neta_grid = true\ngrid_points = 2\nmax_iters = 3000\nstrict = true\n",
    )
    out = tmp_path / "out"
    assert main(["quadlab", "--config", cfg, "--out", str(out)]) == 0
    header, row = read_rows(out / "summary.csv")
    assert (row[header.index("eta")], row[header.index("violations")]) == ("1e-06", "")


def test_quadlab_strict_exit_code_on_divergence(tmp_path):
    base = "case = 3\noptimizer = gd\neta = 1.0\nmax_iters = 500\nseeds = 1\n"
    lax = write_config(tmp_path / "lax.cfg", base)
    strict = write_config(tmp_path / "strict.cfg", base + "strict = true\n")
    assert main(["quadlab", "--config", lax, "--out", str(tmp_path / "o1")]) == 0
    assert main(["quadlab", "--config", strict, "--out", str(tmp_path / "o2")]) == 1
    rows = read_rows(tmp_path / "o2" / "summary.csv")
    assert rows[1][rows[0].index("status")] == "diverged"


@pytest.mark.parametrize(
    "text, status",
    [
        ("case = hard\neta = 1e200\nmax_iters = 10\n", "diverged"),
        ("case = hard\nmax_iters = 0\n", "max_iters"),
        ("case = 3\noptimizer = adam_fixed\neta = theory\ntarget = 1\n", "converged"),
    ],
    ids=["diverges_at_step_1", "no_budget", "converges_at_t0"],
)
def test_quadlab_one_point_runs_are_checked_not_rejected(tmp_path, text, status):
    # Each run's loss curve has one point, so its bound finds no step to fault.
    out = tmp_path / "out"
    assert main(["quadlab", "--config", write_config(tmp_path / "q.cfg", text), "--out", str(out)]) == 0
    header, *rows = read_rows(out / "summary.csv")
    fields = [header.index(name) for name in ("status", "iterations", "violations")]
    assert {tuple(row[i] for i in fields) for row in rows} == {(status, "0", "0")}
    assert (out / "theory.txt").is_file()


def test_quadlab_grid_search_config(tmp_path):
    cfg = write_config(
        tmp_path / "q.cfg",
        "case = 3\noptimizer = adam_fixed\neta_grid = true\ngrid_points = 9\n"
        "max_iters = 20000\nseeds = 1\ntarget = 1e-6\n",
    )
    out = tmp_path / "out"
    assert main(["quadlab", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "summary.csv")
    assert rows[1][rows[0].index("status")] == "converged"
    run = read_rows(out / "run_adam_fixed_s000.csv")
    assert run[0] == ["iter", "loss_ratio"]
    assert float(run[1][1]) == 1.0


def test_quadlab_theory_record(tmp_path):
    cfg = write_config(
        tmp_path / "q.cfg",
        "case = 3\noptimizer = adam_fixed\neta = theory\nmax_iters = 5000\nseeds = 1\n",
    )
    out = tmp_path / "out"
    assert main(["quadlab", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "theory.txt").read_text()
    assert "kappa = 5000" in text.replace("4999.999", "5000").replace("5000.000", "5000")
    assert "eta_theory" in text and "block2.kappa_precond" in text
    rows = read_rows(out / "summary.csv")
    assert rows[1][rows[0].index("violations")] == "0"


@pytest.mark.parametrize("grid", ["false", "true"])
def test_quadlab_rejects_nonfinite_w0(tmp_path, capsys, grid):
    # eta_grid = true ignores eta, so only the single run sets it.
    eta = "eta = 0.1\n" if grid == "false" else ""
    cfg = write_config(
        tmp_path / "q.cfg", f"case = scalar\nw0 = nan\n{eta}eta_grid = {grid}\nmax_iters = 50\n"
    )
    out = tmp_path / "out"
    assert main(["quadlab", "--config", cfg, "--out", str(out)]) == 2
    assert "not finite" in capsys.readouterr().err
    assert not (out / "summary.csv").exists()


def test_quadlab_all_diverged_grid_exits_2(tmp_path, capsys):
    # A tiny initial gradient makes the fixed preconditioner huge, so even the
    # smallest grid step (1e-6) overshoots: |1 - eta / w0| > 1 for every eta.
    cfg = write_config(
        tmp_path / "q.cfg",
        "case = scalar\noptimizer = adam_fixed\nw0 = 1e-9\neta_grid = true\nmax_iters = 50\n",
    )
    assert main(["quadlab", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: all 25 runs diverged")


def test_quadlab_theory_failure_exits_2(tmp_path, monkeypatch, capsys):
    from blockspectra import quadlab

    def failing_report(problem, w0):
        raise ValueError("initial gradient coordinate 0 is exactly zero")

    monkeypatch.setattr(quadlab, "theory_report", failing_report)
    cfg = write_config(tmp_path / "q.cfg", "case = 3\noptimizer = gd\neta = 0.0001\nmax_iters = 20\n")
    out = tmp_path / "out"
    assert main(["quadlab", "--config", cfg, "--out", str(out)]) == 2
    assert "exactly zero" in capsys.readouterr().err
    assert not (out / "theory.txt").exists()

# ---------------------------------------------------------------------------
# toynet
# ---------------------------------------------------------------------------

def test_toynet_train_outputs(tmp_path):
    cfg = write_config(
        tmp_path / "t.cfg",
        "experiment = train\ndataset = blobs\nsamples = 96\nfeatures = 4\n"
        "hidden = 6\nsteps = 300\nsnapshot_stride = 150\nsvg = true\n",
    )
    out = tmp_path / "out"
    assert main(["toynet", "--config", cfg, "--out", str(out)]) == 0
    curves = read_rows(out / "curves.csv")
    assert curves[0] == ["step", "loss", "accuracy"]
    assert len(curves) == 302  # header + steps 0..300
    mass = read_rows(out / "mass_ratio.csv")
    assert mass[0] == ["step", "ratio"]
    assert len(mass) == 4  # snapshots at 0, 150, 300 plus header
    js0 = read_rows(out / "js0_series.csv")
    assert js0[0] == ["step", "js0"]


TOYNET_HUGE_STEP = "experiment = train\nsamples = 32\nfeatures = 3\neta = 1e307\noptimizer = sgd\n"


@pytest.mark.parametrize("strict, code", [(False, 0), (True, 1)], ids=["lenient", "strict"])
def test_toynet_train_diverging_rate_writes_the_steps_it_reached(tmp_path, capsys, strict, code):
    import warnings

    cfg = write_config(tmp_path / "t.cfg", TOYNET_HUGE_STEP + f"steps = 20\nstrict = {str(strict).lower()}\n")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["toynet", "--config", cfg, "--out", str(out)]) == code
    assert caught == []
    curves = read_rows(out / "curves.csv")
    assert [row[0] for row in curves] == ["step", "0", "1"]
    assert np.all(np.isfinite(np.array(curves[1:], dtype=float)))
    assert capsys.readouterr().out == f"wrote {out / 'curves.csv'} (status diverged)\n"


def test_toynet_train_zero_snapshot_hessian_names_its_step(tmp_path, capsys, two_cpus):
    # A step this large saturates every tanh, so the loss is flat about the
    # trained point and the finite-difference Hessian is exactly zero.  Such
    # a snapshot is written as nan and named on stderr; the others are kept.
    cfg = write_config(tmp_path / "t.cfg", TOYNET_HUGE_STEP + "steps = 4\nsnapshot_stride = 2\n")
    for jobs in (1, 2):
        out = tmp_path / f"j{jobs}"
        assert main(["toynet", "--config", cfg, "--out", str(out), "--jobs", str(jobs)]) == 0
        captured = capsys.readouterr()
        assert captured.out == (
            f"wrote {out / 'curves.csv'} (status completed)\n"
            f"wrote {out / 'mass_ratio.csv'} (3 snapshots)\nwrote {out / 'js0_series.csv'}\n"
        )
        assert captured.err == "".join(
            f"warning: Hessian at step {step} is zero: mass ratio and js0 written as nan\n" for step in (2, 4)
        )
        for name, column in (("mass_ratio.csv", "ratio"), ("js0_series.csv", "js0")):
            rows = read_rows(out / name)
            assert rows[0] == ["step", column]
            assert [row[0] for row in rows[1:]] == ["0", "2", "4"]
            assert 0 < float(rows[1][1]) < 1 and rows[2][1] == rows[3][1] == "nan"


def test_toynet_train_overflowing_snapshot_names_its_step(tmp_path, capsys):
    # After one step at this rate the finite differences overflow.
    cfg = write_config(
        tmp_path / "t.cfg",
        "experiment = train\nsamples = 12\nfeatures = 1\nhidden = 1\nbatch = 4\nsteps = 10\n"
        "eta = 1e308\noptimizer = sgd\nsnapshot_stride = 1\n",
    )
    assert main(["toynet", "--config", cfg, "--out", str(tmp_path / "out"), "--seed", "0"]) == 2
    assert capsys.readouterr().err == (
        "error: finite-difference Hessian failed: overflow encountered in matmul (snapshot at step 1)\n"
    )


TOYNET_GAP = "experiment = scaled\nc_values = 1\nseeds = 1\nsamples = 32\ngap = true\nlr_grid = 0.01\n"
QUADLAB_GRID = "case = 3\noptimizer = gd\neta_grid = true\nmax_iters = 50\n"


@pytest.mark.parametrize(
    "subcommand, text, key",
    [
        ("toynet", "experiment = scaled\nc_values = 1\nseeds = 0\nsamples = 32\n", "seeds"),
        ("quadlab", "case = 3\noptimizer = gd\nmax_iters = 50\nseeds = 0\n", "seeds"),
        ("quadlab", "case = 3\noptimizer = gd\nmax_iters = 50\ntarget = nan\n", "target"),
        ("quadlab", "case = 3\noptimizer = gd\nmax_iters = -1\n", "max_iters"),
        ("quadlab", "case = 3\noptimizer = adam_ema\neta = 0.01\nmax_iters = 50\ntransient = -3\n", "transient"),
        ("toynet", "experiment = train\nsamples = 32\nfeatures = 3\nhidden = 0\nsteps = 5\n", "hidden"),
        ("toynet", "experiment = train\nsamples = 32\nfeatures = 3\nsteps = -2\n", "steps"),
        ("toynet", "experiment = train\nsamples = 32\nfeatures = 3\nsteps = 5\nbatch = 0\n", "batch"),
        ("toynet", "experiment = train\nsamples = 32\nfeatures = 3\nsteps = 5\nbatch = -3\n", "batch"),
        ("toynet", TOYNET_GAP + "gap_steps = -2\n", "gap_steps"),
        ("toynet", TOYNET_GAP + "gap_steps = 3\nbatch = 0\n", "batch"),
        ("toynet", TOYNET_GAP + "gap_steps = 3\nlr_grid = 0.01,-0.1\n", "lr_grid"),
        ("toynet", TOYNET_GAP + "gap_steps = 3\nlr_grid = 0.01,nan\n", "lr_grid"),
        ("toynet", "experiment = train\nsamples = 32\nfeatures = 3\nsteps = 5\nsnapshot_stride = -5\n",
         "snapshot_stride"),
        ("quadlab", "case = 3\noptimizer = adam_ema\neta = 0.01\nmax_iters = 50\nwindow = -5\n", "window"),
        ("quadlab", "case = 3\noptimizer = adam_ema\neta = 0.01\nmax_iters = 50\nwindow = 0\n", "window"),
        ("quadlab", QUADLAB_GRID + "grid_points = -5\n", "grid_points"),
        ("quadlab", QUADLAB_GRID + "grid_points = 0\n", "grid_points"),
        ("spectrum", "source = case\ncase = 3\nsigma = nan\n", "sigma"),
        ("spectrum", "source = case\ncase = 3\nsigma = -1\n", "sigma"),
        ("toynet", "experiment = train\nsamples = 32\nfeatures = 3\nsteps = 5\neta = 0.1,0.2\n", "eta"),
        ("quadlab", "case = 3\noptimizer = gd\nmax_iters = 1,2\n", "max_iters"),
        ("quadlab", "case = 3\noptimizer = gd,adam_fxed\nmax_iters = 50\n", "optimizer"),
        ("quadlab", "case = 3\noptimizer = gd,gd\nseeds = 2\nmax_iters = 50\n", "optimizer"),
        ("quadlab", "case = 3\noptimizer = gd\nmax_iters = 50\nsvg = maybe\n", "svg"),
        ("quadlab", "case = 3\noptimizer = gd\nmax_iters = 50\nstrict = maybe\n", "strict"),
        ("toynet", "experiment = train\nsamples = 32\nfeatures = 3\nsteps = 2.5\n", "steps"),
        ("toynet", "experiment = scaled\nc_values = 1,0.5\nseeds = 1\nsamples = 32\n", "c_values"),
        ("toynet", "experiment = scaled\nc_values = 1,1.0\nseeds = 1\nsamples = 32\n", "c_values"),
        ("toynet", "experiment = train\nsamples = 32\nfeatures = 3\nsteps = 5\neta = nan\n", "eta"),
        ("spectrum", "source = case\ncase = 3\nmatrix = /nonexistent.csv\n", "matrix"),
        ("spectrum", "source = case\ncase = 3\nblocks = 1,2\n", "blocks"),
        ("toynet", "experiment = scaled\nwidths = 6,8,8,8,2\nc_values = 1\nseeds = 1\nsamples = 32\n", "widths"),
        ("toynet", "experiment = scaled\nwidths = 6,8,8,1\nc_values = 1\nseeds = 1\nsamples = 32\n", "widths"),
    ],
    ids=[
        "toynet_seeds_0", "quadlab_seeds_0", "quadlab_target_nan", "quadlab_max_iters_negative",
        "quadlab_transient_negative", "toynet_hidden_0", "toynet_steps_negative", "toynet_batch_0",
        "toynet_batch_negative", "toynet_gap_steps_negative", "toynet_gap_batch_0",
        "toynet_lr_grid_negative", "toynet_lr_grid_nan", "toynet_snapshot_stride_negative",
        "quadlab_window_negative", "quadlab_window_0", "quadlab_grid_points_negative",
        "quadlab_grid_points_0", "spectrum_sigma_nan", "spectrum_sigma_negative", "toynet_eta_list",
        "quadlab_max_iters_list", "quadlab_optimizer_typo", "quadlab_optimizer_repeated", "quadlab_svg_maybe",
        "quadlab_strict_maybe", "toynet_steps_fractional", "toynet_c_values_below_1", "toynet_c_values_repeated",
        "toynet_eta_nan", "spectrum_matrix_under_case",
        "spectrum_blocks_under_case", "toynet_widths_output_2", "toynet_widths_four",
    ],
)
def test_bad_counts_exit_2_naming_the_key(tmp_path, capsys, subcommand, text, key):
    cfg = write_config(tmp_path / "c.cfg", text)
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{key} must" in err


@pytest.mark.parametrize(
    "subcommand, line, message",
    [
        ("quadlab", "optimizer = gd,adam_fixed,gd", "optimizer must be one or more values separated by commas, "
         "each one of gd, adam_fixed, adam_ema, none repeated, got 'gd,adam_fixed,gd'"),
        ("toynet", "experiment = scaled\nc_values = 1,2,1", "c_values must be one or more values separated by "
         "commas, each a finite number >= 1, none repeated, got '1,2,1'"),
    ],
    ids=["quadlab_optimizer", "toynet_c_values"],
)
def test_repeated_list_value_exits_2_before_any_work(tmp_path, monkeypatch, capsys, subcommand, line, message):
    # A repeated optimizer would run and write each of its runs twice, and a
    # repeated scale each of its cells and medians.
    from blockspectra import quadlab, toynet

    monkeypatch.setattr(quadlab, "runs", None)
    monkeypatch.setattr(toynet, "hessian_fd", None)
    cfg = write_config(tmp_path / "c.cfg", line + "\n")
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# Every key a table reads only under some setting: (table, the key as written,
# a config that ignores it, a config that reads it, the setting the error names).
SOURCE_KEYS = [
    ("case = 1", "source = matrix\nmatrix = m.csv\n", "source = case\n", "source = matrix"),
    ("spectrum_files = f.csv", "source = matrix\nmatrix = m.csv\n", "source = case\ncase = 1\n", "source = matrix"),
    ("spectrum_files = f.csv", "source = case\n", "source = case\ncase = 2\n", "case = 3"),
    ("matrix = m.csv", "source = case\n", "source = matrix\n", "source = case"),
    ("blocks = 1,1", "source = case\ncase = 4\n", "source = matrix\nmatrix = m.csv\n", "source = case"),
]
IGNORED_KEYS = [(table, *case) for table in ("SPECTRUM", "HEATMAP") for case in SOURCE_KEYS] + [
    ("HEATMAP", "steps = 7", "source = case\nestimator = exact\n", "source = case\n", "estimator = exact"),
    ("HEATMAP", "probes = 2", "source = case\nestimator = exact\n", "source = case\nestimator = slq\n",
     "estimator = exact"),
    ("HEATMAP", "sigma = 5", "source = case\nlog_axis = true\n", "source = case\n", "log_axis = true"),
    ("HEATMAP", "estimator = exact", "source = case\nlog_axis = true\n", "source = case\n", "log_axis = true"),
    ("HEATMAP", "mode = max_abs", "source = case\nlog_axis = true\n", "source = case\nlog_axis = false\n",
     "log_axis = true"),
    ("QUADLAB", "w0 = 5", "", "case = scalar\n", "case = 3"),
    ("QUADLAB", "spectrum_files = f.csv", "case = 3\n", "case = 1\n", "case = 3"),
    ("QUADLAB", "eta = 0.1", "eta_grid = true\n", "", "eta_grid = true"),
    ("QUADLAB", "grid_points = 3", "", "eta_grid = true\n", "eta_grid = false"),
    ("QUADLAB", "beta2 = 0.5", "", "optimizer = adam_ema\neta = 0.01\n", "optimizer = gd"),
    ("QUADLAB", "transient = 5", "optimizer = gd,adam_fixed\n", "optimizer = gd,adam_ema\neta = 0.01\n",
     "optimizer = gd,adam_fixed"),
    ("QUADLAB", "window = 5", "optimizer = adam_fixed\n", "optimizer = adam_ema\neta = 0.01\n",
     "optimizer = adam_fixed"),
    *[
        (table, key, f"experiment = {experiment}\ndata_csv = d.csv\n", f"experiment = {experiment}\n",
         "data_csv = d.csv")
        for table, experiment in (("TRAIN", "train"), ("SCALED", "scaled"))
        for key in ("samples = 32", "separation = 2", "dataset = xor")
    ],
    ("TRAIN", "features = 3", "experiment = train\ndata_csv = d.csv\n", "experiment = train\n", "data_csv = d.csv"),
    ("SCALED", "lr_grid = 0.01", "experiment = scaled\n", "experiment = scaled\ngap = true\n", "gap = false"),
    ("SCALED", "gap_steps = 3", "experiment = scaled\ngap = false\n", "experiment = scaled\ngap = true\n",
     "gap = false"),
    ("SCALED", "batch = 8", "experiment = scaled\ngap = no\n", "experiment = scaled\ngap = yes\n", "gap = no"),
]


@pytest.mark.parametrize(
    "table, line, outside, inside, setting",
    IGNORED_KEYS,
    ids=[
        f"{table.lower()}_{line.split()[0]}_under_{'_'.join(re.findall(r'[a-z0-9_]+', setting))}"
        for table, line, _, _, setting in IGNORED_KEYS
    ],
)
def test_ignored_key_exits_2_before_any_work(tmp_path, monkeypatch, capsys, table, line, outside, inside, setting):
    # A key the run would ignore is an error whatever its value, found before
    # any optimizer, SLQ, eigensolver or training runs; where the run reads
    # the key, the same line resolves.
    from blockspectra import cli, operators, quadlab, slq, toynet

    def no_run(*args, **kwargs):
        raise AssertionError("work ran before the config was checked")

    for module, names in (
        (quadlab, ["runs", "grid_search"]),
        (slq, ["blockwise_densities"]),
        (toynet, ["train", "hessian_fd"]),
        (operators, ["exact_eigenvalues"]),
    ):
        for name in names:
            monkeypatch.setattr(module, name, no_run)
    key, value = (part.strip() for part in line.split("="))
    subcommand = "toynet" if table in ("TRAIN", "SCALED") else table.lower()
    cfg = write_config(tmp_path / "outside.cfg", outside + line + "\n")
    out = tmp_path / "out"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {key} must be unset: {setting} ignores it\n"
    assert os.listdir(out) == ["manifest.txt"]

    spec = getattr(cli, table)
    resolved = cli.resolve_config(parse_config(write_config(tmp_path / "inside.cfg", inside + line + "\n")), spec)
    assert resolved[key] == spec[key][0].parse(value)


def test_toynet_scaled_outputs(tmp_path):
    cfg = write_config(
        tmp_path / "t.cfg",
        "experiment = scaled\nc_values = 1,4\nseeds = 2\nsamples = 96\n",
    )
    out = tmp_path / "out"
    assert main(["toynet", "--config", cfg, "--out", str(out), "--jobs", "2"]) == 0
    rows = read_rows(out / "js0_vs_scale.csv")
    assert rows[0] == ["scale", "seed", "js0"]
    assert len(rows) == 5
    med = read_rows(out / "js0_medians.csv")
    assert len(med) == 3


def test_toynet_scaled_reads_data_csv_once(tmp_path, monkeypatch):
    from blockspectra import toynet

    data = tmp_path / "data.csv"
    toynet.save_dataset_csv(data, toynet.make_xor_blobs(24, 6, seed=0))
    calls = []
    load = toynet.load_dataset_csv
    monkeypatch.setattr(toynet, "load_dataset_csv", lambda path: calls.append(path) or load(path))
    cfg = write_config(
        tmp_path / "t.cfg", f"experiment = scaled\nc_values = 1\nseeds = 3\ndata_csv = {data}\n"
    )
    out = tmp_path / "out"
    assert main(["toynet", "--config", cfg, "--out", str(out)]) == 0
    assert calls == [str(data)]
    assert len(read_rows(out / "js0_vs_scale.csv")) == 4


def test_toynet_empty_data_csv_exits_2(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_bytes(b"")
    cfg = write_config(tmp_path / "t.cfg", f"experiment = train\ndata_csv = {data}\nsteps = 5\n")
    assert main(["toynet", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "data.csv" in err


def test_toynet_scaled_data_width_mismatch_exits_2_before_any_work(tmp_path, monkeypatch, capsys):
    from blockspectra import toynet

    data = tmp_path / "data.csv"
    toynet.save_dataset_csv(data, toynet.make_xor_blobs(24, 4, seed=0))
    monkeypatch.setattr(toynet, "hessian_fd", lambda *a, **k: pytest.fail("hessian_fd ran"))
    cfg = write_config(tmp_path / "t.cfg", f"experiment = scaled\nc_values = 1\nseeds = 1\ndata_csv = {data}\n")
    assert main(["toynet", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: widths ") and str(data) in err


def test_toynet_train_over_the_fd_cap_exits_2_before_training(tmp_path, monkeypatch, capsys):
    from blockspectra import toynet

    monkeypatch.setattr(toynet, "train", lambda *a, **k: pytest.fail("train ran"))
    # 40 * (20 + 1) = 840 parameters: no snapshot's Hessian can be taken.
    cfg = write_config(
        tmp_path / "t.cfg",
        "experiment = train\nsamples = 64\nhidden = 40\nfeatures = 20\nsteps = 3000\nsnapshot_stride = 1000\n",
    )
    assert main(["toynet", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: model has 840 parameters, finite differences capped at {toynet.MAX_FD_DIM}\n"


def test_toynet_label_only_data_csv_exits_2_before_training(tmp_path, monkeypatch, capsys):
    from blockspectra import toynet

    data = tmp_path / "data.csv"
    data.write_text("label\n1\n-1\n1\n")
    monkeypatch.setattr(toynet, "train", lambda *a, **k: pytest.fail("train ran"))
    cfg = write_config(tmp_path / "t.cfg", f"experiment = train\ndata_csv = {data}\nsteps = 5\n")
    assert main(["toynet", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(data) in err and "feature column" in err


# ---------------------------------------------------------------------------
# determinism and round-trips
# ---------------------------------------------------------------------------

def test_outputs_byte_identical_across_jobs(tmp_path):
    cfg = write_config(
        tmp_path / "q.cfg",
        "case = 3\noptimizer = gd,adam_fixed\neta_grid = true\ngrid_points = 5\n"
        "max_iters = 5000\nseeds = 2\ntarget = 1e-4\n",
    )
    out1, out8 = tmp_path / "j1", tmp_path / "j8"
    assert main(["quadlab", "--config", cfg, "--out", str(out1), "--jobs", "1"]) == 0
    assert main(["quadlab", "--config", cfg, "--out", str(out8), "--jobs", "8"]) == 0
    b1, b8 = dir_csv_bytes(out1), dir_csv_bytes(out8)
    assert b1.keys() == b8.keys()
    for name in b1:
        assert b1[name] == b8[name], f"{name} differs between jobs=1 and jobs=8"


# ---------------------------------------------------------------------------
# --jobs: the forked worker pool of toynet scaled, heatmap and spectrum
# ---------------------------------------------------------------------------

@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, whatever the host has, so that --jobs 2 forks a pool."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def fork_methods(monkeypatch):
    """The start methods asked of ``multiprocessing.get_context``, in order."""
    import multiprocessing

    methods = []
    get_context = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: methods.append(method) or get_context(method))
    return methods


def _outputs_at_jobs_1_and_2(tmp_path, command, cfg):
    import multiprocessing

    outs = {}
    for jobs in (1, 2):
        out = tmp_path / f"j{jobs}"
        assert main([command, "--config", cfg, "--out", str(out), "--jobs", str(jobs)]) == 0
        outs[jobs] = dir_csv_bytes(out)
        assert multiprocessing.active_children() == []
    return outs


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_2_before_any_work(tmp_path, capsys, jobs):
    cfg = write_config(tmp_path / "q.cfg", "case = 3\nmax_iters = 5\n")
    out = tmp_path / "out"
    assert main(["quadlab", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 2
    assert capsys.readouterr().err == "error: --jobs must be >= 1\n"
    assert not out.exists()


def test_toynet_scaled_outputs_byte_identical_across_jobs(tmp_path, two_cpus, fork_methods):
    cfg = write_config(
        tmp_path / "t.cfg",
        "experiment = scaled\nc_values = 1,4\nseeds = 2\nsamples = 32\ngap = true\nlr_grid = 0.01,0.1\ngap_steps = 5\n",
    )
    outs = _outputs_at_jobs_1_and_2(tmp_path, "toynet", cfg)
    assert fork_methods == ["fork"]
    assert sorted(outs[1]) == ["gap.csv", "gap_medians.csv", "js0_medians.csv", "js0_vs_scale.csv"]
    assert len(read_rows(tmp_path / "j2" / "gap.csv")) == 5
    assert outs[1] == outs[2]


def test_toynet_scaled_worker_error_exits_2_as_in_process(tmp_path, capsys, two_cpus):
    import multiprocessing

    from blockspectra.toynet import MAX_FD_DIM

    # 112 + 272 + 136 + 9 = 529 parameters: hessian_fd raises in each cell.
    cfg = write_config(tmp_path / "t.cfg", "experiment = scaled\nc_values = 1,2\nseeds = 1\nsamples = 24\nwidths = 6,16,16,8,1\n")
    errors = {}
    for jobs in (1, 2):
        assert main(["toynet", "--config", cfg, "--out", str(tmp_path / f"j{jobs}"), "--jobs", str(jobs)]) == 2
        errors[jobs] = capsys.readouterr().err
        assert multiprocessing.active_children() == []
    assert errors[1] == errors[2] == f"error: model has 529 parameters, finite differences capped at {MAX_FD_DIM}\n"


def test_fork_map_caps_workers_and_always_joins(monkeypatch):
    import multiprocessing

    from blockspectra.workers import fork_map

    log = []

    class InlinePool:
        """Records its size, close and join, and runs its tasks in this process."""

        def __init__(self, workers, initializer, initargs):
            log.append(("pool", workers))
            initializer(*initargs)

        def imap(self, fn, tasks, chunksize):
            return (fn(task) for task in tasks)

        def close(self):
            log.append("close")

        def join(self):
            log.append("join")

    class Fork:
        Pool = InlinePool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: Fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    tasks = [(2, k) for k in range(5)]
    powers = [2**k for k in range(5)]
    # A huge job count starts no more workers than there are usable CPUs or tasks.
    assert fork_map(pow, tasks, 10**6) == powers
    assert fork_map(pow, tasks[:2], 10**6) == powers[:2]
    assert fork_map(pow, tasks, 2) == powers
    assert log == [("pool", 3), "close", "join", ("pool", 2), "close", "join", ("pool", 2), "close", "join"]
    # One worker, asked for or all there is, runs in this process.
    log.clear()
    assert fork_map(pow, tasks, 1) == powers
    assert fork_map(pow, tasks[:1], 10**6) == powers[:1]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert fork_map(pow, tasks, 10**6) == powers
    assert log == []
    # A task that raises still leaves the pool closed and joined.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(ZeroDivisionError):
        fork_map(divmod, [(1, 1), (1, 0)], 2)
    assert log == [("pool", 2), "close", "join"]


def test_fork_map_runs_a_closure_in_forked_workers(two_cpus):
    import multiprocessing

    from blockspectra.workers import fork_map

    # A lambda over a local array cannot be pickled; the pool must not try.
    table = np.arange(12.0).reshape(3, 4)
    rows = fork_map(lambda i, scale: (os.getpid(), scale * table[i]), [(i, 10.0) for i in range(3)], 2)
    assert [row.tolist() for _, row in rows] == (10.0 * table).tolist()
    assert os.getpid() not in {pid for pid, _ in rows}
    assert multiprocessing.active_children() == []
    # An exception raised in a worker is raised here.
    with pytest.raises(ZeroDivisionError):
        fork_map(lambda x: 1 / x, [(1,), (0,)], 2)
    assert multiprocessing.active_children() == []


def test_fork_map_raises_the_first_failing_task_in_task_order(two_cpus):
    import multiprocessing
    import time

    from blockspectra.workers import fork_map

    def fail(name, delay):
        time.sleep(delay)
        raise ValueError(name)

    # Task 1 fails first in time; task 0 is still the one raised, as with one worker.
    for jobs in (1, 2):
        with pytest.raises(ValueError, match="^task 0$"):
            fork_map(fail, [("task 0", 0.3), ("task 1", 0.0)], jobs)
        assert multiprocessing.active_children() == []


def test_heatmap_slq_outputs_byte_identical_across_jobs(tmp_path, two_cpus, fork_methods):
    rng = np.random.default_rng(5)
    g = rng.standard_normal((30, 30))
    mpath = tmp_path / "m.csv"
    write_matrix_csv(mpath, g @ g.T / 30 + np.diag(np.repeat([1.0, 10.0, 100.0], 10)))
    cfg = write_config(
        tmp_path / "h.cfg",
        f"source = matrix\nmatrix = {mpath}\nblocks = 12,10,8\nestimator = slq\nsteps = 8\nprobes = 3\n",
    )
    outs = _outputs_at_jobs_1_and_2(tmp_path, "heatmap", cfg)
    assert fork_methods == ["fork"]
    assert sorted(outs[1]) == ["heatmap.csv", "summary.txt"]
    assert outs[1] == outs[2]


def test_toynet_train_snapshots_byte_identical_across_jobs(tmp_path, two_cpus, fork_methods):
    cfg = write_config(
        tmp_path / "t.cfg",
        "experiment = train\ndataset = xor\nsamples = 64\nfeatures = 3\nsteps = 40\nsnapshot_stride = 7\n",
    )
    outs = _outputs_at_jobs_1_and_2(tmp_path, "toynet", cfg)
    assert fork_methods == ["fork"]
    assert sorted(outs[1]) == ["curves.csv", "js0_series.csv", "mass_ratio.csv"]
    assert [row[0] for row in read_rows(tmp_path / "j2" / "mass_ratio.csv")] == ["step", "0", "7", "14", "21", "28", "35", "40"]
    assert outs[1] == outs[2]


def test_spectrum_probes_byte_identical_across_jobs(tmp_path, two_cpus, fork_methods):
    # No partition: the whole operator is one block, whose probe stack is the
    # one task, so --jobs 2 runs it in this process and forks no pool.
    g = np.random.default_rng(6).standard_normal((40, 40))
    mpath = tmp_path / "m.csv"
    write_matrix_csv(mpath, g + g.T)
    cfg = write_config(tmp_path / "s.cfg", f"source = matrix\nmatrix = {mpath}\nsteps = 10\nprobes = 4\n")
    outs = _outputs_at_jobs_1_and_2(tmp_path, "spectrum", cfg)
    assert fork_methods == []
    assert sorted(outs[1]) == ["density_full.csv"]
    assert outs[1] == outs[2]


def test_toynet_scaled_names_diverged_rates_without_numpy_warnings(tmp_path, capsys):
    import warnings

    cfg = write_config(
        tmp_path / "t.cfg",
        "experiment = scaled\nc_values = 1\nseeds = 1\nsamples = 32\ngap = true\nlr_grid = 0.01,1e307\ngap_steps = 20\n",
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["toynet", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert caught == []
    assert capsys.readouterr().err == (
        "warning: scale 1.0, seed 0: sgd diverged at lr 1e+307; adam diverged at lr 1e+307 (scored 0)\n"
    )
    # The same table as before the warnings were silenced: each diverged rate scores 0.
    assert (tmp_path / "out" / "gap.csv").read_text() == "scale,seed,best_sgd,best_adam,gap\n1.0,0,0.65625,0.78125,0.125\n"


@pytest.mark.parametrize("jobs", [1, 2])
def test_toynet_scaled_overflowing_scale_exits_2(tmp_path, capsys, two_cpus, fork_methods, jobs):
    # 1e200**2 overflows a float; the other cell makes --jobs 2 fork a pool.
    import multiprocessing
    import warnings

    cfg = write_config(tmp_path / "t.cfg", "experiment = scaled\nc_values = 1,1e200\nseeds = 1\nsamples = 32\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["toynet", "--config", cfg, "--out", str(tmp_path / "out"), "--jobs", str(jobs)]) == 2
    assert caught == []
    assert fork_methods == (["fork"] if jobs == 2 else [])
    assert multiprocessing.active_children() == []
    assert capsys.readouterr().err == "error: scale_growth = 1e+200 makes an initial weight scale non-finite\n"


@pytest.mark.parametrize("jobs", [1, 2])
def test_toynet_scaled_overflowing_layers_exit_2(tmp_path, capsys, two_cpus, fork_methods, jobs):
    # scale_growth**2 is still finite at 1.34e154, but the hidden layers'
    # matmuls overflow: no JS0 is scored from such a Hessian.
    import multiprocessing
    import warnings

    cfg = write_config(tmp_path / "t.cfg", "experiment = scaled\nc_values = 1,1.34e154\nseeds = 1\nsamples = 32\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["toynet", "--config", cfg, "--out", str(tmp_path / "out"), "--jobs", str(jobs)]) == 2
    assert caught == []
    assert fork_methods == (["fork"] if jobs == 2 else [])
    assert multiprocessing.active_children() == []
    assert capsys.readouterr().err == "error: finite-difference Hessian failed: overflow encountered in matmul\n"
    assert not (tmp_path / "out" / "js0_vs_scale.csv").exists()


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "h.cfg", "source = case\ncase = 4\n")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["heatmap", "--config", cfg, "--out", str(out1), "--cheap"]) == 0
    assert main(["heatmap", "--config", cfg, "--out", str(out2), "--cheap"]) == 0
    assert dir_csv_bytes(out1) == dir_csv_bytes(out2)


def test_all_csv_outputs_have_headers_and_reparse(tmp_path):
    cfg = write_config(tmp_path / "s.cfg", "source = case\ncase = 3\n")
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out), "--cheap"]) == 0
    for name in sorted(os.listdir(out)):
        if name.endswith(".csv"):
            rows = read_rows(out / name)
            with pytest.raises(ValueError):
                [float(x) for x in rows[0]]  # header row is not numeric
            grid, values = read_density(out / name)
            assert values.size == grid.size


# ---------------------------------------------------------------------------
# start-up cost
# ---------------------------------------------------------------------------

SCIPY_PROBE = """
import json, sys
from blockspectra.cli import main

def scipy_modules():
    return sorted(k for k in sys.modules if k.startswith("scipy"))

seen = {"import": scipy_modules()}
for label, argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        raise SystemExit(f"{label} failed")
    seen[label] = scipy_modules()
print(json.dumps(seen))
"""


def test_no_subcommand_loads_scipy(tmp_path):
    # The Ritz quadrature runs on numpy's eigh, so a fresh process never pays
    # for importing scipy, not even for Lanczos.
    runs = [
        ("quadlab", "quadlab", "case = 3\noptimizer = gd\nmax_iters = 50\n", []),
        ("toynet", "toynet", TOYNET_GAP + "gap_steps = 3\n", []),
        ("heatmap", "heatmap", "source = case\ncase = 3\n", ["--cheap"]),
        ("spectrum", "spectrum", "source = case\ncase = 3\n", ["--cheap"]),
    ]
    argvs = [
        (label, [cmd, "--config", write_config(tmp_path / f"{label}.cfg", text),
                 "--out", str(tmp_path / label), *extra])
        for label, cmd, text, extra in runs
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {label: [] for label in ["import", "quadlab", "toynet", "heatmap", "spectrum"]}
