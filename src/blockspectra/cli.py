"""Experiment orchestration: subcommands, configs, seeds, CSV/SVG emission.

Every subcommand takes ``--config PATH --out DIR --seed N --jobs K
[--cheap]``; ``--jobs`` is recorded in the manifest and otherwise ignored.
Configs are flat ``key = value`` text files.  The keys each subcommand reads,
with their defaults, are the ``cfg.get`` calls of its ``cmd_*`` function:

- ``spectrum`` and ``heatmap`` (``_resolve_source``, ``_slq_params``):
  source, case, spectrum_files, matrix, blocks, steps, probes, sigma, svg;
  ``heatmap`` adds estimator, mode, log_axis.
- ``quadlab`` (``_quadlab_problem``, ``_one_quadlab_run``): case, w0,
  spectrum_files, optimizer, seeds, eta, eta_grid, grid_points, max_iters,
  target, beta2, verify, transient, window, svg, strict.
- ``toynet`` (``_toynet_dataset`` and the two experiments): experiment,
  data_csv, dataset, samples, features, separation; ``train`` adds hidden,
  optimizer, eta, steps, batch, snapshot_stride, svg, strict; ``scaled``
  adds widths, c_values, seeds, gap, lr_grid, gap_steps, batch.

A run is fully determined by its manifest (subcommand, config contents,
seed, cheap flag): every random stream is keyed by the seed plus fixed
counters and results are written in a fixed order, so reruns produce
byte-identical outputs.  Every file goes through ``fileio``.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from blockspectra import fileio, heterogeneity, quadlab, slq, svgplot, toynet
from blockspectra.operators import (
    BlockPartition,
    DenseSymmetric,
    exact_eigenvalues,
    load_matrix_csv,
    principal_block,
)

MAX_CSV_ROWS = 2001


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config and manifest
# ---------------------------------------------------------------------------

def _coerce(raw: str):
    raw = raw.strip()
    if "," in raw:
        return [_coerce(part) for part in raw.split(",") if part.strip()]
    low = raw.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def parse_config(path) -> dict:
    cfg = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            cfg[key.strip()] = _coerce(value)
    return cfg


@dataclass
class Manifest:
    subcommand: str
    config_path: str
    config: dict
    out: str
    seed: int
    jobs: int
    cheap: bool


def _write_manifest(manifest: Manifest):
    lines = [
        f"subcommand = {manifest.subcommand}",
        f"config = {manifest.config_path}",
        f"seed = {manifest.seed}",
        f"jobs = {manifest.jobs}",
        f"cheap = {str(manifest.cheap).lower()}",
    ]
    for key in sorted(manifest.config):
        value = manifest.config[key]
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        lines.append(f"config.{key} = {value}")
    fileio.write_text(os.path.join(manifest.out, "manifest.txt"), "\n".join(lines) + "\n")


def _stride_indices(n: int, cap: int = MAX_CSV_ROWS) -> np.ndarray:
    if n <= cap:
        return np.arange(n)
    idx = np.unique(np.linspace(0, n - 1, cap).astype(int))
    return idx


def _listify(value):
    if value is None:
        return []
    return value if isinstance(value, list) else [value]


def _int_at_least(cfg, key, default, low=1) -> int:
    """An integer config value that must be at least ``low``."""
    value = int(cfg.get(key, default))
    if value < low:
        raise ConfigError(f"{key} must be at least {low}, got {value}")
    return value


# ---------------------------------------------------------------------------
# Operator sources shared by spectrum and heatmap
# ---------------------------------------------------------------------------

def _resolve_source(cfg, seed):
    """Returns (operator, partition or None, per-block eigenvalues or None)."""
    source = cfg.get("source")
    if source == "case":
        case_id = int(cfg.get("case", 3))
        files = [str(p) for p in _listify(cfg.get("spectrum_files"))] or None
        problem = quadlab.make_case(case_id, seed=seed, spectrum_files=files)
        return problem.operator(), problem.partition, list(problem.block_eigenvalues)
    if source == "matrix":
        path = cfg.get("matrix")
        if not path:
            raise ConfigError("source = matrix requires a 'matrix = PATH' key")
        op = DenseSymmetric(load_matrix_csv(path))
        blocks = cfg.get("blocks")
        if blocks is None:
            return op, None, None
        partition = BlockPartition([int(b) for b in _listify(blocks)])
        if partition.dim != op.dim:
            raise ConfigError(
                f"blocks sum to {partition.dim} but the matrix has dim {op.dim}"
            )
        eigs = [
            exact_eigenvalues(principal_block(op, a, z)) for a, z in partition.ranges()
        ]
        return op, partition, eigs
    raise ConfigError("config needs 'source = case' or 'source = matrix'")


def _slq_params(cfg, seed, cheap) -> slq.SLQParams:
    preset = slq.SLQParams.cheap() if cheap else slq.SLQParams()
    sigma = cfg.get("sigma")
    return slq.SLQParams(
        steps=int(cfg.get("steps", preset.steps)),
        probes=int(cfg.get("probes", preset.probes)),
        sigma=float(sigma) if sigma is not None else None,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def cmd_spectrum(manifest: Manifest) -> int:
    cfg = manifest.config
    op, partition, _ = _resolve_source(cfg, manifest.seed)
    params = _slq_params(cfg, manifest.seed, manifest.cheap)
    out = manifest.out

    if partition is None:
        density = slq.slq_density(
            op, steps=params.steps, probes=params.probes, sigma=params.sigma,
            seed=params.seed,
        )
        densities, labels = [density], ["full"]
        path = os.path.join(out, "density_full.csv")
        slq.save_density_csv(path, density)
        print(f"wrote {path}")
    else:
        densities = slq.blockwise_densities(op, partition, params)
        labels = [f"block{i:02d}" for i in range(partition.num_blocks)]
        for label, density in zip(labels, densities):
            path = os.path.join(out, f"density_{label}.csv")
            slq.save_density_csv(path, density)
            print(f"wrote {path}")
    if cfg.get("svg", False):
        path = os.path.join(out, "spectrum.svg")
        svgplot.density_overlay_svg(path, densities, labels)
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# heatmap
# ---------------------------------------------------------------------------

def cmd_heatmap(manifest: Manifest) -> int:
    cfg = manifest.config
    op, partition, block_eigs = _resolve_source(cfg, manifest.seed)
    if partition is None or partition.num_blocks < 2:
        raise ConfigError("heatmap needs a source with at least 2 blocks")
    estimator = cfg.get("estimator", "slq")
    mode = cfg.get("mode", "none")
    log_axis = bool(cfg.get("log_axis", False))
    labels = [f"block{i:02d}" for i in range(partition.num_blocks)]

    if log_axis:
        if mode != "none":
            raise ConfigError("log_axis compares magnitudes directly; use mode = none")
        if block_eigs is None:
            raise ConfigError("log_axis needs exact block eigenvalues")
        densities = slq.smoothed_densities(heterogeneity.log_magnitude_spectra(block_eigs))
    elif estimator == "exact":
        if block_eigs is None:
            raise ConfigError("estimator = exact needs block eigenvalues (case or matrix source)")
        densities = slq.smoothed_densities(block_eigs)
    elif estimator == "slq":
        params = _slq_params(cfg, manifest.seed, manifest.cheap)
        densities = slq.blockwise_densities(op, partition, params)
    else:
        raise ConfigError(f"estimator must be 'slq' or 'exact', got {estimator!r}")
    report = heterogeneity.pairwise_heatmap(
        densities, mode=mode, eigenvalues=block_eigs, labels=labels
    )

    path = os.path.join(manifest.out, "heatmap.csv")
    heterogeneity.save_heatmap_csv(path, report)
    print(f"wrote {path}")
    spath = os.path.join(manifest.out, "summary.txt")
    heterogeneity.save_js0_summary(spath, report)
    print(f"wrote {spath}  (js0 = {report.js0!r})")
    if cfg.get("svg", False):
        hpath = os.path.join(manifest.out, "heatmap.svg")
        svgplot.heatmap_svg(hpath, report.pairwise, report.labels, title="pairwise distance")
        print(f"wrote {hpath}")
    return 0


# ---------------------------------------------------------------------------
# quadlab
# ---------------------------------------------------------------------------

def _quadlab_problem(cfg, seed):
    case = cfg.get("case", 3)
    if case == "hard":
        problem, w0 = quadlab.make_hard_instance()
        return problem, w0, "hard"
    if case == "scalar":
        problem = quadlab.scalar_problem(1.0)
        w0 = None
        if "w0" in cfg:
            w0 = np.full(1, float(cfg["w0"]))
        return problem, w0, "scalar"
    case_id = int(case)
    files = [str(p) for p in _listify(cfg.get("spectrum_files"))] or None
    return quadlab.make_case(case_id, seed=seed, spectrum_files=files), None, str(case_id)


def _resolve_eta(spec, kind, problem, w0):
    if spec in (None, "default"):
        if kind == "gd":
            return quadlab.default_gd_eta(problem)
        if kind == "adam_fixed":
            return quadlab.theory_report(problem, w0).eta_theory
        raise ConfigError("adam_ema needs an explicit numeric eta")
    if spec == "theory":
        return quadlab.theory_report(problem, w0).eta_theory
    return float(spec)


def _one_quadlab_run(problem, fixed_w0, kind, eta_spec, cfg, cycle_span, seed, run_index):
    max_iters = _int_at_least(cfg, "max_iters", 100_000, low=0)
    target = float(cfg.get("target", 1e-6))
    if not (0 <= target < np.inf):
        raise ConfigError(f"target must be a finite number >= 0, got {target}")
    beta2 = float(cfg.get("beta2", 0.99))
    w0 = fixed_w0 if fixed_w0 is not None else quadlab.gaussian_init(problem.dim, seed, index=run_index)

    record = {
        "optimizer": kind,
        "seed": run_index,
        "beta2": beta2 if kind == "adam_ema" else 1.0,
        "violations": "",
        "cycling": "",
        "tail_min_loss": "",
    }
    if cfg.get("eta_grid", False):
        points = int(cfg.get("grid_points", 25))
        result = quadlab.grid_search(
            problem, kind, quadlab.default_eta_grid(points), w0,
            budget=max_iters, target=target, beta2=beta2,
        )
        trajectory = result.best
    else:
        eta = _resolve_eta(eta_spec, kind, problem, w0)
        if kind == "gd":
            trajectory = quadlab.gd_run(problem, w0, eta=eta, max_iters=max_iters, target=target)
        elif kind == "adam_fixed":
            trajectory = quadlab.adam_fixed_run(problem, w0, eta, max_iters=max_iters, target=target)
        else:
            trajectory = quadlab.adam_ema_run(problem, w0, eta, beta2, max_iters=max_iters)

    verify = cfg.get("verify", "auto")
    if verify == "auto":
        if kind == "gd" and quadlab.is_hard_instance(problem, trajectory.w0):
            verify = "gd_lower"
        elif kind == "adam_fixed" and eta_spec in ("theory", None, "default"):
            verify = "adam_upper"
        else:
            verify = "none"
    if verify in ("gd_lower", "adam_upper"):
        report = quadlab.theory_report(problem, trajectory.w0)
        check = quadlab.verify_bounds(trajectory, report, verify)
        record["violations"] = check.violations

    if kind == "adam_ema":
        transient, window = cycle_span
        if transient is None:
            transient = max(len(trajectory.loss_ratios) // 2, 1)
        if window is None:
            window = len(trajectory.loss_ratios) - transient
        if trajectory.loss_ratios.size >= transient + window and window > 0:
            cycle = quadlab.detect_limit_cycle(trajectory, transient, window)
            record["cycling"] = str(cycle.cycling).lower()
            record["tail_min_loss"] = cycle.tail_min_loss

    record.update(
        eta=trajectory.eta,
        status=trajectory.status,
        iterations=trajectory.iterations,
        final_ratio=trajectory.final_ratio(),
    )
    return record, trajectory


def cmd_quadlab(manifest: Manifest) -> int:
    cfg = manifest.config
    problem, fixed_w0, case_label = _quadlab_problem(cfg, manifest.seed)
    kinds = [str(k) for k in _listify(cfg.get("optimizer", "gd"))]
    for kind in kinds:
        if kind not in quadlab.KINDS:
            raise ConfigError(f"unknown optimizer {kind!r}")
    n_seeds = _int_at_least(cfg, "seeds", 1)
    eta_spec = cfg.get("eta")
    # Checked before the first run; when unset, each run's length sets them.
    cycle_span = (
        _int_at_least(cfg, "transient", 0, low=0) if "transient" in cfg else None,
        _int_at_least(cfg, "window", 1) if "window" in cfg else None,
    )

    keys = [(kind, i) for kind in kinds for i in range(n_seeds)]
    results = [
        _one_quadlab_run(problem, fixed_w0, kind, eta_spec, cfg, cycle_span, manifest.seed, i)
        for kind, i in keys
    ]

    failed = False
    rows = []
    for (kind, i), (record, trajectory) in zip(keys, results):
        name = f"run_{kind}_s{i:03d}.csv"
        idx = _stride_indices(trajectory.loss_ratios.size)
        fileio.write_csv(
            os.path.join(manifest.out, name),
            ["iter", "loss_ratio"],
            ([int(t), trajectory.loss_ratios[t]] for t in idx),
        )
        rows.append(
            [
                case_label,
                record["optimizer"],
                record["seed"],
                record["eta"],
                record["beta2"],
                record["status"],
                record["iterations"],
                record["final_ratio"],
                record["violations"],
                record["cycling"],
                record["tail_min_loss"],
            ]
        )
        if record["status"] == "diverged" or (record["violations"] not in ("", 0)):
            failed = True
    fileio.write_csv(
        os.path.join(manifest.out, "summary.csv"),
        [
            "case", "optimizer", "seed", "eta", "beta2", "status", "iterations",
            "final_ratio", "violations", "cycling", "tail_min_loss",
        ],
        rows,
    )
    print(f"wrote {os.path.join(manifest.out, 'summary.csv')} ({len(rows)} runs)")

    w0_theory = fixed_w0 if fixed_w0 is not None else quadlab.gaussian_init(problem.dim, manifest.seed, index=0)
    report = quadlab.theory_report(problem, w0_theory)
    lines = [
        f"kappa = {report.kappa!r}",
        f"r = {report.r!r}",
        f"eta_theory = {report.eta_theory!r}",
        f"gd_factor = {report.gd_factor!r}",
        f"adam_factor = {report.adam_factor!r}",
    ]
    for l, (k, c1, c2, ka) in enumerate(
        zip(report.block_kappas, report.c1, report.c2, report.adam_block_kappas)
    ):
        lines.append(f"block{l}.kappa = {k!r}")
        lines.append(f"block{l}.c1 = {c1!r}")
        lines.append(f"block{l}.c2 = {c2!r}")
        lines.append(f"block{l}.kappa_precond = {ka!r}")
    fileio.write_text(os.path.join(manifest.out, "theory.txt"), "\n".join(lines) + "\n")
    print(f"wrote {os.path.join(manifest.out, 'theory.txt')}")

    if cfg.get("svg", False):
        series = []
        for (kind, i), (_, trajectory) in zip(keys, results):
            if i == 0:
                idx = _stride_indices(trajectory.loss_ratios.size)
                series.append((kind, idx, trajectory.loss_ratios[idx]))
        path = os.path.join(manifest.out, "loss_ratio.svg")
        svgplot.line_plot_svg(
            path, series, title=f"case {case_label}", x_label="iteration",
            y_label="loss ratio", log_y=True,
        )
        print(f"wrote {path}")

    if failed and cfg.get("strict", False):
        return 1
    return 0


# ---------------------------------------------------------------------------
# toynet
# ---------------------------------------------------------------------------

def _toynet_dataset(cfg, seed):
    data_csv = cfg.get("data_csv")
    if data_csv:
        return toynet.load_dataset_csv(str(data_csv))
    kind = cfg.get("dataset", "blobs")
    n = int(cfg.get("samples", 256))
    d = int(cfg.get("features", 5))
    sep = float(cfg.get("separation", 3.0))
    if kind == "blobs":
        return toynet.make_blobs(n, d, separation=sep, seed=seed)
    if kind == "xor":
        return toynet.make_xor_blobs(n, d, separation=sep, seed=seed)
    raise ConfigError(f"dataset must be 'blobs' or 'xor', got {kind!r}")


def _cmd_toynet_train(manifest: Manifest) -> int:
    cfg = manifest.config
    dataset = _toynet_dataset(cfg, manifest.seed)
    net = toynet.random_toynet(
        _int_at_least(cfg, "hidden", 8), dataset.X.shape[1], seed=manifest.seed
    )
    result = toynet.train(
        net,
        dataset,
        optimizer=str(cfg.get("optimizer", "adam")),
        eta=float(cfg.get("eta", 0.02)),
        steps=_int_at_least(cfg, "steps", 1500, low=0),
        batch_size=_int_at_least(cfg, "batch", 32),
        seed=manifest.seed,
        snapshot_stride=_int_at_least(cfg, "snapshot_stride", 0, low=0),
    )
    steps_axis = np.arange(result.losses.size)
    idx = _stride_indices(result.losses.size)
    fileio.write_csv(
        os.path.join(manifest.out, "curves.csv"),
        ["step", "loss", "accuracy"],
        ([int(t), result.losses[t], result.accuracies[t]] for t in idx),
    )
    print(f"wrote {os.path.join(manifest.out, 'curves.csv')} (status {result.status})")

    if result.snapshots:
        mass_rows, js0_rows = [], []
        for snap in result.snapshots:
            mass_rows.append([snap.step_index, toynet.offdiag_mass_ratio(snap)])
            js0_rows.append([snap.step_index, toynet.snapshot_js0(snap)])
        fileio.write_csv(os.path.join(manifest.out, "mass_ratio.csv"), ["step", "ratio"], mass_rows)
        fileio.write_csv(os.path.join(manifest.out, "js0_series.csv"), ["step", "js0"], js0_rows)
        print(f"wrote {os.path.join(manifest.out, 'mass_ratio.csv')} ({len(mass_rows)} snapshots)")
        print(f"wrote {os.path.join(manifest.out, 'js0_series.csv')}")

    if cfg.get("svg", False):
        path = os.path.join(manifest.out, "training.svg")
        svgplot.line_plot_svg(
            path,
            [("loss", steps_axis[idx], np.maximum(result.losses[idx], 1e-300))],
            title="training loss", x_label="step", y_label="loss", log_y=True,
        )
        print(f"wrote {path}")
    if result.status == "diverged" and cfg.get("strict", False):
        return 1
    return 0


def _scaled_cell(widths, dataset, c, s, gap):
    """JS0 of one (scale, seed) cell.

    With ``gap = (lr_grid, steps, batch)`` the cell also holds the best final
    accuracy of SGD and of Adam over the learning rates.
    """
    mlp = toynet.scaled_mlp(widths, c, seed=s)
    snap = toynet.hessian_fd(mlp, dataset.X, dataset.y)
    js0 = toynet.snapshot_js0(snap)
    cell = {"scale": c, "seed": s, "js0": js0}
    if gap is not None:
        lr_grid, steps, batch = gap
        best = {}
        for opt in ("sgd", "adam"):
            accs = []
            for lr in lr_grid:
                model = toynet.scaled_mlp(widths, c, seed=s)
                res = toynet.train(
                    model, dataset, optimizer=opt, eta=lr, steps=steps,
                    batch_size=batch, seed=s,
                )
                accs.append(res.accuracies[-1] if res.status == "completed" else 0.0)
            best[opt] = max(accs)
        cell["best_sgd"] = best["sgd"]
        cell["best_adam"] = best["adam"]
    return cell


def _cmd_toynet_scaled(manifest: Manifest) -> int:
    cfg = manifest.config
    c_values = [float(c) for c in _listify(cfg.get("c_values", [1, 2, 4, 8]))]
    n_seeds = _int_at_least(cfg, "seeds", 5)
    widths = [int(w) for w in _listify(cfg.get("widths", [6, 8, 8, 8, 1]))]
    gap = None
    if cfg.get("gap", False):
        lr_grid = [float(v) for v in _listify(cfg.get("lr_grid", [0.001, 0.003, 0.01, 0.03, 0.1]))]
        bad = [lr for lr in lr_grid if not (0 <= lr < np.inf)]
        if bad:
            raise ConfigError(f"lr_grid must hold finite numbers >= 0, got {bad[0]}")
        gap = (
            lr_grid,
            _int_at_least(cfg, "gap_steps", 300, low=0),
            _int_at_least(cfg, "batch", 64),
        )
    data_cfg = {**cfg, "features": widths[0], "dataset": cfg.get("dataset", "xor")}
    datasets = [_toynet_dataset(data_cfg, seed=s) for s in range(n_seeds)]

    cells = [
        _scaled_cell(widths, datasets[s], c, s, gap) for c in c_values for s in range(n_seeds)
    ]

    fileio.write_csv(
        os.path.join(manifest.out, "js0_vs_scale.csv"),
        ["scale", "seed", "js0"],
        ([cell["scale"], cell["seed"], cell["js0"]] for cell in cells),
    )
    med_rows = []
    for c in c_values:
        vals = [cell["js0"] for cell in cells if cell["scale"] == c]
        med_rows.append([c, np.median(vals)])
    fileio.write_csv(os.path.join(manifest.out, "js0_medians.csv"), ["scale", "median_js0"], med_rows)
    print(f"wrote {os.path.join(manifest.out, 'js0_vs_scale.csv')} ({len(cells)} cells)")
    print(f"wrote {os.path.join(manifest.out, 'js0_medians.csv')}")

    if cfg.get("gap", False):
        fileio.write_csv(
            os.path.join(manifest.out, "gap.csv"),
            ["scale", "seed", "best_sgd", "best_adam", "gap"],
            (
                [
                    cell["scale"], cell["seed"], cell["best_sgd"],
                    cell["best_adam"], cell["best_adam"] - cell["best_sgd"],
                ]
                for cell in cells
            ),
        )
        gap_rows = []
        for c in c_values:
            gaps = [cell["best_adam"] - cell["best_sgd"] for cell in cells if cell["scale"] == c]
            gap_rows.append([c, np.median(gaps)])
        fileio.write_csv(os.path.join(manifest.out, "gap_medians.csv"), ["scale", "median_gap"], gap_rows)
        print(f"wrote {os.path.join(manifest.out, 'gap.csv')}")
        print(f"wrote {os.path.join(manifest.out, 'gap_medians.csv')}")
    return 0


def cmd_toynet(manifest: Manifest) -> int:
    experiment = manifest.config.get("experiment", "train")
    if experiment == "train":
        return _cmd_toynet_train(manifest)
    if experiment == "scaled":
        return _cmd_toynet_scaled(manifest)
    raise ConfigError(f"experiment must be 'train' or 'scaled', got {experiment!r}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

COMMANDS = {
    "spectrum": cmd_spectrum,
    "heatmap": cmd_heatmap,
    "quadlab": cmd_quadlab,
    "toynet": cmd_toynet,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockspectra",
        description="Blockwise spectral analysis and optimizer benchmarks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    descriptions = {
        "spectrum": "estimate eigenvalue densities (full or per block)",
        "heatmap": "pairwise distances between blockwise spectra",
        "quadlab": "optimizer runs on block-diagonal quadratics",
        "toynet": "small-network training and Hessian-structure experiments",
    }
    for name, desc in descriptions.items():
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="flat key = value config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0, help="global seed (default 0)")
        p.add_argument(
            "--jobs", type=int, default=1,
            help="accepted for compatibility and ignored: runs are sequential",
        )
        p.add_argument("--cheap", action="store_true", help="fast low-fidelity preset")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    manifest = Manifest(
        subcommand=args.subcommand,
        config_path=args.config,
        config=config,
        out=args.out,
        seed=args.seed,
        jobs=args.jobs,
        cheap=args.cheap,
    )
    os.makedirs(manifest.out, exist_ok=True)
    try:
        _write_manifest(manifest)
        return COMMANDS[args.subcommand](manifest)
    except (ConfigError, ValueError, OSError, quadlab.AllDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
