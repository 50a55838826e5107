"""Experiment orchestration: subcommands, configs, seeds, CSV/SVG emission.

Every subcommand takes ``--config PATH --out DIR --seed N --jobs K
[--cheap]``.  ``--jobs`` fans independent work out over up to K forked
worker processes (``workers.fork_map``): ``heatmap`` and ``spectrum`` their
SLQ probes, one Lanczos run per (block, probe), and ``toynet scaled`` its
(scale, seed) cells.  ``quadlab`` and ``toynet train`` record it in the
manifest and otherwise ignore it.  Outputs are the same at any K.
Configs are flat ``key = value`` text files.  The keys a subcommand accepts,
each with its kind, default and bound, are its table below: ``SPECTRUM``,
``HEATMAP``, ``QUADLAB``, and for ``toynet`` ``TRAIN`` or ``SCALED`` as its
``experiment`` key says.  The whole config is checked against that table
before any work starts.  A key the table does not list is an error, and so
is a key that a test in its table entry says the run would ignore.  The
commands check only what needs arithmetic across keys or a file read.

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
from typing import Callable

import numpy as np

from blockspectra import fileio, heterogeneity, quadlab, slq, svgplot, toynet
from blockspectra.operators import (
    BlockPartition,
    DenseSymmetric,
    block_eigenvalues,
    # Not called here, but bench/test_bench.py checks that the tracer rebinds
    # this name in ``cli``; see ROADMAP item 12.
    exact_eigenvalues,
    load_matrix_csv,
)
from blockspectra.workers import fork_map

MAX_CSV_ROWS = 2001


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config tables and manifest
# ---------------------------------------------------------------------------

def parse_config(path) -> dict:
    """The ``key = value`` pairs of a config file, values as written."""
    cfg = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            cfg[key.strip()] = value.strip()
    return cfg


@dataclass(frozen=True)
class Kind:
    """What a config value may be.

    ``parse`` turns the text into the value and raises ValueError or
    KeyError when it cannot; ``ok`` is the bound the value must meet; and
    ``text`` says both in the error message.
    """

    text: str
    parse: Callable[[str], object]
    ok: Callable[[object], bool] = lambda value: True


_FLAGS = {"true": True, "yes": True, "on": True, "false": False, "no": False, "off": False}

FLAG = Kind("true or false", lambda text: _FLAGS[text.lower()])
PATH = Kind("a path", str)
INTEGER = Kind("an integer", int)
NUMBER = Kind("a number", float)
NONNEGATIVE = Kind("a finite number >= 0", float, lambda v: 0 <= v < np.inf)
POSITIVE = Kind("a finite number > 0", float, lambda v: 0 < v < np.inf)


def at_least(low: int) -> Kind:
    return Kind(f"an integer >= {low}", int, lambda v: v >= low)


def one_of(*words: str) -> Kind:
    return Kind("one of " + ", ".join(words), str, lambda v: v in words)


def or_words(kind: Kind, *words: str) -> Kind:
    """``kind``, or one of ``words`` kept as text."""
    return Kind(
        f"{kind.text} or one of {', '.join(words)}",
        lambda text: text if text in words else kind.parse(text),
        lambda v: v in words or kind.ok(v),
    )


def list_of(kind: Kind) -> Kind:
    return Kind(
        f"one or more values separated by commas, each {kind.text}",
        lambda text: [kind.parse(part.strip()) for part in text.split(",") if part.strip()],
        lambda values: len(values) > 0 and all(map(kind.ok, values)),
    )


# A key's (kind, default) or (kind, default, reads); a default of REQUIRED
# means the key must be set.  ``reads`` maps each key that decides whether a
# run reads this one to a test on its value; where a test fails, it is unset.
REQUIRED = object()
ADAM_EMA = {"optimizer": lambda kinds: "adam_ema" in kinds}
GAP = {"gap": lambda gap: gap}
GENERATED = {"data_csv": lambda path: path is None}
LINEAR_AXIS = {"log_axis": lambda log_axis: not log_axis}

SPECTRUM = {
    "source": (one_of("case", "matrix"), REQUIRED),
    "case": (INTEGER, 3, {"source": lambda s: s == "case"}),
    "spectrum_files": (list_of(PATH), None, {"source": lambda s: s == "case", "case": lambda c: c in (1, 2)}),
    "matrix": (PATH, None, {"source": lambda s: s == "matrix"}),
    "blocks": (list_of(at_least(1)), None, {"source": lambda s: s == "matrix"}),
    # Unset, the Lanczos depth and probe count come from the --cheap preset.
    "steps": (at_least(1), None),
    "probes": (at_least(1), None),
    "sigma": (POSITIVE, None),
    "svg": (FLAG, False),
}

HEATMAP = {
    **SPECTRUM,
    # Only the SLQ estimator reads its settings.
    **{key: (*SPECTRUM[key], {**LINEAR_AXIS, "estimator": lambda e: e == "slq"}) for key in ("steps", "probes", "sigma")},
    "estimator": (one_of("slq", "exact"), "slq", LINEAR_AXIS),
    "mode": (one_of(*heterogeneity.MODES), "none", LINEAR_AXIS),
    "log_axis": (FLAG, False),
}

QUADLAB = {
    "case": (or_words(INTEGER, "hard", "scalar"), 3),
    "w0": (NUMBER, None, {"case": lambda case: case == "scalar"}),
    "spectrum_files": (list_of(PATH), None, {"case": lambda case: case in (1, 2)}),
    "optimizer": (list_of(one_of(*quadlab.KINDS)), ("gd",)),
    "seeds": (at_least(1), 1),
    "eta": (or_words(NUMBER, "theory", "default"), None, {"eta_grid": lambda grid: not grid}),
    "eta_grid": (FLAG, False),
    "grid_points": (at_least(1), 25, {"eta_grid": lambda grid: grid}),
    "max_iters": (at_least(0), 100_000),
    # Unset, grid searches and gd and adam_fixed runs stop at 1e-6, and a
    # fixed-step adam_ema run, which cycles, runs its whole budget.
    "target": (NONNEGATIVE, None),
    "beta2": (Kind("in [0, 1)", float, lambda v: 0 <= v < 1), 0.99, ADAM_EMA),
    # Unset, each adam_ema run's length sets them.
    "transient": (at_least(0), None, ADAM_EMA),
    "window": (at_least(1), None, ADAM_EMA),
    "svg": (FLAG, False),
    "strict": (FLAG, False),
}

DATASET = one_of("blobs", "xor")
# scaled_mlp's layer widths: input, 3 hidden, and the one output logit.
WIDTHS = Kind(
    "5 integers >= 1 separated by commas, the last one 1 (input, 3 hidden, output)",
    list_of(at_least(1)).parse,
    lambda w: len(w) == 5 and min(w) >= 1 and w[-1] == 1,
)

# Keys both toynet experiments accept.
TOYNET_COMMON = {
    "experiment": (one_of("train", "scaled"), "train"),
    "data_csv": (PATH, None),
    "samples": (at_least(1), 256, GENERATED),
    "separation": (NUMBER, 3.0, GENERATED),
}

TRAIN = {
    **TOYNET_COMMON,
    "dataset": (DATASET, "blobs", GENERATED),
    "features": (at_least(1), 5, GENERATED),
    "hidden": (at_least(1), 8),
    "optimizer": (one_of("sgd", "adam"), "adam"),
    "eta": (NONNEGATIVE, 0.02),
    "steps": (at_least(0), 1500),
    "batch": (at_least(1), 32),
    "snapshot_stride": (at_least(0), 0),
    "svg": (FLAG, False),
    "strict": (FLAG, False),
}

SCALED = {
    **TOYNET_COMMON,
    "dataset": (DATASET, "xor", GENERATED),
    "widths": (WIDTHS, (6, 8, 8, 8, 1)),
    "c_values": (
        list_of(Kind("a finite number >= 1", float, lambda v: 1 <= v < np.inf)),
        (1.0, 2.0, 4.0, 8.0),
    ),
    "seeds": (at_least(1), 5),
    "gap": (FLAG, False),
    "lr_grid": (list_of(NONNEGATIVE), (0.001, 0.003, 0.01, 0.03, 0.1), GAP),
    "gap_steps": (at_least(0), 300, GAP),
    "batch": (at_least(1), 64, GAP),
}


def _value(raw: dict, key: str, kind: Kind, default):
    """One key's value: its default when unset, else its checked text."""
    if key not in raw:
        if default is REQUIRED:
            raise ConfigError(f"config needs a '{key}' key: {kind.text}")
        return default
    try:
        value = kind.parse(raw[key])
        if kind.ok(value):
            return value
    except (KeyError, ValueError):
        pass
    raise ConfigError(f"{key} must be {kind.text}, got {raw[key]!r}")


def _spelled(default) -> str:
    """A default as a config file would write it; every default is lower case."""
    return ",".join(map(str, default)) if isinstance(default, tuple) else str(default).lower()


def resolve_config(raw: dict, table: dict) -> dict:
    """Every key of ``table`` with its value, after checking the whole config."""
    for key in raw:
        if key not in table:
            import difflib  # only on this error path, so start-up does not pay for it

            close = difflib.get_close_matches(key, table, n=1)
            hint = f"did you mean {close[0]!r}?" if close else "known keys: " + ", ".join(table)
            raise ConfigError(f"unknown key {key!r}; {hint}")
    cfg = {key: _value(raw, key, *spec[:2]) for key, spec in table.items()}
    for key in raw:
        for other, reads in (table[key][2] if len(table[key]) > 2 else {}).items():
            if not reads(cfg[other]):
                shown = raw[other] if other in raw else _spelled(table[other][1])
                raise ConfigError(f"{key} must be unset: {other} = {shown} ignores it")
    return cfg


def _write_manifest(args: argparse.Namespace, config: dict):
    lines = [
        f"subcommand = {args.subcommand}",
        f"config = {args.config}",
        f"seed = {args.seed}",
        f"jobs = {args.jobs}",
        f"cheap = {str(args.cheap).lower()}",
    ]
    lines += [f"config.{key} = {config[key]}" for key in sorted(config)]
    fileio.write_text(os.path.join(args.out, "manifest.txt"), "\n".join(lines) + "\n")


def _stride_indices(n: int, cap: int = MAX_CSV_ROWS) -> np.ndarray:
    if n <= cap:
        return np.arange(n)
    idx = np.unique(np.linspace(0, n - 1, cap).astype(int))
    return idx


# ---------------------------------------------------------------------------
# Operator sources shared by spectrum and heatmap
# ---------------------------------------------------------------------------

def _resolve_source(cfg, seed):
    """Returns (operator, partition or None)."""
    if cfg["source"] == "case":
        problem = quadlab.make_case(cfg["case"], seed=seed, spectrum_files=cfg["spectrum_files"])
        return problem.operator(), problem.partition
    if not cfg["matrix"]:
        raise ConfigError("source = matrix requires a 'matrix = PATH' key")
    op = DenseSymmetric(load_matrix_csv(cfg["matrix"]))
    if cfg["blocks"] is None:
        return op, None
    partition = BlockPartition(cfg["blocks"])
    if partition.dim != op.dim:
        raise ConfigError(
            f"blocks sum to {partition.dim} but the matrix has dim {op.dim}"
        )
    return op, partition


def _slq_params(cfg, seed, cheap) -> slq.SLQParams:
    given = {key: cfg[key] for key in ("steps", "probes", "sigma") if cfg[key] is not None}
    if cheap:
        return slq.SLQParams.cheap(**given, seed=seed)
    return slq.SLQParams(**given, seed=seed)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def cmd_spectrum(cfg: dict, args: argparse.Namespace) -> int:
    op, partition = _resolve_source(cfg, args.seed)
    densities = slq.blockwise_densities(op, partition, _slq_params(cfg, args.seed, args.cheap), jobs=args.jobs)
    labels = ["full"] if partition is None else [f"block{i:02d}" for i in range(partition.num_blocks)]
    for label, density in zip(labels, densities):
        path = os.path.join(args.out, f"density_{label}.csv")
        slq.save_density_csv(path, density)
        print(f"wrote {path}")
    if cfg["svg"]:
        path = os.path.join(args.out, "spectrum.svg")
        svgplot.density_overlay_svg(path, densities, labels)
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# heatmap
# ---------------------------------------------------------------------------

def cmd_heatmap(cfg: dict, args: argparse.Namespace) -> int:
    op, partition = _resolve_source(cfg, args.seed)
    if partition is None or partition.num_blocks < 2:
        raise ConfigError("heatmap needs a source with at least 2 blocks")
    labels = [f"block{i:02d}" for i in range(partition.num_blocks)]

    # Exact block eigenvalues are needed unless SLQ densities go unnormalized.
    block_eigs = None
    if cfg["log_axis"] or cfg["estimator"] == "exact" or cfg["mode"] != "none":
        block_eigs = block_eigenvalues(op.matrix, partition)
    if cfg["log_axis"]:
        densities = slq.smoothed_densities(heterogeneity.log_magnitude_spectra(block_eigs))
    elif cfg["estimator"] == "exact":
        densities = slq.smoothed_densities(block_eigs)
    else:
        densities = slq.blockwise_densities(op, partition, _slq_params(cfg, args.seed, args.cheap), jobs=args.jobs)
    report = heterogeneity.pairwise_heatmap(
        densities, mode=cfg["mode"], eigenvalues=block_eigs, labels=labels
    )

    path = os.path.join(args.out, "heatmap.csv")
    heterogeneity.save_heatmap_csv(path, report)
    print(f"wrote {path}")
    spath = os.path.join(args.out, "summary.txt")
    heterogeneity.save_js0_summary(spath, report)
    print(f"wrote {spath}  (js0 = {report.js0!r})")
    if cfg["svg"]:
        hpath = os.path.join(args.out, "heatmap.svg")
        svgplot.heatmap_svg(hpath, report.pairwise, report.labels, title="pairwise distance")
        print(f"wrote {hpath}")
    return 0


# ---------------------------------------------------------------------------
# quadlab
# ---------------------------------------------------------------------------

SUMMARY_FIELDS = (
    "case", "optimizer", "seed", "eta", "beta2", "status", "iterations",
    "final_ratio", "violations", "cycling", "tail_min_loss",
)


def _quadlab_problem(cfg, seed):
    case = cfg["case"]
    if case == "hard":
        problem, w0 = quadlab.make_hard_instance()
        return problem, w0, "hard"
    if case == "scalar":
        w0 = None if cfg["w0"] is None else np.full(1, cfg["w0"])
        return quadlab.scalar_problem(1.0), w0, "scalar"
    return quadlab.make_case(case, seed=seed, spectrum_files=cfg["spectrum_files"]), None, str(case)


def _check_quadlab(cfg):
    """Reject key combinations that would otherwise fail only after earlier runs."""
    if "adam_ema" not in cfg["optimizer"]:
        return
    if not cfg["eta_grid"] and cfg["eta"] in (None, "default"):
        raise ConfigError("adam_ema needs an explicit numeric eta")
    # No run is longer than max_iters + 1 points, and a window that does not
    # fit there fits in no shorter run either.
    length = cfg["max_iters"] + 1
    transient, window = _cycle_window(cfg, length)
    if window <= 0 or transient + window > length:
        raise ConfigError(
            f"transient + window must fit in max_iters + 1 = {length} points, got {transient} + {window}"
        )


def _cycle_window(cfg, length):
    """(transient, window) of the cycle check on a run of ``length`` points."""
    transient = max(length // 2, 1) if cfg["transient"] is None else cfg["transient"]
    window = length - transient if cfg["window"] is None else cfg["window"]
    return transient, window


def _resolve_eta(spec, kind, problem, w0):
    if spec in (None, "default") and kind == "gd":
        return quadlab.default_gd_eta(problem)
    # adam_ema without a numeric eta was rejected by _check_quadlab.
    if spec in (None, "default", "theory"):
        return quadlab.theory_report(problem, w0).eta_theory
    return spec


def _one_quadlab_run(problem, fixed_w0, kind, cfg, seed, run_index):
    max_iters = cfg["max_iters"]
    target = cfg["target"]
    if target is None and (cfg["eta_grid"] or kind != "adam_ema"):
        target = 1e-6
    beta2 = cfg["beta2"]
    w0 = fixed_w0 if fixed_w0 is not None else quadlab.gaussian_init(problem.dim, seed, index=run_index)

    record = {
        "optimizer": kind,
        "seed": run_index,
        "beta2": beta2 if kind == "adam_ema" else 1.0,
        "violations": "",
        "cycling": "",
        "tail_min_loss": "",
    }
    if cfg["eta_grid"]:
        result = quadlab.grid_search(
            problem, kind, quadlab.default_eta_grid(cfg["grid_points"]), w0,
            budget=max_iters, target=target, beta2=beta2,
        )
        trajectory = result.best
    else:
        eta = _resolve_eta(cfg["eta"], kind, problem, w0)
        if kind == "gd":
            trajectory = quadlab.gd_run(problem, w0, eta=eta, max_iters=max_iters, target=target)
        elif kind == "adam_fixed":
            trajectory = quadlab.adam_fixed_run(problem, w0, eta, max_iters=max_iters, target=target)
        else:
            trajectory = quadlab.adam_ema_run(problem, w0, eta, beta2, max_iters=max_iters, target=target)

    check = quadlab.verify_bounds(trajectory)
    if check is not None:
        record["violations"] = check.violations

    if kind == "adam_ema":
        transient, window = _cycle_window(cfg, trajectory.loss_ratios.size)
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


def cmd_quadlab(cfg: dict, args: argparse.Namespace) -> int:
    _check_quadlab(cfg)
    problem, fixed_w0, case_label = _quadlab_problem(cfg, args.seed)
    keys = [(kind, i) for kind in cfg["optimizer"] for i in range(cfg["seeds"])]
    results = [
        _one_quadlab_run(problem, fixed_w0, kind, cfg, args.seed, i)
        for kind, i in keys
    ]

    failed = False
    rows = []
    for (kind, i), (record, trajectory) in zip(keys, results):
        if trajectory.diagnostics:
            print(f"warning: {kind} seed {i}: {'; '.join(trajectory.diagnostics)}", file=sys.stderr)
        name = f"run_{kind}_s{i:03d}.csv"
        idx = _stride_indices(trajectory.loss_ratios.size)
        fileio.write_csv(
            os.path.join(args.out, name),
            ["iter", "loss_ratio"],
            zip(idx.tolist(), trajectory.loss_ratios[idx].tolist()),
        )
        rows.append([case_label] + [record[field] for field in SUMMARY_FIELDS[1:]])
        if record["status"] == "diverged" or (record["violations"] not in ("", 0)):
            failed = True
    fileio.write_csv(os.path.join(args.out, "summary.csv"), SUMMARY_FIELDS, rows)
    print(f"wrote {os.path.join(args.out, 'summary.csv')} ({len(rows)} runs)")

    w0_theory = fixed_w0 if fixed_w0 is not None else quadlab.gaussian_init(problem.dim, args.seed, index=0)
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
    fileio.write_text(os.path.join(args.out, "theory.txt"), "\n".join(lines) + "\n")
    print(f"wrote {os.path.join(args.out, 'theory.txt')}")

    if cfg["svg"]:
        series = []
        for (kind, i), (_, trajectory) in zip(keys, results):
            if i == 0:
                idx = _stride_indices(trajectory.loss_ratios.size)
                series.append((kind, idx, trajectory.loss_ratios[idx]))
        path = os.path.join(args.out, "loss_ratio.svg")
        svgplot.line_plot_svg(
            path, series, title=f"case {case_label}", x_label="iteration",
            y_label="loss ratio", log_y=True,
        )
        print(f"wrote {path}")

    if failed and cfg["strict"]:
        return 1
    return 0


# ---------------------------------------------------------------------------
# toynet
# ---------------------------------------------------------------------------

def _toynet_datasets(cfg, features, seeds):
    """One dataset per seed; a ``data_csv`` file is read once and shared."""
    if cfg["data_csv"]:
        return [toynet.load_dataset_csv(cfg["data_csv"])] * len(seeds)
    make = toynet.make_blobs if cfg["dataset"] == "blobs" else toynet.make_xor_blobs
    return [make(cfg["samples"], features, separation=cfg["separation"], seed=s) for s in seeds]


def cmd_train(cfg: dict, args: argparse.Namespace) -> int:
    (dataset,) = _toynet_datasets(cfg, cfg["features"], [args.seed])
    net = toynet.random_toynet(cfg["hidden"], dataset.X.shape[1], seed=args.seed)
    result = toynet.train(
        net,
        dataset,
        optimizer=cfg["optimizer"],
        eta=cfg["eta"],
        steps=cfg["steps"],
        batch_size=cfg["batch"],
        seed=args.seed,
        snapshot_stride=cfg["snapshot_stride"],
    )
    steps_axis = np.arange(result.losses.size)
    idx = _stride_indices(result.losses.size)
    fileio.write_csv(
        os.path.join(args.out, "curves.csv"),
        ["step", "loss", "accuracy"],
        ([int(t), result.losses[t], result.accuracies[t]] for t in idx),
    )
    print(f"wrote {os.path.join(args.out, 'curves.csv')} (status {result.status})")

    if result.snapshots:
        mass_rows, js0_rows = [], []
        for snap in result.snapshots:
            mass_rows.append([snap.step_index, toynet.offdiag_mass_ratio(snap)])
            js0_rows.append([snap.step_index, toynet.snapshot_js0(snap)])
        fileio.write_csv(os.path.join(args.out, "mass_ratio.csv"), ["step", "ratio"], mass_rows)
        fileio.write_csv(os.path.join(args.out, "js0_series.csv"), ["step", "js0"], js0_rows)
        print(f"wrote {os.path.join(args.out, 'mass_ratio.csv')} ({len(mass_rows)} snapshots)")
        print(f"wrote {os.path.join(args.out, 'js0_series.csv')}")

    if cfg["svg"]:
        path = os.path.join(args.out, "training.svg")
        svgplot.line_plot_svg(
            path,
            [("loss", steps_axis[idx], np.maximum(result.losses[idx], 1e-300))],
            title="training loss", x_label="step", y_label="loss", log_y=True,
        )
        print(f"wrote {path}")
    if result.status == "diverged" and cfg["strict"]:
        return 1
    return 0


def _scaled_cell(cfg, dataset, c, s):
    """JS0 of one (scale, seed) cell.

    With ``gap = true`` the cell also holds the best final accuracy of SGD
    and of Adam over the learning rates of ``lr_grid``; a rate that diverges
    scores 0, and ``diverged`` names each such optimizer and rate.  Each
    optimizer trains the whole grid in one ``toynet.train`` call on a stack
    of copies of the cell's network.  ``hessian_fd`` and a
    stacked ``train`` both leave the network's parameters as they found
    them, so one network serves all three calls.
    """
    mlp = toynet.scaled_mlp(cfg["widths"], c, seed=s)
    snap = toynet.hessian_fd(mlp, dataset.X, dataset.y)
    cell = {"scale": c, "seed": s, "js0": toynet.snapshot_js0(snap), "diverged": []}
    if cfg["gap"]:
        for opt in ("sgd", "adam"):
            res = toynet.train(
                mlp, dataset, optimizer=opt, eta=cfg["lr_grid"], steps=cfg["gap_steps"],
                batch_size=cfg["batch"], seed=s,
            )
            cell[f"best_{opt}"] = max(
                acc[-1] if status == "completed" else 0.0 for acc, status in zip(res.accuracies, res.status)
            )
            rates = [repr(eta) for eta, status in zip(cfg["lr_grid"], res.status) if status == "diverged"]
            if rates:
                cell["diverged"].append(f"{opt} diverged at lr {', '.join(rates)}")
        cell["gap"] = cell["best_adam"] - cell["best_sgd"]
    return cell


def cmd_scaled(cfg: dict, args: argparse.Namespace) -> int:
    seeds = range(cfg["seeds"])
    datasets = _toynet_datasets(cfg, cfg["widths"][0], seeds)
    features = datasets[0].X.shape[1]
    if features != cfg["widths"][0]:
        raise ConfigError(f"widths starts with {cfg['widths'][0]}, but {cfg['data_csv']} has {features} feature columns")
    cells = fork_map(
        lambda c, s: _scaled_cell(cfg, datasets[s], c, s),
        [(c, s) for c in cfg["c_values"] for s in seeds],
        args.jobs,
    )
    for cell in cells:
        if cell["diverged"]:
            print(
                f"warning: scale {cell['scale']!r}, seed {cell['seed']}: {'; '.join(cell['diverged'])} (scored 0)",
                file=sys.stderr,
            )

    # Each table lists every cell, and the median of its last column per scale.
    tables = [("js0_vs_scale.csv", ["scale", "seed", "js0"])]
    if cfg["gap"]:
        tables.append(("gap.csv", ["scale", "seed", "best_sgd", "best_adam", "gap"]))
    for name, fields in tables:
        value = fields[-1]
        path = os.path.join(args.out, name)
        fileio.write_csv(path, fields, ([cell[f] for f in fields] for cell in cells))
        medians = [
            [c, np.median([cell[value] for cell in cells if cell["scale"] == c])]
            for c in cfg["c_values"]
        ]
        mpath = os.path.join(args.out, f"{value}_medians.csv")
        fileio.write_csv(mpath, ["scale", f"median_{value}"], medians)
        print(f"wrote {path} ({len(cells)} cells) and {mpath}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# toynet runs one of two experiments, each with its own table.
COMMANDS = {
    "spectrum": (cmd_spectrum, SPECTRUM),
    "heatmap": (cmd_heatmap, HEATMAP),
    "quadlab": (cmd_quadlab, QUADLAB),
    "toynet train": (cmd_train, TRAIN),
    "toynet scaled": (cmd_scaled, SCALED),
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
            help="worker processes, at most the usable CPUs (default 1), for the SLQ probes "
            "of heatmap and spectrum and the (scale, seed) cells of toynet scaled; "
            "quadlab and toynet train ignore it",
        )
        p.add_argument("--cheap", action="store_true", help="fast low-fidelity preset")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    try:
        config = parse_config(args.config)
    except (OSError, ConfigError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    try:
        _write_manifest(args, config)
        name = args.subcommand
        if name == "toynet":
            name += " " + _value(config, "experiment", *TOYNET_COMMON["experiment"])
        command, table = COMMANDS[name]
        return command(resolve_config(config, table), args)
    except (ConfigError, ValueError, OSError, quadlab.AllDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
