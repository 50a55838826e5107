"""The four benchmark workloads: seeded inputs, CLI configs, set-up and checks.

Each workload is one ``blockspectra`` CLI invocation on a config that
``write_inputs`` generates from the workload seed.  ``setup`` rebuilds the
workload's inputs through public calls, as a user's fresh interpreter would
before computing, and ``check`` validates one invocation's output directory.
Sizes were chosen so that one invocation takes 1.5-4 s on a 2-core x86 box
and does the same amount of work whatever the seed (see README.md).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import statistics
from dataclasses import dataclass
from typing import Callable

import numpy as np

from blockspectra import heterogeneity, operators, quadlab, slq, toynet

# Fixed before any measurement: SLQ at 100 steps and 20 probes lands within
# ~3e-3 of the same-path oracle, and a change that cuts Lanczos fidelity far
# enough to move js0 by 0.02 is a correctness failure, not a speedup.
JS0_TOL = 0.02

HEATMAP_BLOCKS = (600, 200, 100, 100)
HEATMAP_SCALES = (1.0, 10.0, 100.0, 1000.0)
HEATMAP_COUPLING = 1e-2
TOYNET_WIDTHS = (6, 8, 8, 8, 1)
TOYNET_SCALES = (1, 2, 4, 8)
TOYNET_SEEDS = 3
XOR_SAMPLES = 256


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    why: str
    write_inputs: Callable[[int, str], dict]
    setup: Callable[[dict], None]
    check: Callable[[str, dict], list]


def _write_config(workdir: str, items: dict) -> str:
    path = os.path.join(workdir, "config.cfg")
    with open(path, "w") as fh:
        for key, value in items.items():
            fh.write(f"{key} = {value}\n")
    return path


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _missing(out: str, names) -> list[str]:
    return [f"missing output {name}" for name in names if not os.path.isfile(os.path.join(out, name))]


def output_digest(out: str) -> dict[str, str]:
    """sha256 of every output file except manifest.txt, which names the job count."""
    digest = {}
    for name in sorted(os.listdir(out)):
        if name == "manifest.txt":
            continue
        with open(os.path.join(out, name), "rb") as fh:
            digest[name] = hashlib.sha256(fh.read()).hexdigest()
    return digest


# ---------------------------------------------------------------------------
# quadlab-sweep: c07 shape, 25-row grid searches run to the full budget
# ---------------------------------------------------------------------------

# 22000 iterations cover the slowest possible gd run on case 3: the best grid
# step is 10**-3.5 and the unit eigenvalue needs ln(1e6) / (2 * 10**-3.5) ~
# 21850 iterations even when it holds all of the initial loss.
SWEEP_CONFIG = {
    "case": 3,
    "optimizer": "gd,adam_fixed",
    "eta_grid": "true",
    "grid_points": 25,
    "max_iters": 22000,
    "target": "1e-6",
    "seeds": 2,
    "svg": "true",
}


def _quadlab_inputs(config: dict) -> Callable[[int, str], dict]:
    def write(seed: int, workdir: str) -> dict:
        return {"seed": seed, "config": _write_config(workdir, config)}

    return write


def _quadlab_setup(ctx: dict) -> None:
    quadlab.make_case(3, seed=ctx["seed"])


def _check_sweep(out: str, ctx: dict) -> list[str]:
    problems = _missing(out, ["summary.csv", "theory.txt", "loss_ratio.svg"])
    if problems:
        return problems
    rows = _read_csv(os.path.join(out, "summary.csv"))
    if len(rows) != 2 * SWEEP_CONFIG["seeds"]:
        return [f"summary.csv has {len(rows)} runs, expected {2 * SWEEP_CONFIG['seeds']}"]
    problems += [
        f"{r['optimizer']} seed {r['seed']} ended {r['status']}" for r in rows if r["status"] != "converged"
    ]
    if problems:
        return problems
    iters = {(r["optimizer"], r["seed"]): int(r["iterations"]) for r in rows}
    ratios = [iters["gd", str(i)] / iters["adam_fixed", str(i)] for i in range(SWEEP_CONFIG["seeds"])]
    median = statistics.median(ratios)
    if median < 3.0:
        problems.append(f"median gd/adam_fixed iteration ratio {median:.3f} < 3 (c07)")
    return problems


# ---------------------------------------------------------------------------
# quadlab-single: c05 shape, lone adam_fixed runs at the theory step size
# ---------------------------------------------------------------------------

# target = 0 never stops a run early unless its loss gap underflows to 0,
# which no run on case 3 reaches within 1000 iterations; every row therefore
# does the same work on every seed.
SINGLE_CONFIG = {
    "case": 3,
    "optimizer": "adam_fixed",
    "eta": "theory",
    "max_iters": 1000,
    "target": 0,
    "seeds": 40,
    "svg": "true",
}


def _check_single(out: str, ctx: dict) -> list[str]:
    problems = _missing(out, ["summary.csv", "theory.txt", "loss_ratio.svg"])
    if problems:
        return problems
    rows = _read_csv(os.path.join(out, "summary.csv"))
    if len(rows) != SINGLE_CONFIG["seeds"]:
        return [f"summary.csv has {len(rows)} runs, expected {SINGLE_CONFIG['seeds']}"]
    for r in rows:
        if r["violations"] != "0":
            problems.append(f"seed {r['seed']}: adam_upper violations {r['violations']!r} (c05)")
        if r["status"] == "diverged":
            problems.append(f"seed {r['seed']} diverged")
    return problems


# ---------------------------------------------------------------------------
# slq-heatmap: SLQ block densities of a seeded 1000-dim matrix
# ---------------------------------------------------------------------------

HEATMAP_CONFIG = {
    "source": "matrix",
    "blocks": ",".join(str(b) for b in HEATMAP_BLOCKS),
    "estimator": "slq",
    "steps": 100,
    "probes": 20,
    "mode": "tenth_largest",
    "svg": "true",
}


def heatmap_matrix(seed: int) -> np.ndarray:
    """Block matrix with Wishart blocks at scales 1/10/100/1000 and weak coupling.

    Block l is scale_l * X X' / (2 n_l) with X an n_l x 2 n_l Gaussian draw,
    so its spectrum follows a Marchenko-Pastur law; every entry outside the
    diagonal blocks is a symmetric Gaussian draw scaled by the coupling.
    """
    rng = np.random.default_rng([seed, 1000])
    dim = sum(HEATMAP_BLOCKS)
    g = HEATMAP_COUPLING * rng.standard_normal((dim, dim))
    a = 0.5 * (g + g.T)
    start = 0
    for n, scale in zip(HEATMAP_BLOCKS, HEATMAP_SCALES):
        x = rng.standard_normal((n, 2 * n))
        a[start : start + n, start : start + n] = scale * (x @ x.T) / (2 * n)
        start += n
    return a


def oracle_js0(matrix: np.ndarray) -> float:
    """js0 along the CLI's SLQ path with exact block eigenvalues in place of SLQ.

    The CLI's own ``estimator = exact`` normalizes eigenvalues before
    smoothing and so measures something else (README.md, "Finding").
    """
    op = operators.DenseSymmetric(matrix)
    partition = operators.BlockPartition(list(HEATMAP_BLOCKS))
    eigs = [operators.exact_eigenvalues(operators.principal_block(op, a, z)) for a, z in partition.ranges()]
    densities = slq.smoothed_densities(eigs)
    return heterogeneity.pairwise_heatmap(densities, mode="tenth_largest", eigenvalues=eigs).js0


def _heatmap_inputs(seed: int, workdir: str) -> dict:
    matrix = heatmap_matrix(seed)
    path = os.path.join(workdir, "matrix.csv")
    # %.17g round-trips every double, as the package's own repr-based writer does.
    np.savetxt(path, matrix, fmt="%.17g", delimiter=",")
    config = _write_config(workdir, {**HEATMAP_CONFIG, "matrix": path})
    return {"seed": seed, "config": config, "matrix": path, "oracle_js0": oracle_js0(matrix)}


def _heatmap_setup(ctx: dict) -> None:
    operators.DenseSymmetric(operators.load_matrix_csv(ctx["matrix"]))


def read_js0(out: str) -> float:
    with open(os.path.join(out, "summary.txt")) as fh:
        key, _, value = fh.readline().partition("=")
    if key.strip() != "js0":
        raise ValueError("summary.txt does not start with js0")
    return float(value)


def _check_heatmap(out: str, ctx: dict) -> list[str]:
    problems = _missing(out, ["heatmap.csv", "summary.txt", "heatmap.svg"])
    if problems:
        return problems
    _, matrix = heterogeneity.load_heatmap_csv(os.path.join(out, "heatmap.csv"))
    if matrix.shape != (len(HEATMAP_BLOCKS),) * 2:
        return [f"heatmap has shape {matrix.shape}"]
    if not np.array_equal(matrix, matrix.T):
        problems.append("heatmap is not symmetric")
    if np.any(np.diag(matrix) != 0):
        problems.append("heatmap diagonal is not zero")
    if np.any(matrix < 0) or np.any(matrix > 1):
        problems.append("heatmap leaves [0, 1]")
    err = abs(read_js0(out) - ctx["oracle_js0"])
    if not err <= JS0_TOL:
        problems.append(f"js0_abs_err {err:.4g} exceeds {JS0_TOL}")
    return problems


# ---------------------------------------------------------------------------
# toynet-scaled: FD Hessians, snapshot js0 and a small lr-grid training sweep
# ---------------------------------------------------------------------------

TOYNET_CONFIG = {
    "experiment": "scaled",
    "widths": ",".join(str(w) for w in TOYNET_WIDTHS),
    "c_values": ",".join(str(c) for c in TOYNET_SCALES),
    "seeds": TOYNET_SEEDS,
    "gap": "true",
    "gap_steps": 30,
    "lr_grid": "0.001,0.003,0.01,0.03,0.1",
    "batch": 64,
}


def _toynet_inputs(seed: int, workdir: str) -> dict:
    # The scaled experiment keys its networks by cell index only, so the
    # workload seed reaches it through the dataset file.
    path = os.path.join(workdir, "xor.csv")
    data = toynet.make_xor_blobs(XOR_SAMPLES, TOYNET_WIDTHS[0], separation=4.0, seed=seed)
    toynet.save_dataset_csv(path, data)
    config = _write_config(workdir, {**TOYNET_CONFIG, "data_csv": path})
    return {"seed": seed, "config": config, "data": path}


def _toynet_setup(ctx: dict) -> None:
    toynet.load_dataset_csv(ctx["data"])
    for c in TOYNET_SCALES:
        for s in range(TOYNET_SEEDS):
            toynet.scaled_mlp(TOYNET_WIDTHS, c, seed=s)


def _check_toynet(out: str, ctx: dict) -> list[str]:
    problems = _missing(out, ["js0_vs_scale.csv", "js0_medians.csv", "gap.csv", "gap_medians.csv"])
    if problems:
        return problems
    rows = _read_csv(os.path.join(out, "js0_medians.csv"))
    scales = [float(r["scale"]) for r in rows]
    medians = [float(r["median_js0"]) for r in rows]
    if scales != [float(c) for c in TOYNET_SCALES]:
        return [f"js0_medians.csv has scales {scales}"]
    if not all(a < b for a, b in zip(medians, medians[1:])):
        problems.append(f"js0 medians {medians} do not strictly increase with c (c13)")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "quadlab-sweep", "quadlab",
            "25-row grid_search batches run to the full budget; slq, heterogeneity and toynet idle",
            _quadlab_inputs(SWEEP_CONFIG), _quadlab_setup, _check_sweep,
        ),
        Workload(
            "quadlab-single", "quadlab",
            "one-row runs with theory_report and verify_bounds each; shows per-run overhead of the engine",
            _quadlab_inputs(SINGLE_CONFIG), _quadlab_setup, _check_single,
        ),
        Workload(
            "slq-heatmap", "heatmap",
            "matvec-bound Lanczos on a 1000-dim CSV matrix plus union-grid js_distance; quadlab and toynet idle",
            _heatmap_inputs, _heatmap_setup, _check_heatmap,
        ),
        Workload(
            "toynet-scaled", "toynet",
            "loss_grad drives train and hessian_fd, snapshot_js0 runs JS on a shared grid",
            _toynet_inputs, _toynet_setup, _check_toynet,
        ),
    )
}


class Outcomes:
    """Counts attempted and failed operations and keeps the first output digest."""

    def __init__(self, workload, ctx):
        self.workload = workload
        self.ctx = ctx
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = None

    def add(self, label: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def check_run(self, label: str, code: int, out, log: str = ""):
        if code != 0:
            self.add(label, [f"exit code {code}: {log.strip()[-300:]}"])
            return
        try:
            problems = self.workload.check(str(out), self.ctx)
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if not problems:
            digest = output_digest(str(out))
            if self.reference is None:
                self.reference = (label, digest)
            elif digest != self.reference[1]:
                changed = sorted(k for k in digest.keys() | self.reference[1].keys() if digest.get(k) != self.reference[1].get(k))
                problems = [f"outputs differ from {self.reference[0]}: {changed}"]
        self.add(label, problems)


def save_context(workdir: str, ctx: dict) -> None:
    with open(os.path.join(workdir, "inputs.json"), "w") as fh:
        json.dump(ctx, fh)


def load_context(workdir: str) -> dict:
    with open(os.path.join(workdir, "inputs.json")) as fh:
        return json.load(fh)
