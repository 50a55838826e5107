"""Benchmark of the blockspectra CLI on four seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is the parent of this directory and
the package is imported from its ``src``.  ``--trace 0`` times fresh-process
CLI invocations (one discarded warm-up, then alternating ``--jobs 1`` and
``--jobs 2`` runs for S seconds) and fresh-interpreter set-ups, and prints
the end-to-end metrics, rescaled to a nominal host speed that a fixed
reference kernel measures (see measure_end_to_end).  ``--trace 1`` runs the
CLI in process at ``--jobs 1``, alternating untraced and traced runs for S
seconds, and prints the per-layer metrics.  Every run's outputs are checked.  The lines before
the last are a report with host facts; the last line is one JSON object with
the keys correct, attempted, failed and metrics.  Scratch files go to
``.bench_work/`` under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# Modules that import numpy or blockspectra are imported inside functions,
# after main() has pinned the BLAS threads and put src on the path.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1"}
SETUP_PER_PAIR = 2
MIN_PAIRS = 3
CHILD_TIMEOUT_S = 60.0
REF_REPEATS = 3
# Nominal duration of reference_seconds(), near its median on the 2-core box
# the benchmark was tuned on: end-to-end times are reported at the host speed
# at which the kernel takes this long.
REF_S = 0.025

# (name, unit) of the end-to-end metrics, as BENCHMARK.json declares them.
END_TO_END = (
    ("run_s", "s"),
    ("run_s_jobs2", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def parse_args(argv, workload_names):
    def seed(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("seed must be nonnegative")
        return value

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workload_names))
    parser.add_argument("--seed", type=seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_child(cmd, log_path: Path) -> tuple[int, float, float]:
    """Run ``cmd`` from the repository root; return (exit code, wall s, peak RSS MB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_PIN)
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def cli_argv(workload, ctx, out: Path, jobs: int) -> list[str]:
    return [
        workload.subcommand, "--config", ctx["config"], "--out", str(out),
        "--seed", str(ctx["seed"]), "--jobs", str(jobs),
    ]


def reference_seconds() -> float:
    """Wall time of a fixed mix of interpreter and small-array numpy work.

    The kernel runs no blockspectra code, so no change to the program moves
    it, while host contention moves it as it moves the CLI: this box shares
    its cores with other machines, and the same work can take 1.7x longer
    from one minute to the next.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    h = rng.standard_normal((9, 9)) / 9
    x0 = rng.standard_normal((25, 9))
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i
    x = x0
    for _ in range(1500):
        x = np.tanh(x @ h) + x0
    return time.perf_counter() - start


def measure_end_to_end(workload, ctx, work: Path, seconds: float, outcomes):
    """Fresh-process CLI and set-up timings; returns (metrics, samples).

    The reference kernel runs before every child process.  Reported times
    are the raw medians scaled by REF_S / (median kernel time over the run),
    which takes out host-speed drift between runs; the raw samples are kept.
    """
    logs = fresh_dir(work / "logs")
    ref = []

    def child(cmd, label):
        ref.extend(reference_seconds() for _ in range(REF_REPEATS))
        log = logs / f"{label}.log"
        code, wall, rss = run_child(cmd, log)
        return code, wall, rss, log.read_text(errors="replace")

    def invoke(label, jobs):
        out = fresh_dir(work / "out" / label)
        cmd = [sys.executable, "-m", "blockspectra.cli", *cli_argv(workload, ctx, out, jobs)]
        code, wall, rss, log = child(cmd, label)
        outcomes.check_run(label, code, out, log)
        return wall, rss

    def probe_setup(label):
        cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), workload.name, str(work)]
        code, wall, _, log = child(cmd, label)
        outcomes.add(label, [] if code == 0 else [f"exit code {code}: {log[-300:]}"])
        return wall

    invoke("warmup", 1)
    ref.clear()
    walls = {1: [], 2: []}
    rss, setup = [], []
    start = time.perf_counter()
    pair = 0
    while pair < MIN_PAIRS or time.perf_counter() - start < seconds:
        # Alternate which job count goes first so neither always runs warmer;
        # set-up probes are spread over the run like the invocations.
        for jobs in ((1, 2) if pair % 2 == 0 else (2, 1)):
            wall, peak = invoke(f"jobs{jobs}_{pair}", jobs)
            walls[jobs].append(wall)
            if jobs == 1:
                rss.append(peak)
        setup += [probe_setup(f"setup{pair}_{i}") for i in range(SETUP_PER_PAIR)]
        pair += 1

    speed = REF_S / statistics.median(ref)
    metrics = {
        "run_s": statistics.median(walls[1]) * speed,
        "run_s_jobs2": statistics.median(walls[2]) * speed,
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup) * speed,
    }
    samples = {
        "run_s_raw": walls[1],
        "run_s_jobs2_raw": walls[2],
        "peak_rss_mb": rss,
        "setup_s_raw": setup,
        "reference_s": ref,
        "speed_factor": [speed],
    }
    return metrics, samples


def measure_layers(workload, ctx, work: Path, seconds: float, outcomes):
    """In-process untraced and traced CLI runs; returns (metrics, samples)."""
    from blockspectra import cli

    import layertrace

    def invoke(label, tracer=None):
        out = fresh_dir(work / "out" / label)
        argv = cli_argv(workload, ctx, out, 1)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            if tracer is None:
                start = time.perf_counter()
                code = cli.main(argv)
                wall = time.perf_counter() - start
            else:
                with layertrace.traced(tracer), tracer.span("cli.main") as root:
                    code = cli.main(argv)
                wall = root.seconds
        outcomes.check_run(label, code, out, err.getvalue())
        return wall, out

    invoke("warmup")
    plain, runs = [], []
    start = time.perf_counter()
    rep = 0
    while rep < 1 or time.perf_counter() - start < seconds:
        plain.append(invoke(f"plain_{rep}")[0])
        tracer = layertrace.Tracer()
        _, out = invoke(f"traced_{rep}", tracer)
        files = [p for p in out.iterdir() if p.is_file()]
        runs.append(layertrace.layer_metrics(tracer.spans, sum(p.stat().st_size for p in files), len(files)))
        rep += 1

    metrics = {name: statistics.median(r[name] for r in runs) for name in runs[0]}
    metrics["cli.trace_overhead_frac"] = metrics["cli.main_s"] / statistics.median(plain) - 1.0
    samples = {"untraced_main_s": plain, "traced_main_s": [r["cli.main_s"] for r in runs]}
    return metrics, samples


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_facts() -> dict:
    import numpy
    import scipy

    import blockspectra

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blockspectra": blockspectra.__version__,
        "blas": blas_name,
        **BLAS_PIN,
        "commit": git_commit(),
    }


def main(argv=None) -> int:
    if not (SRC / "blockspectra" / "cli.py").is_file():
        print(f"error: no blockspectra sources under {SRC}", file=sys.stderr)
        return 2
    # The pin must precede the first numpy import; the children get it through their environment.
    os.environ.update(BLAS_PIN)
    sys.path.insert(0, str(SRC))
    import blockspectra
    import layertrace
    from workloads import WORKLOADS, Outcomes, read_js0, save_context

    args = parse_args(argv, WORKLOADS)

    if Path(blockspectra.__file__).resolve().parent != SRC / "blockspectra":
        print(f"error: blockspectra imported from {blockspectra.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    load_before = os.getloadavg()
    work = fresh_dir(WORK / workload.name)
    ctx = workload.write_inputs(args.seed, str(work))
    save_context(str(work), ctx)
    outcomes = Outcomes(workload, ctx)

    if args.trace:
        metrics, samples = measure_layers(workload, ctx, work, args.seconds, outcomes)
        units = {name: unit for name, unit, _ in layertrace.LAYER_METRICS}
    else:
        metrics, samples = measure_end_to_end(workload, ctx, work, args.seconds, outcomes)
        units = dict(END_TO_END)

    host = {**host_facts(), "loadavg_before": load_before, "loadavg_after": os.getloadavg()}
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "host": host,
        "samples": samples,
        "problems": outcomes.problems,
    }
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  ({workload.why})")
    print("host " + json.dumps(host))
    for name, values in samples.items():
        print(f"samples {name} n={len(values)} " + " ".join(f"{v:.4f}" for v in values))
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(f"metric failed_frac = {outcomes.failed / outcomes.attempted:.6g} frac")
    if "oracle_js0" in ctx and outcomes.reference is not None:
        report["js0_abs_err"] = abs(read_js0(str(work / "out" / outcomes.reference[0])) - ctx["oracle_js0"])
        print(f"metric js0_abs_err = {report['js0_abs_err']:.6g} abs")
    for problem in outcomes.problems:
        print(f"problem {problem}")
    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    report["result"] = result
    (work / "result.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
