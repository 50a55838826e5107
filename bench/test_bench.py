"""Fast self-test of the benchmark itself.

    python3 -m pytest bench -q

Checks the declared metric names, that tracing restores every binding it
patched, that spans nest, and that layers a workload never enters report
zeros while the layers it does enter report the expected counts.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from blockspectra import cli, toynet  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _traced_run(tmp_path, subcommand, config: dict):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    out = tmp_path / "out"
    tracer = layertrace.Tracer()
    with layertrace.traced(tracer), tracer.span("cli.main"):
        assert cli.main([subcommand, "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 0
    return tracer.spans, layertrace.layer_metrics(tracer.spans, 0, 0)


def _bindings():
    """Identity of every attribute of every package namespace and layer class."""
    owners = layertrace.package_namespaces() + [t[0] for t in layertrace._targets() if isinstance(t[0], type)]
    return {(id(o), key): id(value) for o in owners for key, value in list(vars(o).items())}


def test_declared_metrics_match_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]] + [w["name"] for w in doc["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert all(UNIT.fullmatch(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(layertrace.LAYER_METRICS)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_traced_restores_every_binding_even_on_error():
    before = _bindings()
    tracer = layertrace.Tracer()
    with pytest.raises(RuntimeError):
        with layertrace.traced(tracer):
            during = _bindings()
            # cli.exact_eigenvalues and toynet's loss_grad methods are among the patched names.
            assert cli.exact_eigenvalues.__wrapped__ is not None
            assert toynet.ScaledMLP.loss_grad.__wrapped__ is not None
            raise RuntimeError
    assert sum(during[k] != v for k, v in before.items()) >= len(layertrace._targets())
    assert _bindings() == before


def _assert_nested(spans):
    for s in spans:
        assert s.start <= s.end
        if s.parent is not None:
            p = spans[s.parent]
            assert p.start <= s.start and s.end <= p.end
    by_parent = {}
    for s in spans:
        by_parent.setdefault(s.parent, []).append(s)
    for siblings in by_parent.values():
        for a, b in zip(siblings, siblings[1:]):
            assert a.end <= b.start


def _zero(metrics, layer):
    return {k: v for k, v in metrics.items() if k.startswith(layer + ".") and v != 0}


def test_quadlab_trace_nests_and_leaves_other_layers_idle(tmp_path):
    spans, m = _traced_run(tmp_path, "quadlab", {
        "case": 3, "optimizer": "gd,adam_fixed", "eta_grid": "true", "grid_points": 5,
        "max_iters": 300, "target": "1e-2", "seeds": 2, "svg": "true",
    })
    _assert_nested(spans)
    assert set(m) == {n for n, _, _ in layertrace.LAYER_METRICS} - {"cli.trace_overhead_frac"}
    assert m["quadlab.grid_search_calls"] == 4 and m["quadlab.rows"] == 20
    assert 0 < m["quadlab.row_iters_useful"] <= m["quadlab.row_iters_executed"] <= 20 * 301
    assert m["quadlab.ratio_buffer_mb"] == 5 * 301 * 8 / 1e6
    assert m["quadlab.single_runs"] == 0
    assert _zero(m, "slq") == _zero(m, "heterogeneity") == _zero(m, "toynet") == {}
    assert m["operators.apply_calls"] == 0 and m["svgplot.svg_s"] > 0


def test_quadlab_single_counts_every_run(tmp_path):
    _, m = _traced_run(tmp_path, "quadlab", {
        "case": 3, "optimizer": "adam_fixed", "eta": "theory", "max_iters": 50, "target": 0, "seeds": 3,
    })
    assert m["quadlab.single_runs"] == 3 and m["quadlab.grid_search_calls"] == 0
    assert m["quadlab.theory_report_s"] > 0 and m["quadlab.verify_bounds_s"] > 0
    assert m["quadlab.single_iter_us"] > 0


def test_heatmap_trace_counts_lanczos_and_union_grids(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((40, 40))
    matrix = tmp_path / "m.csv"
    scale = np.sqrt(np.repeat([1.0, 10.0, 100.0], [20, 10, 10]))
    np.savetxt(matrix, (a @ a.T) * np.outer(scale, scale), fmt="%.17g", delimiter=",")
    spans, m = _traced_run(tmp_path, "heatmap", {
        "source": "matrix", "matrix": matrix, "blocks": "20,10,10", "estimator": "slq",
        "steps": 8, "probes": 2, "mode": "tenth_largest",
    })
    _assert_nested(spans)
    assert m["slq.lanczos_calls"] == 6
    assert m["slq.lanczos_steps"] + m["slq.lanczos_breakdowns"] <= 6 * 8
    assert m["operators.apply_calls"] >= m["slq.lanczos_steps"]
    assert m["slq.lanczos_overhead"] >= 1.0
    assert m["heterogeneity.js_calls"] == 3 and m["heterogeneity.union_grid_points"] > 0
    assert m["operators.load_matrix_csv_s"] > 0
    assert _zero(m, "quadlab") == _zero(m, "toynet") == {}


def test_toynet_trace_counts_fd_and_training(tmp_path):
    spans, m = _traced_run(tmp_path, "toynet", {
        "experiment": "scaled", "c_values": "1,2", "seeds": 1, "samples": 32,
        "gap": "true", "gap_steps": 3, "lr_grid": "0.01",
    })
    _assert_nested(spans)
    assert m["toynet.hessian_fd_calls"] == 2 and m["toynet.train_calls"] == 4
    assert m["toynet.loss_grad_calls"] >= 2 * 2 * 209
    assert m["heterogeneity.js_calls"] > 0 and m["heterogeneity.union_grid_points"] == 0
    assert _zero(m, "quadlab") == {} and m["slq.lanczos_calls"] == 0


def test_toynet_check_flags_non_increasing_js0(tmp_path):
    for name in ("js0_vs_scale.csv", "gap.csv", "gap_medians.csv"):
        (tmp_path / name).write_text("x\n")
    rows = "".join(f"{c}.0,{v}\n" for c, v in zip(workloads.TOYNET_SCALES, (0.5, 0.6, 0.55, 0.7)))
    (tmp_path / "js0_medians.csv").write_text("scale,median_js0\n" + rows)
    problems = workloads.WORKLOADS["toynet-scaled"].check(str(tmp_path), {})
    assert problems and "c13" in problems[0]


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "quadlab-sweep", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
