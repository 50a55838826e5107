"""In-process span tracer for the blockspectra layers.

``traced(tracer)`` wraps the public functions of ``operators``, ``slq``,
``heterogeneity``, ``quadlab``, ``toynet`` and ``svgplot`` from outside the
package: every namespace that bound a wrapped function (the module itself,
the package, and modules that imported the name) sees the wrapper while the
context is open and the original afterwards.  Each call records one span
(name, start, end, parent) in memory; counts are taken from the arguments and
return values of the wrapped calls, never from private state.
``layer_metrics`` turns one traced CLI run into the per-layer metrics.

Spans use a single stack, so tracing is meant for ``--jobs 1`` runs.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from blockspectra import heterogeneity, operators, quadlab, slq, svgplot, toynet

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("cli.main_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("cli.output_files", "count", "lower"),
    ("cli.trace_overhead_frac", "frac", "lower"),
    ("operators.apply_calls", "count", "lower"),
    ("operators.apply_s", "s", "lower"),
    ("operators.apply_us", "us", "lower"),
    ("operators.load_matrix_csv_s", "s", "lower"),
    ("operators.exact_eigenvalues_s", "s", "lower"),
    ("slq.lanczos_calls", "count", "lower"),
    ("slq.lanczos_steps", "count", "lower"),
    ("slq.lanczos_breakdowns", "count", "lower"),
    ("slq.lanczos_s", "s", "lower"),
    ("slq.lanczos_step_us", "us", "lower"),
    ("slq.lanczos_overhead", "ratio", "lower"),
    ("slq.ritz_s", "s", "lower"),
    ("slq.blockwise_densities_s", "s", "lower"),
    ("slq.smoothing_s", "s", "lower"),
    ("slq.smoothed_densities_s", "s", "lower"),
    ("heterogeneity.js_calls", "count", "lower"),
    ("heterogeneity.js_s", "s", "lower"),
    ("heterogeneity.js_us", "us", "lower"),
    ("heterogeneity.union_grid_points", "count", "lower"),
    ("heterogeneity.normalize_s", "s", "lower"),
    ("heterogeneity.pairwise_heatmap_s", "s", "lower"),
    ("quadlab.grid_search_calls", "count", "lower"),
    ("quadlab.grid_search_s", "s", "lower"),
    ("quadlab.rows", "count", "lower"),
    ("quadlab.row_iters_executed", "count", "lower"),
    ("quadlab.row_iters_useful", "count", "lower"),
    ("quadlab.useful_ratio", "ratio", "higher"),
    ("quadlab.row_iter_ns", "ns", "lower"),
    ("quadlab.ratio_buffer_mb", "MB", "lower"),
    ("quadlab.diverged_rows", "count", "lower"),
    ("quadlab.single_runs", "count", "lower"),
    ("quadlab.single_run_s", "s", "lower"),
    ("quadlab.single_iter_us", "us", "lower"),
    ("quadlab.theory_report_s", "s", "lower"),
    ("quadlab.verify_bounds_s", "s", "lower"),
    ("toynet.loss_grad_calls", "count", "lower"),
    ("toynet.loss_grad_us", "us", "lower"),
    ("toynet.train_calls", "count", "lower"),
    ("toynet.train_s", "s", "lower"),
    ("toynet.train_step_us", "us", "lower"),
    ("toynet.hessian_fd_calls", "count", "lower"),
    ("toynet.hessian_fd_s", "s", "lower"),
    ("toynet.hessian_fd_col_us", "us", "lower"),
    ("toynet.fd_asymmetry_max", "abs", "lower"),
    ("toynet.snapshot_js0_s", "s", "lower"),
    ("svgplot.svg_s", "s", "lower"),
)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = math.nan
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Holds the spans of one traced run in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = Span(name, time.perf_counter(), self._open[-1] if self._open else None)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, describe=None):
        """``fn`` recording a span per call; ``describe(arguments, result)`` fills its info."""
        signature = inspect.signature(fn) if describe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if describe:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record.info = describe(bound.arguments, result)
            return result

        return wrapper


# ---------------------------------------------------------------------------
# What each wrapped call reports
# ---------------------------------------------------------------------------

def _lanczos_info(arguments, fact):
    return {"requested": min(arguments["m"], arguments["op"].dim), "steps": fact.steps}


def _js_info(arguments, _):
    # Recomputes the size of the union grid js_distance builds when the two
    # densities sit on different grids (0 on the shared-grid path).
    p, q = arguments["p"], arguments["q"]
    if p.grid.shape == q.grid.shape and (p.grid == q.grid).all():
        return {"union_points": 0}
    lo = min(p.grid[0], q.grid[0])
    hi = max(p.grid[-1], q.grid[-1])
    dt = min((p.grid[1:] - p.grid[:-1]).min(), (q.grid[1:] - q.grid[:-1]).min())
    n = int(math.ceil((hi - lo) / dt)) + 1
    return {"union_points": min(max(n, 2), heterogeneity.MAX_UNION_POINTS)}


def _grid_info(arguments, result):
    rows = len(result.trajectories)
    return {
        "rows": rows,
        "executed": rows * (max(t.iterations for t in result.trajectories) + 1),
        "useful": result.best.iterations,
        "buffer_bytes": rows * (int(arguments["budget"]) + 1) * 8,
        "diverged": sum(t.status == "diverged" for t in result.trajectories),
    }


def _single_info(_, trajectory):
    return {"iterations": trajectory.iterations + 1}


def _train_info(_, result):
    return {"steps": int(result.losses.size)}


def _fd_info(_, snapshot):
    return {"columns": snapshot.matrix.shape[0], "asymmetry": snapshot.asymmetry}


def _targets():
    """(owner, attribute, span name, describe) of every wrapped callable."""
    targets = [
        (operators, "load_matrix_csv", "operators.load_matrix_csv", None),
        (operators, "exact_eigenvalues", "operators.exact_eigenvalues", None),
        (slq, "lanczos", "slq.lanczos", _lanczos_info),
        (slq, "ritz_quadrature", "slq.ritz_quadrature", None),
        (slq, "blockwise_densities", "slq.blockwise_densities", None),
        (slq, "smoothed_densities", "slq.smoothed_densities", None),
        (heterogeneity, "js_distance", "heterogeneity.js_distance", _js_info),
        (heterogeneity, "normalize_spectrum", "heterogeneity.normalize_spectrum", None),
        (heterogeneity, "pairwise_heatmap", "heterogeneity.pairwise_heatmap", None),
        (quadlab, "grid_search", "quadlab.grid_search", _grid_info),
        (quadlab, "gd_run", "quadlab.single_run", _single_info),
        (quadlab, "adam_fixed_run", "quadlab.single_run", _single_info),
        (quadlab, "adam_ema_run", "quadlab.single_run", _single_info),
        (quadlab, "theory_report", "quadlab.theory_report", None),
        (quadlab, "verify_bounds", "quadlab.verify_bounds", None),
        (toynet, "train", "toynet.train", _train_info),
        (toynet, "hessian_fd", "toynet.hessian_fd", _fd_info),
        (toynet, "snapshot_js0", "toynet.snapshot_js0", None),
        (toynet.ToyNet, "loss_grad", "toynet.loss_grad", None),
        (toynet.ScaledMLP, "loss_grad", "toynet.loss_grad", None),
        (svgplot, "line_plot_svg", "svgplot.svg", None),
        (svgplot, "heatmap_svg", "svgplot.svg", None),
        (svgplot, "density_overlay_svg", "svgplot.svg", None),
    ]
    for value in vars(operators).values():
        if (
            isinstance(value, type)
            and issubclass(value, operators.SymmetricOperator)
            and value is not operators.SymmetricOperator
            and "apply" in vars(value)
        ):
            targets.append((value, "apply", "operators.apply", None))
    return targets


def package_namespaces():
    """The package and every loaded blockspectra module."""
    return [m for name, m in sorted(sys.modules.items()) if name == "blockspectra" or name.startswith("blockspectra.")]


@contextmanager
def traced(tracer: Tracer):
    """Route every wrapped callable through ``tracer``; restore all bindings on exit."""
    saved = []
    try:
        namespaces = package_namespaces()
        for owner, attr, name, describe in _targets():
            original = vars(owner)[attr]
            wrapper = tracer.wrap(name, original, describe)
            places = [owner] if isinstance(owner, type) else namespaces
            for place in places:
                keys = [key for key, value in vars(place).items() if value is original]
                for key in keys:
                    saved.append((place, key, original))
                    setattr(place, key, wrapper)
        yield tracer
    finally:
        for place, key, original in reversed(saved):
            setattr(place, key, original)


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced run
# ---------------------------------------------------------------------------

class _Spans:
    def __init__(self, spans):
        self.spans = spans
        # A parent is always recorded before its children.
        self.enclosing = []
        for s in spans:
            outer = frozenset() if s.parent is None else self.enclosing[s.parent] | {spans[s.parent].name}
            self.enclosing.append(outer)

    def named(self, name, within=None):
        """Spans called ``name`` not nested in another such span, optionally under ``within``."""
        return [
            s
            for s, outer in zip(self.spans, self.enclosing)
            if s.name == name and name not in outer and (within is None or within in outer)
        ]


def _seconds(spans) -> float:
    return sum(s.seconds for s in spans)


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


def layer_metrics(spans, output_bytes: int, output_files: int) -> dict:
    """Per-layer metrics of one traced run whose root span is ``cli.main``.

    ``cli.trace_overhead_frac`` needs an untraced run and is filled in by the
    caller.  A layer the run never entered reports zeros.
    """
    view = _Spans(spans)
    root = spans[0]
    children = [s for s in spans if s.parent == 0]
    m = {
        "cli.main_s": root.seconds,
        "cli.self_s": root.seconds - _seconds(children),
        "cli.output_bytes": output_bytes,
        "cli.output_files": output_files,
    }

    apply = view.named("operators.apply")
    m["operators.apply_calls"] = len(apply)
    m["operators.apply_s"] = _seconds(apply)
    m["operators.apply_us"] = _per(m["operators.apply_s"], len(apply), 1e6)
    m["operators.load_matrix_csv_s"] = _seconds(view.named("operators.load_matrix_csv"))
    m["operators.exact_eigenvalues_s"] = _seconds(view.named("operators.exact_eigenvalues"))

    lanczos = view.named("slq.lanczos")
    steps = sum(s.info["steps"] for s in lanczos)
    lanczos_s = _seconds(lanczos)
    blockwise = view.named("slq.blockwise_densities")
    m["slq.lanczos_calls"] = len(lanczos)
    m["slq.lanczos_steps"] = steps
    m["slq.lanczos_breakdowns"] = sum(s.info["steps"] < s.info["requested"] for s in lanczos)
    m["slq.lanczos_s"] = lanczos_s
    m["slq.lanczos_step_us"] = _per(lanczos_s, steps, 1e6)
    m["slq.lanczos_overhead"] = _per(lanczos_s, _seconds(view.named("operators.apply", within="slq.lanczos")))
    m["slq.ritz_s"] = _seconds(view.named("slq.ritz_quadrature"))
    m["slq.blockwise_densities_s"] = _seconds(blockwise)
    m["slq.smoothing_s"] = (
        _seconds(blockwise)
        - _seconds(view.named("slq.lanczos", within="slq.blockwise_densities"))
        - _seconds(view.named("slq.ritz_quadrature", within="slq.blockwise_densities"))
    )
    m["slq.smoothed_densities_s"] = _seconds(view.named("slq.smoothed_densities"))

    js = view.named("heterogeneity.js_distance")
    m["heterogeneity.js_calls"] = len(js)
    m["heterogeneity.js_s"] = _seconds(js)
    m["heterogeneity.js_us"] = _per(m["heterogeneity.js_s"], len(js), 1e6)
    m["heterogeneity.union_grid_points"] = sum(s.info["union_points"] for s in js)
    m["heterogeneity.normalize_s"] = _seconds(view.named("heterogeneity.normalize_spectrum"))
    m["heterogeneity.pairwise_heatmap_s"] = _seconds(view.named("heterogeneity.pairwise_heatmap"))

    grids = view.named("quadlab.grid_search")
    executed = sum(s.info["executed"] for s in grids)
    useful = sum(s.info["useful"] for s in grids)
    m["quadlab.grid_search_calls"] = len(grids)
    m["quadlab.grid_search_s"] = _seconds(grids)
    m["quadlab.rows"] = sum(s.info["rows"] for s in grids)
    m["quadlab.row_iters_executed"] = executed
    m["quadlab.row_iters_useful"] = useful
    m["quadlab.useful_ratio"] = _per(useful, executed)
    m["quadlab.row_iter_ns"] = _per(m["quadlab.grid_search_s"], executed, 1e9)
    m["quadlab.ratio_buffer_mb"] = max((s.info["buffer_bytes"] for s in grids), default=0) / 1e6
    m["quadlab.diverged_rows"] = sum(s.info["diverged"] for s in grids)
    singles = view.named("quadlab.single_run")
    m["quadlab.single_runs"] = len(singles)
    m["quadlab.single_run_s"] = _seconds(singles)
    m["quadlab.single_iter_us"] = _per(m["quadlab.single_run_s"], sum(s.info["iterations"] for s in singles), 1e6)
    m["quadlab.theory_report_s"] = _seconds(view.named("quadlab.theory_report"))
    m["quadlab.verify_bounds_s"] = _seconds(view.named("quadlab.verify_bounds"))

    loss_grad = view.named("toynet.loss_grad")
    trains = view.named("toynet.train")
    fds = view.named("toynet.hessian_fd")
    m["toynet.loss_grad_calls"] = len(loss_grad)
    m["toynet.loss_grad_us"] = _per(_seconds(loss_grad), len(loss_grad), 1e6)
    m["toynet.train_calls"] = len(trains)
    m["toynet.train_s"] = _seconds(trains)
    m["toynet.train_step_us"] = _per(m["toynet.train_s"], sum(s.info["steps"] for s in trains), 1e6)
    m["toynet.hessian_fd_calls"] = len(fds)
    m["toynet.hessian_fd_s"] = _seconds(fds)
    m["toynet.hessian_fd_col_us"] = _per(m["toynet.hessian_fd_s"], sum(s.info["columns"] for s in fds), 1e6)
    m["toynet.fd_asymmetry_max"] = max((s.info["asymmetry"] for s in fds), default=0.0)
    m["toynet.snapshot_js0_s"] = _seconds(view.named("toynet.snapshot_js0"))

    m["svgplot.svg_s"] = _seconds(view.named("svgplot.svg"))
    return m
