"""Out-of-band tracing of boxsearch layers by wrapping module attributes.

The source is not edited: ``Tracer.install`` replaces public functions (and a
few methods) on the ``boxsearch`` modules with wrappers that record a span per
call.  Each span has a parent (the innermost wrapped call still running) and
belongs to the op the benchmark was running.  A span's self time is its
duration minus the durations of its child spans.  Spans and counters stay in
memory until ``write_spans`` is called at the end of the run.
"""

from __future__ import annotations

import gzip
import statistics
from time import perf_counter_ns

from boxsearch import bounds, cli, matrix, sim

# (owner, attribute, span name); the owner's attribute is what callers look
# up at call time, so replacing it there catches every call into the layer.
WRAPPED = [
    (cli, "main", "cli.main"),
    (sim, "estimate_speedup", "sim.estimate_speedup"),
    (sim, "run_trial", "sim.run_trial"),
    (sim, "trial_seed", "sim.trial_seed"),
    (sim, "searcher_seed", "strategy.searcher_seed"),
    (sim.Perturbation, "map_index", "sim.map_index"),
    (matrix, "theta", "matrix.theta"),
    (matrix, "theta_window", "matrix.theta_window"),
    (matrix.SurvivalMatrix, "value", "matrix.survival_value"),
    (matrix, "nested_survival", "matrix.nested_survival"),
    (matrix.SurvivalMatrix, "column_sum_residual", "matrix.column_sum_residual"),
    (bounds, "waterfill_grid_oracle", "bounds.waterfill_grid_oracle"),
    (bounds, "claim1_tail_sum", "bounds.claim1_tail_sum"),
    (bounds, "lowerbound_value", "bounds.lowerbound_value"),
    (bounds, "gamma_ratio_product", "bounds.gamma_ratio_product"),
]


class _Stat:
    __slots__ = ("calls", "self_ns", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.durations: list[int] = []


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self) -> None:
        self.op = -1  # id of the op being run; set by the benchmark loop
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.stats = {name: _Stat() for _, _, name in WRAPPED}
        self.fleet_steps = 0
        self.non_discovered = 0
        self.truncation_t_sum = 0
        self.tail_bound_max = 0.0
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name in WRAPPED:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _wrap(self, fn, name: str):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        observe = {"sim.run_trial": self._on_trial, "matrix.theta": self._on_theta,
                   "matrix.theta_window": self._on_theta}.get(name)

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)  # reserve the id; filled in when the call ends
            frame = [span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                stat.calls += 1
                stat.self_ns += dur - frame[1]
                stat.durations.append(dur)
                spans[span_id] = (self.op, span_id, parent, name, start, end)
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_trial(self, outcome) -> None:
        if outcome.time is None:
            self.non_discovered += 1
        else:
            self.fleet_steps += outcome.time

    def _on_theta(self, est) -> None:
        self.truncation_t_sum += est.truncation_t
        self.tail_bound_max = max(self.tail_bound_max, est.tail_bound)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        s = self.stats
        out: dict[str, tuple[float, str]] = {}

        def calls(name: str) -> None:
            out[f"{name}.calls"] = (s[name].calls, "count")

        def self_s(name: str) -> None:
            out[f"{name}.self_s"] = (s[name].self_ns / 1e9, "s")

        trial = s["sim.run_trial"]
        calls("sim.run_trial")
        self_s("sim.run_trial")
        for q, label in ((0.5, "p50"), (0.9, "p90")):
            out[f"sim.run_trial.{label}_us"] = (_quantile(trial.durations, q) / 1e3, "us")
        runs = s["strategy.searcher_seed"].calls
        out["sim.us_per_searcher_run"] = (trial.self_ns / 1e3 / runs if runs else 0.0, "us")
        out["sim.fleet_steps"] = (self.fleet_steps, "count")
        out["sim.non_discovered"] = (self.non_discovered, "count")
        for name in ("strategy.searcher_seed", "sim.trial_seed", "sim.map_index"):
            calls(name)
            self_s(name)
        self_s("sim.estimate_speedup")
        self_s("cli.main")
        for name in ("matrix.theta", "matrix.theta_window"):
            calls(name)
            self_s(name)
        out["matrix.truncation_t.sum"] = (self.truncation_t_sum, "count")
        out["matrix.tail_bound.max"] = (self.tail_bound_max, "ratio")
        calls("matrix.survival_value")
        self_s("matrix.survival_value")
        self_s("matrix.nested_survival")
        self_s("matrix.column_sum_residual")
        calls("bounds.waterfill_grid_oracle")
        for name in ("bounds.waterfill_grid_oracle", "bounds.claim1_tail_sum",
                     "bounds.lowerbound_value", "bounds.gamma_ratio_product"):
            self_s(name)
        return out

    def write_spans(self, path: str) -> None:
        """Gzipped CSV of every span: op, span, parent, name, start and duration
        in ns."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("op,span,parent,name,start_ns,dur_ns\n")
            t0 = self.spans[0][4] if self.spans else 0
            for op, span, parent, name, start, end in self.spans:
                fh.write(f"{op},{span},{parent},{name},{start - t0},{end - start}\n")


def _quantile(values: list[int], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=10, method="inclusive")[round(q * 10) - 1]
