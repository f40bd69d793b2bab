"""Spans around calls into driftcal, recorded from the benchmark process.

``Tracer.install`` replaces module-level functions in every loaded
``driftcal`` module with timing wrappers (every module that imported a
function by name holds its own reference, so each one is replaced), and
``uninstall`` puts the originals back. Spans stay in memory and are written
out when the run ends. Only spans under a ``Pass`` operation count; calls
the benchmark's own checks make are left out of the layer metrics.

The layer metrics are those of ``per_layer`` in BENCHMARK.json; a layer a
workload does not run reports 0.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

ATTENTION_OPS = (
    "forward", "backward", "mha_forward", "mha_backward", "layer_norm", "layer_norm_backward",
    "gelu_forward", "gelu_grad", "softmax", "softmax_backward",
)


# ---------------------------------------------------------------------------
# Counters taken from a traced call's arguments and result
# ---------------------------------------------------------------------------

def _n_layers(params) -> int:
    return sum(1 for name in params if name.endswith(".ln1.g"))


def _attention_flops(X_shape, params, backward: bool) -> int:
    """GEMM flops of one batched forward or backward, from the shapes.

    Per encoder layer the forward does 24*B*w*dm^2 (Q, K, V, output and the
    4x feed-forward projections) plus 4*B*w^2*dm (scores and the weighted
    sum); the backward does twice that. Input projection and head included.
    """
    B, w, d = X_shape
    dm = params["in_proj.w"].shape[1]
    per_layer = 24 * B * w * dm * dm + 4 * B * w * w * dm
    factor = 2 if backward else 1
    return 2 * B * w * d * dm + factor * _n_layers(params) * per_layer + 2 * B * dm


def _count_parse(c, args, kwargs, result):
    text = args[0]
    c["cmapss_io.input_bytes"] += len(text.encode("utf-8") if isinstance(text, str) else text)


def _count_write(c, args, kwargs, result):
    c["adaptation.csv_bytes"] += Path(result["csv"]).stat().st_size


def _count_windows(c, args, kwargs, result):
    n_train, n_val = len(result.train_raw), len(result.val_raw)
    c["labeling.train_windows"] += n_train
    c["labeling.val_windows"] += n_val
    if n_train:
        w, d = result.train_raw[0].features.shape
        # raw and standardized copy of every window, float64
        c["labeling.window_bytes_computed"] += 2 * (n_train + n_val) * w * d * 8


def _count_epochs(key):
    def count(c, args, kwargs, result):
        c[key] += len(result[1])
    return count


def _count_forward(c, args, kwargs, result):
    c["models.attention.gemm_flops_computed"] += _attention_flops(args[0].shape, args[1], False)


def _count_backward(c, args, kwargs, result):
    cache = args[2]
    c["models.attention.gemm_flops_computed"] += _attention_flops(cache["X"].shape, args[1], True)


def _count_predict(c, args, kwargs, result):
    c["models.predict.windows"] += args[1].shape[0]


def _count_simulate(c, args, kwargs, result):
    c["scheduler.cycles_replayed"] += sum(run.length for run in args[0].runs)


_NN = "driftcal.models.nn"
_ATT = "driftcal.models.attention"
TARGETS = [
    # (module, function, span name, counter)
    ("driftcal.synthetic", "synthetic_trajectories", "synthetic.generate", None),
    ("driftcal.cmapss_io", "parse_trajectories", "cmapss_io.parse", _count_parse),
    ("driftcal.adaptation", "rank_drift_sensors", "adaptation.rank", None),
    ("driftcal.adaptation", "adapt_dataset", "adaptation.adapt", None),
    ("driftcal.adaptation", "dataset_digest", "adaptation.digest", None),
    ("driftcal.adaptation", "write_adapted_dataset", "adaptation.write", _count_write),
    ("driftcal.adaptation", "read_adapted_dataset", "adaptation.read", None),
    ("driftcal.pipeline", "label_and_window", "labeling.window", _count_windows),
    ("driftcal.models.linear", "fit_linear", "models.linear.fit", None),
    ("driftcal.models.quantile", "fit_quantile", "models.quantile.fit",
     _count_epochs("models.quantile.epochs")),
    ("driftcal.models.quantile", "quantile_loss_and_grads", "models.quantile.step", None),
    (_ATT, "train_attention", "models.attention.fit", _count_epochs("models.attention.epochs")),
    (_ATT, "attention_loss_and_grads", "models.attention.step", None),
    (_ATT, "attention_forward_batch", "models.attention.forward", _count_forward),
    (_ATT, "attention_backward_batch", "models.attention.backward", _count_backward),
    (_ATT, "mha_forward", "models.attention.mha_forward", None),
    (_ATT, "mha_backward", "models.attention.mha_backward", None),
    *[(_NN, op, f"models.attention.{op}", None) for op in ATTENTION_OPS[4:]],
    ("driftcal.models.optim", "adamw_step", "models.optim.adamw_step", None),
    ("driftcal.pipeline", "evaluate_forecaster", "pipeline.evaluate", None),
    ("driftcal.pipeline", "forecast_scorer", "pipeline.score", None),
    ("driftcal.models.predict", "predict_ttd_batch", "models.predict.ttd", _count_predict),
    ("driftcal.models.predict", "predict_quantiles_batch", "models.predict.quantiles",
     _count_predict),
    ("driftcal.scheduler", "simulate", "scheduler.simulate", _count_simulate),
    ("driftcal.scheduler", "oracle_scorer", "scheduler.oracle_scorer", None),
]


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _in_op(self) -> bool:
        return bool(self._stack) and self.spans[self._stack[0]][0].startswith("op:")

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counted = self._in_op()
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None and counted:
                counter(self.counts, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "driftcal" or name.startswith("driftcal."))]
        for module_name, func_name, span_name, counter in TARGETS:
            original = getattr(sys.modules[module_name], func_name)
            traced = self._wrap(original, span_name, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self):
        """Per span name: total time, self time and calls, over the spans
        under a pass operation; plus total time keyed by (name, parent name)."""
        n = len(self.spans)
        child_time = [0.0] * n
        root = list(range(n))
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                root[i] = root[parent]
        total, self_time, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        by_parent = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if not self.spans[root[i]][0].startswith("op:"):
                continue
            total[name] += end - start
            self_time[name] += end - start - child_time[i]
            calls[name] += 1
            if parent >= 0:
                by_parent[(name, self.spans[parent][0])] += end - start
        return total, self_time, calls, by_parent

    def write(self, path: Path) -> None:
        spans = [[name, start - self.t0, end - self.t0, parent]
                 for name, start, end, parent in self.spans]
        path.write_text(json.dumps({"spans": spans}), encoding="utf-8")


def per_layer(tracer: Tracer, workload: str, p, hwm_mb: dict, setup: dict,
              overhead_s: float, units: dict[str, str]) -> dict:
    """Every metric named in ``units`` from one traced pass. ``hwm_mb``
    comes from the run's first pass, whose high-water marks start from set-up."""
    total, self_time, calls, by_parent = tracer.summary()
    m: dict[str, float] = defaultdict(float)
    m.update(tracer.counts)
    m["setup.import_s"] = setup["import_s"]
    m["setup.inputs_s"] = setup["inputs_s"]
    # generated in set-up, or by the adapt command inside the pipeline
    m["synthetic.generate_s"] = setup["synthetic_s"] + total["synthetic.generate"]
    for name in ("cmapss_io.parse", "adaptation.rank", "adaptation.adapt",
                 "adaptation.digest", "adaptation.write", "adaptation.read", "labeling.window",
                 "models.linear.fit", "models.quantile.fit", "models.attention.fit",
                 "models.optim.adamw_step", "pipeline.evaluate", "pipeline.score",
                 "scheduler.simulate", "scheduler.oracle_scorer"):
        m[f"{name}_s"] = total[name]
    m["adaptation.read_calls"] = calls["adaptation.read"]
    m["labeling.window_calls"] = calls["labeling.window"]
    for model in ("quantile", "attention"):
        steps = calls[f"models.{model}.step"]
        fit = f"models.{model}.fit"
        step_s = by_parent[(f"models.{model}.step", fit)] + by_parent[("models.optim.adamw_step", fit)]
        m[f"models.{model}.steps"] = steps
        m[f"models.{model}.step_ms"] = 1000.0 * step_s / steps if steps else 0.0
    for op in ATTENTION_OPS:
        m[f"models.attention.{op}_s"] = total[f"models.attention.{op}"]
        m[f"models.attention.{op}_calls"] = calls[f"models.attention.{op}"]
    m["models.attention.backward_self_s"] = self_time["models.attention.backward"]
    predict_s = total["models.predict.ttd"] + total["models.predict.quantiles"]
    m["models.predict.windows_per_s"] = m["models.predict.windows"] / predict_s if predict_s else 0.0
    for name in units:
        if name.startswith(("scheduler.n_cal.", "scheduler.n_vio.")):
            m[name] = p.counts.get(name.removeprefix("scheduler."), 0)
        elif name.startswith("mem.hwm_mb."):
            m[name] = hwm_mb.get(name.removeprefix("mem.hwm_mb."), 0.0)
        elif name.startswith("cli.") and workload == "cli":  # its stages are the commands
            m[name] = p.stage_s.get(name.removeprefix("cli.").removesuffix("_s"), 0.0)
    m["trace.spans"] = len(tracer.spans)
    m["trace.overhead_s"] = overhead_s
    return {name: int(m[name]) if unit in ("count", "bytes", "flop") else m[name]
            for name, unit in units.items()}
