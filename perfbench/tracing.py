"""Timing wrappers installed on the names each gripwatch layer looks up.

Nothing under ``src/`` is edited: the wrappers replace module attributes at
run time, so a call that a layer makes through one of those names opens a
span. Spans nest; a span's self time is its duration minus the time its
child spans cover. Only per-name aggregates are kept in memory (plus the
individual durations of the spans whose percentiles are reported).

A name that a later refactor removes is skipped, and the layer metrics that
depended only on it are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import time

from common import median, percentile

# (module, attribute path, span key). Each wrapper sits on the name the
# caller looks up, so it times exactly the calls that layer makes. Besides
# these, every ``predict_*`` name in gripwatch.detect is a models.classify
# span, and cli's ``json``, ``np`` and ``sys`` names are proxied.
ENTRY_POINTS = [
    ("gripwatch.cli", "_cmd_detect", "cli.detect"),
    ("gripwatch.cli", "TaxelFrame", "cli.parse"),
    ("gripwatch.cli", "MultiFingerDetector.process", "detect.process"),
    ("gripwatch.detect", "aggregate_tip_force", "tactile.aggregate"),
    ("gripwatch.detect", "aggregate_series", "tactile.aggregate"),
    ("gripwatch.detect", "StreamingExtractor.push", "features.extract"),
    ("gripwatch.detect", "batch_features", "features.extract"),
    ("gripwatch.evaluate", "dataset_feature_matrix", "evaluate.features"),
    ("gripwatch.evaluate", "aggregate_series", "tactile.aggregate"),
    ("gripwatch.evaluate", "batch_features", "features.extract"),
    ("gripwatch.evaluate", "detail_energies", "features.extract"),
    ("gripwatch.evaluate", "train", "models.train"),
    ("gripwatch.evaluate", "predict_label_batch", "models.classify"),
    ("gripwatch.models", "logreg_loss_grad", "models.loss_grad"),
]
# Spans whose individual durations are kept for percentiles.
KEEP_DURATIONS = {"detect.process", "models.train"}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # key -> [calls, total_s, self_s]
        self.durations: dict[str, list] = {k: [] for k in KEEP_DURATIONS}
        self.counters: dict[str, int] = {}
        self.installed: set[str] = set()
        self._stack: list[list] = []  # child time of each open span

    def wrap(self, key, fn):
        stack = self._stack
        agg = self.stats.setdefault(key, [0, 0.0, 0.0])
        durations = self.durations.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - child[0]
                if durations is not None:
                    durations.append(elapsed)

        return traced

    def call(self, key, fn, *args, **kwargs):
        """Run ``fn`` inside a span opened by the benchmark itself."""
        return self.wrap(key, fn)(*args, **kwargs)

    def to_dict(self):
        return {
            "stats": self.stats,
            "durations": self.durations,
            "counters": self.counters,
            "installed": sorted(self.installed),
        }


def install(tracer: Tracer) -> None:
    """Wrap every entry point that exists; record which keys got a wrapper."""
    import gripwatch.cli as cli
    import gripwatch.detect as detect

    for module_name, path, key in ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        *parents, name = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent, None)
        fn = getattr(owner, name, None) if owner is not None else None
        if fn is None:
            continue
        setattr(owner, name, tracer.wrap(key, fn))
        tracer.installed.add(key)
    for name in dir(detect):
        if name.startswith("predict_"):
            setattr(detect, name, tracer.wrap("models.classify", getattr(detect, name)))
            tracer.installed.add("models.classify")
    if hasattr(cli, "json"):
        cli.json = _Proxy(
            cli.json,
            loads=tracer.wrap("cli.parse", _counted(tracer, "cli.lines_in", cli.json.loads)),
            dumps=tracer.wrap("cli.emit", cli.json.dumps),
        )
        tracer.installed.update({"cli.parse", "cli.emit"})
    if hasattr(cli, "np"):
        cli.np = _Proxy(cli.np, array=tracer.wrap("cli.parse", cli.np.array))
    if hasattr(cli, "sys"):
        out = cli.sys.stdout
        write = tracer.wrap("cli.emit", out.write)

        def counted_write(text):
            tracer.counters["cli.bytes_out"] = tracer.counters.get("cli.bytes_out", 0) + len(text)
            return write(text)

        cli.sys = _Proxy(cli.sys, stdout=_Proxy(out, write=counted_write))


def _counted(tracer, counter, fn):
    def counting(*args, **kwargs):
        tracer.counters[counter] = tracer.counters.get(counter, 0) + 1
        return fn(*args, **kwargs)

    return counting


class _Proxy:
    """Stands in for a module or object, overriding a few attributes."""

    def __init__(self, target, **overrides):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


def layer_metrics(trace: dict, extra: dict) -> tuple[dict, list]:
    """Per-layer metrics from a tracer dump; returns (metrics, absent names).

    ``extra`` supplies what the tracer cannot see: cli.lines_rejected,
    detect.detections, simulate.generate_s, bench.gen_lag_p99_ms and
    trace.overhead_frac.
    """
    stats = trace["stats"]
    installed = set(trace["installed"])
    durations = trace["durations"]
    counters = trace["counters"]

    def total(key):
        return stats.get(key, [0, 0.0, 0.0])[1]

    def self_time(key):
        return stats.get(key, [0, 0.0, 0.0])[2]

    def calls(key):
        return stats.get(key, [0, 0.0, 0.0])[0]

    process_us = [d * 1e6 for d in durations.get("detect.process", [])]
    fits = durations.get("models.train", [])
    frames = calls("detect.process")
    values = {
        "cli.parse_s": (self_time("cli.parse"), "s", "cli.parse"),
        "cli.emit_s": (self_time("cli.emit"), "s", "cli.emit"),
        "cli.self_s": (self_time("cli.detect"), "s", "cli.detect"),
        "cli.bytes_out": (counters.get("cli.bytes_out", 0), "B", "cli.emit"),
        "cli.lines_in": (counters.get("cli.lines_in", 0), "count", "cli.parse"),
        "cli.lines_rejected": (extra.get("cli.lines_rejected", 0), "count", None),
        "tactile.aggregate_s": (self_time("tactile.aggregate"), "s", "tactile.aggregate"),
        "tactile.aggregate_calls": (calls("tactile.aggregate"), "count", "tactile.aggregate"),
        "features.extract_s": (self_time("features.extract"), "s", "features.extract"),
        "features.extract_calls": (calls("features.extract"), "count", "features.extract"),
        "models.classify_s": (self_time("models.classify"), "s", "models.classify"),
        "models.classify_calls": (calls("models.classify"), "count", "models.classify"),
        "detect.process_self_s": (self_time("detect.process"), "s", "detect.process"),
        "detect.process_us_p50": (percentile(process_us, 50), "us", "detect.process"),
        "detect.process_us_p99": (percentile(process_us, 99), "us", "detect.process"),
        "detect.detections_per_frame": (
            extra.get("detect.detections", 0) / frames if frames else 0.0,
            "ratio",
            "detect.process",
        ),
        "models.train_s": (total("models.train"), "s", "models.train"),
        "models.fits": (len(fits), "count", "models.train"),
        "models.fit_s_p50": (median(fits) if fits else 0.0, "s", "models.train"),
        "models.loss_grad_calls": (calls("models.loss_grad"), "count", "models.loss_grad"),
        "models.loss_grad_s": (self_time("models.loss_grad"), "s", "models.loss_grad"),
        "evaluate.features_s": (total("evaluate.features"), "s", "evaluate.features"),
    }
    metrics, absent = {}, []
    for name, (value, unit, needs) in values.items():
        if needs is not None and needs not in installed:
            absent.append(name)
            continue
        metrics[name] = {"value": value, "unit": unit}
    for name in ("evaluate.heldout_s", "evaluate.sweep_s", "evaluate.ablation_s", "evaluate.baseline_s"):
        metrics[name] = {"value": total(name[:-2]), "unit": "s"}
    metrics["evaluate.self_s"] = {
        "value": sum(self_time(k) for k in stats if k.startswith("evaluate.")),
        "unit": "s",
    }
    for name, unit in (
        ("simulate.generate_s", "s"),
        ("bench.gen_lag_p99_ms", "ms"),
        ("trace.overhead_frac", "ratio"),
    ):
        metrics[name] = {"value": extra.get(name, 0.0), "unit": unit}
    return metrics, absent
