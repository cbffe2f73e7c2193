"""Spans recorded from outside the program.

The traced run patches harforge's public functions under the names their
callers import them as (``harforge.cli.*``, ``harforge.model.training.*``,
``harforge.evaluation.predict``), so no file under ``src/`` changes. Each
call becomes a span with a name, start, end, parent and a few counts taken
from its arguments or result. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from .spec import WIDTHS
from .stats import per_call_summary, self_time

#: training batch size; eval-mode forward timings are scaled to this many windows
BATCH = 256


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)
    #: time the wrapper spent on its own bookkeeping around the traced call
    overhead: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans of one thread in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), name, parent, self.clock(), attrs=dict(attrs))
        self.spans.append(span)
        self._open.append(span.id)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._open.pop()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def attr_sum(self, name: str, key: str) -> int:
        return sum(s.attrs[key] for s in self.named(name))

    def self_total(self, name: str) -> float:
        """Summed self time of every span called ``name``."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        return sum(self_time(s.start, s.end, children.get(s.id, [])) for s in self.named(name))

    def root(self, span: Span) -> Span:
        while span.parent is not None:
            span = self.spans[span.parent]
        return span

    def overhead(self, roots: tuple[str, ...]) -> float:
        """Summed wrapper bookkeeping of every span under a root span named in ``roots``."""
        return sum(s.overhead for s in self.spans if self.root(s).name in roots)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.__dict__ for s in self.spans], fh)


@dataclass(frozen=True)
class Target:
    """One patched function: where it is looked up and how its span is named."""

    module: str
    attr: str
    name: str | Callable[[tuple, dict], str]
    measure: Callable[[tuple, dict, object], dict] | None = None


def _arg(args: tuple, kwargs: dict, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _forward_name(args, kwargs) -> str:
    kind = "forward" if kwargs.get("train_mode", False) else "eval_forward"
    return f"model.network.{kind}.w{args[0].shape[1]}"


def _count(key: str):
    return lambda a, k, result: {key: len(result)}


def _batch(index: int, key: str):
    return lambda a, k, result: {"batch": _arg(a, k, index, key).shape[0]}


TARGETS: tuple[Target, ...] = (
    Target("harforge.cli", "run_stage", lambda a, k: f"cli.stage.{a[0]}"),
    Target("harforge.cli", "generate_cohort", "synth.generate_cohort"),
    Target("harforge.cli", "write_cohort", "synth.write_cohort"),
    Target("harforge.cli", "mask_report", "synth.mask_report"),
    Target("harforge.cli", "parse_hr_stream", "ingest.parse_hr_stream", _count("rows")),
    Target("harforge.cli", "parse_activity_blocks", "ingest.parse_other"),
    Target("harforge.cli", "parse_sleep_segments", "ingest.parse_other"),
    Target("harforge.cli", "parse_schedule", "ingest.parse_other"),
    Target("harforge.cli", "serialize_hr_stream", "ingest.serialize"),
    Target("harforge.cli", "serialize_activity_blocks", "ingest.serialize"),
    Target("harforge.cli", "serialize_sleep_segments", "ingest.serialize"),
    Target("harforge.cli", "serialize_schedule", "ingest.serialize"),
    Target(
        "harforge.cli",
        "align_cohort",
        "align.align_cohort",
        lambda a, k, r: {"minutes": 1440 * len(r.days)},
    ),
    Target(
        "harforge.cli",
        "write_aligned_csv",
        "align.write_csv",
        lambda a, k, r: {"bytes": len(r.encode("utf-8"))},
    ),
    Target("harforge.cli", "read_aligned_csv", "align.read_aligned_csv"),
    Target(
        "harforge.cli",
        "impute_cohort",
        "impute.impute_cohort",
        lambda a, k, r: {"minutes": 1440 * len(r[0])},
    ),
    Target(
        "harforge.cli",
        "build_windows",
        lambda a, k: f"dataset.build_windows.w{_arg(a, k, 2, 'width')}",
        _count("windows"),
    ),
    Target(
        "harforge.cli",
        "stratified_sample",
        lambda a, k: f"dataset.stratified_sample.w{_arg(a, k, 1, 'width')}",
        _count("windows"),
    ),
    Target("harforge.cli", "split_windows", "dataset.split_windows"),
    Target(
        "harforge.cli",
        "write_window_store",
        "dataset.write_window_store",
        lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    ),
    Target("harforge.cli", "load_window_store", "dataset.load_window_store"),
    Target("harforge.cli", "activity_metrics", "viz.activity_metrics"),
    Target("harforge.cli", "render_radar", "viz.render_radar"),
    Target(
        "harforge.cli",
        "train",
        lambda a, k: f"model.training.train.w{_arg(a, k, 1, 'train_data')[0].shape[1]}",
        lambda a, k, r: {"epochs": len(r[1])},
    ),
    Target("harforge.cli", "save_checkpoint", "model.training.checkpoint_io"),
    Target("harforge.cli", "load_checkpoint", "model.training.checkpoint_io"),
    Target("harforge.cli", "evaluate_run", "evaluation.evaluate_run"),
    Target(
        "harforge.model.training",
        "loss_and_grads",
        lambda a, k: f"model.training.loss_and_grads.w{_arg(a, k, 1, 'x').shape[1]}",
        _batch(1, "x"),
    ),
    Target("harforge.model.training", "model_forward", _forward_name, _batch(0, "x")),
    Target(
        "harforge.model.training",
        "model_backward",
        lambda a, k: f"model.network.backward.w{_arg(a, k, 2, 'cache')['width']}",
        _batch(0, "dlogits1"),
    ),
    Target(
        "harforge.model.training",
        "hierarchical_focal_loss_grads",
        "model.losses.focal_grads",
        _batch(0, "logits1"),
    ),
    Target("harforge.model.training", "adamw_step", "model.optim.adamw_step"),
    Target(
        "harforge.evaluation",
        "predict",
        "evaluation.predict",
        lambda a, k, r: {"windows": len(r.pred1)},
    ),
)


def _wrap(tracer: Tracer, func, target: Target):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        entered = tracer.clock()
        name = target.name(args, kwargs) if callable(target.name) else target.name
        with tracer.span(name) as span:
            called = tracer.clock()
            result = func(*args, **kwargs)
            returned = tracer.clock()
        if target.measure is not None:
            span.attrs.update(target.measure(args, kwargs, result))
        span.overhead = (called - entered) + (tracer.clock() - returned)
        return result

    return wrapper


@contextmanager
def traced(tracer: Tracer, targets: tuple[Target, ...] = TARGETS):
    """Patch every target to record spans into ``tracer``; restore on exit."""
    saved = []
    try:
        for target in targets:
            module = importlib.import_module(target.module)
            original = getattr(module, target.attr)
            saved.append((module, target.attr, original))
            setattr(module, target.attr, _wrap(tracer, original, target))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _per_call(metric: str, values: list[float], out: dict) -> None:
    summary = per_call_summary(values)
    for key in ("p50", "tail", "n"):
        out[f"{metric}.{key}"] = summary[key]


def _ms(tracer: Tracer, span_name: str) -> list[float]:
    return [1000.0 * s.duration for s in tracer.named(span_name)]


def _full_batch_ms(tracer: Tracer, span_name: str) -> list[float]:
    """Per-call ms of the calls on the largest batch seen (a full one of
    BATCH windows whenever the training set has that many)."""
    spans = tracer.named(span_name)
    largest = max((s.attrs["batch"] for s in spans), default=0)
    return [1000.0 * s.duration for s in spans if s.attrs["batch"] == largest]


def _ms_per_batch(tracer: Tracer, span_name: str) -> list[float]:
    """Per-call ms scaled to BATCH windows, for calls of any size."""
    return [1000.0 * s.duration * BATCH / s.attrs["batch"] for s in tracer.named(span_name)]


def layer_metrics(tracer: Tracer, stages: tuple[str, ...]) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced pass over ``stages``."""
    t = tracer
    m: dict[str, float] = {}
    m["synth.generate_cohort.s"] = t.total("synth.generate_cohort")
    m["synth.write_cohort.s"] = t.total("synth.write_cohort")
    m["synth.mask_report.s"] = t.total("synth.mask_report")

    m["ingest.parse_hr_stream.s"] = t.total("ingest.parse_hr_stream")
    m["ingest.parse_hr_stream.rows"] = t.attr_sum("ingest.parse_hr_stream", "rows")
    m["ingest.parse_hr_stream.rows_per_s"] = (
        m["ingest.parse_hr_stream.rows"] / m["ingest.parse_hr_stream.s"]
    )
    m["ingest.parse_other.s"] = t.total("ingest.parse_other")
    m["ingest.serialize.s"] = t.total("ingest.serialize")

    m["align.align_cohort.s"] = t.total("align.align_cohort")
    m["align.align_cohort.minutes"] = t.attr_sum("align.align_cohort", "minutes")
    m["align.align_cohort.minutes_per_s"] = (
        m["align.align_cohort.minutes"] / m["align.align_cohort.s"]
    )
    m["align.write_csv.s"] = t.total("align.write_csv")
    m["align.write_csv.bytes"] = t.attr_sum("align.write_csv", "bytes")
    m["align.read_aligned_csv.s"] = t.total("align.read_aligned_csv")
    m["align.read_aligned_csv.calls"] = len(t.named("align.read_aligned_csv"))

    m["impute.impute_cohort.s"] = t.total("impute.impute_cohort")
    m["impute.minutes_per_s"] = (
        t.attr_sum("impute.impute_cohort", "minutes") / m["impute.impute_cohort.s"]
    )

    built = 0
    for w in WIDTHS:
        m[f"dataset.build_windows.s.w{w}"] = t.total(f"dataset.build_windows.w{w}")
        m[f"dataset.windows.w{w}"] = t.attr_sum(f"dataset.build_windows.w{w}", "windows")
        m[f"dataset.sampled.w{w}"] = t.attr_sum(f"dataset.stratified_sample.w{w}", "windows")
        built += m[f"dataset.windows.w{w}"]
    m["dataset.build_windows.windows_per_s"] = built / sum(
        m[f"dataset.build_windows.s.w{w}"] for w in WIDTHS
    )
    m["dataset.stratified_sample.s"] = sum(
        t.total(f"dataset.stratified_sample.w{w}") for w in WIDTHS
    )
    m["dataset.split_windows.s"] = t.total("dataset.split_windows")
    m["dataset.write_window_store.s"] = t.total("dataset.write_window_store")
    m["dataset.write_window_store.bytes"] = t.attr_sum("dataset.write_window_store", "bytes")
    m["dataset.load_window_store.s"] = t.total("dataset.load_window_store")

    m["viz.activity_metrics.s"] = t.total("viz.activity_metrics")
    _per_call("viz.render_radar.ms", _ms(t, "viz.render_radar"), m)
    m["viz.charts"] = len(t.named("viz.render_radar"))

    for w in WIDTHS:
        net, training = "model.network", "model.training"
        _per_call(f"{net}.forward_ms.w{w}", _full_batch_ms(t, f"{net}.forward.w{w}"), m)
        _per_call(f"{net}.backward_ms.w{w}", _full_batch_ms(t, f"{net}.backward.w{w}"), m)
        _per_call(f"{net}.eval_forward_ms.w{w}", _ms_per_batch(t, f"{net}.eval_forward.w{w}"), m)
        _per_call(
            f"{training}.loss_and_grads_ms.w{w}",
            _full_batch_ms(t, f"{training}.loss_and_grads.w{w}"),
            m,
        )
        m[f"{training}.s_per_epoch.w{w}"] = t.total(f"{training}.train.w{w}") / t.attr_sum(
            f"{training}.train.w{w}", "epochs"
        )
    _per_call("model.losses.focal_grads_ms", _full_batch_ms(t, "model.losses.focal_grads"), m)
    _per_call("model.optim.adamw_step_ms", _ms(t, "model.optim.adamw_step"), m)
    m["model.training.batches"] = sum(
        len(t.named(f"model.training.loss_and_grads.w{w}")) for w in WIDTHS
    )
    m["model.training.checkpoint_io.s"] = t.total("model.training.checkpoint_io")

    m["evaluation.evaluate_run.s"] = t.total("evaluation.evaluate_run")
    m["evaluation.predict_windows_per_s"] = t.attr_sum(
        "evaluation.predict", "windows"
    ) / t.total("evaluation.predict")

    for stage in stages:
        m[f"cli.stage.{stage}.self_s"] = t.self_total(f"cli.stage.{stage}")
    return m
