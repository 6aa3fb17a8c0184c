"""In-memory span tracing of calls into drsubmax, installed from outside.

``Tracer.install`` replaces each function in ``TARGETS`` at the name its
callers look up with a wrapper that records one span (layer name, start,
end, parent span, whether it raised).  ``Tracer.remove`` puts the original
objects back.  Nothing inside ``src/`` is changed.

For ``geometry.lmo``, ``geometry.project`` and ``optimizers.trial`` the
wrapper also keeps copies of the arguments and the answer, so the output
checks and the per-layer ratios can be computed after the run.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

import numpy as np

# (layer, owner of the attribute, attribute).  The owner is where callers
# look the function up: ``optimizers`` imported ``lmo`` and ``project`` by
# name, ``analysis`` imported ``run_trial`` by name, and ``cli`` calls the
# others through their module.
TARGETS = (
    ("geometry.lmo", "drsubmax.optimizers", "lmo"),
    ("geometry.project", "drsubmax.optimizers", "project"),
    ("objectives.value", "drsubmax.objectives:NqpObjective", "value"),
    ("objectives.grad", "drsubmax.objectives:NqpObjective", "grad"),
    ("objectives.hessian", "drsubmax.objectives:NqpObjective", "hessian"),
    ("oracles.grad", "drsubmax.oracles:OracleStream", "grad"),
    ("oracles.hessian", "drsubmax.oracles:OracleStream", "hessian"),
    ("optimizers.trial", "drsubmax.optimizers", "run_trial"),
    ("optimizers.trial", "drsubmax.analysis", "run_trial"),
    ("optimizers.records_to_csv", "drsubmax.optimizers", "records_to_csv"),
    ("analysis.approx_opt", "drsubmax.analysis", "approx_opt"),
    ("analysis.from_csv", "drsubmax.analysis:TrialBattery", "from_csv"),
    ("analysis.trajectory_statistic", "drsubmax.analysis", "trajectory_statistic"),
    ("analysis.shared_c1_refit", "drsubmax.analysis", "shared_c1_refit"),
    ("bounds.constants_for", "drsubmax.bounds", "constants_for"),
    ("bounds.spectral_norm", "drsubmax.bounds", "spectral_norm"),
    ("bounds.curve", "drsubmax.bounds", "theorem1_bound"),
    ("bounds.curve", "drsubmax.bounds", "theorem2_bound"),
    ("bounds.curve", "drsubmax.bounds", "theorem3_bound"),
    ("bounds.curve", "drsubmax.bounds", "theorem4_bound"),
    ("bounds.curve", "drsubmax.bounds", "theorem5_bound"),
    ("cli.run", "drsubmax.cli", "cmd_run"),
    ("cli.bounds", "drsubmax.cli", "cmd_bounds"),
    ("cli.report", "drsubmax.cli", "cmd_report"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    error: bool = False
    # copies of the inputs and the answer, for the layers whose answers are checked
    payload: tuple | None = None


def _capture_lmo(args, result):
    poly, g = args[0], args[1]
    return poly, np.array(g, dtype=float), np.array(result, dtype=float)


def _capture_project(args, result):
    poly, y = args[0], args[1]
    return poly, np.array(y, dtype=float), np.array(result, dtype=float)


def _capture_trial(args, result):
    objective, cfg = args[0], args[2]
    return cfg.T, objective.polytope, np.array(result.iterates[-1], dtype=float)


_CAPTURE = {
    "geometry.lmo": _capture_lmo,
    "geometry.project": _capture_project,
    "optimizers.trial": _capture_trial,
}


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


@dataclass
class Tracer:
    """Records spans while installed; single-threaded (closed loop)."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple] = field(default_factory=list)

    def _wrap(self, name: str, func):
        spans, stack, capture = self.spans, self._stack, _CAPTURE.get(name)

        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1] if stack else None)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if capture is not None:
                span.payload = capture(args, result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for name, owner_path, attr in TARGETS:
            owner = _owner(owner_path)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def remove(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls nest and never overlap (one thread), so the children of a span
    cover disjoint parts of its interval.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def _trial_of(spans: list[Span], index: int) -> int | None:
    parent = spans[index].parent
    while parent is not None and spans[parent].name != "optimizers.trial":
        parent = spans[parent].parent
    return parent


def repeat_frac(spans: list[Span]) -> float:
    """Share of LMO calls that return the same vertex as the previous LMO
    call of the same trial, among calls that have a previous one."""
    last: dict[int | None, np.ndarray] = {}
    repeats = compared = 0
    for i, span in enumerate(spans):
        if span.name != "geometry.lmo" or span.payload is None:
            continue
        trial = _trial_of(spans, i)
        vertex = span.payload[2]
        if trial in last:
            compared += 1
            repeats += bool(np.array_equal(vertex, last[trial]))
        last[trial] = vertex
    return repeats / compared if compared else 0.0


def layer_summary(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: ``calls``, ``errors``, inclusive ``s``, ``self_s`` and the
    50th/90th percentile call duration in microseconds."""
    own = self_times(spans)
    durations: dict[str, list[float]] = {}
    out: dict[str, dict[str, float]] = {}
    for span, self_s in zip(spans, own):
        row = out.setdefault(span.name, {"calls": 0, "errors": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["errors"] += int(span.error)
        row["s"] += span.end - span.start
        row["self_s"] += self_s
        durations.setdefault(span.name, []).append(span.end - span.start)
    for name, values in durations.items():
        p50, p90 = np.percentile(np.asarray(values) * 1e6, [50, 90])
        out[name]["us_p50"] = float(p50)
        out[name]["us_p90"] = float(p90)
    return out
