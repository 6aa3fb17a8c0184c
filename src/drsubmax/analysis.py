"""Aggregation of repeated trials into worst-case/percentile statistics,
bound-shaped curve fitting, and optimum approximation."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds import BoundCurve
from .objectives import Objective, is_int
from .oracles import NoiseModel
from .optimizers import (ALGORITHMS, BATTERY_HEADER, RunConfig, guarantee_series, run_battery,
                         running_average)
from .optimizers import run_trial  # noqa: F401  the benchmark's tracer wraps it here

__all__ = [
    "TrialBattery",
    "FittedCurve",
    "trajectory_statistic",
    "fit_curve",
    "shared_c1_refit",
    "approx_opt",
    "bound_violation_rate",
]


class TrialBattery:
    """Trials sharing everything but ``run_id``: an (N, T) matrix of values
    over t = 1..T, rows sorted by run id so aggregation is independent of
    completion order, from which ``t`` and the running averages derive."""

    def __init__(self, run_ids, f_true, algorithm: str):
        order = np.argsort(run_ids)
        self.run_ids = np.asarray(run_ids)[order]
        self.f_true = np.asarray(f_true, dtype=float)[order]
        self.algorithm = algorithm
        if self.f_true.ndim != 2 or self.f_true.shape[0] != self.n_runs:
            raise ValueError("trajectory matrix shape disagrees with run ids")

    @property
    def n_runs(self) -> int:
        return self.run_ids.size

    @property
    def t(self) -> np.ndarray:
        return np.arange(1, self.f_true.shape[1] + 1)

    @property
    def f_running_avg(self) -> np.ndarray:
        return running_average(self.f_true)

    def series(self, name: str) -> np.ndarray:
        if name not in ("f_true", "f_running_avg"):
            raise ValueError(f"unknown series {name!r}")
        return getattr(self, name)

    @classmethod
    def from_records(cls, records) -> "TrialBattery":
        records = list(records)
        if not records:
            raise ValueError("empty battery")
        base = replace(records[0].config, run_id=0)
        for rec in records[1:]:
            if replace(rec.config, run_id=0) != base:
                raise ValueError("battery records must share their configuration")
        return cls([rec.config.run_id for rec in records], [rec.f_true for rec in records],
                   base.algorithm)

    @classmethod
    def from_csv(cls, path) -> "TrialBattery":
        """A battery ``records_to_csv`` wrote: every run's rows are t = 1..k
        for one k, and its running average column holds finite numbers."""
        per_run: dict[int, list[tuple[int, float]]] = {}
        algorithm = None
        with open(path) as fh:
            header = fh.readline().strip()
            if header != BATTERY_HEADER:
                raise ValueError(f"{path}: unexpected battery header {header!r}")
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    rid, alg, t, f, avg = line.split(",")
                    if alg not in ALGORITHMS:
                        raise ValueError(f"unknown algorithm {alg!r}")
                    if algorithm not in (None, alg):
                        raise ValueError("mixed algorithms in one battery")
                    algorithm = alg
                    f = float(f)
                    if not (math.isfinite(f) and math.isfinite(float(avg))):
                        raise ValueError("non-finite value")
                    per_run.setdefault(int(rid), []).append((int(t), f))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: battery row {line!r}: {exc}") from None
        if not per_run:
            raise ValueError(f"{path}: empty battery")
        run_ids = sorted(per_run)
        grid = list(range(1, len(per_run[run_ids[0]]) + 1))
        for rid in run_ids:
            per_run[rid].sort()
            if [t for t, _ in per_run[rid]] != grid:
                raise ValueError(f"{path}: the rows of run {rid} are not t = 1..{len(grid)}")
        return cls(run_ids, [[f for _, f in per_run[rid]] for rid in run_ids], algorithm)


def trajectory_statistic(battery: TrialBattery, stat, series: str = "f_true"):
    """Per-iteration statistic across runs.

    ``stat`` is ``"min"``, ``"median"``, ``"mean"``, or a float ``q`` in (0, 1)
    for the nearest-rank (``inverted_cdf``) quantile, the ``ceil(q N)``-th
    order statistic without interpolation.  Returns ``(t, values)``.
    """
    data = battery.series(series)
    if isinstance(stat, str):
        if stat == "min":
            values = data.min(axis=0)
        elif stat == "median":
            values = np.median(data, axis=0)
        elif stat == "mean":
            values = data.mean(axis=0)
        else:
            raise ValueError(f"unknown statistic {stat!r}")
    else:
        q = float(stat)
        if not (0.0 < q < 1.0):
            raise ValueError("quantile level must lie in (0, 1)")
        values = np.quantile(data, q, axis=0, method="inverted_cdf")
    return battery.t, values


@dataclass(frozen=True)
class FittedCurve:
    """Least-squares fit ``c1 - c2 / t^p`` to an empirical statistic curve."""

    c1: float
    c2: float
    p: float
    label: str = ""
    residual: float = 0.0
    n_points: int = 0


def _fit_design(t, y, p: float, t_min: int):
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = t >= t_min
    t, y = t[mask], y[mask]
    if t.size < 2:
        raise ValueError("need at least two points with t >= t_min")
    if np.all(t == t[0]):
        raise ValueError("singular design: all t equal")
    return t, y, t**-p


def fit_curve(t, y, p: float = 0.5, t_min: int = 1, label: str = "") -> FittedCurve:
    """Ordinary least squares of ``y`` on the basis ``{1, -t^-p}`` over points
    with ``t >= t_min``, by the closed-form normal equations."""
    t, y, u = _fit_design(t, y, p, t_min)
    n = t.size
    s1, s2 = u.sum(), (u * u).sum()
    sy, syu = y.sum(), (y * u).sum()
    det = s1 * s1 - n * s2
    if abs(det) < 1e-300:
        raise ValueError("singular design")
    c1 = (s1 * syu - s2 * sy) / det
    c2 = (n * syu - s1 * sy) / det
    resid = float(np.sum((y - c1 + c2 * u) ** 2))
    return FittedCurve(float(c1), float(c2), p, label, resid, n)


def shared_c1_refit(curves, p: float = 0.5, t_min: int = 1) -> list[FittedCurve]:
    """Two-stage fit across related statistic curves.

    Stage one fits every ``(t, y, label)`` curve independently; the shared
    asymptote is the mean of the individual ``c1`` values.  Stage two refits
    each ``c2`` as the exact conditional least-squares optimum given the
    shared ``c1``.
    """
    curves = list(curves)
    if not curves:
        raise ValueError("need at least one curve")
    c1_shared = float(np.mean([fit_curve(t, y, p, t_min).c1 for t, y, _ in curves]))
    out = []
    for t, y, label in curves:
        t, y, u = _fit_design(t, y, p, t_min)
        c2 = float(np.sum((c1_shared - y) * u) / np.sum(u * u))
        resid = float(np.sum((y - c1_shared + c2 * u) ** 2))
        out.append(FittedCurve(c1_shared, c2, p, label, resid, t.size))
    return out


def approx_opt(objective: Objective, master_seed: int = 0, n_runs: int = 100,
               iterations: int = 5000, noise: NoiseModel | None = None) -> float:
    """Optimum approximation: the best final value across repeated greedy runs.

    With a noise model the runs differ through their streams and the maximum
    of the exact objective at their final iterates is returned; without one
    the run is deterministic, so a single run suffices.  ``n_runs`` must be
    a positive integer either way.
    """
    if not (is_int(n_runs) and n_runs >= 1):
        raise ValueError("n_runs must be a positive integer")
    if noise is None or noise.kind == "none":
        noise, n_runs = NoiseModel.none(), 1
    cfg = RunConfig(algorithm="scg", T=iterations, master_seed=master_seed)
    return max(rec.returned_value for rec in run_battery(objective, noise, cfg, n_runs))


def bound_violation_rate(battery: TrialBattery, curve: BoundCurve) -> float:
    """Fraction of runs whose guarantee series (``guarantee_series`` of the
    battery's algorithm) at the final iteration falls strictly below the
    bound there."""
    series = battery.series(guarantee_series(battery.algorithm))
    if curve.bound.size != series.shape[1]:
        raise ValueError("grid mismatch between bound curve and battery")
    return float(np.mean(series[:, -1] < curve.bound[-1]))
