"""Aggregation of repeated trials into worst-case/percentile statistics,
bound-shaped curve fitting, and optimum approximation."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter

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
        run_ids, f_true = np.asarray(run_ids), np.asarray(f_true, dtype=float)
        if f_true.ndim != 2 or f_true.shape[0] != run_ids.size:
            raise ValueError("trajectory matrix shape disagrees with run ids")
        order = np.argsort(run_ids)
        self.run_ids, self.f_true = run_ids[order], f_true[order]
        self.algorithm = algorithm

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
        shared = attrgetter(*(f.name for f in fields(RunConfig) if f.name != "run_id"))
        base = shared(records[0].config)
        if any(shared(rec.config) != base for rec in records[1:]):
            raise ValueError("battery records must share their configuration")
        return cls([rec.config.run_id for rec in records], [rec.f_true for rec in records],
                   records[0].config.algorithm)

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
    """The fitted ``y``, ``u = t^-p``, ``u - ū`` and ``ū`` (taken about ``u[0]``,
    so a ``u`` of one value has exactly no spread), and the least-squares
    ``c1`` on ``{1, -u}`` from the centered design: ``ȳ + s ū``, for ``s`` the
    slope of ``ȳ - y`` on ``u - ū``, whose spread ``Σ(u - ū)²`` drops what ``ū``
    rounded to a float adds to it, ``(Σ(u - ū))² / n``."""
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("a value of its curve is not a finite float")
    t = np.asarray(t, dtype=float)
    mask = t >= t_min
    t, y = t[mask], y[mask]
    if not (t > 0).all():
        raise ValueError(f"a fitted t must be positive, got t = {t.min():g}")
    if t.size < 2:
        raise ValueError("need at least two points with t >= t_min")
    if (t == t[0]).all():
        raise ValueError("singular design: all t equal")
    u = t**-p
    u_bar = u[0] + (u - u[0]).sum() / u.size
    du = u - u_bar
    spread = (du * du).sum() - du.sum() ** 2 / du.size
    if not spread > 0:
        raise ValueError("singular design: t^-p does not vary over t >= t_min in floats")
    y_bar = y.sum() / y.size
    return y, u, du, u_bar, y_bar + (du * (y_bar - y)).sum() / spread * u_bar


def fit_curve(t, y, p: float = 0.5, t_min: int = 1, label: str = "") -> FittedCurve:
    """Ordinary least squares of ``y`` on the basis ``{1, -t^-p}`` over points
    with ``t >= t_min``: the one-curve ``shared_c1_refit``, since the ``c2``
    that is least squares given the least-squares ``c1`` is the least-squares
    ``c2``."""
    return shared_c1_refit([(t, y, label)], p, t_min)[0]


def shared_c1_refit(curves, p: float = 0.5, t_min: int = 1) -> list[FittedCurve]:
    """Two-stage fit across related statistic curves.

    Stage one fits every ``(t, y, label)`` curve independently; the shared
    asymptote is the mean of the individual ``c1`` values.  Stage two refits
    each ``c2`` as the exact conditional least-squares optimum given the
    shared ``c1``.  A curve is refused by its label when its values are not
    finite floats, its design is singular, or its fit's ``c1``, ``c2`` or
    residual is not a finite float.
    """
    curves = list(curves)
    if not curves:
        raise ValueError("need at least one curve")
    designs = []
    # sums near the float limit overflow to inf or nan, which is rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        for t, y, label in curves:
            try:
                designs.append((*_fit_design(t, y, p, t_min), label))
            except ValueError as exc:
                raise ValueError(f"fit {label!r}: {exc}") from None
        c1 = float(np.mean([own for *_, own, _ in designs]))
        out = []
        for y, u, du, u_bar, _, label in designs:
            uu = (u * u).sum()
            c2 = float(((c1 - y) * u).sum() / uu)
            # about ū, where a nearly collinear design's c1 and c2 u nearly
            # cancel: the constant term c1 - c2 ū is formed from centered
            # pieces, (c1 Σu(u - ū) + ū Σyu) / Σu², not from c1 and c2 ū
            const = (c1 * (u * du).sum() + u_bar * (y * u).sum()) / uu
            resid = float(((y - const + c2 * du) ** 2).sum())
            if not (math.isfinite(c1) and math.isfinite(c2) and math.isfinite(resid)):
                raise ValueError(f"fit {label!r}: its c1, c2 or residual is not a finite float")
            out.append(FittedCurve(c1, c2, p, label, resid, y.size))
    return out


def approx_opt(objective: Objective, master_seed: int = 0, n_runs: int = 100,
               iterations: int = 5000, noise: NoiseModel = NoiseModel()) -> float:
    """Optimum approximation: the best final value across repeated greedy runs.

    Under a noise model that draws, the runs differ through their streams
    and the maximum of the exact objective at their final iterates is
    returned; under noise ``none``, the default, the run is deterministic, so
    a single run suffices.  ``n_runs`` must be a positive integer either way.
    """
    if not (is_int(n_runs) and n_runs >= 1):
        raise ValueError("n_runs must be a positive integer")
    if noise.kind == "none":
        n_runs = 1
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
