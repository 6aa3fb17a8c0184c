"""The four stochastic ascent algorithms, producing full trajectories.

All four share one trial loop, ``run_trial``, and differ in their gradient
estimate: plain, boosted, momentum, or path-integrated.  ``pga`` and
``boosted_pga`` take a projected ascent step (their guarantees concern the
running average value).  ``scg`` and ``scgpp`` are Frank-Wolfe style:
starting from the origin they add one scaled vertex per iteration, so the
final iterate is a convex combination of vertices and always feasible.  Each
of their trials owns one ``LmoWarmStart``, so every LMO call after the first
re-optimizes from the previous call's basis, and each projected-ascent trial
owns one ``ProjectionWarmStart``, so every projection after the first
resumes from the previous one's active set.  ``READS`` lists the settings
each algorithm reads; a ``RunConfig`` that sets any other is rejected.

Per-trial randomness comes exclusively from the trial's ``OracleStream``
generator, in a fixed query order (initialization draws, then one group of
draws per iteration, then the returned-iterate draw), which makes every
run bit-reproducible from ``(master_seed, run_id)``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from .geometry import LmoWarmStart, ProjectionWarmStart, lmo, project
from .objectives import Objective, is_finite_real, is_int
from .oracles import NoiseModel, OracleStream

__all__ = [
    "StepRule",
    "MomentumRule",
    "RunConfig",
    "RunRecord",
    "boost_mass",
    "boost_s_from_uniform",
    "guarantee_series",
    "running_average",
    "run_trial",
    "run_battery",
    "records_to_csv",
]

#: the ``RunConfig`` fields each algorithm reads beyond algorithm, T, master_seed
#: and run_id
READS = {
    "pga": ("step_rule", "init_rule", "returned_convention"),
    "boosted_pga": ("step_rule", "init_rule", "returned_convention", "gamma"),
    "scg": ("momentum_rule",),
    "scgpp": ("batch_size",),
}
ALGORITHMS = tuple(READS)
GREEDY = ("scg", "scgpp")
CONVENTIONS = ("uniform_random_iterate", "last_iterate", "best_iterate")
#: the header line of ``battery.csv``, which ``records_to_csv`` writes
BATTERY_HEADER = "run_id,algorithm,t,f_true,f_running_avg"


@dataclass(frozen=True)
class StepRule:
    """Ascent step size ``value / sqrt(t)``, the diminishing step that the
    bounds of theorems 1 and 2 assume; ``inv_sqrt`` is its one kind."""

    kind: str = "inv_sqrt"
    value: float = 2.0

    def __post_init__(self):
        if self.kind != "inv_sqrt":
            raise ValueError(f"unknown step rule {self.kind!r}")
        if not (is_finite_real(self.value) and self.value > 0):
            raise ValueError("step size must be a positive finite number")

    def eta(self, t: int) -> float:
        return self.value / math.sqrt(t)


@dataclass(frozen=True)
class MomentumRule:
    """Momentum coefficient sequence for the greedy gradient average.

    ``poly48``: rho_t = 4 / (t + 8)^(2/3), fixed: it takes no value
    ``alpha``:  rho_t = t^(-value) with value in (0, 1)
    """

    kind: str = "poly48"
    value: float = 0.0

    def __post_init__(self):
        if not is_finite_real(self.value):
            raise ValueError("momentum value must be a finite number")
        if self.kind == "alpha" and not (0.0 < self.value < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        if self.kind == "poly48" and self.value != 0.0:
            raise ValueError("momentum rule 'poly48' takes no value")
        if self.kind not in ("poly48", "alpha"):
            raise ValueError(f"unknown momentum rule {self.kind!r}")

    def rho(self, t: int) -> float:
        if self.kind == "poly48":
            return 4.0 / (t + 8.0) ** (2.0 / 3.0)
        return float(t) ** -self.value


@dataclass(frozen=True)
class RunConfig:
    """Everything one trial needs besides the objective and noise model.  Of
    the fields after ``run_id`` an algorithm reads only its ``READS``, and
    another that differs from its default is rejected; the defaults of
    ``batch_size``, ``init_rule`` and ``returned_convention`` are derived."""

    algorithm: str
    T: int
    master_seed: int = 0
    run_id: int = 0
    step_rule: StepRule = StepRule()
    gamma: float = 1.0
    momentum_rule: MomentumRule = MomentumRule()
    batch_size: int | None = None
    init_rule: str | None = None
    returned_convention: str | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        greedy = self.algorithm in GREEDY
        derived = {"batch_size": self.T if self.algorithm == "scgpp" else None,
                   "init_rule": "zero" if greedy else "gaussian_project",
                   "returned_convention": "last_iterate" if greedy else "uniform_random_iterate"}
        for name, value in derived.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        for name, low in (("T", 1), ("master_seed", 0), ("run_id", 0), ("batch_size", 1)):
            value = getattr(self, name)
            if not ((is_int(value) and value >= low) or (name == "batch_size" and value is None)):
                raise ValueError(f"{name} must be an integer >= {low}")
        if not (is_finite_real(self.gamma) and 0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must lie in (0, 1]")
        if self.init_rule not in ("zero", "gaussian_project"):
            raise ValueError(f"unknown init rule {self.init_rule!r}")
        if self.returned_convention not in CONVENTIONS:
            raise ValueError(f"unknown returned convention {self.returned_convention!r}")
        unread = [f.name for f in fields(self)[4:] if f.name not in READS[self.algorithm]
                  and getattr(self, f.name) != derived.get(f.name, f.default)]
        if unread:
            raise ValueError(f"{self.algorithm} does not read {', '.join(unread)}")


@dataclass(frozen=True)
class RunRecord:
    """One trial's trajectory over t = 1..T: iterates with exact objective values."""

    config: RunConfig
    iterates: np.ndarray
    f_true: np.ndarray
    returned_value: float


def guarantee_series(algorithm: str) -> str:
    """The recorded series an algorithm's guarantees concern: the running
    average value for projected ascent, the iterate value for Frank-Wolfe."""
    return "f_true" if algorithm in GREEDY else "f_running_avg"


def running_average(f) -> np.ndarray:
    """The running average of values over t = 1..T along the last axis:
    entry ``t - 1`` is the mean of the first ``t`` values, summed in order."""
    f = np.asarray(f, dtype=float)
    return np.cumsum(f, axis=-1) / np.arange(1, f.shape[-1] + 1)


def _init_point(oracle: OracleStream, cfg: RunConfig,
                warm: LmoWarmStart | ProjectionWarmStart) -> np.ndarray:
    """The trial's start point by ``cfg.init_rule``: the origin, the greedy
    algorithms' only rule, or a projection from ``warm``, the trial's
    projection state."""
    objective = oracle.objective
    if cfg.init_rule == "zero":
        return np.zeros(objective.dim)
    # a standard normal draw may land outside the region, so project it back
    return project(objective.polytope, oracle.rng.standard_normal(objective.dim), warm)


def boost_mass(gamma: float) -> float:
    """``1 - exp(-gamma)`` by ``expm1``, which no small gamma cancels: the mass of
    ``exp(gamma (s - 1))`` on [0, 1] and boosted ascent's approximation factor."""
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    return -math.expm1(-gamma)


def boost_s_from_uniform(u: float, gamma: float = 1.0) -> float:
    """Inverse CDF of the scale distribution with density
    ``exp(gamma (s - 1)) / (boost_mass(gamma) / gamma)`` on [0, 1], whose CDF
    ``(exp(gamma s) - 1) / (exp(gamma) - 1)`` ``log1p`` inverts with no
    cancellation at small ``gamma`` or ``u``."""
    if not (0.0 <= u <= 1.0):
        raise ValueError("u must lie in [0, 1]")
    return math.log1p(u * boost_mass(gamma) * math.exp(gamma)) / gamma


def _plain(oracle: OracleStream, cfg: RunConfig):
    """Projected ascent: the noisy gradient at the current iterate."""
    return lambda t, x: oracle.grad(x)


def _boosted(oracle: OracleStream, cfg: RunConfig):
    """Boosted ascent: draw a scale ``s`` by inverse CDF, query the noisy
    gradient at ``s * x`` and multiply it by ``boost_mass(gamma) / gamma``."""
    factor = boost_mass(cfg.gamma) / cfg.gamma

    def estimate(t, x):
        s = boost_s_from_uniform(float(oracle.rng.random()), cfg.gamma)
        return factor * oracle.grad(s * x)
    return estimate


def _momentum(oracle: OracleStream, cfg: RunConfig):
    """SCG: fold each fresh noisy gradient into the momentum average."""
    gbar = np.zeros(oracle.objective.dim)

    def estimate(t, x):
        nonlocal gbar
        rho = cfg.momentum_rule.rho(t)
        gbar = (1.0 - rho) * gbar + rho * oracle.grad(x)
        return gbar
    return estimate


def _path_integrated(oracle: OracleStream, cfg: RunConfig):
    """SCG++: the first call averages ``batch`` noisy gradients at the origin,
    in one batched query.  Each later call draws ``batch`` uniforms, the
    interpolation points between the two most recent iterates, and adds the
    mean of the noisy Hessian-vector products with the displacement
    ``x - x_prev`` there, one Hessian query, to the running estimate.  No
    interpolation point or Hessian matrix is formed."""
    batch = cfg.batch_size
    x_prev = ghat = None

    def estimate(t, x):
        nonlocal x_prev, ghat
        if ghat is None:
            ghat = oracle.grad(x, batch)
        else:
            ghat = ghat + oracle.hessian(x_prev, x, oracle.rng.random(batch), x - x_prev)
        x_prev = x
        return ghat
    return estimate


_ESTIMATES = {
    "pga": _plain,
    "boosted_pga": _boosted,
    "scg": _momentum,
    "scgpp": _path_integrated,
}


def run_trial(objective: Objective, noise: NoiseModel, cfg: RunConfig) -> RunRecord:
    """One trial: build its oracle stream, then per iteration query the
    algorithm's gradient estimate and apply its update; every post-update
    iterate is recorded with its exact value.  A greedy trial's LMO calls
    share one warm start, and a projected-ascent trial's projections (its
    start point's included) another, created here, so the trial depends on
    nothing that another trial ran before it."""
    oracle = OracleStream(objective, noise, cfg.master_seed, cfg.run_id)
    estimate = _ESTIMATES[cfg.algorithm](oracle, cfg)
    poly, T = objective.polytope, cfg.T
    greedy = cfg.algorithm in GREEDY
    warm = (LmoWarmStart if greedy else ProjectionWarmStart)(poly)
    x = _init_point(oracle, cfg, warm)
    iterates = []
    for t in range(1, T + 1):
        g = estimate(t, x)
        if greedy:
            x = x + lmo(poly, g, warm) / T
        else:
            x = project(poly, x + cfg.step_rule.eta(t) * g, warm)
        iterates.append(x)

    xs = np.asarray(iterates)
    f = np.array([objective.value(x) for x in xs])
    conv = cfg.returned_convention
    if conv == "uniform_random_iterate":
        returned = float(f[int(oracle.rng.integers(1, T + 1)) - 1])
    elif conv == "best_iterate":
        returned = float(np.max(f))
    else:
        returned = float(f[-1])
    return RunRecord(config=cfg, iterates=xs, f_true=f, returned_value=returned)


def _trial(job) -> RunRecord:
    # run_trial is looked up at call time, so a patched one applies in workers too
    return run_trial(*job)


def run_battery(objective: Objective, noise: NoiseModel, cfg: RunConfig,
                n_runs: int, workers=1):
    """``n_runs`` independent trials differing only in ``run_id``, yielded in
    ``run_id`` order.  With ``workers`` (capped at ``n_runs``; ``"auto"`` is
    one per CPU) above 1 they run in a process pool."""
    workers = min((os.cpu_count() or 1) if workers == "auto" else workers, n_runs)
    jobs = ((objective, noise, replace(cfg, run_id=i)) for i in range(n_runs))
    if workers <= 1:
        yield from map(_trial, jobs)
        return
    # imported here, so importing the package does not load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_trial, jobs)


def records_to_csv(records, path) -> list:
    """Write trajectories under ``BATTERY_HEADER``, one row per iterate with
    17-significant-digit floats, each record's as it arrives, in the order
    given: the rows of records consumed before an exception stay.  Returns
    the records' returned values in that order."""
    returned = []
    with open(path, "w") as fh:
        fh.write(BATTERY_HEADER + "\n")
        for rec in records:
            rid = rec.config.run_id
            alg = rec.config.algorithm
            for t, (f, avg) in enumerate(zip(rec.f_true, running_average(rec.f_true)), 1):
                fh.write(f"{rid},{alg},{t},{f:.17g},{avg:.17g}\n")
            returned.append(rec.returned_value)
    return returned
