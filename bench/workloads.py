"""The benchmark workloads.

Each workload makes its inputs from the workload seed in ``setup``; the
program only ever sees the generated instances and configs.  The inputs
are a list of units, one per instance.  ``run_unit`` runs one unit as
closed-loop work (one caller: the next trial or command starts when the
previous one returns) and times its three phases: ``run`` (the trials),
``bounds`` (bound constants and curve) and ``report`` (statistics and
fits).  ``collect`` gathers the returned values and checks the outputs
afterwards, outside the timed region.

A run spreads its work over many instances and reports medians over them:
the time of a single instance depends on which instance the seed drew,
because LMO pivots and Dykstra sweeps vary from instance to instance and
from point to point.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from drsubmax import analysis, bounds, cli, objectives, optimizers
from drsubmax.optimizers import MomentumRule, RunConfig, StepRule
from drsubmax.oracles import NoiseModel

from checks import check_feasible, pipeline_outputs

PHASES = ("run", "bounds", "report")
DELTA = 0.01
_STATS = (("min", "min"), ("median", "median"), ("q90", 0.9))


def instance_seeds(seed: int, count: int) -> list[int]:
    """``count`` instance seeds: the workload seed itself, then seeds derived
    from it (disjoint from those of nearby workload seeds)."""
    derived = np.random.SeedSequence(seed).generate_state(count - 1) if count > 1 else []
    return [seed] + [int(s) for s in derived]


def _median_time(phase, repeats: int = 21) -> float:
    """Median seconds of ``repeats`` calls.  The bound and report phases of
    one 100 x 50 battery take about a millisecond, too short for one timing
    to be steady."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        phase()
        times.append(time.perf_counter() - started)
    return float(np.median(times))


@dataclass
class Unit:
    """Timing and outcome of one unit."""

    phases: dict = field(default_factory=lambda: dict.fromkeys(PHASES, 0.0))
    iterations: int = 0
    attempted: int = 0
    errors: list = field(default_factory=list)
    # returned values, one list per battery (one instance, one algorithm)
    values: list = field(default_factory=list)
    # (polytope, final iterate) per completed trial, for the feasibility check
    finals: list = field(default_factory=list)
    # factor from measured seconds to seconds at the reference speed
    speed: float = 1.0
    # f(upper) of the unit's instance: the objective is monotone, so this box
    # maximum bounds every returned value (filled by ``collect``)
    scale: float = 1.0


@dataclass(frozen=True)
class BatteryWorkload:
    """Seeded trials on one 100 x 50 quadratic instance per unit through the
    library API, followed by the bound constants and curve and the report
    statistics and fit of the unit's battery."""

    name: str
    default_seed: int
    algorithm: str
    T: int
    trials: int
    # nominal seconds of one unit; sets how many units a run makes
    unit_seconds: float
    theorem: str
    theorem_args: tuple

    # generate_nqp(seed, n, m, entry_low, entry_high), the paper-scale family
    SHAPE = (100, 50, -100.0, 0.0)
    # sized to the gradient (about 5e3 per coordinate at the origin), so that
    # trials on one instance differ
    SIGMA = 1000.0

    def setup(self, seed: int, units: int, workdir: str) -> list:
        noise = NoiseModel.clipped_gaussian(self.SIGMA)
        inputs = []
        for s in instance_seeds(seed, units):
            obj = objectives.generate_nqp(s, *self.SHAPE)
            if self.algorithm == "scg":
                cfg = RunConfig("scg", T=self.T, master_seed=seed,
                                momentum_rule=MomentumRule("alpha", 0.5))
            else:
                # step 1/L: at the default step value 2 Dykstra gives up on the
                # second projection.  Start at the origin: Dykstra also gives up
                # on some standard-normal start points (seed 1, instance 3).
                lip = bounds.spectral_norm(obj.h_matrix)
                cfg = RunConfig("boosted_pga", T=self.T, master_seed=seed,
                                step_rule=StepRule("inv_sqrt", 1.0 / lip), init_rule="zero")
            inputs.append((obj, noise, cfg))
        return inputs

    def run_unit(self, unit_input) -> Unit:
        obj, noise, cfg = unit_input
        out = Unit()
        started = time.perf_counter()
        records = []
        for run_id in range(self.trials):
            out.attempted += 1
            try:
                records.append(optimizers.run_trial(obj, noise, replace(cfg, run_id=run_id)))
            except Exception as exc:  # a failing trial is counted; the battery goes on
                out.errors.append(f"{self.algorithm} trial {run_id}: {exc!r}")
        ran = time.perf_counter()
        out.phases["run"] = ran - started
        out.iterations = self.T * len(records)
        out.values.append([rec.returned_value for rec in records])
        out.finals = [(obj.polytope, rec.iterates[-1]) for rec in records]
        if not records:
            return out
        opt = max(out.values[0])
        t_grid = np.arange(1, self.T + 1)
        curve = getattr(bounds, f"{self.theorem}_bound")

        def bound_phase():
            curve(bounds.constants_for(obj, noise, opt), t_grid, DELTA, *self.theorem_args)

        def report_phase():
            battery = analysis.TrialBattery.from_records(records)
            curves = []
            for label, stat in _STATS:
                t, v = analysis.trajectory_statistic(battery, stat)
                curves.append((t, v / opt, label))
            analysis.shared_c1_refit(curves)

        try:
            out.phases["bounds"] = _median_time(bound_phase)
            out.phases["report"] = _median_time(report_phase)
        except Exception as exc:
            out.errors.append(f"{self.algorithm} bounds/report: {exc!r}")
        return out

    def collect(self, unit_input, unit: Unit) -> None:
        obj = unit_input[0]
        unit.scale = obj.value(obj.polytope.upper)
        for poly, x in unit.finals:
            bad = check_feasible(poly, x, "final iterate")
            if bad:
                unit.errors.append(bad)


@dataclass(frozen=True)
class PipelineWorkload:
    """The command line ``run`` -> ``bounds`` -> ``report`` for ``scg`` and
    ``scgpp`` on one small quadratic instance per unit, called in-process
    through ``cli.main``."""

    name: str
    default_seed: int
    runs: int
    T: int
    opt_runs: int
    opt_iterations: int
    unit_seconds: float

    # the non-degeneracy check needs trials that differ.  At sigma 1, 2 of 200
    # scgpp batteries (6 runs of T = 40) returned one value from every trial;
    # at sigma 2, 1 of about 1500 did (workload seed 302, unit 22), and that
    # battery's trials differ only in the last bit at sigma 1 and 3 but in
    # the fourth digit at sigma 4
    SIGMA = 4.0
    SHAPE = {"n": 10, "m": 5, "entry_low": -1.0, "entry_high": 0.0}
    ALGORITHMS = (
        ("scg", {"momentum_rule": {"kind": "alpha", "value": 0.5},
                 "bounds": [{"theorem": "theorem4", "delta": DELTA, "alpha": 0.5}]}),
        ("scgpp", {"batch_size": 5,
                   "bounds": [{"theorem": "theorem5", "delta": DELTA}]}),
    )

    def setup(self, seed: int, units: int, workdir: str) -> list:
        inputs = []
        for k, s in enumerate(instance_seeds(seed, units)):
            configs = []
            for algorithm, extra in self.ALGORITHMS:
                out_dir = os.path.join(workdir, f"{k}-{algorithm}")
                cfg = {
                    "problem": {"kind": "nqp-generate", "seed": s, **self.SHAPE},
                    "algorithm": algorithm,
                    "T": self.T,
                    "runs": self.runs,
                    "master_seed": seed,
                    "noise": {"kind": "clipped_gaussian", "sigma": self.SIGMA},
                    "opt": {"runs": self.opt_runs, "iterations": self.opt_iterations},
                    "normalized": True,
                    "workers": 1,
                    "output_dir": out_dir,
                    **extra,
                }
                path = out_dir + ".json"
                with open(path, "w") as fh:
                    json.dump(cfg, fh)
                configs.append((path, out_dir))
            inputs.append((s, configs))
        return inputs

    def run_unit(self, unit_input) -> Unit:
        _, configs = unit_input
        out = Unit()
        for path, out_dir in configs:
            for phase in PHASES:
                out.attempted += 1
                started = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([phase, "--config", path])
                out.phases[phase] += time.perf_counter() - started
                if code != 0:
                    out.errors.append(f"{out_dir}: {phase} exited with {code}")
                    break
            else:
                out.iterations += self.runs * self.T
        return out

    def collect(self, unit_input, unit: Unit) -> None:
        s, configs = unit_input
        obj = objectives.generate_nqp(s, **self.SHAPE)
        unit.scale = obj.value(obj.polytope.upper)
        for _, out_dir in configs:
            values, errors = pipeline_outputs(out_dir, self.runs, self.T)
            unit.values.append(values)
            unit.errors += errors


WORKLOADS = {
    w.name: w
    for w in (
        BatteryWorkload("scg-100x50", 123, "scg", T=5, trials=2, unit_seconds=1.0,
                        theorem="theorem4", theorem_args=(0.5,)),
        BatteryWorkload("bpga-100x50", 123, "boosted_pga", T=2, trials=2, unit_seconds=2.5,
                        theorem="theorem2", theorem_args=(1.0,)),
        PipelineWorkload("pipeline-10x5", 11, runs=6, T=40, opt_runs=3, opt_iterations=80,
                         unit_seconds=0.9),
    )
}
