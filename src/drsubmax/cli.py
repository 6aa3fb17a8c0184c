"""Command-line surface, ``drsubmax {run,bounds,report} --config``: run
trial batteries, evaluate bound curves, and produce fit/violation reports.

Every command is driven by a JSON config file, which ``objectives.load_json``
reads with no key repeated; command-line ``--set`` options override
individual (dotted) keys, each value JSON with no key repeated or else a
string.  ``load_config`` builds the
config once for every command into a frozen ``Experiment``: the trial
config, the noise model, the problem instance (through
``objectives.build_problem``) and its digest, and the keys only the CLI
reads.  So ``run``, ``bounds`` and ``report`` reject the same malformed
configs, and no command reads the raw JSON.  ``bounds.bound_curve`` alone
reads and checks a bounds entry: its theorem must bound the config's
algorithm, and takes ``gamma`` and ``alpha`` from the trial.  ``run``
writes ``run_config.json`` next to ``battery.csv``: what fixes its rows
(``_run_config``), and ``report`` rejects a battery whose file is missing
or differs from its own config.  ``report`` reads nothing but the config,
its instance, ``battery.csv``, ``run_config.json`` and ``opt.json``: it
evaluates its bounds as ``bounds`` does and checks them on the series it
fits, the algorithm's guarantee series; the ``bound_<theorem>.csv`` files
are plotting output only.  An estimated optimum is computed once per
battery (``resolve_opt``): whichever command estimates it writes
``opt.json``, the estimate with its inputs, and every command reuses a
record whose inputs match its own, so ``report.txt`` holds the same bytes
with or without the file.  Outputs are plain CSV and text with
17-significant-digit floats, and canonical JSON records (``_write_record``),
so identical configs reproduce identical bytes.  Exit codes: 0 success, 1
I/O failure, an oracle that fails its certificate or an aborted battery, 2
validation failure.  Bad input raises ``ValueError``, I/O failure ``OSError``
and an oracle that fails its certificate a ``RuntimeError`` (``LmoError``,
``ProjectionError``), wherever it is found; ``run`` writes its
``battery.csv.partial`` marker and re-raises a failed trial as a
``RuntimeError``.  ``main`` alone turns them into an exit code and one
``error:`` line.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import analysis, bounds, objectives, optimizers
from .objectives import is_finite_real, is_int, load_json, reject_unknown
from .oracles import NoiseModel, noise_constants
from .optimizers import MomentumRule, RunConfig, StepRule

__all__ = ["main"]

# approximated-optimum trials must not share generator streams with the
# battery trials of the same config, so their seed is offset
_OPT_SEED_OFFSET = 1000003

EXIT_FAILURE = 1
EXIT_VALIDATION = 2


# ----------------------------------------------------------------------
# config handling
# ----------------------------------------------------------------------

# an optimum approximation spec's keys, as approx_opt's arguments, and their defaults
_OPT_ARGS = {"runs": "n_runs", "iterations": "iterations"}
_OPT_DEFAULTS = {name: inspect.signature(analysis.approx_opt).parameters[name].default
                 for name in _OPT_ARGS.values()}
# the estimated optimum's record in output_dir, and the estimator its inputs
# name: another estimator must rename it, so that no record of the old one is reused
_OPT_FILE = "opt.json"
_OPT_ESTIMATOR = "approx_opt: best final value of noisy scg runs"
# what fixed the rows of battery.csv, which run writes next to it and report checks
_RUN_CONFIG_FILE = "run_config.json"


@dataclass(frozen=True)
class Experiment:
    """One battery as its config fixes it: the built trial config and noise
    model, the problem entry and the keys only the CLI reads.  Construction
    checks those keys, ``t_min < T`` and each bounds entry's curve over
    t = 1..T with unit constants.  It builds ``objective``, the problem
    entry's instance, and its digest ``instance`` last, so a bad value is
    reported before any instance file is read.  The trial and noise keys
    default in ``RunConfig``, ``StepRule``, ``MomentumRule`` and
    ``NoiseModel``, and ``t_min`` in ``analysis.shared_c1_refit``, at
    whose default ``p`` every report fits."""

    trial: RunConfig
    problem: dict
    output_dir: str
    noise: NoiseModel = NoiseModel()
    runs: int = 1
    bounds: list = field(default_factory=list)
    opt: float | dict | None = None
    normalized: bool = True
    t_min: int = inspect.signature(analysis.shared_c1_refit).parameters["t_min"].default
    workers: int | str = "auto"
    objective: objectives.Objective = field(init=False, repr=False, compare=False)
    instance: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.output_dir, str):
            raise ValueError("output_dir must be a string")
        if not self.output_dir:
            raise ValueError("output_dir must not be empty")
        for key in ("runs", "t_min"):
            if not (is_int(getattr(self, key)) and getattr(self, key) >= 1):
                raise ValueError(f"{key} must be a positive integer")
        if self.workers != "auto" and not (is_int(self.workers) and self.workers >= 1):
            raise ValueError("workers must be a positive integer or 'auto'")
        if not isinstance(self.normalized, bool):
            raise ValueError("normalized must be true or false")
        if not isinstance(self.bounds, list):
            raise ValueError("bounds must be a list")
        if not all(isinstance(entry, dict) for entry in self.bounds):
            raise ValueError("each bounds entry must be an object")
        if isinstance(self.opt, dict):
            reject_unknown(self.opt, _OPT_ARGS, "opt")
            for key, value in self.opt.items():
                if not (is_int(value) and value >= 1):
                    raise ValueError(f"opt.{key} must be a positive integer")
            if self.noise.kind == "none" and self.opt.get("runs", 1) != 1:
                raise ValueError("noise kind 'none' draws nothing, so opt.runs must be 1")
        elif self.opt is not None and not (is_finite_real(self.opt) and self.opt > 0):
            raise ValueError("opt must be a positive number, null, or an approximation spec")
        if self.t_min >= self.trial.T:
            raise ValueError("t_min must be below T, so the fits have at least two points")
        # each bounds entry is checked against its theorem and trial before any work
        unit = bounds.BoundConstants(1.0, 1.0, *noise_constants(self.noise, 1, g_max=1.0))
        seen = set()
        for entry in self.bounds:
            theorem = bounds.bound_curve(entry, unit, self.trial).label
            if theorem in seen:  # both entries would write one bound_<theorem>.csv
                raise ValueError(f"{theorem}: listed twice in bounds")
            seen.add(theorem)
        object.__setattr__(self, "objective", objectives.build_problem(self.problem))
        object.__setattr__(self, "instance", objectives.instance_digest(self.objective))


def _build(cls, value, where: str):
    """``cls`` built from a config object whose keys are its fields."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be an object")
    reject_unknown(value, {f.name for f in fields(cls)}, where)
    return cls(**value)


def load_config(path, overrides) -> Experiment:
    """The experiment a config file specifies, after the ``--set`` overrides
    (``key=value``, a dotted key addressing a nested object)."""
    raw = load_json(path)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config root must be an object")
    for item in overrides or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"--set expects key=value, got {item!r}")
        try:
            parsed = json.loads(value, object_pairs_hook=objectives._unique_keys)
        except json.JSONDecodeError:
            parsed = value
        except ValueError as exc:  # a repeated key, as in a config file
            raise ValueError(f"--set {item!r}: {exc}") from None
        node = raw
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValueError(f"--set path {key!r} does not address an object")
        node[parts[-1]] = parsed
    # the top-level keys are the fields of RunConfig but the per-trial run_id
    # and those of Experiment but the built trial
    keys = {f.name: f for cls in (RunConfig, Experiment) for f in fields(cls) if f.init}
    del keys["run_id"], keys["trial"]
    reject_unknown(raw, keys, "config")
    for key, f in keys.items():  # a key without a default is required
        if f.default is MISSING and f.default_factory is MISSING and raw.get(key) is None:
            raise ValueError(f"config key {key!r} is required")
    for key, cls in (("step_rule", StepRule), ("momentum_rule", MomentumRule),
                     ("noise", NoiseModel)):
        if key in raw:
            raw[key] = _build(cls, raw[key], key)
    trial = RunConfig(**{f.name: raw.pop(f.name) for f in fields(RunConfig) if f.name in raw})
    return Experiment(trial, **raw)


def _write_record(cfg: Experiment, name: str, record: dict) -> None:
    """Write ``record`` to ``output_dir/name`` as canonical JSON (sorted keys)."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    with open(os.path.join(cfg.output_dir, name), "w") as fh:
        fh.write(json.dumps(record, sort_keys=True, indent=1) + "\n")


def resolve_opt(cfg: Experiment) -> float:
    """The configured optimum, or else the estimated one.

    ``analysis.approx_opt`` estimates it (the best final value across
    seeded, repeated greedy runs under the config's noise), and it must be
    positive, as a configured one is.  Its inputs are the estimator's name,
    the instance's digest, the noise model, ``n_runs``, ``iterations`` and
    the offset seed; under noise ``none``, which draws nothing, ``n_runs``
    is 1 and the seed is left out.  They leave out ``output_dir``, the
    bounds and ``t_min``.  When ``output_dir/opt.json`` parses, holds
    these inputs and a finite positive ``opt``, that value is returned (a
    JSON float round-trips); otherwise the estimate is written there with
    its inputs.
    """
    if isinstance(cfg.opt, (int, float)):
        return float(cfg.opt)
    spec = {**_OPT_DEFAULTS, **{_OPT_ARGS[key]: value for key, value in (cfg.opt or {}).items()}}
    if cfg.noise.kind == "none":  # one run, which draws nothing
        spec["n_runs"] = 1
    else:
        spec["master_seed"] = cfg.trial.master_seed + _OPT_SEED_OFFSET
    inputs = {"estimator": _OPT_ESTIMATOR, "instance": cfg.instance,
              "noise": asdict(cfg.noise), **spec}
    try:
        record = load_json(os.path.join(cfg.output_dir, _OPT_FILE))
    except (OSError, ValueError):  # an unreadable record is estimated again
        record = None
    if (isinstance(record, dict) and record.get("inputs") == inputs
            and is_finite_real(record.get("opt")) and record["opt"] > 0):
        return float(record["opt"])
    opt = float(analysis.approx_opt(cfg.objective, noise=cfg.noise, **spec))
    if not opt > 0:  # nothing can be normalized by it or bounded below it
        raise ValueError(f"estimated optimum {opt:.17g} is not positive")
    _write_record(cfg, _OPT_FILE, {"inputs": inputs, "opt": opt})
    return opt


def _run_config(cfg: Experiment) -> dict:
    """What fixes a battery's rows, in field order: the trial config but its
    ``run_id``, the noise model, ``runs`` and the instance's digest.  It
    leaves out ``output_dir`` and ``workers``, which change no row."""
    trial = asdict(cfg.trial)
    del trial["run_id"]
    return {"trial": trial, "noise": asdict(cfg.noise), "runs": cfg.runs,
            "instance": cfg.instance}


def _flatten(node, prefix: str = "") -> dict:
    """A JSON object's leaves by dotted name, in the object's key order."""
    if not isinstance(node, dict):
        return {prefix: node}
    return {name: leaf for key, value in node.items()
            for name, leaf in _flatten(value, f"{prefix}.{key}" if prefix else key).items()}


def _check_run_config(cfg: Experiment) -> None:
    """Reject a battery whose ``run_config.json`` is missing or differs from
    the config's own, naming the first field that differs."""
    path = os.path.join(cfg.output_dir, _RUN_CONFIG_FILE)
    try:
        recorded = load_json(path)
    except FileNotFoundError:
        raise ValueError(f"{path} is missing, so the battery's config is unknown") from None
    if not isinstance(recorded, dict):
        raise ValueError(f"{path}: the root must be an object")
    own = _run_config(cfg)
    if recorded == own:
        return
    own, recorded = _flatten(own), _flatten(recorded)
    for name in [*own, *recorded]:
        if name not in recorded or name not in own or recorded[name] != own[name]:
            theirs, mine = (json.dumps(side[name]) if name in side else "nothing"
                            for side in (recorded, own))
            raise ValueError(f"{path}: the battery was run with {name} {theirs}, "
                             f"the config has {mine}")
    # a difference no leaf shows, such as an extra empty object
    raise ValueError(f"{path}: differs from the config's run config")


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def cmd_run(cfg: Experiment) -> None:
    battery_path = os.path.join(cfg.output_dir, "battery.csv")
    marker = battery_path + ".partial"
    if os.path.exists(marker):
        os.remove(marker)
    _write_record(cfg, _RUN_CONFIG_FILE, _run_config(cfg))  # makes output_dir

    try:  # the rows of the trials before a failing one stay in the file
        returned = optimizers.records_to_csv(
            optimizers.run_battery(cfg.objective, cfg.noise, cfg.trial, cfg.runs, cfg.workers),
            battery_path)
    except Exception as exc:  # abort the battery, leave a partial marker
        with open(marker, "w") as fh:
            fh.write(f"battery aborted: {exc}\n")
        raise RuntimeError(f"battery aborted: {exc}") from exc

    print(
        f"returned: min={float(np.min(returned)):.17g} "
        f"median={float(np.median(returned)):.17g} "
        f"max={float(np.max(returned)):.17g}"
    )
    print(f"wrote {battery_path}")


def _bound_curves(cfg: Experiment, opt: float) -> list:
    """Each bounds entry's curve over t = 1..T, all evaluated before the
    caller writes anything."""
    if not cfg.bounds:
        return []
    consts = bounds.constants_for(cfg.objective, cfg.noise, opt)
    return [bounds.bound_curve(entry, consts, cfg.trial) for entry in cfg.bounds]


def cmd_bounds(cfg: Experiment) -> None:
    if not cfg.bounds:
        raise ValueError("no bounds selected in config")
    curves = _bound_curves(cfg, resolve_opt(cfg))
    os.makedirs(cfg.output_dir, exist_ok=True)
    for curve in curves:
        path = os.path.join(cfg.output_dir, f"bound_{curve.label}.csv")
        bounds.save_bound_curve(path, curve)
        print(f"wrote {path}")


_REPORT_STATS = (("min", "min"), ("median", "median"), ("q90", 0.9))


def cmd_report(cfg: Experiment) -> None:
    out_dir = cfg.output_dir
    battery_path = os.path.join(out_dir, "battery.csv")
    battery = analysis.TrialBattery.from_csv(battery_path)
    trial = cfg.trial
    if battery.algorithm != trial.algorithm:
        raise ValueError(f"{battery_path}: battery algorithm {battery.algorithm!r} "
                         f"differs from the config's {trial.algorithm!r}")
    if battery.f_true.shape[1] != trial.T:
        raise ValueError(f"{battery_path}: battery of {battery.f_true.shape[1]} points per run "
                         f"is not t = 1..T for the config's T = {trial.T}")
    if not np.array_equal(battery.run_ids, np.arange(cfg.runs)):
        raise ValueError(f"{battery_path}: battery of {battery.n_runs} runs is not run ids "
                         f"0..runs-1 for the config's runs = {cfg.runs}")
    _check_run_config(cfg)
    series = optimizers.guarantee_series(battery.algorithm)
    statistic = "final_iterate" if series == "f_true" else "average_iterate"

    scale, opt_text, bound_curves = 1.0, "-", []
    if cfg.normalized or cfg.bounds:
        opt = resolve_opt(cfg)
        if cfg.normalized:
            scale, opt_text = opt, f"{opt:.17g}"
        bound_curves = _bound_curves(cfg, opt)

    curves = []
    # a value over an opt near zero overflows to inf, which the fit rejects by its label
    with np.errstate(over="ignore"):
        for label, stat in _REPORT_STATS:
            t, values = analysis.trajectory_statistic(battery, stat, series)
            curves.append((t, values / scale, label))
    fits = analysis.shared_c1_refit(curves, t_min=cfg.t_min)

    violations = []
    for curve in bound_curves:
        rate = analysis.bound_violation_rate(battery, curve)
        violations.append(
            f"violation {curve.label}: delta={dict(curve.meta)['delta']:.17g} "
            f"statistic={statistic} "
            f"bound_at_T={curve.at(trial.T):.17g} rate={rate:.17g}"
        )

    # every input is read and checked before the first output but opt.json is written
    for t, values, label in curves:
        with open(os.path.join(out_dir, f"stats_{label}.csv"), "w") as fh:
            fh.write("t,stat_value,stat_label\n")
            for ti, vi in zip(t, values):
                fh.write(f"{ti},{vi:.17g},{label}\n")
    report_path = os.path.join(out_dir, "report.txt")
    lines = [
        f"algorithm: {battery.algorithm}",
        f"runs: {battery.n_runs}",
        f"T: {trial.T}",
        f"series: {series}",
        f"opt: {opt_text}",
        f"normalized: {str(cfg.normalized).lower()}",
        f"fit: p={fits[0].p:.17g} t_min={cfg.t_min}",
        f"c1_shared: {fits[0].c1:.17g}",
    ]
    for fit in fits:
        lines.append(
            f"fit {fit.label}: c2={fit.c2:.17g} residual={fit.residual:.17g} "
            f"n_points={fit.n_points}"
        )
    lines.append("at_T: " + " ".join(f"{label}={values[-1]:.17g}" for _, values, label in curves))
    with open(report_path, "w") as fh:
        fh.write("\n".join(lines + violations) + "\n")
    print(f"wrote {report_path}")


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

@functools.cache  # one parser per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drsubmax",
        description="stochastic DR-submodular maximization experiment harness",
    )
    parser.add_argument("command", choices=["run", "bounds", "report"],
                        help="run a battery of trials and write the trajectory CSV; "
                             "evaluate the selected bound curves; or aggregate a battery "
                             "into statistics, fits and violation rates")
    parser.add_argument("--config", required=True)
    parser.add_argument("--set", action="append", default=[], dest="overrides",
                        metavar="KEY=VALUE", help="override a config key (dotted path)")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else 0
    try:  # the commands are looked up at call time, so a wrapper set on the module applies
        cfg = load_config(args.config, args.overrides)
        {"run": cmd_run, "bounds": cmd_bounds, "report": cmd_report}[args.command](cfg)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION if isinstance(exc, ValueError) else EXIT_FAILURE
    return 0
