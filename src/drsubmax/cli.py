"""Command-line surface: generate instances, run trial batteries, evaluate
bound curves, and produce fit/violation reports.

Every command is driven by a JSON config file; command-line ``--set``
options override individual (dotted) keys.  Outputs are plain CSV and text
with 17-significant-digit floats, so identical configs reproduce identical
bytes.  Exit codes: 0 success, 1 I/O failure, 2 validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace

import numpy as np

from . import analysis, bounds, objectives, optimizers
from .geometry import diameter_bound
from .oracles import NoiseModel
from .optimizers import MomentumRule, RunConfig, StepRule

__all__ = ["main"]

# approximated-optimum trials must not share generator streams with the
# battery trials of the same config, so their seed is offset
_OPT_SEED_OFFSET = 1000003

EXIT_IO = 1
EXIT_VALIDATION = 2


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _fail_validation(message: str):
    raise CliError(EXIT_VALIDATION, message)


def _fail_io(message: str):
    raise CliError(EXIT_IO, message)


# ----------------------------------------------------------------------
# config handling
# ----------------------------------------------------------------------

# the trial keys are the fields of RunConfig but the per-trial run_id
_TRIAL_KEYS = {f.name for f in fields(RunConfig)} - {"run_id"}
_TOP_KEYS = _TRIAL_KEYS | {
    "problem", "runs", "noise", "bounds", "opt", "normalized", "t_min", "fit_exponent",
    "workers", "output_dir",
}

_PROBLEM_KEYS = {
    "nqp-generate": {"kind", "n", "m", "entry_low", "entry_high", "seed"},
    "nqp-file": {"kind", "path"},
    "budget-file": {"kind", "path", "mapping", "k", "upper", "alphas"},
    "budget-synthetic": {"kind", "channels", "customers", "density", "p_low",
                         "p_high", "seed", "k", "upper", "alphas"},
}

_BOUND_KEYS = {"theorem", "delta", "p"}.union(
    *(spec.params for spec in bounds.THEOREMS.values()))

# the trial keys default in RunConfig, StepRule and MomentumRule
_DEFAULTS = {
    "runs": 1,
    "master_seed": 0,
    "noise": {"kind": "none"},
    "bounds": [],
    "opt": None,
    "normalized": True,
    "t_min": 1,
    "fit_exponent": 0.5,
    "workers": "auto",
}


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        _fail_validation(f"unknown {where} key(s): {', '.join(unknown)}")


def _is_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _is_positive_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def validate_config(raw: dict) -> dict:
    _reject_unknown(raw, _TOP_KEYS, "config")
    cfg = dict(_DEFAULTS)
    cfg.update(raw)
    for key in ("problem", "algorithm", "T", "output_dir"):
        if key not in cfg or cfg[key] is None:
            _fail_validation(f"config key {key!r} is required")

    problem = cfg["problem"]
    if not isinstance(problem, dict) or "kind" not in problem:
        _fail_validation("problem must be an object with a 'kind'")
    kind = problem["kind"]
    if kind not in _PROBLEM_KEYS:
        _fail_validation(f"unknown problem kind {kind!r}")
    _reject_unknown(problem, _PROBLEM_KEYS[kind], f"problem[{kind}]")

    if cfg["algorithm"] not in optimizers.ALGORITHMS:
        _fail_validation(f"unknown algorithm {cfg['algorithm']!r}")
    if not isinstance(cfg["T"], int) or cfg["T"] < 1:
        _fail_validation("T must be a positive integer")
    if not isinstance(cfg["runs"], int) or cfg["runs"] < 1:
        _fail_validation("runs must be a positive integer")
    if not isinstance(cfg["master_seed"], int):
        _fail_validation("master_seed must be an integer")
    if not isinstance(cfg["t_min"], int) or cfg["t_min"] < 1:
        _fail_validation("t_min must be a positive integer")

    noise = cfg["noise"]
    if not isinstance(noise, dict):
        _fail_validation("noise must be an object")
    _reject_unknown(noise, {"kind", "sigma", "scale", "hessian_sigma"}, "noise")

    if not isinstance(cfg["bounds"], list):
        _fail_validation("bounds must be a list")
    for entry in cfg["bounds"]:
        if not isinstance(entry, dict):
            _fail_validation("each bounds entry must be an object")
        _reject_unknown(entry, _BOUND_KEYS, "bounds entry")
        theorem = entry.get("theorem")
        if not isinstance(theorem, str) or theorem not in bounds.THEOREMS:
            _fail_validation(f"unknown theorem {theorem!r}")
        if ("delta" in entry) == ("p" in entry):
            _fail_validation("each bounds entry needs exactly one of delta or p")
        # delta and p are numbers, like the float-valued theorem parameters
        for key, default in {"delta": 0.0, "p": 0.0, **bounds.THEOREMS[theorem].params}.items():
            value = entry.get(key, default)
            if isinstance(default, bool) and not isinstance(value, bool):
                _fail_validation(f"{theorem}: {key} must be true or false")
            if isinstance(default, float) and not _is_number(value):
                _fail_validation(f"{theorem}: {key} must be a finite number")

    opt = cfg["opt"]
    if isinstance(opt, dict):
        _reject_unknown(opt, {"runs", "iterations"}, "opt")
        for key, value in opt.items():
            if not _is_positive_int(value):
                _fail_validation(f"opt.{key} must be a positive integer")
    elif opt is not None and not (_is_number(opt) and opt > 0):
        _fail_validation("opt must be a positive number, null, or an approximation spec")
    return cfg


def load_config(path, overrides) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        _fail_io(f"cannot read config {path}: {exc}")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        _fail_validation(f"config {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        _fail_validation("config root must be an object")
    for item in overrides or []:
        key, sep, value = item.partition("=")
        if not sep:
            _fail_validation(f"--set expects key=value, got {item!r}")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node = raw
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                _fail_validation(f"--set path {key!r} does not address an object")
        node[parts[-1]] = parsed
    return validate_config(raw)


def build_objective(cfg: dict):
    problem = cfg["problem"]
    kind = problem["kind"]
    try:
        if kind == "nqp-generate":
            return objectives.generate_nqp(
                problem["seed"], problem["n"], problem["m"],
                problem["entry_low"], problem["entry_high"],
            )
        if kind == "nqp-file":
            return objectives.load_nqp(problem["path"])
        if kind == "budget-file":
            mapping = objectives.FrequencyMapping(problem.get("mapping", "exp"))
            return objectives.load_bipartite(
                problem["path"], mapping, k=problem.get("k", 1),
                alphas=problem.get("alphas"), upper=problem.get("upper"),
            )
        return objectives.generate_budget(
            problem["seed"], problem["channels"], problem["customers"],
            problem["density"], problem["p_low"], problem["p_high"],
            k=problem.get("k", 1), alphas=problem.get("alphas"),
            upper=problem.get("upper", 1.0),
        )
    except FileNotFoundError as exc:
        _fail_io(f"instance file not found: {exc.filename}")
    except KeyError as exc:
        _fail_validation(f"problem spec is missing key {exc}")
    except ValueError as exc:
        _fail_validation(str(exc))


def build_noise(cfg: dict) -> NoiseModel:
    spec = cfg["noise"]
    try:
        return NoiseModel(
            kind=spec.get("kind", "none"),
            sigma=spec.get("sigma", 0.0),
            scale=spec.get("scale", 0.0),
            hessian_sigma=spec.get("hessian_sigma"),
        )
    except ValueError as exc:
        _fail_validation(str(exc))


def build_run_config(cfg: dict) -> RunConfig:
    """The trial config from the keys the config sets; the dataclass
    defaults fill in the rest."""
    kwargs = {key: cfg[key] for key in _TRIAL_KEYS if key in cfg}
    try:
        for key, rule in (("step_rule", StepRule), ("momentum_rule", MomentumRule)):
            spec = kwargs.get(key, {})
            if not isinstance(spec, dict):
                _fail_validation(f"{key} must be an object")
            kwargs[key] = rule(**{f.name: spec[f.name] for f in fields(rule) if f.name in spec})
        return RunConfig(**kwargs)
    except (ValueError, TypeError) as exc:
        _fail_validation(str(exc))


def resolve_opt(cfg: dict, objective) -> float:
    """Known optimum from the config, or the seeded approximation procedure
    (best final greedy value across repeated runs under the config's noise)."""
    opt = cfg["opt"]
    if isinstance(opt, (int, float)):
        return float(opt)
    spec = opt or {}
    return analysis.approx_opt(
        objective,
        master_seed=cfg["master_seed"] + _OPT_SEED_OFFSET,
        n_runs=spec.get("runs", 100),
        iterations=spec.get("iterations", 5000),
        noise=build_noise(cfg),
    )


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def _g17(x: float) -> str:
    return f"{x:.17g}"


def cmd_generate(args) -> int:
    try:
        obj = objectives.generate_nqp(args.seed, args.n, args.m, args.low, args.high)
    except ValueError as exc:
        _fail_validation(str(exc))
    try:
        objectives.save_nqp(args.out, obj)
    except OSError as exc:
        _fail_io(f"cannot write {args.out}: {exc}")
    print(f"wrote {args.out}")
    print(f"L = {_g17(bounds.spectral_norm(obj.h_matrix))}")
    print(f"D = {_g17(diameter_bound(obj.polytope))}")
    return 0


def _run_one(payload):
    objective, noise, cfg = payload
    return optimizers.run_trial(objective, noise, cfg)


def _resolve_workers(cfg: dict) -> int:
    workers = cfg["workers"]
    if workers == "auto":
        return min(os.cpu_count() or 1, cfg["runs"])
    if not isinstance(workers, int) or workers < 1:
        _fail_validation("workers must be a positive integer or 'auto'")
    return workers


def cmd_run(cfg: dict) -> int:
    objective = build_objective(cfg)
    noise = build_noise(cfg)
    base = build_run_config(cfg)
    out_dir = cfg["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    battery_path = os.path.join(out_dir, "battery.csv")
    marker = battery_path + ".partial"
    if os.path.exists(marker):
        os.remove(marker)

    workers = _resolve_workers(cfg)
    payloads = [(objective, noise, replace(base, run_id=i)) for i in range(cfg["runs"])]
    records = []
    try:
        if workers == 1:
            for payload in payloads:
                records.append(_run_one(payload))
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                # results arrive in run_id order; keep each one as it comes so
                # an abort still writes the trials before the failing one
                for record in pool.map(_run_one, payloads):
                    records.append(record)
    except Exception as exc:  # abort the battery, leave a partial marker
        optimizers.records_to_csv(records, battery_path)
        with open(marker, "w") as fh:
            fh.write(f"battery aborted: {exc}\n")
        print(f"battery aborted: {exc}", file=sys.stderr)
        return EXIT_IO

    optimizers.records_to_csv(records, battery_path)
    returned = np.array([rec.returned_value for rec in records])
    print(
        f"returned: min={_g17(float(returned.min()))} "
        f"median={_g17(float(np.median(returned)))} "
        f"max={_g17(float(returned.max()))}"
    )
    print(f"wrote {battery_path}")
    return 0


def _bound_delta(entry: dict, T: int) -> float:
    if "delta" in entry:
        return float(entry["delta"])
    try:
        return bounds.THEOREMS[entry["theorem"]].delta(entry["p"], T)
    except ValueError as exc:
        _fail_validation(str(exc))


def cmd_bounds(cfg: dict) -> int:
    if not cfg["bounds"]:
        _fail_validation("no bounds selected in config")
    objective = build_objective(cfg)
    noise = build_noise(cfg)
    opt = resolve_opt(cfg, objective)
    g_max = float(np.linalg.norm(objective.grad(np.zeros(objective.dim))))
    try:
        consts = bounds.constants_for(objective, noise, opt, g_max=g_max)
    except ValueError as exc:
        _fail_validation(str(exc))
    out_dir = cfg["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    for entry in cfg["bounds"]:
        theorem = entry["theorem"]
        delta = _bound_delta(entry, cfg["T"])
        try:
            curve = bounds.bound_curve(theorem, consts, cfg["T"], delta, entry)
        except ValueError as exc:
            _fail_validation(f"{theorem}: {exc}")
        path = os.path.join(out_dir, f"bound_{theorem}.csv")
        bounds.save_bound_curve(path, curve)
        print(f"wrote {path}")
    return 0


_REPORT_STATS = (("min", "min"), ("median", "median"), ("q90", 0.9))


def cmd_report(cfg: dict) -> int:
    out_dir = cfg["output_dir"]
    battery_path = os.path.join(out_dir, "battery.csv")
    if not os.path.exists(battery_path):
        _fail_io(f"battery file not found: {battery_path}")
    try:
        battery = analysis.TrialBattery.from_csv(battery_path)
    except ValueError as exc:
        _fail_validation(str(exc))

    series = "f_running_avg" if battery.algorithm == "pga" else "f_true"
    if cfg["normalized"]:
        scale = resolve_opt(cfg, build_objective(cfg))
        opt_text = _g17(scale)
    else:
        scale, opt_text = 1.0, "-"

    curves = []
    for label, stat in _REPORT_STATS:
        t, values = analysis.trajectory_statistic(battery, stat, series)
        values = values / scale
        curves.append((t, values, label))
        stat_path = os.path.join(out_dir, f"stats_{label}.csv")
        with open(stat_path, "w") as fh:
            fh.write("t,stat_value,stat_label\n")
            for ti, vi in zip(t, values):
                fh.write(f"{int(ti)},{vi:.17g},{label}\n")
    try:
        fits = analysis.shared_c1_refit(curves, p=cfg["fit_exponent"], t_min=cfg["t_min"])
    except ValueError as exc:
        _fail_validation(str(exc))

    violations = []
    for entry in cfg["bounds"]:
        path = os.path.join(out_dir, f"bound_{entry['theorem']}.csv")
        if not os.path.exists(path):
            continue
        curve = bounds.load_bound_curve(path)
        convention = bounds.THEOREMS[entry["theorem"]].statistic
        try:
            rate = analysis.bound_violation_rate(battery, curve, convention)
        except ValueError as exc:
            _fail_validation(str(exc))
        violations.append((entry["theorem"], _bound_delta(entry, cfg["T"]),
                           convention, curve.at(int(battery.t[-1])), rate))

    report_path = os.path.join(out_dir, "report.txt")
    lines = [
        f"algorithm: {battery.algorithm}",
        f"runs: {battery.n_runs}",
        f"T: {int(battery.t[-1])}",
        f"series: {series}",
        f"opt: {opt_text}",
        f"normalized: {str(cfg['normalized']).lower()}",
        f"fit: p={_g17(cfg['fit_exponent'])} t_min={cfg['t_min']}",
        f"c1_shared: {_g17(fits[0].c1)}",
    ]
    for fit in fits:
        lines.append(
            f"fit {fit.label}: c2={_g17(fit.c2)} residual={_g17(fit.residual)} "
            f"n_points={fit.n_points}"
        )
    for theorem, delta, convention, threshold, rate in violations:
        lines.append(
            f"violation {theorem}: delta={_g17(delta)} statistic={convention} "
            f"bound_at_T={_g17(threshold)} rate={_g17(rate)}"
        )
    with open(report_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {report_path}")
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drsubmax",
        description="stochastic DR-submodular maximization experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a benchmark instance file")
    gen.add_argument("family", choices=["nqp"])
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--low", type=float, required=True)
    gen.add_argument("--high", type=float, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)

    for name, help_text in (
        ("run", "run a battery of trials and write the trajectory CSV"),
        ("bounds", "evaluate the selected bound curves"),
        ("report", "aggregate a battery into statistics, fits, and violation rates"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True)
        cmd.add_argument("--set", action="append", default=[], dest="overrides",
                         metavar="KEY=VALUE", help="override a config key (dotted path)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else 0
    try:
        if args.command == "generate":
            return cmd_generate(args)
        cfg = load_config(args.config, args.overrides)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "bounds":
            return cmd_bounds(cfg)
        return cmd_report(cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
