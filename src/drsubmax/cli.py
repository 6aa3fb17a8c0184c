"""Command-line surface: generate instances, run trial batteries, evaluate
bound curves, and produce fit/violation reports.

Every command is driven by a JSON config file; command-line ``--set``
options override individual (dotted) keys.  Outputs are plain CSV and text
with 17-significant-digit floats, so identical configs reproduce identical
bytes.  Exit codes: 0 success, 1 I/O failure, 2 validation failure.  Bad
input raises ``ValueError`` and I/O failure ``OSError``, wherever it is
found; ``main`` alone turns them into exit codes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import analysis, bounds, objectives, optimizers
from .geometry import diameter_bound
from .objectives import is_finite_real, is_int
from .oracles import NoiseModel, noise_constants
from .optimizers import MomentumRule, RunConfig, StepRule

__all__ = ["main"]

# approximated-optimum trials must not share generator streams with the
# battery trials of the same config, so their seed is offset
_OPT_SEED_OFFSET = 1000003

EXIT_IO = 1
EXIT_VALIDATION = 2


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

# an optimum approximation spec's keys, as approx_opt's arguments
_OPT_ARGS = {"runs": "n_runs", "iterations": "iterations"}

# the trial and noise keys default in RunConfig, StepRule, MomentumRule and
# NoiseModel
_DEFAULTS = {
    "runs": 1,
    "noise": {},
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
        raise ValueError(f"unknown {where} key(s): {', '.join(unknown)}")


def validate_config(raw: dict) -> dict:
    """The config with the CLI's defaults filled in, after checking the keys
    that no library type sees.  The trial and noise keys are checked by
    ``RunConfig`` and ``NoiseModel`` when ``load_config`` builds them, and the
    problem's values by the objective's constructor."""
    _reject_unknown(raw, _TOP_KEYS, "config")
    cfg = dict(_DEFAULTS)
    cfg.update(raw)
    for key in ("problem", "algorithm", "T", "output_dir"):
        if cfg.get(key) is None:
            raise ValueError(f"config key {key!r} is required")

    problem = cfg["problem"]
    if not isinstance(problem, dict) or "kind" not in problem:
        raise ValueError("problem must be an object with a 'kind'")
    kind = problem["kind"]
    if not isinstance(kind, str) or kind not in _PROBLEM_KEYS:
        raise ValueError(f"unknown problem kind {kind!r}")
    _reject_unknown(problem, _PROBLEM_KEYS[kind], f"problem[{kind}]")
    for name, value in (("output_dir", cfg["output_dir"]),
                        ("problem path", problem.get("path", ""))):
        if not isinstance(value, str):
            raise ValueError(f"{name} must be a string")

    for key in ("runs", "t_min"):
        if not (is_int(cfg[key]) and cfg[key] >= 1):
            raise ValueError(f"{key} must be a positive integer")
    if cfg["workers"] != "auto" and not (is_int(cfg["workers"]) and cfg["workers"] >= 1):
        raise ValueError("workers must be a positive integer or 'auto'")
    if not (is_finite_real(cfg["fit_exponent"]) and cfg["fit_exponent"] > 0):
        raise ValueError("fit_exponent must be a positive finite number")
    if not isinstance(cfg["normalized"], bool):
        raise ValueError("normalized must be true or false")

    if not isinstance(cfg["noise"], dict):
        raise ValueError("noise must be an object")
    _reject_unknown(cfg["noise"], {f.name for f in fields(NoiseModel)}, "noise")

    if not isinstance(cfg["bounds"], list):
        raise ValueError("bounds must be a list")
    for entry in cfg["bounds"]:
        if not isinstance(entry, dict):
            raise ValueError("each bounds entry must be an object")
        _reject_unknown(entry, _BOUND_KEYS, "bounds entry")
        theorem = entry.get("theorem")
        if not isinstance(theorem, str) or theorem not in bounds.THEOREMS:
            raise ValueError(f"unknown theorem {theorem!r}")
        if ("delta" in entry) == ("p" in entry):
            raise ValueError("each bounds entry needs exactly one of delta or p")
        # delta and p are numbers, like the float-valued theorem parameters
        for key, default in {"delta": 0.0, "p": 0.0, **bounds.THEOREMS[theorem].params}.items():
            value = entry.get(key, default)
            if isinstance(default, bool) and not isinstance(value, bool):
                raise ValueError(f"{theorem}: {key} must be true or false")
            if isinstance(default, float) and not is_finite_real(value):
                raise ValueError(f"{theorem}: {key} must be a finite number")

    opt = cfg["opt"]
    if isinstance(opt, dict):
        _reject_unknown(opt, set(_OPT_ARGS), "opt")
        for key, value in opt.items():
            if not (is_int(value) and value >= 1):
                raise ValueError(f"opt.{key} must be a positive integer")
    elif opt is not None and not (is_finite_real(opt) and opt > 0):
        raise ValueError("opt must be a positive number, null, or an approximation spec")
    return cfg


def build_run_config(cfg: dict) -> RunConfig:
    """The trial config from the keys the config sets; the dataclass
    defaults fill in the rest."""
    kwargs = {key: cfg[key] for key in _TRIAL_KEYS if key in cfg}
    for key, rule in (("step_rule", StepRule), ("momentum_rule", MomentumRule)):
        if key in kwargs:
            if not isinstance(kwargs[key], dict):
                raise ValueError(f"{key} must be an object")
            _reject_unknown(kwargs[key], {f.name for f in fields(rule)}, key)
            kwargs[key] = rule(**kwargs[key])
    return RunConfig(**kwargs)


def _bound_delta(entry: dict, T: int) -> float:
    if "delta" in entry:
        return float(entry["delta"])
    return bounds.THEOREMS[entry["theorem"]].delta(entry["p"], T)


def load_config(path, overrides) -> dict:
    """The validated config, with its ``trial`` entry the built ``RunConfig``
    and its ``noise`` entry the built ``NoiseModel``."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config root must be an object")
    for item in overrides or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"--set expects key=value, got {item!r}")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node = raw
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValueError(f"--set path {key!r} does not address an object")
        node[parts[-1]] = parsed
    cfg = validate_config(raw)
    cfg["trial"] = build_run_config(cfg)
    cfg["noise"] = NoiseModel(**cfg["noise"])
    # each bounds entry is checked by its theorem at T = 1 before any work
    unit = bounds.BoundConstants(1.0, 1.0, *noise_constants(cfg["noise"], 1, g_max=1.0))
    for entry in cfg["bounds"]:
        try:
            bounds.bound_curve(entry["theorem"], unit, 1, _bound_delta(entry, cfg["trial"].T),
                               entry)
        except ValueError as exc:
            raise ValueError(f"{entry['theorem']}: {exc}") from None
    return cfg


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
    except KeyError as exc:
        raise ValueError(f"problem spec is missing key {exc}") from None


def resolve_opt(cfg: dict, objective) -> float:
    """Known optimum from the config, or the seeded approximation procedure
    (best final greedy value across repeated runs under the config's noise)."""
    opt = cfg["opt"]
    if isinstance(opt, (int, float)):
        return float(opt)
    return analysis.approx_opt(
        objective,
        master_seed=cfg["trial"].master_seed + _OPT_SEED_OFFSET,
        noise=cfg["noise"],
        **{_OPT_ARGS[key]: value for key, value in (opt or {}).items()},
    )


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def _g17(x: float) -> str:
    return f"{x:.17g}"


def cmd_generate(args) -> int:
    obj = objectives.generate_nqp(args.seed, args.n, args.m, args.low, args.high)
    objectives.save_nqp(args.out, obj)
    print(f"wrote {args.out}")
    print(f"L = {_g17(bounds.spectral_norm(obj.h_matrix))}")
    print(f"D = {_g17(diameter_bound(obj.polytope))}")
    return 0


def cmd_run(cfg: dict) -> int:
    objective = build_objective(cfg)
    os.makedirs(cfg["output_dir"], exist_ok=True)
    battery_path = os.path.join(cfg["output_dir"], "battery.csv")
    marker = battery_path + ".partial"
    if os.path.exists(marker):
        os.remove(marker)

    returned = []

    def summarized():
        for record in optimizers.run_battery(objective, cfg["noise"], cfg["trial"],
                                             cfg["runs"], cfg["workers"]):
            returned.append(record.returned_value)
            yield record

    try:  # the rows of the trials before a failing one stay in the file
        optimizers.records_to_csv(summarized(), battery_path)
    except Exception as exc:  # abort the battery, leave a partial marker
        with open(marker, "w") as fh:
            fh.write(f"battery aborted: {exc}\n")
        print(f"battery aborted: {exc}", file=sys.stderr)
        return EXIT_IO

    print(
        f"returned: min={_g17(float(np.min(returned)))} "
        f"median={_g17(float(np.median(returned)))} "
        f"max={_g17(float(np.max(returned)))}"
    )
    print(f"wrote {battery_path}")
    return 0


def cmd_bounds(cfg: dict) -> int:
    if not cfg["bounds"]:
        raise ValueError("no bounds selected in config")
    objective = build_objective(cfg)
    opt = resolve_opt(cfg, objective)
    consts = bounds.constants_for(objective, cfg["noise"], opt)
    out_dir = cfg["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    T = cfg["trial"].T
    for entry in cfg["bounds"]:
        theorem = entry["theorem"]
        curve = bounds.bound_curve(theorem, consts, T, _bound_delta(entry, T), entry)
        path = os.path.join(out_dir, f"bound_{theorem}.csv")
        bounds.save_bound_curve(path, curve)
        print(f"wrote {path}")
    return 0


_REPORT_STATS = (("min", "min"), ("median", "median"), ("q90", 0.9))


def cmd_report(cfg: dict) -> int:
    out_dir = cfg["output_dir"]
    battery = analysis.TrialBattery.from_csv(os.path.join(out_dir, "battery.csv"))
    series = optimizers.guarantee_series(battery.algorithm)
    if cfg["normalized"]:
        scale = resolve_opt(cfg, build_objective(cfg))
        opt_text = _g17(scale)
    else:
        scale, opt_text = 1.0, "-"

    curves = []
    for label, stat in _REPORT_STATS:
        t, values = analysis.trajectory_statistic(battery, stat, series)
        curves.append((t, values / scale, label))
    fits = analysis.shared_c1_refit(curves, p=cfg["fit_exponent"], t_min=cfg["t_min"])

    violations = []
    for entry in cfg["bounds"]:
        path = os.path.join(out_dir, f"bound_{entry['theorem']}.csv")
        if not os.path.exists(path):
            continue
        curve = bounds.load_bound_curve(path)
        convention = bounds.THEOREMS[entry["theorem"]].statistic
        rate = analysis.bound_violation_rate(battery, curve, convention)
        violations.append((entry["theorem"], _bound_delta(entry, cfg["trial"].T),
                           convention, curve.at(int(battery.t[-1])), rate))

    # every input is read and checked before the first output is written
    for t, values, label in curves:
        with open(os.path.join(out_dir, f"stats_{label}.csv"), "w") as fh:
            fh.write("t,stat_value,stat_label\n")
            for ti, vi in zip(t, values):
                fh.write(f"{int(ti)},{vi:.17g},{label}\n")
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
