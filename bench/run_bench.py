"""Benchmark of drsubmax: one workload, closed loop, one process, one caller.

Run from the repository root:

    python3 bench/run_bench.py --workload scg-100x50 --seed 123 --seconds 27 --trace 0

``--trace 0`` runs about ``--seconds`` seconds of work untraced and reports
the end-to-end metrics: the work is a list of units (one instance each),
sized from ``--seconds`` and the workload's nominal unit time.  ``--trace 1``
runs a quarter as many units untraced, then the same units traced, and
reports the per-layer metrics; it also checks every traced LMO answer and
projection against HiGHS.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment.  The exit code is 0 only when every output check
passed.  See ``bench/README.md`` for the workloads and metrics.
"""

import os

# one BLAS thread on a two-core machine, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

#: cold set-ups timed per run for ``setup_s``
SETUP_SAMPLES = 9
#: fewest units in an untraced run, however short ``--seconds`` is
MIN_UNITS = 5
#: seconds the reference kernel takes at the reference speed: about its
#: median on an idle 2-core x86-64 VM (numpy 2.4, OpenBLAS 0.3.31)
REF_SECONDS = 0.006

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "run_s": "s",
    "bounds_s": "s",
    "report_s": "s",
    "iters_per_s": "1/s",
    "ok_frac": "ratio",
    "ret_median": "ratio",
    "peak_rss_mb": "MiB",
}

_TIMES = {"calls": "count", "self_s": "s"}
PER_LAYER = {
    "geometry.lmo": {**_TIMES, "us_p50": "us", "us_p90": "us", "errors": "count",
                     "gap_max": "ratio", "repeat_frac": "ratio"},
    "geometry.project": {**_TIMES, "us_p50": "us", "us_p90": "us", "errors": "count",
                         "work_frac": "ratio", "residual_max": "abs", "vi_gap_max": "ratio"},
    "objectives.value": _TIMES,
    "objectives.grad": _TIMES,
    "objectives.hessian": _TIMES,
    "oracles.grad": _TIMES,
    "oracles.hessian": _TIMES,
    "optimizers.trial": {**_TIMES, "iterations": "count"},
    "optimizers.records_to_csv": {"s": "s"},
    "analysis.approx_opt": {"calls": "count", "s": "s"},
    "analysis.from_csv": {"s": "s"},
    "analysis.trajectory_statistic": {"s": "s"},
    "analysis.shared_c1_refit": {"s": "s"},
    "bounds.constants_for": {"s": "s"},
    "bounds.spectral_norm": {"calls": "count", "s": "s"},
    "bounds.curve": {"s": "s"},
    "cli.run": {"self_s": "s"},
    "cli.bounds": {"self_s": "s"},
    "cli.report": {"self_s": "s"},
    "trace": {"overhead_frac": "ratio"},
}


def per_layer_names() -> list[str]:
    return [f"{layer}.{key}" for layer, keys in PER_LAYER.items() for key in keys]


def per_layer_unit(name: str) -> str:
    layer, _, key = name.rpartition(".")
    return PER_LAYER[layer][key]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's pinned seed)")
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs and exit (used to time setup_s)")
    return parser.parse_args(argv)


def _git_commit(root: str):
    try:
        top = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != root:
        return None
    return lines[1]


def _source_digest(src: str) -> str:
    digest = hashlib.sha256()
    package = os.path.join(src, "drsubmax")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def provenance(root: str, src: str) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workers": 1,
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(src),
    }


def reference_seconds(repeats: int = 3) -> float:
    """Median seconds of a fixed numpy-and-Python loop that calls no drsubmax
    code.

    On a shared 2-core x86-64 VM the speed drifts by 20-30% over tens of
    seconds, about the same for this kernel as for the program.  Timed next
    to every unit, the kernel measures that speed, and the benchmark reports
    times at the reference speed: measured seconds * REF_SECONDS / kernel
    seconds.
    """
    import numpy as np

    a = np.random.default_rng(0).random((60, 120))
    times = []
    for _ in range(repeats + 1):  # the first pass warms up and is not used
        x = np.full(120, 0.5)
        started = time.perf_counter()
        for _ in range(400):
            y = a @ x
            x = np.clip(x + 1e-3 * (a.T @ y) - 1e-3 * x.sum(), 0.0, 1.0)
        times.append(time.perf_counter() - started)
    return statistics.median(times[1:])


def _time_setups(args, seed: int) -> tuple[float, float]:
    """Median wall time of cold set-ups: a fresh interpreter that imports the
    package, builds the inputs and exits just before the first timed call.
    Returns the seconds and the speed factor (see ``reference_seconds``)."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(args.seconds), "--setup-only"]
    before = reference_seconds()
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - started)
    speed = REF_SECONDS / ((before + reference_seconds()) / 2)
    return statistics.median(samples), speed


def unit_count(workload, seconds: float, minimum: int) -> int:
    """Units of a run: fixed by ``seconds`` and the workload's nominal unit
    time, never by the measured speed, so two versions of the program do the
    same work."""
    return max(minimum, round(seconds / workload.unit_seconds))


def run_units(workload, inputs) -> list:
    """Runs the units in order, timing the reference kernel between them."""
    units = []
    before = reference_seconds()
    for unit_input in inputs:
        unit = workload.run_unit(unit_input)
        after = reference_seconds()
        unit.speed = REF_SECONDS / ((before + after) / 2)
        units.append(unit)
        before = after
    return units


def check_units(workload, inputs, units) -> list:
    """Output checks of finished units; returns the failure messages."""
    from checks import check_distinct

    errors = []
    for k, (unit_input, unit) in enumerate(zip(inputs, units)):
        workload.collect(unit_input, unit)
        errors += unit.errors
        for b, values in enumerate(unit.values):
            bad = check_distinct(values, f"{workload.name} unit {k} battery {b}")
            if bad:
                errors.append(bad)
    return errors


def unit_wall(unit) -> float:
    return sum(unit.phases.values())


def _median(values) -> float:
    """Median, or 0 when every unit failed (the run then reports failure)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def unit_times(units, adjusted: bool = True) -> dict:
    """Medians over the units (one instance each) of the phase times, at the
    reference speed unless ``adjusted`` is false."""
    def median(seconds):
        return _median(seconds(u) * (u.speed if adjusted else 1.0) for u in units)

    per_iteration = _median(u.phases["run"] * (u.speed if adjusted else 1.0) / u.iterations
                            for u in units if u.iterations)
    return {
        "wall_s": median(unit_wall),
        "run_s": median(lambda u: u.phases["run"]),
        "bounds_s": median(lambda u: u.phases["bounds"]),
        "report_s": median(lambda u: u.phases["report"]),
        "iters_per_s": 1.0 / per_iteration if per_iteration else 0.0,
    }


def end_to_end(units, setup_s: float, failed: int, attempted: int) -> dict:
    ratios = [v / unit.scale for unit in units for battery in unit.values for v in battery]
    return {
        "setup_s": setup_s,
        **unit_times(units),
        "ok_frac": 1.0 - failed / attempted,
        "ret_median": _median(ratios),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced_wall: float, untraced_wall: float) -> tuple[dict, list]:
    """Per-layer metrics of the traced spans and the certificate failures."""
    from checks import check_feasible, check_lmo, check_projection
    from drsubmax.geometry import violation
    from spans import layer_summary, repeat_frac

    spans = tracer.spans
    summary = layer_summary(spans)
    errors = []
    lmo_gaps, vi_gaps, residuals, infeasible_inputs, iterations = [], [], [], 0, 0
    for span in spans:
        if span.payload is None:
            continue
        if span.name == "geometry.lmo":
            poly, g, v = span.payload
            bad, gap = check_lmo(poly, g, v)
            errors.append(bad)
            lmo_gaps.append(gap)
        elif span.name == "geometry.project":
            poly, y, x = span.payload
            bad, gap = check_projection(poly, y, x)
            errors.append(bad)
            vi_gaps.append(gap)
            residuals.append(violation(poly, x))
            infeasible_inputs += violation(poly, y) > 0.0
        elif span.name == "optimizers.trial":
            T, poly, x = span.payload
            iterations += T
            errors.append(check_feasible(poly, x, "final iterate"))

    def row(layer):
        return summary.get(layer, {"calls": 0, "errors": 0, "s": 0.0, "self_s": 0.0,
                                   "us_p50": 0.0, "us_p90": 0.0})

    project_calls = row("geometry.project")["calls"]
    derived = {
        "geometry.lmo.gap_max": max(lmo_gaps, default=0.0),
        "geometry.lmo.repeat_frac": repeat_frac(spans),
        "geometry.project.work_frac": infeasible_inputs / project_calls if project_calls else 0.0,
        "geometry.project.residual_max": max(residuals, default=0.0),
        "geometry.project.vi_gap_max": max(vi_gaps, default=0.0),
        "optimizers.trial.iterations": iterations,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    metrics = {}
    for name in per_layer_names():
        layer, _, key = name.rpartition(".")
        metrics[name] = derived[name] if name in derived else row(layer)[key]
    return metrics, [e for e in errors if e]


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.path.realpath(os.getcwd())
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "drsubmax", "__init__.py")):
        print("error: src/drsubmax not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import drsubmax

    if os.path.dirname(os.path.realpath(drsubmax.__file__)) != os.path.join(src, "drsubmax"):
        print(f"error: imported drsubmax from {drsubmax.__file__}, not {src}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    workdir = os.path.join(root, ".bench_work", workload.name)
    os.makedirs(workdir, exist_ok=True)
    if args.setup_only:
        workload.setup(seed, unit_count(workload, args.seconds, MIN_UNITS), workdir)
        return 0

    info = {"workload": workload.name, "seed": seed, "seconds": args.seconds,
            "trace": args.trace}
    try:
        if args.trace:
            # a quarter of the units, untraced, then the same units traced, in
            # about half of --seconds; the checks against HiGHS take the rest
            tracer = Tracer()
            with tracer:
                inputs = workload.setup(seed, unit_count(workload, args.seconds / 4, 1), workdir)
            untraced = run_units(workload, inputs)
            errors = check_units(workload, inputs, untraced)
            with tracer:
                traced = run_units(workload, inputs)
            errors += check_units(workload, inputs, traced)
            if [u.values for u in traced] != [u.values for u in untraced]:
                errors.append("traced units returned other values than untraced ones")
            metrics, trace_errors = per_layer(tracer, unit_times(traced)["wall_s"],
                                              unit_times(untraced)["wall_s"])
            errors += trace_errors
            units = untraced + traced
            metric_unit = per_layer_unit
        else:
            setup_raw, setup_speed = _time_setups(args, seed)
            inputs = workload.setup(seed, unit_count(workload, args.seconds, MIN_UNITS), workdir)
            units = run_units(workload, inputs)
            errors = check_units(workload, inputs, units)
            attempted = sum(u.attempted for u in units)
            metrics = end_to_end(units, setup_raw * setup_speed,
                                 min(len(errors), attempted), attempted)
            info["measured"] = {"setup_s": setup_raw, **unit_times(units, adjusted=False),
                                "speed": [u.speed for u in units],
                                "unit_wall_s": [unit_wall(u) for u in units]}
            metric_unit = END_TO_END.get
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # kept if another workload uses it
            os.rmdir(os.path.dirname(workdir))

    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    attempted = sum(u.attempted for u in units)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": min(len(errors), attempted),
        "metrics": {name: {"value": value, "unit": metric_unit(name)}
                    for name, value in metrics.items()},
    }
    info.update(units=len(units), provenance=provenance(root, src))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
