"""Output checks, run outside the timed region.

Each ``check_*`` returns ``None`` when the output is correct and a failure
message otherwise; the LP-based ones also return the gap they measured.
Those certificates use scipy's HiGHS, which is independent of the simplex
and the Dykstra code they check.
"""

from __future__ import annotations

import os

import numpy as np

from drsubmax.analysis import TrialBattery
from drsubmax.geometry import Polytope, diameter_bound, violation

#: largest constraint violation accepted for an iterate or an oracle answer
FEAS_TOL = 1e-7
#: largest relative optimality gap accepted for an LMO answer or a projection
GAP_TOL = 1e-6


def _lp_max(poly: Polytope, c: np.ndarray) -> float:
    """``max <c, z>`` over the polytope, solved by HiGHS."""
    from scipy.optimize import linprog

    res = linprog(-c, A_ub=poly.a_matrix if poly.n_halfspaces else None,
                  b_ub=poly.b_vector if poly.n_halfspaces else None,
                  bounds=list(zip(np.zeros(poly.dim), poly.upper)), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return -float(res.fun)


def lmo_gap(poly: Polytope, g: np.ndarray, v: np.ndarray) -> float:
    """Relative gap between the LP optimum and ``<g, v>``."""
    best = _lp_max(poly, g)
    return (best - float(g @ v)) / max(1.0, abs(best))


def vi_gap(poly: Polytope, y: np.ndarray, x: np.ndarray) -> float:
    """Relative variational-inequality gap of ``x`` as the projection of ``y``:
    ``max_{z in P} <y - x, z - x> / (||y - x|| * D)``, zero when ``x == y``."""
    d = y - x
    norm = float(np.linalg.norm(d))
    if norm == 0.0:
        return 0.0
    return (_lp_max(poly, d) - float(d @ x)) / (norm * diameter_bound(poly))


def check_feasible(poly: Polytope, x: np.ndarray, what: str) -> str | None:
    v = violation(poly, x)
    return None if v <= FEAS_TOL else f"{what} violates the region by {v:.3g}"


def check_lmo(poly: Polytope, g: np.ndarray, v: np.ndarray) -> tuple[str | None, float]:
    """Failure message (or ``None``) and relative gap of an LMO answer."""
    gap = lmo_gap(poly, g, v)
    bad = check_feasible(poly, v, "LMO vertex")
    if bad is None and gap > GAP_TOL:
        bad = f"LMO vertex is suboptimal: relative gap {gap:.3g}"
    return bad, gap


def check_projection(poly: Polytope, y: np.ndarray, x: np.ndarray) -> tuple[str | None, float]:
    """Failure message (or ``None``) and relative VI gap of a projection."""
    gap = vi_gap(poly, y, x)
    bad = check_feasible(poly, x, "projection")
    if bad is None and gap > GAP_TOL:
        bad = f"projection fails the VI certificate: gap {gap:.3g}"
    return bad, gap


def check_distinct(values, what: str) -> str | None:
    """A battery whose trials all return one value cannot show that trials
    are computed independently, so it fails."""
    if len(set(values)) >= 2:
        return None
    return f"{what}: all {len(values)} trials returned the same value"


def pipeline_outputs(out_dir: str, runs: int, T: int) -> tuple[list[float], list[str]]:
    """Final-iterate values from ``battery.csv`` and any problems with the
    outputs of one run -> bounds -> report pipeline."""
    errors = []
    try:
        battery = TrialBattery.from_csv(os.path.join(out_dir, "battery.csv"))
    except (OSError, ValueError) as exc:
        return [], [f"{out_dir}: battery.csv does not re-parse: {exc}"]
    if battery.f_true.shape != (runs, T):
        errors.append(f"{out_dir}: battery.csv holds {battery.f_true.shape}, "
                      f"expected {(runs, T)}")
    try:
        with open(os.path.join(out_dir, "report.txt")) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return [], errors + [f"{out_dir}: report.txt unreadable: {exc}"]
    for prefix in ("c1_shared: ", "violation "):
        if not any(line.startswith(prefix) for line in lines):
            errors.append(f"{out_dir}: report.txt has no {prefix.strip()!r} line")
    return [float(v) for v in battery.f_true[:, -1]], errors
