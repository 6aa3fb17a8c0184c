"""Stochastic continuous DR-submodular maximization toolkit.

Polytope oracles, two benchmark objective families, seeded noise oracles,
four stochastic ascent algorithms, high-probability lower-bound evaluators,
and a multi-run experiment harness with worst-case/percentile analysis.
"""

from .analysis import (
    FittedCurve,
    TrialBattery,
    approx_opt,
    bound_violation_rate,
    fit_curve,
    shared_c1_refit,
    trajectory_statistic,
)
from .bounds import (
    BoundConstants,
    BoundCurve,
    constants_for,
    gamma_fn,
    k_constant,
    momentum_series_check,
    spectral_norm,
    theorem1_bound,
    theorem2_bound,
    theorem3_bound,
    theorem4_bound,
    theorem5_bound,
)
from .geometry import Polytope, contains, diameter_bound, lmo, project
from .objectives import (
    BudgetAllocationObjective,
    NqpObjective,
    generate_budget,
    generate_nqp,
    load_bipartite,
    load_nqp,
    save_nqp,
)
from .optimizers import (
    MomentumRule,
    RunConfig,
    RunRecord,
    StepRule,
    boost_s_from_uniform,
    records_to_csv,
    run_battery,
    run_trial,
)
from .oracles import NoiseModel, OracleStream, noise_constants

__version__ = "0.1.0"
