"""Numerical evaluation of the high-probability lower bounds.

Each ``theoremN_bound`` evaluates one guarantee as a function of the
iteration budget ``T`` (a scalar, giving a float, or an array) and a
confidence parameter, given the problem constants (smoothness, diameter,
noise bounds, optimum).  Bounds may be negative: vacuous values are
meaningful outputs for plotting.  ``THEOREMS`` holds the per-theorem facts,
among them the algorithm each bounds, and ``bound_curve`` is the one reader
of a config's bounds entry: it checks the entry against its theorem and its
trial, and evaluates it.  Helper numerics live here too: the momentum series
constant and a Perron-root spectral norm.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

import numpy as np

from .geometry import diameter_bound
from .objectives import Objective, is_finite_real, is_int, reject_unknown
from .optimizers import RunConfig, boost_mass
from .oracles import NoiseModel, noise_constants

__all__ = [
    "BoundConstants",
    "BoundCurve",
    "spectral_norm",
    "gamma_fn",
    "k_constant",
    "theorem1_bound",
    "theorem2_bound",
    "theorem3_bound",
    "theorem4_bound",
    "theorem5_bound",
    "TheoremSpec",
    "THEOREMS",
    "bound_curve",
    "momentum_series_check",
    "constants_for",
    "save_bound_curve",
]

ONE_MINUS_INV_E = boost_mass(1.0)

# iteration cap of the Collatz-Wielandt bracket in ``spectral_norm``
_PERRON_MAX_ITER = 10000


@np.errstate(over="ignore", invalid="ignore")
def spectral_norm(h_matrix) -> float:
    """Upper bound on ``||H||_2`` for a symmetric, entrywise-nonpositive ``H``:
    the smallest upper end of the Collatz-Wielandt ratios ``(B x)_i / x_i``,
    which bracket the Perron root of ``B = -H`` for positive ``x``, over
    ``x <- B x / max ratio`` from the row sums of ``B`` (zero rows left out),
    until the ends agree to 1e-13 relative or the upper end stops falling.
    inf, still an upper bound and without a warning, when the row sums or the
    first product overflow (a row sum that overflows makes the ratios inf / inf)."""
    h = np.asarray(h_matrix, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("spectral_norm expects a square matrix")
    if h.size and not (-math.inf < h.min() and h.max() <= 0.0):
        raise ValueError("matrix entries must be finite and <= 0")
    x = -h.sum(axis=1)
    support = x > 0.0
    if not support.any():
        return 0.0
    b, x = (-h, x) if support.all() else (-h[support][:, support], x[support])
    upper_best = math.inf
    for _ in range(_PERRON_MAX_ITER):
        y = b @ x
        ratios = y / x
        upper, lower = float(ratios.max()), float(ratios.min())
        if not upper < upper_best:
            break
        upper_best = upper
        if upper - lower <= 1e-13 * upper:
            break
        x = y / upper
    return upper_best


def gamma_fn(x: float) -> float:
    """Gamma function for ``x > 0`` (``math.gamma``, exact at integers)."""
    x = float(x)
    if not x > 0.0:
        raise ValueError("gamma_fn is defined for x > 0 only")
    return math.gamma(x)


def k_constant(alpha: float) -> float:
    """Momentum series constant ``(1/(1-alpha)) * Gamma(1/(1-alpha))``."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    inv = 1.0 / (1.0 - alpha)
    try:
        k = inv * gamma_fn(inv)
    except OverflowError:
        k = math.inf
    if math.isinf(k):
        raise ValueError(f"alpha = {alpha!r} is too close to 1: the constant K overflows")
    return k


def momentum_series_check(alpha: float, T: int) -> float:
    """Partial sum ``sum_{t=1..T} (1 - t^-alpha)^t``; never exceeds
    ``k_constant(alpha)``."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    if not (is_int(T) and T >= 1):
        raise ValueError("T must be an integer >= 1")
    t = np.arange(1, T + 1, dtype=float)
    return float(np.sum((1.0 - t ** -alpha) ** t))


@dataclass(frozen=True)
class BoundConstants:
    """Problem constants consumed by the bound evaluators.

    ``lipschitz``   smoothness constant of the exact gradient
    ``diameter``    bound on the feasible region's Euclidean diameter
    ``noise_bound`` worst-case gradient error norm (may be inf)
    ``noise_sigma`` total standard deviation of the gradient error
    ``opt``         optimum value or an approximation of it
    ``grad0_norm``  gradient-estimate error norm at the start (origin,
                    zero-initialized momentum)
    """

    lipschitz: float
    diameter: float
    noise_bound: float = 0.0
    noise_sigma: float = 0.0
    opt: float = 1.0
    grad0_norm: float = 0.0

    def __post_init__(self):
        for name in ("lipschitz", "grad0_norm"):  # inf when constants_for overflows
            if getattr(self, name) == math.inf:
                raise ValueError(f"{name} overflows a float: it must be finite")
        if not (0 <= self.lipschitz < math.inf and 0 <= self.diameter < math.inf):
            raise ValueError("lipschitz and diameter must be finite and nonnegative")
        if not (self.noise_bound >= 0 and 0 <= self.noise_sigma < math.inf
                and 0 <= self.grad0_norm < math.inf):
            raise ValueError("noise constants must be nonnegative, and all but noise_bound finite")
        if not 0 < self.opt < math.inf:
            raise ValueError("opt must be finite and positive")


def constants_for(objective: Objective, noise: NoiseModel, opt: float) -> BoundConstants:
    """Assemble bound constants from an objective and a noise model.

    Smoothness comes from the spectral norm of the Hessian at the origin
    (where both benchmark families attain their entrywise-largest Hessian),
    the diameter from the box bound, and the start error from the exact
    gradient at the origin, whose norm is also the gradient-norm bound
    ``G_max``: a monotone DR-submodular f has ``0 <= grad f <= grad f(0)``.
    On entries near the float limit the norm or ``spectral_norm`` overflows
    to inf, which ``BoundConstants`` rejects, without a warning.
    """
    zero = np.zeros(objective.dim)
    with np.errstate(over="ignore"):
        grad0_norm = float(np.linalg.norm(objective.grad(zero)))
    lipschitz = spectral_norm(objective.hessian(zero))
    m_bound, sigma = noise_constants(noise, objective.dim, g_max=grad0_norm)
    return BoundConstants(
        lipschitz=lipschitz,
        diameter=diameter_bound(objective.polytope),
        noise_bound=m_bound,
        noise_sigma=sigma,
        opt=opt,
        grad0_norm=grad0_norm,
    )


def _as_T(T):
    t = np.asarray(T, dtype=float)
    if not np.all(t >= 1):
        raise ValueError("T must be at least 1")
    return t


def _check_delta_unit(delta: float) -> None:
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")


def _ascent_bound(c: BoundConstants, T, delta: float, asymptote: float, k: float, m: float):
    """The projected-ascent shape of theorems 1 and 2:
    ``asymptote - (8 k^2 + D^2) / (8 sqrt(t)) - D m sqrt(log(1/delta) / (2t))``,
    which requires a finite worst-case gradient error ``noise_bound``."""
    _check_delta_unit(delta)
    if not math.isfinite(c.noise_bound):
        raise ValueError("bounded gradient error M unavailable for this noise model")
    t = _as_T(T)
    big_c = (8.0 * k**2 + c.diameter**2) / 8.0
    dev = c.diameter * m * np.sqrt(math.log(1.0 / delta) / (2.0 * t))
    return asymptote - big_c / np.sqrt(t) - dev


def theorem1_bound(c: BoundConstants, T, delta: float):
    """Lower bound on the running average value of projected ascent with
    diminishing steps, holding with probability at least ``1 - delta``."""
    return _ascent_bound(c, T, delta, c.opt / 2.0, c.lipschitz + c.noise_bound, c.noise_bound)


def boosted_constants(c: BoundConstants, gamma: float = 1.0) -> tuple[float, float]:
    """Smoothness and noise constants of the reweighted auxiliary objective.

    Returns ``(L_aux, M_aux)`` from ``mass = boost_mass(gamma)``: the noise
    constant shrinks by ``mass / gamma``, and the smoothness is the
    proof-backed ``L (gamma - mass) / gamma^2``, near ``L / 2`` as gamma goes
    to 0.  The paper's main text states the looser ``L (1 + 1/e)`` instead.
    """
    mass = boost_mass(gamma)
    m_aux = (c.noise_bound + 2.0 * c.lipschitz * c.diameter) * (mass / gamma)
    return c.lipschitz * (gamma - mass) / gamma**2, m_aux


def theorem2_bound(c: BoundConstants, T, delta: float, gamma: float = 1.0):
    """Lower bound on the running average value of boosted projected ascent,
    holding with probability at least ``1 - delta``; approaches
    ``boost_mass(gamma) * opt``, ``(1 - 1/e) opt`` at gamma = 1."""
    l_aux, m_aux = boosted_constants(c, gamma)
    return _ascent_bound(c, T, delta, boost_mass(gamma) * c.opt,
                         l_aux * c.diameter + m_aux, m_aux)


def _greedy_bound(c: BoundConstants, T, delta: float, deficit):
    """The Chebyshev-type shape of theorems 3 and 5: ``((1 - 1/e) opt -
    deficit(t) - L D^2 / (2 t^2), max(0, 1 - t / delta^2))``."""
    # a float's square by *, which neither raises nor warns when it overflows
    # or underflows, as ** and a numpy square would
    if not (delta > 0.0 and 0.0 < float(delta) * float(delta) < math.inf):
        raise ValueError("delta must be finite and positive, and its square a positive float")
    t = _as_T(T)
    bound = ONE_MINUS_INV_E * c.opt - deficit(t) - c.lipschitz * c.diameter**2 / (2.0 * t**2)
    return bound, np.maximum(0.0, 1.0 - t / delta**2)


def theorem3_bound(c: BoundConstants, T, delta: float):
    """(bound, probability) for the final iterate of momentum Frank-Wolfe
    under bounded gradient variance; the bound holds with the returned
    probability ``max(0, 1 - T / delta^2)``."""
    q = max(c.grad0_norm**2 * 9.0 ** (2.0 / 3.0),
            16.0 * c.noise_sigma**2 + 3.0 * c.lipschitz**2 * c.diameter**2)
    return _greedy_bound(c, T, delta,
                         lambda t: delta * 2.0 * math.sqrt(q) * c.diameter / t ** (1.0 / 3.0))


def theorem4_bound(c: BoundConstants, T, delta: float, alpha: float = 0.5):
    """Lower bound on the final iterate of momentum Frank-Wolfe with
    ``rho_t = t^-alpha`` under sub-Gaussian gradient noise, holding with
    probability at least ``1 - delta``."""
    _check_delta_unit(delta)
    t = _as_T(T)
    k = k_constant(alpha)
    dev = 2.0 * c.diameter * k * c.noise_sigma * math.sqrt(math.log(1.0 / delta)) / np.sqrt(t)
    curv = (4.0 * k + 1.0) / 2.0 * c.lipschitz * c.diameter**2 / t
    return ONE_MINUS_INV_E * c.opt - dev - curv


def theorem5_bound(c: BoundConstants, T, delta: float):
    """(bound, probability) for the final iterate of the variance-reduced
    greedy.  The deficit is ``delta L D^2 / T``, the proof-backed form,
    consistent with the fixed-confidence corollary; the paper's main text
    states the tighter ``delta L D^2 / T^2``."""
    ld2 = c.lipschitz * c.diameter**2
    return _greedy_bound(c, T, delta, lambda t: delta * ld2 / t)


@dataclass(frozen=True)
class BoundCurve:
    """An evaluated theoretical lower bound over t = 1..T: ``bound[t - 1]``
    (and ``prob[t - 1]`` for a Chebyshev-type bound) belongs to ``t``."""

    label: str
    bound: np.ndarray
    prob: np.ndarray | None = None
    meta: tuple = ()

    def at(self, t: int) -> float:
        if not 1 <= t <= self.bound.size:
            raise ValueError(f"bound curve has no entry for t={t}")
        return float(self.bound[t - 1])


@dataclass(frozen=True)
class TheoremSpec:
    """Per-theorem facts: the keyword parameters of ``<name>_bound`` with
    their defaults, whether it is a Chebyshev-type bound returning
    ``(bound, prob)``, and the algorithm whose trials it bounds."""

    params: dict
    chebyshev: bool
    algorithm: str

    def delta(self, p: float, T: int) -> float:
        """The ``delta`` at which the bound holds with probability ``p``."""
        if not (0.0 < p < 1.0):
            raise ValueError("confidence p must lie in (0, 1)")
        return math.sqrt(T / (1.0 - p)) if self.chebyshev else 1.0 - p


THEOREMS = {
    name: TheoremSpec({key: param.default for key, param
                       in inspect.signature(globals()[f"{name}_bound"]).parameters.items()
                       if param.default is not param.empty}, chebyshev, algorithm)
    for name, chebyshev, algorithm in (
        ("theorem1", False, "pga"),
        ("theorem2", False, "boosted_pga"),
        ("theorem3", True, "scg"),
        ("theorem4", False, "scg"),
        ("theorem5", True, "scgpp"),
    )
}


def bound_curve(entry: dict, c: BoundConstants, trial: RunConfig) -> BoundCurve:
    """The config's bounds ``entry`` over ``t = 1..trial.T``: ``theorem``,
    exactly one of ``delta`` and ``p`` (mapped by ``TheoremSpec.delta``) and
    that theorem's parameters, of which the trial fixes ``gamma`` and
    ``alpha``.  The theorem must bound ``trial.algorithm``.  Every
    ``ValueError`` starts with the theorem's name, and a constant whose
    power overflows a float raises one too; the meta echoes delta, the
    constants, the parameters and ``K``."""
    name = entry.get("theorem")
    if not isinstance(name, str) or name not in THEOREMS:
        raise ValueError(f"{name}: unknown theorem, expected one of {', '.join(THEOREMS)}")
    spec = THEOREMS[name]
    try:
        reject_unknown(entry, {"theorem", "delta", "p", *spec.params}, "bounds entry")
        if ("delta" in entry) == ("p" in entry):
            raise ValueError("each bounds entry needs exactly one of delta or p")
        # delta and p are numbers, like the theorem parameters
        for key, default in {"delta": 0.0, "p": 0.0, **spec.params}.items():
            if not is_finite_real(entry.get(key, default)):
                raise ValueError(f"{key} must be a finite number")
        args = {key: float(entry.get(key, default)) for key, default in spec.params.items()}
        if spec.algorithm != trial.algorithm:
            raise ValueError(f"bounds {spec.algorithm} batteries, not {trial.algorithm}")
        rule = trial.momentum_rule
        if "alpha" in args and rule.kind != "alpha":
            raise ValueError(f"bounds the alpha momentum rule, not {rule.kind}")
        # the trial fixes gamma and alpha; an entry may only repeat them
        for key, value in (("gamma", trial.gamma), ("alpha", rule.value)):
            if key in args:
                if key in entry and args[key] != value:
                    raise ValueError(f"{key} {args[key]!r} differs from the trial's {value!r}")
                args[key] = float(value)
        delta = float(entry["delta"]) if "delta" in entry else spec.delta(entry["p"], trial.T)
        # looked up at call time, so a wrapper installed on the module applies
        out = globals()[f"{name}_bound"](c, np.arange(1, trial.T + 1), delta, **args)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    except OverflowError:
        raise ValueError(f"{name}: a constant of the bound overflows a float") from None
    bound, prob = out if spec.chebyshev else (out, None)
    meta = [("delta", delta), ("L", c.lipschitz), ("D", c.diameter),
            ("M", c.noise_bound), ("sigma", c.noise_sigma), ("opt", c.opt)]
    meta += args.items()
    if "alpha" in args:
        meta.append(("K", k_constant(args["alpha"])))
    return BoundCurve(name, bound, prob, tuple(meta))


def save_bound_curve(path, curve: BoundCurve) -> None:
    """CSV ``t,bound_value,prob`` (prob empty when not applicable), with the
    evaluation constants echoed in ``#`` comment lines."""
    with open(path, "w") as fh:
        fh.write(f"# {curve.label}\n")
        for key, value in curve.meta:
            fh.write(f"# {key}={value:.17g}\n")
        fh.write("t,bound_value,prob\n")
        for t, bound in enumerate(curve.bound, 1):
            prob = "" if curve.prob is None else f"{curve.prob[t - 1]:.17g}"
            fh.write(f"{t},{bound:.17g},{prob}\n")
