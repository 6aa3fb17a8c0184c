"""Seeded stochastic gradient and Hessian-vector oracles wrapping an objective.

A noise model describes the perturbation applied to each query and carries
the constants (worst-case error bound, total standard deviation) that the
bound evaluators consume.  A Hessian query returns the mean of b noisy
products ``(H(x_k) + Z_k) d`` along a segment, with independent symmetric
Gaussian ``Z_k``; their mean noise is drawn from its exact law with n + 1
normals, and no n x n matrix is built.  Every trial owns one
``OracleStream`` whose generator is derived from ``(master_seed, run_id)``,
so reruns are reproducible regardless of scheduling.

Stream contract: all randomness of a trial (noise draws plus any sampling
the solver performs) comes from the stream's single numpy ``Generator`` in
query order.  A batch of b gradients at one point draws one ``(b, n)``
array; an SCG++ iteration draws its b interpolation uniforms, then the
n + 1 normals of its one Hessian query.  Identical ``(master_seed,
run_id)`` and an identical query sequence therefore reproduce identical
realizations bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objectives import Objective, is_finite_real, is_int

__all__ = ["NoiseModel", "OracleStream", "noise_constants"]

_KINDS = ("none", "gaussian_fixed", "gaussian_prop", "clipped_gaussian")


@dataclass(frozen=True)
class NoiseModel:
    """Additive perturbation of gradient and Hessian queries.

    kinds:
      ``none``              exact oracle: every level is 0
      ``gaussian_fixed``    per-coordinate N(0, sigma^2)
      ``gaussian_prop``     per-coordinate N(0, (scale * ||grad|| / n)^2),
                            using the true gradient norm at the query point
      ``clipped_gaussian``  per-coordinate clip(N(0, sigma), -2 sigma, 2 sigma)

    The symmetric matrix ``Z`` whose product ``Z d`` perturbs a
    Hessian-vector query (``OracleStream.hessian``) has per-entry deviation
    ``0.1 * sigma``.  A kind takes only the gradient level it reads:
    ``gaussian_prop`` rejects a positive ``sigma`` (so its Hessian queries
    are exact), the other two a positive ``scale``, and ``none`` every
    positive level.
    """

    kind: str = "none"
    sigma: float = 0.0
    scale: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        for name in ("sigma", "scale"):
            value = getattr(self, name)
            if not (is_finite_real(value) and value >= 0):
                raise ValueError(f"{name} must be a finite nonnegative number")
        if self.kind == "none" and (self.sigma or self.scale):
            raise ValueError("noise kind 'none' takes no sigma or scale")
        unread = "sigma" if self.kind == "gaussian_prop" else "scale"
        if self.kind != "none" and getattr(self, unread):
            raise ValueError(f"noise kind {self.kind!r} takes no {unread}")

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls("none")

    @classmethod
    def gaussian_fixed(cls, sigma: float) -> "NoiseModel":
        return cls("gaussian_fixed", sigma=sigma)

    @classmethod
    def gaussian_prop(cls, scale: float) -> "NoiseModel":
        return cls("gaussian_prop", scale=scale)

    @classmethod
    def clipped_gaussian(cls, sigma: float) -> "NoiseModel":
        return cls("clipped_gaussian", sigma=sigma)


def noise_constants(nm: NoiseModel, n: int, g_max: float | None = None) -> tuple[float, float]:
    """Constants ``(M, sigma_total)`` of a noise model in dimension ``n``.

    ``M`` bounds the Euclidean norm of the gradient error on every draw
    (infinite for unclipped Gaussians) and ``sigma_total`` bounds its total
    standard deviation.  The gradient-proportional model has state-dependent
    variance, so its ``sigma_total`` is the upper estimate
    ``scale * g_max / sqrt(n)`` and requires a gradient-norm bound ``g_max``.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    if nm.kind == "none":
        return 0.0, 0.0
    if nm.kind == "gaussian_fixed":
        return math.inf, nm.sigma * math.sqrt(n)
    if nm.kind == "clipped_gaussian":
        return 2.0 * nm.sigma * math.sqrt(n), nm.sigma * math.sqrt(n)
    if g_max is None:
        raise ValueError(
            "state-dependent noise: supply G_max, a bound on the gradient norm"
        )
    return math.inf, nm.scale * g_max / math.sqrt(n)


class OracleStream:
    """Single-owner stochastic oracle; the generator advances on every query."""

    def __init__(self, objective: Objective, noise: NoiseModel, master_seed: int, run_id: int):
        self.objective = objective
        self.noise = noise
        self.rng = np.random.default_rng(
            np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(run_id),))
        )

    def grad(self, x, batch: int | None = None) -> np.ndarray:
        """Unbiased noisy gradient at ``x``.  With ``batch`` it is the mean
        of ``batch`` independent ones, whose noise is one ``(batch, n)``
        draw: the draws of ``batch`` single queries, stacked."""
        if not (batch is None or (is_int(batch) and batch >= 1)):
            raise ValueError("batch must be an integer >= 1")
        g = self.objective.grad(x)
        kind = self.noise.kind
        if kind == "none":
            return g
        sd = self.noise.sigma
        if kind == "gaussian_prop":
            sd = self.noise.scale * float(np.linalg.norm(g)) / g.size
            if sd == 0.0:  # stationary query point: no draw consumed
                return g
        z = self.rng.normal(0.0, sd, size=g.size if batch is None else (batch, g.size))
        if kind == "clipped_gaussian":
            np.minimum(np.maximum(z, -2.0 * sd, out=z), 2.0 * sd, out=z)
        noisy = g + z
        return noisy if batch is None else noisy.mean(axis=0)

    def hessian(self, x0, x1, a, d) -> np.ndarray:
        """The mean of b = ``len(a)`` unbiased noisy Hessian-vector products
        ``(H(x_k) + Z_k) d`` at the points ``x_k = x0 + a_k (x1 - x0)``; a
        single query at ``x`` is ``hessian(x, x, [0.0], d)``.  Each ``Z_k``
        is symmetric with i.i.d. N(0, s^2) entries on and above the diagonal
        (``s = 0.1 * sigma``), so ``Z_k d`` is Gaussian with covariance
        ``s^2 (||d||^2 I + d d' - diag(d * d))``, and the mean of b
        independent ones has the law of ``Z d`` at scale ``s / sqrt(b)``:
        ``(s / sqrt(b)) (sqrt(||d||^2 - d_j^2) xi_j + eta d_j)``.  So a query
        draws n + 1 normals in one call, ``xi_1..xi_n`` then ``eta``, and
        none when ``s`` is 0."""
        a = np.asarray(a, dtype=float)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("the weights a must be a nonempty 1-D sequence")
        hd = self.objective.hvp(x0, x1, a, d)
        s = 0.1 * self.noise.sigma / math.sqrt(a.size)
        if s == 0.0:
            return hd
        d = np.asarray(d, dtype=float).ravel()
        z = self.rng.normal(0.0, s, size=d.size + 1)
        dd = d * d
        # a float sum of nonnegative terms is at least each term, so the root's argument is >= 0
        return hd + np.sqrt(dd.sum() - dd) * z[:-1] + z[-1] * d
