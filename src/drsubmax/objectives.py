"""Benchmark objective families: monotone DR-submodular quadratics and
budget allocation over a bipartite channel/customer graph.

Both families expose exact value, gradient, Hessian and Hessian-vector
product access plus an attached feasible region, so solvers and noise
oracles can treat them uniformly; ``Objective`` holds only the code they
share.  A budget instance is one ``(channels, customers)`` matrix of
influence probabilities, which ``generate_budget`` draws.  Generators are
seeded and fully deterministic.  ``build_problem`` builds the instance a
config's ``problem`` entry specifies.  A quadratic instance file
(``save_nqp``/``load_nqp``) is the JSON of the arrays ``instance_digest``
hashes: ``A``, ``b``, ``u`` and ``H``.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import json
import math
import numbers

import numpy as np

from .geometry import Polytope, _check_dim

#: the largest dimension ``NqpObjective.exact_opt`` enumerates: 3^n 2^m faces,
#: ≈ 2 s at 10 x 5 and ≈ 23 s at 12 x 6
_EXACT_OPT_MAX_DIM = 12
#: a face's KKT matrix with a larger condition number is reported, not solved
#: (at most 7.6e10 on ``generate_nqp(s, 10, 5, -1, 0)``, s = 0-29)
_EXACT_OPT_MAX_COND = 1e12

__all__ = [
    "Objective",
    "NqpObjective",
    "BudgetAllocationObjective",
    "generate_nqp",
    "generate_budget",
    "save_nqp",
    "load_nqp",
    "load_json",
    "build_problem",
    "instance_digest",
]


def is_int(value) -> bool:
    """An integer that is not a bool (numpy integers included)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """A finite real number that is not a bool (numpy scalars included)."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def reject_unknown(keys, allowed, where: str) -> None:
    """Raise ``unknown {where} key(s): a, b`` for the ``keys`` not in ``allowed``,
    with an empty key written ``''``."""
    unknown = sorted(set(keys) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(k or repr(k) for k in unknown)}")


class Objective:
    """What every objective shares: ``dim``, the defining ``_arrays`` and the
    ``_check`` of a point.  A subclass sets ``polytope`` and defines
    ``value(x)``, ``grad(x)``, ``hessian(x)`` and ``hvp(x0, x1, a, d)``: the
    mean over the weights ``a_k`` of the Hessian-vector products
    ``hessian(x0 + a_k (x1 - x0)) @ d`` along the segment ``x0 -> x1``."""

    polytope: Polytope

    @property
    def dim(self) -> int:
        return self.polytope.dim

    def _arrays(self) -> dict:
        """The arrays that define the objective and its region, by name."""
        p = self.polytope
        return {"A": p.a_matrix, "b": p.b_vector, "u": p.upper}

    def _check(self, x, name: str = "x") -> np.ndarray:
        """``x`` as a flat float array of the objective's dimension, ``name`` in errors."""
        return _check_dim(self.polytope, x, name)


class NqpObjective(Objective):
    """Quadratic ``f(x) = x'Hx/2 + h'x`` with symmetric entrywise-nonpositive H.

    The linear term is always ``h = -H @ upper``, which makes the gradient
    ``H (x - upper)`` nonnegative on the box, hence f monotone.
    """

    def __init__(self, h_matrix, polytope: Polytope):
        h_matrix = np.asarray(h_matrix, dtype=float)
        if h_matrix.ndim != 2 or h_matrix.shape[0] != h_matrix.shape[1]:
            raise ValueError("H must be a square matrix")
        if h_matrix.shape[0] != polytope.dim:
            raise ValueError("H dimension disagrees with the polytope")
        if not np.allclose(h_matrix, h_matrix.T, atol=1e-12, rtol=0.0):
            raise ValueError("H must be symmetric (within 1e-12)")
        if not np.all(np.isfinite(h_matrix) & (h_matrix <= 0)):
            raise ValueError("all entries of H must be finite and <= 0")
        with np.errstate(over="ignore"):
            h_vector = -h_matrix @ polytope.upper
        if not np.all(np.isfinite(h_vector)):
            raise ValueError("the linear term h = -H @ upper overflows")
        self.h_matrix = h_matrix
        self.h_vector = h_vector
        self.polytope = polytope

    def value(self, x) -> float:
        x = self._check(x)
        return float(0.5 * x @ self.h_matrix @ x + self.h_vector @ x)

    def grad(self, x) -> np.ndarray:
        x = self._check(x)
        return self.h_matrix @ x + self.h_vector

    def hessian(self, x=None) -> np.ndarray:
        return self.h_matrix.copy()

    def hvp(self, x0, x1, a, d) -> np.ndarray:
        return self.h_matrix @ self._check(d, "d")

    def _arrays(self) -> dict:
        return {**super()._arrays(), "H": self.h_matrix}

    def exact_opt(self) -> float:
        """The exact maximum of f over its region, by enumerating its faces.

        A face fixes each coordinate at 0, at ``u_j`` or leaves it free, and
        makes some halfspaces tight.  A maximizer is a stationary point of f
        on the relative interior of some face, the solution of that face's
        KKT system.  The system's matrix depends only on the free set and
        the tight set, and the fixed coordinates enter only its right-hand
        side, so one solve a (free set, tight set) pair covers every 0/``u_j``
        assignment, one column each; a tight set larger than the free set
        makes the matrix singular and is skipped.  The answer is the largest
        value at a point feasible within 1e-9.  A dimension above
        ``_EXACT_OPT_MAX_DIM`` (3^n 2^m faces) raises ``ValueError`` before
        any solve, and so does a KKT matrix whose condition number exceeds
        ``_EXACT_OPT_MAX_COND``, naming its face."""
        poly = self.polytope
        n, m = poly.dim, poly.n_halfspaces
        if n > _EXACT_OPT_MAX_DIM:
            raise ValueError(f"exact_opt enumerates faces up to dimension {_EXACT_OPT_MAX_DIM}, "
                             f"not {n}")
        h_mat, a_mat, upper = self.h_matrix, poly.a_matrix, poly.upper
        best = -math.inf
        for k in range(n + 1):
            for free in map(list, itertools.combinations(range(n), k)):
                fixed = [j for j in range(n) if j not in free]
                corners = np.zeros((n, 2 ** len(fixed)))  # one column per 0/u_j assignment
                corners[fixed] = np.array(list(itertools.product((0.0, 1.0), repeat=len(fixed)))
                                          ).T * upper[fixed, None]
                # H_FF x_F - A_SF' lam = -grad_F f(x) and A_SF x_F = b_S - A_S x, at x_F = 0
                h_free, a_free = h_mat[np.ix_(free, free)], a_mat[:, free]
                grad = -(h_mat[free] @ corners + self.h_vector[free, None])
                slack = poly.b_vector[:, None] - a_mat @ corners
                points = []
                for size in range(min(m, k) + 1):
                    for tight in map(list, itertools.combinations(range(m), size)):
                        face = corners.copy()  # with no free coordinate, the box's vertices
                        if k:
                            kkt = np.zeros((k + size, k + size))
                            kkt[:k, :k] = h_free
                            kkt[k:, :k] = a_free[tight]
                            kkt[:k, k:] = -kkt[k:, :k].T
                            cond = np.linalg.cond(kkt)
                            if not cond <= _EXACT_OPT_MAX_COND:
                                raise ValueError(
                                    f"exact_opt: the KKT matrix of the face with free coordinates "
                                    f"{free} and tight halfspaces {tight} has condition number "
                                    f"{cond:.3g}, above {_EXACT_OPT_MAX_COND:g}")
                            face[free] = np.linalg.solve(kkt, np.vstack([grad, slack[tight]]))[:k]
                        points.append(face)
                points = np.hstack(points)
                excess = np.vstack([-points, points - upper[:, None],
                                    a_mat @ points - poly.b_vector[:, None]])
                values = (0.5 * np.einsum("ic,ic->c", points, h_mat @ points)
                          + self.h_vector @ points)
                feasible = np.max(excess, axis=0) <= 1e-9
                best = max(best, float(np.max(values[feasible], initial=-math.inf)))
        return best


def generate_nqp(seed, n: int, m: int, entry_low: float, entry_high: float) -> NqpObjective:
    """Random monotone DR-submodular quadratic instance.

    H is symmetric with upper-triangle entries i.i.d. Uniform[entry_low,
    entry_high] mirrored; the region is ``A x <= 1`` with A i.i.d.
    Uniform[0, 1] (m rows, possibly 0) inside the unit box.  Deterministic
    for a fixed seed.
    """
    if not (is_int(seed) and seed >= 0 and is_int(n) and n >= 1 and is_int(m) and m >= 0):
        raise ValueError("need integers seed >= 0, n >= 1 and m >= 0")
    if not (is_finite_real(entry_low) and is_finite_real(entry_high)):
        raise ValueError("entry_low and entry_high must be finite numbers")
    if entry_high > 0:
        raise ValueError("entry_high must be <= 0 to keep the Hessian nonpositive")
    if entry_low > entry_high:
        raise ValueError("entry_low must be <= entry_high")
    rng = np.random.default_rng(seed)
    draw = rng.uniform(entry_low, entry_high, size=(n, n))
    h = np.triu(draw)
    h = h + np.triu(h, 1).T
    poly = Polytope(rng.uniform(0.0, 1.0, size=(m, n)), np.ones(m), np.ones(n))
    return NqpObjective(h, poly)


class BudgetAllocationObjective(Objective):
    """Influence-coverage objective over a bipartite channel/customer graph.

    ``probs`` is the ``(channels, customers)`` matrix of influence
    probabilities, each finite and in [0, 1), with 0 where a channel does not
    reach a customer; at least one entry is positive.  Each of ``k``
    advertisers holds a budget vector over the channels; the influence on
    customer t is ``1 - prod (1 - p_st)^{x_s}``, accumulated in log space to
    avoid underflow.  Advertiser blocks are separable, so the Hessian is
    block diagonal and entrywise nonpositive.
    """

    def __init__(self, probs, k: int = 1, alphas=None, per_advertiser_upper=None):
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 2:
            raise ValueError("probs must be a (channels, customers) matrix")
        _check_sizes(*probs.shape, k)
        if not np.all(np.isfinite(probs) & (probs >= 0.0) & (probs < 1.0)):
            raise ValueError("influence probabilities must be finite and in [0, 1)")
        p = probs.T
        edge = p > 0.0
        if not edge.any():
            raise ValueError("no edges")
        # math.log1p, not np.log1p, whose last bit differs for some probabilities
        coeff = np.zeros(p.shape)
        coeff[edge] = [-math.log1p(-q) for q in p[edge]]
        self.n_channels, self.n_customers = probs.shape
        self.k = k
        self.alphas = _positive_reals(np.full(k, 1.0 / k) if alphas is None else alphas,
                                      k, "alphas")
        self._coeff = coeff
        upper = 1.0 if per_advertiser_upper is None else per_advertiser_upper
        if is_finite_real(upper):
            upper = [upper] * self.n_channels
        self.per_advertiser_upper = _positive_reals(upper, self.n_channels,
                                                    "per-advertiser budget")
        self.polytope = Polytope.box(np.tile(self.per_advertiser_upper, k))

    def _exposure(self, x) -> np.ndarray:
        """The ``(k, customers)`` accumulated -log(1 - p) mass of allocation ``x``."""
        x = self._check(x)
        if np.any(x < 0):
            raise ValueError("budget allocations must be nonnegative")
        return x.reshape(self.k, self.n_channels) @ self._coeff.T

    def value(self, x) -> float:
        return float(np.sum(self.alphas[:, None] * -np.expm1(-self._exposure(x))))

    def grad(self, x) -> np.ndarray:
        g = self.alphas[:, None] * (np.exp(-self._exposure(x)) @ self._coeff)
        return g.ravel()

    def hessian(self, x) -> np.ndarray:
        w = self._exposure(x)
        out = np.zeros((self.dim, self.dim))
        n = self.n_channels
        for i in range(self.k):
            block = -self.alphas[i] * (self._coeff.T * np.exp(-w[i])) @ self._coeff
            out[i * n : (i + 1) * n, i * n : (i + 1) * n] = block
        return out

    def hvp(self, x0, x1, a, d) -> np.ndarray:
        """Block i of one product is ``-alpha_i C'(exp(-w_i) * (C d_i))``,
        linear in ``exp(-w)``, so the mean of b products is that of the mean
        of the b ``exp(-w)``.  ``w`` is linear in the point, so the b
        exponents are ``w0 + a_k (w1 - w0)``, one ``(b, k, customers)``
        array; no point or matrix is built."""
        w0 = self._exposure(x0)
        w1 = self._exposure(x1)
        a = np.asarray(a, dtype=float).reshape(-1, 1, 1)
        e = np.exp(-(w0 + a * (w1 - w0))).mean(axis=0)
        cd = self._check(d, "d").reshape(self.k, self.n_channels) @ self._coeff.T
        return (-self.alphas[:, None] * ((e * cd) @ self._coeff)).ravel()

    def _arrays(self) -> dict:
        return {**super()._arrays(), "coeff": self._coeff, "alphas": self.alphas}


def _positive_reals(values, size: int, name: str) -> np.ndarray:
    """``values``, a sequence of ``size`` finite positive numbers, as an array."""
    values = list(values) if isinstance(values, (list, tuple, np.ndarray)) else [values]
    if len(values) != size or not all(is_finite_real(v) and v > 0 for v in values):
        raise ValueError(f"{name} must be {size} finite positive numbers")
    return np.array(values, dtype=float)


def _check_sizes(n_channels, n_customers, k) -> None:
    if not all(is_int(v) and v >= 1 for v in (n_channels, n_customers, k)):
        raise ValueError("channels, customers and k must be positive integers")


def generate_budget(seed, channels: int, customers: int, density: float,
                    p_low: float, p_high: float, k: int = 1, alphas=None,
                    upper=1.0) -> BudgetAllocationObjective:
    """Seeded synthetic bipartite instance with edge probabilities in
    ``[p_low, p_high]``; every channel and customer receives at least one
    edge so the indexing is dense."""
    if not is_int(seed) or seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    _check_sizes(channels, customers, k)
    if not (is_finite_real(p_low) and is_finite_real(p_high) and 0.0 < p_low <= p_high < 1.0):
        raise ValueError("need 0 < p_low <= p_high < 1")
    if not (is_finite_real(density) and 0.0 < density <= 1.0):
        raise ValueError("density must be in (0, 1]")
    rng = np.random.default_rng(seed)
    mask = rng.random((channels, customers)) < density
    # one random channel for each customer with none, then one random
    # customer for each channel still with none
    empty = np.flatnonzero(~mask.any(axis=0))
    mask[rng.integers(channels, size=empty.size), empty] = True
    empty = np.flatnonzero(~mask.any(axis=1))
    mask[empty, rng.integers(customers, size=empty.size)] = True
    probs = np.zeros((channels, customers))
    probs[mask] = rng.uniform(p_low, p_high, size=mask.sum())
    return BudgetAllocationObjective(probs, k=k, alphas=alphas, per_advertiser_upper=upper)


def save_nqp(path, obj: NqpObjective) -> None:
    """Write a quadratic instance as canonical JSON (sorted keys) of the
    arrays ``instance_digest`` hashes: ``A``, ``b``, ``u`` and ``H``, each a
    list, or a list of lists, of floats.  ``json`` writes a float by its
    ``repr``, so the round trip is exact; a box has ``"A": [], "b": []``."""
    with open(path, "w") as fh:
        json.dump({name: array.tolist() for name, array in obj._arrays().items()}, fh,
                  sort_keys=True)


def _unique_keys(pairs) -> dict:
    """A JSON object's ``(key, value)`` pairs as a dict, with no key repeated."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def load_json(path, **kwargs):
    """A JSON file's value, ``json.load`` with ``kwargs``, but a repeated
    object key is an error; every ``ValueError`` starts with ``path``."""
    with open(path) as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys, **kwargs)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _numbers(values) -> bool:
    """A list of numbers.  Every number was parsed as a float, so a bool, a
    string or a null is not one."""
    return isinstance(values, list) and all(isinstance(v, float) for v in values)


def _check_nqp_format(data) -> None:
    """The checks only the file format needs: exactly the four keys, ``u``
    and ``b`` lists of numbers, ``A`` and ``H`` lists of equal-length lists
    of numbers."""
    if not isinstance(data, dict):
        raise ValueError("the file must hold a JSON object")
    if data.keys() != {"A", "b", "u", "H"}:
        raise ValueError(f"the keys must be A, b, u and H, not {', '.join(sorted(data))}")
    for key in ("u", "b"):
        if not _numbers(data[key]):
            raise ValueError(f"{key} must be a list of numbers")
    for key in ("A", "H"):
        rows = data[key]
        if not (isinstance(rows, list)
                and all(_numbers(row) and len(row) == len(rows[0]) for row in rows)):
            raise ValueError(f"{key} must be a list of equal-length lists of numbers")


def load_nqp(path) -> NqpObjective:
    """Read an instance that ``save_nqp`` wrote.  Beyond the file's format,
    ``Polytope`` and ``NqpObjective`` check its shapes and values, and every
    error names ``path``."""
    data = load_json(path, parse_int=float)
    try:
        _check_nqp_format(data)
        return NqpObjective(data["H"], Polytope(data["A"], data["b"], data["u"]))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def instance_digest(objective: Objective) -> str:
    """SHA-256 hex digest of an instance's contents: its class name and the
    name, dtype, shape and bytes of each array that defines the objective
    and its region.  Two instances with one digest have the same values,
    gradients, Hessians and region."""
    digest = hashlib.sha256(type(objective).__name__.encode())
    for name, array in objective._arrays().items():
        array = np.ascontiguousarray(array)
        digest.update(f"\n{name} {array.dtype.str} {array.shape}\n".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


# each problem kind's builder; a config's problem entry holds its ``kind`` and
# the builder's keyword arguments
_PROBLEMS = {
    "nqp-generate": generate_nqp,
    "nqp-file": load_nqp,
    "budget-synthetic": generate_budget,
}


def build_problem(spec) -> Objective:
    """The instance a config's ``problem`` entry specifies: ``kind`` names
    the builder and the other keys are its keyword arguments, the ones
    without a default required."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("problem must be an object with a 'kind'")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _PROBLEMS:
        raise ValueError(f"unknown problem kind {kind!r}")
    builder = _PROBLEMS[kind]
    params = inspect.signature(builder).parameters
    kwargs = {key: value for key, value in spec.items() if key != "kind"}
    reject_unknown(kwargs, params, f"problem[{kind}]")
    for name, param in params.items():
        if param.default is param.empty and name not in kwargs:
            raise ValueError(f"problem spec is missing key {name!r}")
    if not isinstance(kwargs.get("path", ""), str):
        raise ValueError("problem path must be a string")
    return builder(**kwargs)
