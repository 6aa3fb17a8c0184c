"""Benchmark objective families: monotone DR-submodular quadratics and
budget allocation over a bipartite channel/customer graph.

Both families expose exact value, gradient, Hessian and Hessian-vector
product access plus an attached feasible region, so solvers and noise
oracles can treat them uniformly.  Generators are seeded and fully
deterministic.  ``build_problem`` builds the instance a config's ``problem``
entry specifies.  A quadratic instance file (``save_nqp``/``load_nqp``) is
the JSON of the arrays ``instance_digest`` hashes: ``A``, ``b``, ``u`` and
``H``.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import numbers

import numpy as np

from .geometry import Polytope, _check_dim

__all__ = [
    "Objective",
    "NqpObjective",
    "BudgetAllocationObjective",
    "generate_nqp",
    "generate_budget",
    "load_bipartite",
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
    """Raise ``unknown {where} key(s): a, b`` for the ``keys`` not in ``allowed``."""
    unknown = sorted(set(keys) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(unknown)}")


class Objective:
    """Common surface: ``value``/``grad``/``hessian``/``hvp``, ``dim``, ``polytope``."""

    polytope: Polytope

    @property
    def dim(self) -> int:
        return self.polytope.dim

    def value(self, x) -> float:
        raise NotImplementedError

    def grad(self, x) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, x) -> np.ndarray:
        raise NotImplementedError

    def hvp(self, x0, x1, a, d) -> np.ndarray:
        """The mean over the weights ``a_k`` of the Hessian-vector products
        ``hessian(x0 + a_k (x1 - x0)) @ d`` along the segment ``x0 -> x1``."""
        raise NotImplementedError

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
        self.h_matrix = h_matrix
        self.h_vector = -h_matrix @ polytope.upper
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


#: the ``linear`` frequency mapping's cap, which keeps every probability below 1
_LINEAR_P_CAP = 0.99


def _map_frequency(mapping: str, freq: float, f_max: float) -> float:
    """The influence probability of a (channel, customer) frequency, where
    ``f_max`` is the largest frequency in the file being loaded:
    ``exp`` gives 1 - exp(-freq / f_max), ``linear`` min(freq / f_max, 0.99)."""
    if mapping == "exp":
        return 1.0 - math.exp(-freq / f_max)
    return min(freq / f_max, _LINEAR_P_CAP)


class BudgetAllocationObjective(Objective):
    """Influence-coverage objective over a bipartite channel/customer graph.

    Each of ``k`` advertisers holds a budget vector over the channels; the
    influence on customer t is ``1 - prod (1 - p_st)^{x_s}``, accumulated in
    log space to avoid underflow.  Advertiser blocks are separable, so the
    Hessian is block diagonal and entrywise nonpositive.
    """

    def __init__(self, n_channels: int, n_customers: int, edges, k: int = 1,
                 alphas=None, per_advertiser_upper=None):
        _check_sizes(n_channels, n_customers, k)
        edges = list(edges)
        if not edges:
            raise ValueError("no edges")
        coeff = np.zeros((n_customers, n_channels))
        for s, t, p in edges:
            if not (is_finite_real(p) and 0.0 < p < 1.0):
                raise ValueError(f"edge probability {p} outside (0, 1)")
            coeff[t, s] += -math.log1p(-p)
        self.n_channels = n_channels
        self.n_customers = n_customers
        self.k = k
        self.alphas = _positive_reals(np.full(k, 1.0 / k) if alphas is None else alphas,
                                      k, "alphas")
        self._coeff = coeff
        upper = 1.0 if per_advertiser_upper is None else per_advertiser_upper
        if is_finite_real(upper):
            upper = [upper] * n_channels
        self.per_advertiser_upper = _positive_reals(upper, n_channels, "per-advertiser budget")
        self.polytope = Polytope.box(np.tile(self.per_advertiser_upper, k))

    def _blocks(self, x) -> np.ndarray:
        x = self._check(x)
        if np.any(x < 0):
            raise ValueError("budget allocations must be nonnegative")
        return x.reshape(self.k, self.n_channels)

    def value(self, x) -> float:
        blocks = self._blocks(x)
        w = blocks @ self._coeff.T  # (k, customers) accumulated -log(1-p) mass
        return float(np.sum(self.alphas[:, None] * -np.expm1(-w)))

    def grad(self, x) -> np.ndarray:
        blocks = self._blocks(x)
        w = blocks @ self._coeff.T
        g = self.alphas[:, None] * (np.exp(-w) @ self._coeff)
        return g.ravel()

    def hessian(self, x) -> np.ndarray:
        blocks = self._blocks(x)
        w = blocks @ self._coeff.T
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
        w0 = self._blocks(x0) @ self._coeff.T
        w1 = self._blocks(x1) @ self._coeff.T
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


def load_bipartite(path, mapping: str = "exp", k: int = 1,
                   alphas=None, upper=None) -> BudgetAllocationObjective:
    """Build a budget-allocation objective from a tab-separated edge file.

    Lines are ``channel_id <TAB> customer_id <TAB> frequency``; duplicate
    (channel, customer) pairs have their frequencies summed before
    ``mapping`` (``exp`` or ``linear``, see ``_map_frequency``) turns each
    into an influence probability.  A frequency must be a finite number of
    at least 1, and so must each pair's sum.  Channels and customers are
    indexed densely in first-appearance order.  The default budget limit is
    the mean frequency pushed through the same mapping; pass ``upper``
    (scalar or per-channel) to override.
    """
    if mapping not in ("exp", "linear"):
        raise ValueError(f"unknown frequency mapping {mapping!r}")
    channel_ids: dict[str, int] = {}
    customer_ids: dict[str, int] = {}
    freqs: dict[tuple[int, int], float] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
            chan, cust, freq_text = parts
            try:
                freq = float(freq_text)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad frequency {freq_text!r}") from None
            if not (math.isfinite(freq) and freq >= 1):
                raise ValueError(f"{path}:{lineno}: frequency must be a finite number >= 1")
            edge = (channel_ids.setdefault(chan, len(channel_ids)),
                    customer_ids.setdefault(cust, len(customer_ids)))
            freq += freqs.get(edge, 0.0)
            if not math.isfinite(freq):
                raise ValueError(f"{path}:{lineno}: summed frequency of {chan!r} and "
                                 f"{cust!r} is not finite")
            freqs[edge] = freq
    if not freqs:
        raise ValueError(f"{path}: no edges")
    f_max = max(freqs.values())
    edges = []
    for (s, t), freq in sorted(freqs.items()):
        p = _map_frequency(mapping, freq, f_max)
        if not (0.0 < p < 1.0):
            raise ValueError(f"mapped probability {p} for frequency {freq} outside (0, 1)")
        edges.append((s, t, p))
    if upper is None:
        mean_freq = sum(freqs.values()) / len(freqs)
        if math.isinf(mean_freq):  # the sum overflowed; the sum of the ratios cannot
            mean_freq = f_max * (sum(freq / f_max for freq in freqs.values()) / len(freqs))
        upper = _map_frequency(mapping, mean_freq, f_max)
    return BudgetAllocationObjective(
        len(channel_ids), len(customer_ids), edges, k=k, alphas=alphas,
        per_advertiser_upper=upper,
    )


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
    for t in range(customers):
        if not mask[:, t].any():
            mask[rng.integers(channels), t] = True
    for s in range(channels):
        if not mask[s].any():
            mask[s, rng.integers(customers)] = True
    edges = [
        (s, t, float(rng.uniform(p_low, p_high)))
        for s in range(channels)
        for t in range(customers)
        if mask[s, t]
    ]
    return BudgetAllocationObjective(channels, customers, edges, k=k,
                                     alphas=alphas, per_advertiser_upper=upper)


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
    "budget-file": load_bipartite,
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
