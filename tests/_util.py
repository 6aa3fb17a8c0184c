"""Shared independent oracles for the test suite: brute-force grid
projection, a face's projection refined in extended precision, exhaustive
vertex enumeration, the exact optimum of a small
quadratic by face enumeration, the LMO certificate with solved duals, the
two-stage curve fit in exact arithmetic, finite differences, feasible point sampling, and malformed instance files.
These stay deliberately separate from the library code paths they check."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np

from drsubmax.geometry import Polytope, contains
from drsubmax.objectives import NqpObjective


def grid_projection(poly: Polytope, y, step: float = 1e-3):
    """Brute-force nearest feasible point on a regular grid over the box."""
    axes = [np.arange(0.0, u + step / 2, step) for u in poly.upper]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, poly.dim)
    feasible = np.ones(len(mesh), dtype=bool)
    if poly.n_halfspaces:
        feasible = np.all(mesh @ poly.a_matrix.T <= poly.b_vector + 1e-12, axis=1)
    candidates = mesh[feasible]
    dists = np.sum((candidates - np.asarray(y)) ** 2, axis=1)
    return candidates[np.argmin(dists)]


def enumerate_vertices(poly: Polytope) -> np.ndarray:
    """All vertices of {A x <= b, 0 <= x <= u} by enumerating n-subsets of
    active constraints; intended for n <= 4, m <= 3."""
    n = poly.dim
    rows = [poly.a_matrix, np.eye(n), -np.eye(n)]
    g_mat = np.vstack([r for r in rows if r.size])
    h_vec = np.concatenate([poly.b_vector, poly.upper, np.zeros(n)])
    verts = []
    for idx in itertools.combinations(range(h_vec.size), n):
        sub = g_mat[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        v = np.linalg.solve(sub, h_vec[list(idx)])
        if contains(poly, v, 1e-9):
            verts.append(v)
    verts = np.array(verts)
    # dedupe up to rounding
    keyed = {tuple(np.round(v, 9)): v for v in verts}
    return np.array(list(keyed.values()))


def face_point(poly: Polytope, y, face) -> np.ndarray:
    """The projection of ``y`` onto the face that ``face`` marks, in
    ``project``'s index space: the halfspaces with nonzero ``face[:m]``
    tight and the coordinates with nonzero ``face[m:]`` at their lower (-1)
    or upper (+1) face.  The multipliers of the tight halfspaces are solved
    in float64 from their Gram matrix on the free coordinates and refined
    8 times from residuals formed in ``np.longdouble``, and the
    point is returned in ``np.longdouble``."""
    m = poly.n_halfspaces
    rows, side = np.flatnonzero(face[:m]), np.asarray(face[m:])
    free = side == 0.0
    x = np.where(side > 0.0, poly.upper, 0.0).astype(np.longdouble)
    y_free = np.asarray(y, dtype=np.longdouble)[free]
    x[free] = y_free
    if rows.size:
        normals = poly.a_matrix[rows][:, free]
        extended = normals.astype(np.longdouble)
        rhs = (poly.b_vector[rows].astype(np.longdouble)
               - poly.a_matrix[rows][:, ~free].astype(np.longdouble) @ x[~free])
        gram = normals @ normals.T
        lam = np.zeros(rows.size, dtype=np.longdouble)
        for _ in range(8):
            residual = extended @ (y_free - extended.T @ lam) - rhs
            lam += np.linalg.solve(gram, residual.astype(float))
        x[free] = y_free - extended.T @ lam
    return x


def solved_lmo_residual(state, cost, scale) -> float:
    """The LMO certificate of ``state``'s basis with its dual half from duals
    solved afresh, ``B^T y = c_B`` on the basis columns of the original
    ``[A I]``, instead of the duals the simplex carries: the larger of the
    stored primal half and the largest improvement a nonbasic variable offers,
    relative to ``scale``; inf when the basis columns are singular.  By
    construction the basic reduced costs are 0 up to the solve's rounding,
    so only the nonbasic ones are judged."""
    basis, full = state.basis, state.base
    try:
        y = np.linalg.solve(full[:, basis].T, cost[basis])
    except np.linalg.LinAlgError:
        return math.inf
    gain = (cost - full.T @ y) * state.sign  # 0 at a basic variable
    return float(np.maximum(gain.max() / scale, state.primal))


def exact_two_stage_fit(curves, p: float, t_min: int = 1) -> list:
    """``shared_c1_refit`` of ``(t, y)`` curves in exact arithmetic on its
    float design ``u = t^-p`` over the points with ``t >= t_min``: each
    curve's least-squares ``c1`` on the basis ``{1, -u}``, the shared ``c1``,
    their mean, and each curve's ``c2`` that is least squares given it, with
    its residual.  Each float times ``2^1100`` is an integer, so every sum is
    exact, and each of a curve's ``(c1, c2, residual)`` is rounded once."""

    def scaled(values):
        return [num << (1101 - den.bit_length())
                for num, den in map(float.as_integer_ratio, values.tolist())]

    sums, own = [], []
    for t, y in curves:
        t = np.asarray(t, dtype=float)
        mask = t >= t_min
        u, y = scaled(t[mask] ** -p), scaled(np.asarray(y, dtype=float)[mask])
        n, su, sy = len(u), sum(u), sum(y)
        suu, suy = sum(a * a for a in u), sum(a * b for a, b in zip(u, y))
        slope = Fraction(n * suy - su * sy, n * suu - su * su)
        own.append((sy - slope * su) / n)
        sums.append((n, su, sy, suu, suy, sum(b * b for b in y)))
    c1 = sum(own) / len(own)  # times 2^1100, as are u and y
    out = []
    for n, su, sy, suu, suy, syy in sums:
        c2 = (c1 * su - suy) / suu
        # the square sum of y - c1 + c2 u, expanded
        resid = (syy + n * c1 * c1 + c2 * c2 * suu - 2 * c1 * sy + 2 * c2 * suy
                 - 2 * c1 * c2 * su)
        out.append((float(c1 / 2**1100), float(c2), float(resid / 2**2200)))
    return out


def acceptance_nqp() -> NqpObjective:
    """An instance built as the acceptance gate's is: H from seed 7 with
    entries in [-1, 0], and the halfspace 0.2 * sum(x) <= 1, which holds on
    the unit box."""
    draw = np.random.default_rng(7).uniform(-1.0, 0.0, size=(5, 5))
    return NqpObjective(np.triu(draw) + np.triu(draw, 1).T,
                        Polytope([[0.2] * 5], [1.0], np.ones(5)))


def exact_nqp_opt(obj) -> float:
    """The exact maximum of a quadratic instance over its region, by
    enumerating its faces: each coordinate at 0, at its upper bound or free,
    times each subset of halfspaces made tight.  A maximizer is a stationary
    point of f on the relative interior of some face, so one KKT solve per
    face finds it.  A singular system is skipped (a maximizer then also lies
    on a smaller face), and so is an infeasible point; a nearly singular
    one gives some point, which counts only when it is feasible.  Intended
    for n <= 5 and m <= 2: 3^n 2^m solves."""
    poly = obj.polytope
    h_mat, h_vec, a_mat, b_vec = obj.h_matrix, obj.h_vector, poly.a_matrix, poly.b_vector
    best = -np.inf
    for state in itertools.product((0, 1, 2), repeat=poly.dim):  # at 0, at u, free
        free = np.flatnonzero(np.array(state) == 2)
        x = np.where(np.array(state) == 1, poly.upper, 0.0)
        for size in range(poly.n_halfspaces + 1):
            for tight in map(list, itertools.combinations(range(poly.n_halfspaces), size)):
                # stationarity on the free coordinates, H_FF x_F - A_SF' lam = -grad_F f(x),
                # and the tight rows, A_SF x_F = b_S - A_S x, at x_F = 0
                k = free.size
                kkt = np.zeros((k + size, k + size))
                kkt[:k, :k] = h_mat[np.ix_(free, free)]
                kkt[k:, :k] = a_mat[np.ix_(tight, free)]
                kkt[:k, k:] = -kkt[k:, :k].T
                rhs = np.concatenate([-(h_mat[free] @ x + h_vec[free]),
                                      b_vec[tight] - a_mat[tight] @ x])
                y = x.copy()
                try:
                    y[free] = np.linalg.solve(kkt, rhs)[:k]
                except np.linalg.LinAlgError:  # singular
                    continue
                if contains(poly, y, 1e-9):
                    best = max(best, obj.value(y))
    return best


def sample_feasible(poly: Polytope, rng, count: int) -> np.ndarray:
    """Random feasible points: box samples shrunk toward the (strictly
    feasible) origin until all halfspaces hold."""
    out = []
    while len(out) < count:
        x = rng.uniform(0.0, poly.upper)
        while not contains(poly, x, 0.0):
            x = 0.8 * x
        out.append(x)
    return np.array(out)


def fd_gradient(objective, x, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of the objective value."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (objective.value(x + e) - objective.value(x - e)) / (2 * h)
    return g


def fd_hessian(objective, x, h: float = 1e-3) -> np.ndarray:
    """Second-order central differences of the objective value."""
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            out[i, j] = (
                objective.value(x + ei + ej)
                - objective.value(x + ei - ej)
                - objective.value(x - ei + ej)
                + objective.value(x - ei - ej)
            ) / (4 * h * h)
    return out


def random_small_polytope(rng, with_halfspaces=True) -> Polytope:
    n = int(rng.integers(2, 5))
    u = rng.uniform(0.5, 2.0, size=n)
    m = int(rng.integers(1, 4)) if with_halfspaces else 0
    if m == 0:
        return Polytope.box(u)
    a = rng.uniform(0.0, 1.0, size=(m, n))
    b = rng.uniform(0.5, 1.5, size=m)
    return Polytope(a, b, u)


# a valid instance file: the triangle x1 + x2 <= 1 in the unit square, H = -I
TRIANGLE_FILE = {"A": [[1.0, 1.0]], "b": [1.0], "u": [1.0, 1.0],
                 "H": [[-1.0, 0.0], [0.0, -1.0]]}


def _edited(**changes) -> str:
    """The triangle's file with some keys changed, and those set to None removed."""
    fields = {**TRIANGLE_FILE, **changes}
    return json.dumps({key: value for key, value in fields.items() if value is not None})


# (id, the text of a malformed instance file, what its error says after the path)
MALFORMED_NQP_FILES = [
    ("b-twice", _edited()[:-1] + ', "b": [1.0]}', "repeated key 'b'"),
    ("unknown-key", _edited(z=1), "the keys must be A, b, u and H, not A, H, b, u, z"),
    ("missing-H", _edited(H=None), "the keys must be A, b, u and H, not A, b, u"),
    ("not-an-object", json.dumps([TRIANGLE_FILE]), "the file must hold a JSON object"),
    ("not-json", _edited()[:-1], "Expecting ',' delimiter"),
    ("A-text", _edited(A=[[0.5, "x"]]), "A must be a list of equal-length lists of numbers"),
    ("u-bool", _edited(u=[True, 1.0]), "u must be a list of numbers"),
    ("b-null", _edited(b=[None]), "b must be a list of numbers"),
    ("b-number", _edited(b=1.0), "b must be a list of numbers"),
    ("H-ragged", _edited(H=[[-1.0, 0.0], [0.0]]),
     "H must be a list of equal-length lists of numbers"),
    ("A-long", _edited(A=[[1.0, 1.0, 1.0]]), "A has 3 columns but upper has 2 entries"),
    ("H-short", _edited(H=[[-1.0, 0.0]]), "H must be a square matrix"),
    ("u-short", _edited(u=[1.0]), "A has 2 columns but upper has 1 entries"),
    ("b-long", _edited(b=[1.0, 1.0]), "A has 1 rows but b has 2 entries"),
    ("box-with-b", _edited(A=[]), "A has 0 rows but b has 1 entries"),
    ("box-with-A", _edited(b=[]), "A has 1 rows but b has 0 entries"),
    ("box-with-empty-row", _edited(A=[[]], b=[]), "A has 1 rows but b has 0 entries"),
    ("A-empty-row", _edited(A=[[]]), "A has 0 columns but upper has 2 entries"),
    ("u-nan", _edited(u=[float("nan"), 1.0]), "polytope entries must be finite"),
    ("u-huge-integer", _edited().replace('"u": [1.0', '"u": [1' + "0" * 400),
     "polytope entries must be finite"),
    ("H-positive", _edited(H=[[-1.0, 0.5], [0.5, -1.0]]),
     "all entries of H must be finite and <= 0"),
]
