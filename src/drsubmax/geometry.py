"""Down-closed polytope feasible regions and their two oracles.

The feasible region is ``{x : A x <= b, 0 <= x <= upper}`` with a strictly
feasible origin (all entries of ``b`` and ``upper`` positive).  Two oracles
are provided: Euclidean projection (the finite dual active-set method of
Goldfarb and Idnani with an identity Hessian, which carries one
factorization of its active set through the call and updates it when a
constraint joins or leaves, may first add every violated constraint at once
to choose its start, and is certified by its KKT conditions) and linear
maximization (a bounded-variable revised primal simplex on the halfspaces
the box does not already satisfy, which carries the inverse of its basis
with the duals as one more row, with largest-reduced-cost pricing and
Bland's rule after a degenerate pivot).  The LMO's certificate has two
halves: a dual half, the reduced costs on the original ``[A I]`` of the
duals it carries, judged by weak duality, which depends on the direction
and is computed on every call without a solve, and a primal half, the
vertex's feasibility and complementary slackness, which depends only on
the basis and is computed once per basis.  Both oracles are
deterministic functions of their inputs.  The projection's steps reuse work
arrays allocated once per call, the simplex's pivots ones allocated once
per ``LmoWarmStart``.

A projected-ascent trial projects a new target onto one region each
iteration, and consecutive answers share most of their active set.  Its
caller may pass a ``ProjectionWarmStart``, which holds the final active set
of the last call that ran the dual method (the tight halfspaces and the
face each fixed coordinate sits at), or the empty set when new or cleared.
Each call inverts that set's Gram matrix from scratch, puts ``x`` on the
set's face for its own target, and drops the constraints whose multipliers
are negative there until none is (in the same loop, every violated
constraint may join at once), a start from which the dual method is valid:
``x = y`` for the empty set, the cold start, and fewer dual steps for a
previous call's set.  A singular set (its inverse fails the growth test
the call's updates of it use), or an answer that fails its certificate, is
run once more from the empty set unless the call started there, so a warm
start never turns a cold answer into a ``ProjectionError`` and no call runs
cold twice.

A Frank-Wolfe trial calls the LMO on one region with a new direction each
time.  Its caller may pass an ``LmoWarmStart``, which presolves the region
once and holds the simplex state that each call starts from and leaves
updated: the basis, ``[B^-1; y]`` (its inverse over the duals row, which
each call sets for its own direction), the sign of each variable (the
bound a nonbasic one sits at, 0 for a basic one) and the basic values,
with the vertex of that basic solution and the primal half of its
certificate once a call has built them.  A new state holds the slack basis
at the origin, the cold start; after a call it holds that call's final
basis, which is still feasible, so the next call needs only the pivots its
new direction asks for, and a call that needs none reuses the stored
vertex.  A state is cold from its creation or ``clear()`` until its first
pivot or bound flip.  An answer that fails its certificate is solved once
more from the slack basis unless the call started cold, so a warm start
never turns a cold answer into an ``LmoError`` and no call runs cold twice.
Each state belongs to one caller and one region.  Nothing is
cached on the region or in the module: ``lmo(p, g)`` without a state
presolves into a new one, ``project(p, y)`` without a state starts from a
new one, and ``project`` computes the row norms it needs on each call.

The module does no file I/O: an instance file, which stores a region with
its objective, is read and written by ``objectives``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Polytope",
    "ProjectionError",
    "ProjectionWarmStart",
    "LmoError",
    "LmoWarmStart",
    "contains",
    "project",
    "lmo",
    "diameter_bound",
]

#: tolerance of the linear maximization oracle: a variable enters the basis
#: when its reduced cost improves the objective by more than this, and the
#: certificate accepts an answer within this distance of feasibility and
#: optimality (relative to max(1, ||g||_inf))
TOL_LP = 1e-9

_PIVOT_EPS = 1e-10
#: pivot budget of the LMO's simplex per variable (finite by the anti-cycling
#: rule; the budget only stops a cycle caused by rounding)
_PIVOTS_PER_VARIABLE = 50

#: a constraint is added to the projection's active set once it is violated
#: by more than this distance, relative to max(1, ||y||)
_ADD_RTOL = 1e-13
#: a normal whose part orthogonal to the active normals is shorter than this,
#: relative to its length, counts as a combination of them
_DEPENDENT_RTOL = 1e-10
#: the projection's KKT certificate tolerance, relative to max(1, ||y||)
_KKT_RTOL = 1e-9
#: an update of the projection's carried Gram inverse that may amplify its
#: rounding by this factor or more is replaced by recomputing the inverse
_MAX_GROWTH = 1e8
#: step budget of the dual active-set method per constraint (finite in exact
#: arithmetic; the budget only stops a cycle caused by rounding)
_STEPS_PER_CONSTRAINT = 20
#: while the projection prunes its start set (``_resume``) every violated
#: constraint joins at once, when at least this many are violated.  By
#: per-call minimum times on replayed calls, relative to 5: 2, 3 and 8 took
#: x0.945, x0.957 and x1.041 the time on 100 x 50 step-1/L boosted PGA
#: calls, and x1.012, x1.006 and x1.002 on 10 x 5 default-step calls
_BATCH_MIN = 5
#: the most such joins a call makes: 4 and 16 took x1.160 and x0.996 the time
#: of 8 on the same step-1/L calls
_BATCH_ROUNDS = 8


class ProjectionError(RuntimeError):
    """The projection failed its KKT certificate; carries the iterate and its
    residual."""

    def __init__(self, message: str, iterate: np.ndarray, residual: float):
        super().__init__(message)
        self.iterate = iterate
        self.residual = residual


class LmoError(RuntimeError):
    """The LMO's answer failed its optimality certificate; carries the
    residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True, eq=False)
class Polytope:
    """Immutable region ``{x : A x <= b, 0 <= x <= upper}``.

    ``a_matrix`` is ``(m, n)`` with ``m == 0`` allowed (pure box), ``b_vector``
    has length ``m`` and ``upper`` length ``n``.  All entries of ``b_vector``
    and ``upper`` must be strictly positive so the origin is strictly feasible.
    The LMO's presolve and simplex state live in ``LmoWarmStart``.
    """

    a_matrix: np.ndarray
    b_vector: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a_matrix, dtype=float)
        b = np.asarray(self.b_vector, dtype=float).ravel()
        u = np.asarray(self.upper, dtype=float).ravel()
        # no rows, as [] or a (0, k) array; an empty row is a row
        a = np.zeros((0, u.size)) if a.shape[:1] == (0,) else np.atleast_2d(a)
        if a.ndim != 2:
            raise ValueError(f"A must be a matrix, got shape {a.shape}")
        if a.shape[0] != b.size:
            raise ValueError(f"A has {a.shape[0]} rows but b has {b.size} entries")
        if a.shape[0] > 0 and a.shape[1] != u.size:
            raise ValueError(f"A has {a.shape[1]} columns but upper has {u.size} entries")
        if u.size == 0:
            raise ValueError("polytope must have at least one coordinate")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.all(np.isfinite(u))):
            raise ValueError("polytope entries must be finite")
        if np.any(u <= 0):
            raise ValueError("all box upper bounds must be strictly positive")
        if np.any(b <= 0):
            raise ValueError("all right-hand sides b must be strictly positive")
        a.setflags(write=False)
        b.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "b_vector", b)
        object.__setattr__(self, "upper", u)

    @property
    def dim(self) -> int:
        return self.upper.size

    @property
    def n_halfspaces(self) -> int:
        return self.b_vector.size

    @classmethod
    def box(cls, upper) -> "Polytope":
        u = np.asarray(upper, dtype=float).ravel()
        return cls(np.zeros((0, u.size)), np.zeros(0), u)


def _check_dim(p: Polytope, x: np.ndarray, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float).ravel()
    if x.size != p.dim:
        raise ValueError(f"{name} has dimension {x.size}, polytope has dimension {p.dim}")
    return x


def contains(p: Polytope, x, tol: float = 1e-9) -> bool:
    """True iff every box and halfspace constraint holds within ``tol``."""
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    return violation(p, x) <= tol


def violation(p: Polytope, x) -> float:
    """Largest constraint violation of ``x`` (0 when feasible, inf when ``x``
    has a non-finite entry)."""
    x = _check_dim(p, x, "x")
    if not np.isfinite(x).all():
        return math.inf
    return float(max((-x).max(initial=0.0), (x - p.upper).max(initial=0.0),
                     (p.a_matrix @ x - p.b_vector).max(initial=0.0)))


class ProjectionWarmStart:
    """One caller's active set for ``project`` on one polytope.

    ``face`` is the final active set of the last call that ran the dual
    method, in that method's index space (see ``_dual_active_set``): 1 at a
    tight halfspace ``i``, -1 or +1 at ``m + j`` when coordinate ``j`` sits
    at its lower or upper face, and 0 elsewhere.  A new or cleared state
    holds zeros, the empty set: the cold start.  Only the set is kept: each
    call rebuilds the set's inverse Gram matrix from scratch for its own
    target.  Create one per projected-ascent trial and pass it to every
    projection of that trial; using it with another polytope raises
    ``ValueError``.
    """

    __slots__ = ("polytope", "face")

    def __init__(self, polytope: Polytope):
        self.polytope = polytope
        self.clear()

    def clear(self) -> None:
        """Forget the active set: the next call starts cold."""
        self.face = np.zeros(self.polytope.n_halfspaces + self.polytope.dim)


def project(p: Polytope, y, warm: ProjectionWarmStart | None = None) -> np.ndarray:
    """Euclidean projection of ``y`` onto the polytope.

    Already-feasible points are returned as a copy.  When the point clamped to
    the box is feasible (always for a pure box) it is the answer.  Otherwise
    the dual active-set method of Goldfarb and Idnani (Math. Prog. 27, 1983)
    with an identity Hessian runs from the active set that ``warm`` holds
    (see below; a new state without ``warm``).  It repeatedly adds the
    most violated constraint (by distance; lowest index on ties, halfspaces
    before box faces) and takes partial dual steps, dropping the active
    constraint whose multiplier reaches 0 first, until a full step makes the
    added constraint tight.  The method ends after finitely many steps.
    Active box faces fix their coordinate, so each step splits the added
    normal into its least-squares combination of the active halfspaces'
    normals on the free coordinates and the part orthogonal to them.  It
    reads that split from the inverse Gram matrix of those normals, which
    the call carries and updates by one rank-one change when a constraint
    joins or leaves (``_GramInverse``), instead of refactorizing the active
    set every step.

    The method may start from any active set whose face minimizer has
    nonnegative multipliers, and the state's set gives one (``_resume``):
    each iteration inverts its Gram matrix once, from scratch, puts ``x`` on
    its face for this ``y`` and reads the multipliers there, and the
    constraints whose multipliers are negative leave, iteration after
    iteration, until none is.  The empty set gives ``x = y``, the cold
    start.  Consecutive projections of a trial share most of their active
    set, so a warm call takes fewer dual steps.  In the same loop, when at
    least ``_BATCH_MIN`` constraints are violated at ``x`` and the set has
    room for them all (with them, no more active constraints than
    coordinates), they all join as the negative ones leave, for at most
    ``_BATCH_ROUNDS`` joins: the primal-dual active-set step (Hintermueller,
    Ito and Kunisch, SIAM J. Optim. 13, 2002), used only to choose the
    start, since the loop still ends on a set with nonnegative multipliers.
    A far target, such as a cold call's at step 1/L, then takes a few dual
    steps instead of about one per constraint it ends on.

    The answer is recomputed from the final active set and certified by its
    KKT conditions: feasibility and nonnegative multipliers, both within
    ``1e-9 * max(1, ||y||)``.  So a warm answer is bit-identical to the cold
    one whenever both end on the same set.  A stored set that is singular
    (its inverse fails the growth test of ``_GramInverse``'s updates), or
    whose answer fails, is cleared and run once more cold, so a warm start
    never turns a cold answer into a ``ProjectionError`` and no call runs
    cold twice.  A certified call leaves its final set in ``warm``, and
    a clamped answer leaves ``warm`` as it was.  The answer is backward
    stable, so a far target's answer is feasible only on ``||y||``'s scale:
    on ``x1 + x2 <= 1`` in the unit box, ``y = (1e12, 1e12)`` gives a point
    4.9e-4 outside.  Raises ``ProjectionError`` carrying the cold iterate
    and its residual when the cold answer fails (``warm`` is then cleared),
    and ``ValueError`` when ``warm`` belongs to another polytope, or ``y``
    has a non-finite entry or, unless the clamped point is the answer, a
    norm that overflows (both tolerances would be infinite).
    """
    state = ProjectionWarmStart(p) if warm is None else warm
    if state.polytope is not p:
        raise ValueError("the projection warm start belongs to another polytope")
    y = _check_dim(p, y, "y")
    if not np.isfinite(y).all():
        raise ValueError("y must be finite")
    # the region lies in the box, so the clamped point is the answer when it
    # meets every halfspace: always for a pure box, and a copy of y when y is
    # already feasible
    x = np.minimum(np.maximum(y, 0.0), p.upper)
    if (p.a_matrix @ x <= p.b_vector).all():
        return x

    scale = max(1.0, math.sqrt(y.dot(y)))
    if not math.isfinite(scale):
        raise ValueError("y is too large: its norm overflows")
    row_norms = np.sqrt(np.einsum("ij,ij->i", p.a_matrix, p.a_matrix))
    while True:
        cold = not state.face.any()
        face = _dual_active_set(p, y, scale, row_norms, state.face)
        if face is not None:  # None: the stored set is singular
            x, residual = _kkt_point(p, y, face, row_norms)
            if residual <= _KKT_RTOL * scale:
                state.face = face
                return x
        state.clear()
        if cold:
            raise ProjectionError(f"projection failed its KKT certificate: residual "
                                  f"{residual:.3g}", iterate=x, residual=residual)


class _GramInverse:
    """The active halfspaces of one projection, with the inverse of their
    Gram matrix on the free coordinates.

    Slot ``s < len(ginv)`` holds halfspace ``rows[s]`` and its normal
    ``normals[s]``, a row of ``A_S``.  ``free`` is 1 on the free coordinates
    and 0 on the fixed ones, and ``ginv = (A_SF A_SF^T)^-1`` for ``A_SF``, the
    free columns of ``A_S``.  Each change of the active set is a rank-one
    change of that Gram matrix, so its inverse is updated (Goldfarb and
    Idnani, Math. Prog. 27, 1983; Gill, Golub, Murray and Saunders, Math.
    Comp. 28, 1974): bordered when a halfspace joins, by Sherman-Morrison
    when a coordinate is fixed or freed, and by a principal-submatrix
    downdate when a halfspace leaves.  An update divides by a pivot, which
    can amplify the carried rounding by a growth factor (at least 1 in exact
    arithmetic).  When that factor reaches ``_MAX_GROWTH``, or is not
    positive, which only drift can cause, the inverse is recomputed from
    ``normals`` and ``free`` instead.  ``w`` is the buffer that each split
    returns and the next one overwrites."""

    __slots__ = ("rows", "normals", "ginv", "free", "w")

    def __init__(self, m: int, n: int):
        self.rows = np.zeros(m, dtype=int)
        self.normals = np.zeros((m, n))
        self.ginv = np.zeros((0, 0))
        self.free = np.ones(n)
        self.w = np.empty(n)

    def split(self, normal: np.ndarray):
        """``r``, the least-squares coefficients of ``normal`` on the active
        normals over the free coordinates, and ``w = normal - r A_S``, whose
        free part is orthogonal to the active normals."""
        a_s, w = self.normals[:len(self.ginv)], self.w
        r = self.ginv @ (a_s @ np.multiply(normal, self.free, out=w))
        return r, np.subtract(normal, np.dot(r, a_s, out=w), out=w)

    def split_face(self, j: int, sign: float):
        """``split`` of the box face normal of a free coordinate ``j`` (``sign``
        at ``j``, 0.0 elsewhere), bit for bit, read without forming it:
        ``r = ginv (sign * A_S[:, j])`` and ``w = sign * e_j - r A_S``."""
        a_s, w = self.normals[:len(self.ginv)], self.w
        r = self.ginv @ (sign * a_s[:, j])
        np.subtract(0.0, np.dot(r, a_s, out=w), out=w)
        w[j] += sign
        return r, w

    def add_row(self, k: int, normal: np.ndarray, r: np.ndarray, zz: float) -> None:
        """Halfspace ``k`` joins.  ``r`` is ``split(normal)``'s, and ``zz > 0``,
        the squared norm of its free residual, is the Schur complement."""
        s = len(self.ginv)
        self.rows[s], self.normals[s] = k, normal
        if not float(normal * self.free @ normal) < _MAX_GROWTH * zz:
            return self.refactor(s + 1)
        g = np.empty((s + 1, s + 1))
        g[:s, :s] = self.ginv + r[:, None] * (r / zz)
        g[s, :s] = g[:s, s] = -r / zz
        g[s, s] = 1.0 / zz
        self.ginv = g

    def fix(self, j: int, r: np.ndarray, zz: float) -> None:
        """Coordinate ``j`` is fixed: the Gram matrix loses ``m_j m_j^T`` for
        ``m_j = A_S[:, j]``.  With ``r`` and ``zz > 0`` from ``split(±e_j)``,
        ``r = ±ginv m_j`` and ``zz = 1 - m_j^T ginv m_j``."""
        self.free[j] = 0.0
        if not 1.0 < _MAX_GROWTH * zz:
            return self.refactor(len(self.ginv))
        self.ginv += r[:, None] * (r / zz)

    def drop_row(self, k: int) -> None:
        """Halfspace ``k`` leaves: its slot swaps with the last, which is cut."""
        rows, normals, g = self.rows, self.normals, self.ginv
        last = len(g) - 1
        p = int((rows[:last + 1] == k).argmax())
        swap = [last, p]
        rows[[p, last]] = rows[swap]
        normals[[p, last]] = normals[swap]
        g[[p, last]] = g[swap]
        g[:, [p, last]] = g[:, swap]
        g_kk = float(g[last, last])
        if not 0.0 < g_kk * float(normals[last] * self.free @ normals[last]) < _MAX_GROWTH:
            return self.refactor(last)
        f = g[:last, last]
        self.ginv = g[:last, :last] - f[:, None] * (f / g_kk)

    def release(self, j: int) -> None:
        """Coordinate ``j`` is freed: the Gram matrix gains ``m_j m_j^T``."""
        self.free[j] = 1.0
        m_j = self.normals[:len(self.ginv), j]
        v = self.ginv @ m_j
        denom = 1.0 + float(m_j @ v)
        if not 0.0 < denom < _MAX_GROWTH:
            return self.refactor(len(self.ginv))
        self.ginv -= v[:, None] * (v / denom)

    def refactor(self, size: int) -> None:
        """Recompute the inverse of the first ``size`` slots."""
        a_s = self.normals[:size]
        self.ginv = np.linalg.pinv((a_s * self.free) @ a_s.T, hermitian=True)


def _dual_active_set(p: Polytope, y: np.ndarray, scale: float, row_norms: np.ndarray,
                     start: np.ndarray):
    """The active set at the projection, as ``face``: 1 at a tight halfspace,
    -1 at a coordinate fixed at its lower face, +1 at its upper face and 0
    elsewhere.  It starts from the set ``start`` (a previous call's
    ``face``, or all zeros, the empty set) as ``_resume`` leaves it: pruned
    to nonnegative multipliers, perhaps with violated constraints joined at
    once.  ``_resume`` also seeds the carried inverse and makes the loop's
    first distance pass.  None when ``_resume`` gives up on the stored set
    (a singular set, see there), which it never does from the empty set.

    The constraints share one index space: halfspace ``i`` is ``i`` and
    coordinate ``j``'s box face is ``m + j``.  ``face`` (``active`` then
    ``side``), the multipliers ``mult`` and the rates at which a dual step
    lowers them run over it, so a constraint joins the active set in one
    place and leaves it in one place, and the active halfspaces' factorization
    (``_GramInverse``) is updated at those two places."""
    a, b, u = p.a_matrix, p.b_vector, p.upper
    m, n = a.shape
    # a zero row is never violated (b > 0)
    row_norms = np.where(row_norms == 0.0, 1.0, row_norms)
    add_tol = _ADD_RTOL * scale
    gram = _GramInverse(m, n)
    resumed = _resume(p, y, start, gram, row_norms, add_tol)
    if resumed is None:
        return None
    x, face, mult, dist, blocked = resumed
    side = face[m:]
    rates, ratios = np.zeros(m + n), np.empty(m + n)
    rising = np.empty(m + n, dtype=bool)
    z, work = np.empty(n), np.empty(n)
    dist_rows, dist_box, rate_rows, rate_box = dist[:m], dist[m:], rates[:m], rates[m:]
    steps = _STEPS_PER_CONSTRAINT * (m + 2 * n)
    while steps > 0:
        k = int(dist.argmax())
        if not dist[k] > add_tol:
            break
        # constraint k as  normal . x <= rhs,  with face[k] = sign once active;
        # a box face's normal is  sign * e_j
        if k < m:
            normal, rhs, sign = a[k], b[k], 1.0
            dependent = _DEPENDENT_RTOL**2 * float(normal @ normal)
        else:
            j = k - m
            sign = 1.0 if x[j] > u[j] else -1.0
            rhs = u[j] if sign > 0 else 0.0
            dependent = _DEPENDENT_RTOL**2
        added = 0.0  # dual step taken so far on constraint k
        while steps > 0:
            steps -= 1
            # split the normal into r, its coefficients on the active normals,
            # and z, the part orthogonal to them (zero on fixed coordinates)
            if k < m:
                r, w = gram.split(normal)
                excess = float(normal @ x) - rhs
            else:
                r, w = gram.split_face(j, sign)
                excess = sign * float(x[j]) - rhs
            zz = float(np.multiply(w, gram.free, out=z) @ z)
            full = math.inf  # unless z = 0: the normal is a combination of active normals
            if zz > dependent:
                full = excess / zz
            # the active multiplier that reaches 0 first (lowest index on ties)
            rate_rows.fill(0.0)
            rate_rows[gram.rows[:r.size]] = r
            np.multiply(side, w, out=rate_box)
            ratios.fill(math.inf)
            np.divide(mult, rates, out=ratios, where=np.greater(rates, 0.0, out=rising))
            i = int(ratios.argmin())
            partial = max(float(ratios[i]), 0.0)
            t = min(full, partial)
            if math.isinf(t):
                # no step satisfies constraint k, which only rounding can cause
                # (the origin is feasible); the certificate then fails
                return face
            x -= np.multiply(z, t, out=work)
            mult -= np.multiply(rates, t, out=ratios)
            added += t
            if full <= partial:  # constraint k joins
                face[k], blocked[k], mult[k] = sign, -math.inf, added
                if k < m:
                    gram.add_row(k, normal, r, zz)
                else:
                    x[j] = rhs
                    gram.fix(j, r, zz)
                break
            # constraint i, whose multiplier reached 0, leaves
            face[i], blocked[i], mult[i] = 0.0, 0.0, 0.0
            if i < m:
                gram.drop_row(i)
            else:
                gram.release(i - m)
        # the distance pass, as _resume makes it
        np.dot(a, x, out=dist_rows)
        dist_rows -= b
        dist_rows /= row_norms
        np.maximum(np.negative(x, out=work), np.subtract(x, u, out=dist_box), out=dist_box)
        dist += blocked
    return face


def _resume(p: Polytope, y: np.ndarray, start: np.ndarray, gram: _GramInverse,
            row_norms: np.ndarray, add_tol: float):
    """A dual-feasible start of ``_dual_active_set`` from the active set
    ``start``: ``x``, the point closest to ``y`` on the face where its
    halfspaces are tight and its fixed coordinates sit at their box face,
    with ``face``, ``mult``, the multipliers there, ``blocked``, -inf at the
    active constraints and 0 elsewhere, and ``dist``, the dual loop's
    distance pass at ``x`` plus ``blocked``, which becomes that loop's first.
    ``gram`` is left holding the set and its inverse.

    Each iteration inverts the set's Gram matrix ``G = A_SF A_SF^T`` once,
    from scratch (``_gram_inverse``), reads ``x`` and the multipliers from
    that inverse, and the constraints whose multiplier is negative leave,
    all at once.  While joins remain (``_BATCH_ROUNDS``), and the set, its
    leavers still in it, has room for ``_BATCH_MIN`` more constraints, the
    iteration makes the distance pass at ``x``: when at least ``_BATCH_MIN``
    constraints are violated by more than ``add_tol``, and the set without
    its leavers has room for them all (more halfspaces than free
    coordinates would be singular, so no more active constraints than
    coordinates), they all join as the leavers leave, a box face at the
    side ``x`` is past.  That is the primal-dual active-set step of
    Hintermueller, Ito and Kunisch (SIAM J. Optim. 13, 2002), used only to
    choose the start.  The loop ends when nothing leaves and nothing joins;
    the empty set with nothing violated gives ``x = y`` and no multipliers
    in one iteration of 0 x 0 matrices.  A nearly full set takes no join,
    since there, at the default step, joins cost more inversions than the
    dual steps they save; it then makes a distance pass only when nothing
    leaves, since only the last pass is used.

    A singular set made by a join goes back to the set before that join
    (its iteration's leavers gone) with no more joins, as does a set pruned
    from it later; a set singular after that, or one pruned from ``start``
    alone, gives None, unless ``start`` is the empty set, which the loop
    then runs from again without joins (the empty set is never singular)."""
    a, b, u = p.a_matrix, p.b_vector, p.upper
    m, n = a.shape
    face = start.copy()
    active, side = face[:m], face[m:]
    dist, work = np.empty(m + n), np.empty(n)
    dist_rows, dist_box = dist[:m], dist[m:]
    rounds = _BATCH_ROUNDS
    # the set a singular one goes back to: the set before the last join
    before = None
    while True:
        rows = active.nonzero()[0]
        free = side == 0.0
        a_s = a[rows]
        ginv = _gram_inverse(a_s, free)
        if ginv is None:
            if before is None:
                return None
            face[:], rounds = before, 0
            before = None if start.any() else start
            continue
        x = np.where(free, y, np.where(side > 0.0, u, 0.0))
        # x_F = y_F - A_SF^T lam  with  A_S x = b_S
        lam = ginv @ (a_s @ x - b[rows])
        shift = lam @ a_s
        # box-face multipliers: y - x = A_S^T lam + side * mu on fixed coordinates
        mu = side * (y - x - shift)
        leave_rows, leave_faces = lam < 0.0, mu < 0.0
        leaving = leave_rows.any() or leave_faces.any()
        # a nearly full set, the leavers still in it, takes no join
        joinable = rounds and n - np.count_nonzero(face) >= _BATCH_MIN
        if joinable or not leaving:
            np.subtract(x, shift, out=x, where=free)
            # the dual loop's distance pass, bit for bit.  The active
            # constraints are blocked so that none is added twice (halfspaces
            # are tight only up to rounding), the leavers too: none joins as
            # it leaves
            blocked = np.where(face != 0.0, -math.inf, 0.0)
            np.dot(a, x, out=dist_rows)
            dist_rows -= b
            dist_rows /= row_norms
            np.maximum(np.negative(x, out=work), np.subtract(x, u, out=dist_box), out=dist_box)
            dist += blocked
        if leaving:
            active[rows[leave_rows]] = 0.0
            side[leave_faces] = 0.0
        if joinable:
            over = (dist > add_tol).nonzero()[0]
            # more halfspaces than free coordinates is a singular set: so no
            # more constraints, active once the leavers leave and joining,
            # than coordinates
            if _BATCH_MIN <= over.size <= n - np.count_nonzero(face):
                rounds -= 1
                before = face.copy()
                face[over] = 1.0
                box = over[over >= m] - m
                side[box] = np.where(x[box] > u[box], 1.0, -1.0)
                continue
        if not leaving:
            break
    gram.rows[:rows.size], gram.normals[:rows.size] = rows, a_s
    gram.free, gram.ginv = free.astype(float), ginv
    mult = np.zeros(face.size)
    mult[rows], mult[m:] = lam, mu
    return x, face, mult, dist, blocked


def _gram_inverse(a_s: np.ndarray, free: np.ndarray):
    """``(A_SF A_SF^T)^-1``, the inverse Gram matrix of the rows ``a_s`` on
    the ``free`` coordinates (a boolean mask), from scratch.  None when the
    set is singular by the test ``_GramInverse`` trusts its inverse by: the
    inversion fails, or some ``ginv_kk G_kk``, the growth at which
    ``drop_row`` would recompute the inverse, is not in ``(0,
    _MAX_GROWTH)``.  (The Gram matrix squares the set's condition, so its
    inverse cannot resolve the finer test a halfspace passes to join,
    ``_DEPENDENT_RTOL``.)"""
    gram_matrix = (a_s * free) @ a_s.T
    try:
        ginv = np.linalg.inv(gram_matrix)
    except np.linalg.LinAlgError:
        return None
    growth = ginv.diagonal() * gram_matrix.diagonal()
    # min and max reject an empty array: the empty set is never singular
    if growth.size and not (growth.min() > 0.0 and growth.max() < _MAX_GROWTH):
        return None
    return ginv


def _kkt_point(p: Polytope, y: np.ndarray, face: np.ndarray, row_norms: np.ndarray):
    """The projection of ``y`` onto the face where the halfspaces with nonzero
    ``active = face[:m]`` are tight and the coordinates with nonzero ``side =
    face[m:]`` sit at their box face, with its KKT residual: the larger of
    the point's constraint violation and its most negative multiplier (times
    its normal's length)."""
    m = p.n_halfspaces
    active, side = face[:m], face[m:]
    a, b, u = p.a_matrix, p.b_vector, p.upper
    free = side == 0.0
    fixed = ~free
    x = np.where(free, y, np.where(side > 0.0, u, 0.0))
    rows = active.nonzero()[0]
    a_rows = a[rows]
    # each block once: the solve below writes only x's free part
    a_free, a_fixed, y_free, x_fixed = a_rows[:, free], a_rows[:, fixed], y[free], x[fixed]
    lam = np.zeros(0)
    if rows.size:
        # x_free = y_free - M^T lam  with  M x_free = b - A[rows, fixed] x_fixed
        q, r_tri = np.linalg.qr(a_free.T)
        rhs = b[rows] - a_fixed @ x_fixed
        try:
            w = np.linalg.solve(r_tri.T, rhs)
            lam = np.linalg.solve(r_tri, q.T @ y_free - w)
        except np.linalg.LinAlgError:
            return x, math.inf
        x[free] = y_free - a_free.T @ lam
    # box-face multipliers: y - x = A_rows^T lam + side * mu on fixed coordinates
    mu = side[fixed] * (y[fixed] - x_fixed - a_fixed.T @ lam)
    worst = float(max((-lam * row_norms[rows]).max(initial=0.0), (-mu).max(initial=0.0)))
    return x, max(violation(p, x), worst)


class LmoWarmStart:
    """One caller's simplex state for ``lmo`` on one polytope.

    A halfspace is redundant when the whole box satisfies it,
    ``sum_j max(A_ij, 0) * upper_j <= b_i``.  A new state keeps the other
    ``rows`` (every other use of the region keeps all of them), their
    read-only constraint matrix ``base = [A_rows I]``, right-hand sides ``b``
    and the variables' bounds ``upper``, ``(upper, inf, ...)``.  It then holds
    the basis, the sign of each variable (+1 for a nonbasic variable at its
    lower bound, -1 at its upper bound, 0 for a basic variable), the basic
    values and their upper bounds ``cap``, and one ``(m + 1, m)`` array
    ``ext``: its first ``m`` rows are the inverse ``binv`` of the basis
    columns of ``base``, and its last row holds the duals ``y = c_B B^-1``
    (``duals``), which each call sets for its own direction.  ``binv`` and
    ``duals`` are views of ``ext``, so one rank-one update moves both.  The
    basis and its inverse do not depend on the direction, so each call starts
    from the state the previous call left.  Nor do the basic solution's
    ``vertex`` and ``primal``, the primal half of its certificate (see
    ``_basic_vertex``): ``lmo`` builds them once per basis, and
    ``_bounded_simplex`` drops them (sets them to None) at its first pivot or
    bound flip, as ``clear()`` does.  The dual half depends on the direction,
    so every call reads it from the simplex's last pricing pass.  A new or
    cleared state holds the slack basis at the origin, whose inverse is the
    identity: the cold start.  ``cold`` is True from then until that first
    pivot or bound flip, so a state that has moved is warm even when it
    pivots back to the slack basis.  The state also owns the LP's cost
    vector and the simplex's work arrays, so a trial allocates them once.
    Create one per Frank-Wolfe trial and pass it to every LMO call of that
    trial; using it with another polytope raises ``ValueError``.
    """

    __slots__ = ("polytope", "rows", "base", "b", "upper", "ext", "binv", "duals", "basis",
                 "sign", "values", "cap", "vertex", "primal", "cost", "reduced", "gain",
                 "improving", "col_ext", "flipped", "ratios", "work", "mask", "outer", "cold")

    def __init__(self, polytope: Polytope):
        a, u = polytope.a_matrix, polytope.upper
        rows = np.flatnonzero(np.maximum(a, 0.0) @ u > polytope.b_vector)
        n, m = u.size, rows.size
        base = np.hstack((a[rows], np.eye(m)))
        b = polytope.b_vector[rows]
        base.setflags(write=False)
        b.setflags(write=False)
        self.polytope, self.rows, self.base, self.b = polytope, rows, base, b
        self.upper = np.concatenate((u, np.full(m, np.inf)))
        # the LP's costs: lmo writes each direction over the first n, and the
        # slacks' stay 0
        self.cost = np.zeros(n + m)
        # work arrays of _bounded_simplex, which overwrites them on every call
        self.reduced, self.gain = np.empty(n + m), np.empty(n + m)
        self.improving = np.empty(n + m, dtype=bool)
        self.col_ext, self.outer = np.empty(m + 1), np.empty((m + 1, m))
        self.flipped, self.ratios, self.work = np.empty(m), np.empty(m), np.empty(m)
        self.mask = np.empty(m, dtype=bool)
        self.clear()

    def clear(self) -> None:
        """Return to the slack basis at the origin, the cold start."""
        n, m = self.polytope.dim, self.rows.size
        self.ext = np.eye(m + 1, m)
        self.binv, self.duals = self.ext[:m], self.ext[m]
        self.basis = np.arange(n, n + m)
        self.sign = np.concatenate((np.ones(n), np.zeros(m)))
        self.values = self.b.copy()
        self.cap = np.full(m, np.inf)
        self.vertex = self.primal = None
        self.cold = True


def lmo(p: Polytope, g, warm: LmoWarmStart | None = None) -> np.ndarray:
    """A vertex maximizing ``<g, v>`` over the polytope.

    Only the halfspaces that some point of the box violates take part (see
    ``LmoWarmStart``); without any, the answer is the sign rule
    ``v_j = upper_j if g_j > 0 else 0``.  Otherwise the LP
    ``max g.v  s.t.  A v + s = b,  0 <= v <= upper,  s >= 0`` is solved by a
    bounded-variable primal simplex (the upper-bounding technique of Dantzig,
    Econometrica 23, 1955) in its revised form, which carries the basis
    inverse ``B^-1`` with the duals ``y = c_B B^-1`` as one more row
    (Dantzig and Orchard-Hays, MTAC 8, 1954) and forms the one column of
    ``B^-1 [A I]`` that a pivot reads.  It starts from the basis ``warm``
    holds: the slack basis at the origin when the state is new or cleared
    (and always without ``warm``, which uses a new state), and the previous
    call's final basis otherwise, which is feasible for any direction.  The
    duals are set once a call from that basis, and each pivot updates them
    with ``B^-1`` by one rank-one change of ``[B^-1; y]``; the reduced costs
    ``c - y [A I]`` are recomputed from them, and a basic variable, whose
    sign is 0, never prices.  A nonbasic variable sits at 0 or at its upper
    bound, and reaching the other bound first is a bound flip, not a pivot.
    The entering variable is the one with the largest improving reduced
    cost; right after a degenerate pivot (a step of at most ``_PIVOT_EPS``)
    it is the lowest-index improving one (Bland, Math. Oper. Res. 2, 1977).
    The lowest-index basic variable leaves on ratio ties.  Every pivot of a
    cycle would be degenerate and so would follow Bland's rule, which cannot
    cycle.  Ties go to the lowest index, so the answer is a deterministic
    function of ``p``, ``g`` and the state, which is updated to this call's
    final basis.

    The answer is certified before it is returned.  The dual half depends
    on ``g``, so every call reads it, by weak duality and without a solve,
    from the simplex's last pricing pass, which finds nothing to improve
    unless the pivot budget ran out: with the reduced costs ``c - y [A I]``
    of the carried duals ``y`` on the original ``[A I]``, no nonbasic
    variable may improve the objective by more than ``TOL_LP * max(1,
    ||g||_inf)``, and no basic variable's reduced cost, 0 for the final
    basis's own duals, may exceed that in size.  So carried duals that
    drifted from ``c_B B^-1`` fail the check instead of certifying it, and a
    NaN anywhere fails it too.  The primal half depends only on the basis,
    the signs and the basic values, so it is computed with the vertex once
    per basis and kept in ``warm`` until the simplex pivots or flips a
    bound: the vertex may violate no constraint by more than ``TOL_LP``, and
    each row whose slack is nonbasic must hold with equality within
    ``TOL_LP``.  A call that moves nothing returns a copy of the stored
    vertex.  With primal and dual feasibility, that last check
    (complementary slackness) makes the answer the optimal basis's own
    vertex, so a carried inverse that drifted cannot pass off a feasible but
    suboptimal point.  An answer that fails clears the state,
    and the call is solved once more from the slack basis unless it started
    cold (see ``LmoWarmStart``), so a warm start never turns a cold answer
    into an ``LmoError`` and no call runs cold twice.  Raises ``LmoError``
    carrying the residual when the cold answer fails (the state is then
    left at the slack basis), and ``ValueError`` when ``g`` has a non-finite
    entry or ``warm`` belongs to another polytope.
    """
    if warm is not None and warm.polytope is not p:
        raise ValueError("the LMO warm start belongs to another polytope")
    g = _check_dim(p, g, "g")
    top = float(np.abs(g).max())
    if not math.isfinite(top):
        raise ValueError("g must be finite")
    state = LmoWarmStart(p) if warm is None else warm
    n, u = p.dim, p.upper
    if state.rows.size == 0:
        return np.where(g > 0.0, u, 0.0)

    cost = state.cost
    cost[:n] = g
    scale = max(1.0, top)
    while True:
        cold = state.cold
        dual = _bounded_simplex(state, cost)
        if state.vertex is None:
            _basic_vertex(state)
        residual = float(np.maximum(dual / scale, state.primal))
        if residual <= TOL_LP:
            return state.vertex.copy()
        state.clear()
        if cold:
            raise LmoError(f"LMO failed its optimality certificate: residual {residual:.3g}",
                           residual=residual)


def _bounded_simplex(state: LmoWarmStart, cost: np.ndarray) -> float:
    """Maximize ``cost.z`` over ``[A I] z = b``, ``0 <= z <= (upper, inf)``,
    where ``z`` holds the ``n`` coordinates then the ``m`` slacks, from the
    basis ``state`` holds, and leave the final simplex state in ``state``.
    The duals row of ``state.ext`` is set here from ``cost``; every array the
    pivots write belongs to ``state``.

    Returns the dual half of the certificate from the last pricing pass,
    which every exit follows (at most ``_PIVOTS_PER_VARIABLE * (n + m)``
    moves, and one pass more): with ``d = c - y [A I]`` of the carried duals
    ``y``, the largest of a nonbasic variable's improvement ``sign * d`` and
    a basic variable's ``|d|`` (0 for the basis's own duals).  By weak
    duality any ``y`` bounds the objective, so with the primal half (see
    ``_basic_vertex``) it certifies the final basic solution whatever
    ``[B^-1; y]`` the simplex carried: duals that drifted from ``c_B B^-1``
    move the basic ``d`` off 0.  NaN when any of it is NaN."""
    ext, binv, duals = state.ext, state.binv, state.duals
    basis, sign, values, cap = state.basis, state.sign, state.values, state.cap
    base, upper, m = state.base, state.upper, basis.size
    reduced, gain, improving = state.reduced, state.gain, state.improving
    col_ext, outer, flipped = state.col_ext, state.outer, state.flipped
    ratios, work, mask = state.ratios, state.work, state.mask
    col = col_ext[:m]
    np.dot(cost[basis], binv, out=duals)  # y = c_B B^-1
    bland = False
    for moves_left in range(_PIVOTS_PER_VARIABLE * reduced.size, -1, -1):
        np.subtract(cost, np.dot(duals, base, out=reduced), out=reduced)  # c - y [A I]
        np.multiply(sign, reduced, out=gain)  # zero on basic variables
        # under Bland's rule the first True of the mask, the lowest improving index
        j = int((np.greater(gain, TOL_LP, out=improving) if bland else gain).argmax())
        if not (gain[j] > TOL_LP and moves_left):
            break
        # the entering column B^-1 a_j; the basic values move by -step * rate
        # as v_j leaves its bound
        np.dot(binv, base[:, j], out=col)
        rate = col if sign[j] > 0.0 else np.negative(col, out=flipped)
        ratios.fill(np.inf)
        np.divide(values, rate, out=ratios, where=np.greater(rate, _PIVOT_EPS, out=mask))
        np.divide(np.subtract(values, cap, out=work), rate, out=ratios,
                  where=np.less(rate, -_PIVOT_EPS, out=mask))
        r = int(ratios.argmin())
        best = float(ratios[r])
        step = max(best, 0.0)
        u_j = float(upper[j])
        if u_j == best == math.inf:
            break  # unbounded, which only rounding can cause; the certificate fails
        state.vertex = state.primal = None  # the basic solution moves: both are stale
        state.cold = False
        if u_j <= step:  # bound flip: v_j reaches its other bound first
            values -= np.multiply(rate, u_j, out=work)
            sign[j] = -sign[j]
            bland = False
            continue
        tied = np.less_equal(ratios, best + _PIVOT_EPS * max(1.0, abs(best)),
                             out=mask).nonzero()[0]
        if tied.size > 1:
            r = int(tied[basis[tied].argmin()])  # lowest basic index on ties
        values -= np.multiply(rate, step, out=work)
        values[r] = u_j - step if sign[j] < 0.0 else step
        sign[basis[r]] = -1.0 if rate[r] < 0.0 else 1.0
        sign[j] = 0.0
        # [B^-1; y] <- row r of B^-1 over the pivot, eliminated from the other
        # rows of B^-1 and added to y reduced_j times: one k = 1 matrix product
        row = binv[r]
        row /= col[r]
        col[r] = 0.0
        col_ext[m] = -reduced[j]
        ext -= np.dot(col_ext[:, None], row[None, :], out=outer)
        basis[r], cap[r] = j, u_j
        bland = step <= _PIVOT_EPS
    # the last pass's improvements, with each basic variable's |d| (0 in exact arithmetic)
    gain[basis] = np.abs(reduced[basis])
    return float(gain.max())


def _basic_vertex(state: LmoWarmStart) -> None:
    """Store on ``state`` the vertex of its basic solution and the primal half
    of its certificate, which depend only on the basis, the signs and the
    basic values: the vertex's largest constraint violation and the slack of
    a row whose slack variable is nonbasic (it must be tight).  NaN when the
    vertex is not finite."""
    n, u = state.polytope.dim, state.polytope.upper
    # the basic solution over all n + m variables: each at the bound its sign
    # gives, then the basic ones at their values
    z = np.where(state.sign < 0.0, state.upper, 0.0)
    z[state.basis] = state.values
    v = z[:n]
    # a basic value that rounding put past its bound
    np.minimum(np.maximum(v, 0.0, out=v), u, out=v)
    # v lies in the box, so it meets every row that lmo leaves out
    slack = state.b - state.base[:, :n] @ v
    # a row whose slack is basic need only hold: max(-slack, 0 * slack); the
    # others must be tight: max(-slack, slack) = |slack|.  fmax skips the NaN
    # of 0 * inf, so an infinite basic slack still counts as held
    tight = np.abs(state.sign[n:])  # 0 at a basic slack, 1 at a nonbasic one
    state.vertex = v
    state.primal = np.fmax(np.negative(slack), slack * tight).max()


def diameter_bound(p: Polytope) -> float:
    """Upper bound ``||upper||_2`` on the Euclidean diameter of the region."""
    return float(np.linalg.norm(p.upper))
