import math
from collections import Counter

import numpy as np
import pytest

from drsubmax import geometry
from drsubmax.geometry import (
    TOL_LP,
    LmoError,
    LmoWarmStart,
    Polytope,
    ProjectionError,
    ProjectionWarmStart,
    contains,
    diameter_bound,
    lmo,
    project,
    violation,
)
from drsubmax.objectives import NqpObjective, load_nqp, save_nqp

from _util import (
    enumerate_vertices,
    face_point,
    grid_projection,
    random_small_polytope,
    sample_feasible,
    solved_lmo_residual,
)

TRIANGLE = Polytope([[1.0, 1.0]], [1.0], [1.0, 1.0])
UNIT_BOX2 = Polytope.box([1.0, 1.0])


def at_slack_basis(state: LmoWarmStart) -> bool:
    """True iff ``state`` holds the LMO's cold start: the slack basis, whose
    inverse ``binv`` is I, the slacks basic (sign 0) at ``b`` with no upper
    bound, and every coordinate at its lower bound (sign 1)."""
    p = state.polytope
    n, m = p.dim, state.rows.size
    return (np.array_equal(state.binv, np.eye(m))
            and np.array_equal(state.basis, np.arange(n, n + m))
            and np.array_equal(state.sign, np.repeat([1.0, 0.0], [n, m]))
            and np.array_equal(state.values, p.b_vector[state.rows])
            and np.array_equal(state.cap, np.full(m, np.inf)))


def round_trip(path, poly: Polytope) -> Polytope:
    """The region of an instance file with H = -I written for ``poly``."""
    save_nqp(path, NqpObjective(-np.eye(poly.dim), poly))
    return load_nqp(path).polytope


class TestPolytopeConstruction:
    def test_rejects_nonpositive_upper(self):
        with pytest.raises(ValueError):
            Polytope.box([1.0, 0.0])

    def test_rejects_nonpositive_rhs(self):
        with pytest.raises(ValueError):
            Polytope([[1.0, 1.0]], [0.0], [1.0, 1.0])

    @pytest.mark.parametrize("a,b,u", [
        ([[1.0, np.nan]], [1.0], [1.0, 1.0]),
        ([[1.0, 1.0]], [np.inf], [1.0, 1.0]),
        ([[1.0, 1.0]], [1.0], [1.0, np.nan]),
        (np.zeros((0, 2)), np.zeros(0), [np.inf, 1.0]),
    ], ids=["A", "b", "upper", "box-upper"])
    def test_rejects_non_finite_entries(self, a, b, u):
        with pytest.raises(ValueError, match="finite"):
            Polytope(a, b, u)

    def test_rejects_a_matrix_that_is_not_2d(self):
        with pytest.raises(ValueError, match=r"A must be a matrix, got shape \(1, 2, 2\)"):
            Polytope(np.ones((1, 2, 2)), [1.0], [1.0, 1.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Polytope([[1.0, 1.0]], [1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            Polytope([[1.0, 1.0, 1.0]], [1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="at least one coordinate"):
            Polytope([], [], [])


class TestContains:
    def test_interior_point(self):
        assert contains(UNIT_BOX2, [0.5, 0.5], 0.0)
        # a pure box has no halfspace part: its violation is the box's alone
        assert violation(UNIT_BOX2, [0.5, 0.5]) == 0.0

    def test_box_violation(self):
        assert not contains(UNIT_BOX2, [1.0 + 1e-3, 0.0], 1e-6)

    def test_halfspace_violation(self):
        assert not contains(TRIANGLE, [0.6, 0.6], 1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            contains(UNIT_BOX2, [0.5, 0.5, 0.5])
        # an objective checks its points against its region the same way
        with pytest.raises(ValueError, match="^x has dimension 3, polytope has dimension 2$"):
            NqpObjective(-np.eye(2), UNIT_BOX2).grad([0.5, 0.5, 0.5])
        with pytest.raises(ValueError, match="^d has dimension 3, polytope has dimension 2$"):
            NqpObjective(-np.eye(2), UNIT_BOX2).hvp([0.5, 0.5], [0.5, 0.5], [0.0], [1.0, 1.0, 1.0])

    def test_negative_tol_rejected(self):
        for tol in (-1.0, np.nan):
            with pytest.raises(ValueError):
                contains(UNIT_BOX2, [0.5, 0.5], tol)

    def test_non_finite_point_not_contained(self):
        assert not contains(TRIANGLE, [np.nan, 0.2])
        assert not contains(TRIANGLE, [np.inf, 0.2], 1e6)
        assert violation(TRIANGLE, [np.nan, 0.2]) == np.inf
        assert violation(UNIT_BOX2, [0.5, -np.inf]) == np.inf


def kkt_residual(poly, y, x):
    """Relative distance of ``y - x`` from the cone of nonnegative combinations
    of the constraint normals active at ``x`` (NNLS)."""
    nnls = pytest.importorskip("scipy.optimize").nnls
    tol = 1e-11 * max(1.0, np.linalg.norm(y))
    rows = np.abs(poly.a_matrix @ x - poly.b_vector) <= tol
    eye = np.eye(poly.dim)
    normals = np.hstack([poly.a_matrix[rows].T, -eye[:, x <= tol],
                         eye[:, x >= poly.upper - tol]])
    d = y - x
    if normals.shape[1] == 0:  # nnls cannot take a matrix without columns
        return float(np.linalg.norm(d))
    _, res = nnls(normals, d)
    return res / max(1.0, float(np.linalg.norm(d)))


class TestProject:
    def test_fixed_point_on_interval(self):
        p = Polytope.box([1.0])
        out = project(p, [0.5])
        assert out[0] == 0.5  # feasible input comes back exactly

    def test_feasible_target_comes_back_clamped_in_a_new_array(self):
        """A feasible target is returned as ``np.clip`` returns it, byte for
        byte: a new array, with -0.0 turned into 0.0 and an entry at its upper
        bound kept."""
        y = np.array([-0.0, 1.0])
        out = project(TRIANGLE, y)
        assert out is not y and not np.shares_memory(out, y)
        assert out.tobytes() == np.clip(y, 0.0, TRIANGLE.upper).tobytes()
        assert out.tobytes() == np.array([0.0, 1.0]).tobytes()

    def test_componentwise_clamp(self):
        np.testing.assert_array_equal(project(UNIT_BOX2, [2.0, -1.0]), [1.0, 0.0])

    def test_halfspace_projection_matches_grid_oracle(self):
        # exterior point equidistant to both box faces; closed form is (0.5, 0.5)
        out = project(TRIANGLE, [1.0, 1.0])
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-7)
        oracle = grid_projection(TRIANGLE, [1.0, 1.0], step=1e-3)
        assert np.linalg.norm(out - oracle) <= 2e-3

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            poly = random_small_polytope(rng)
            y = rng.uniform(-2.0, 2.0, size=poly.dim) * poly.upper
            x1 = project(poly, y)
            x2 = project(poly, x1)
            assert np.linalg.norm(x2 - x1) <= 1e-7

    def test_projection_feasible_and_optimal_by_sampling(self):
        """contains(project(y)) at 1e-6, and neither sampled feasible points
        nor polytope vertices are closer to y than the projection (1000
        targets, 100 sampled witnesses plus all vertices)."""
        rng = np.random.default_rng(4)
        polys = [random_small_polytope(rng) for _ in range(5)]
        for poly in polys:
            feas = np.vstack([sample_feasible(poly, rng, 100),
                              enumerate_vertices(poly)])
            for _ in range(200):
                y = rng.uniform(-2.0, 2.0, size=poly.dim) * poly.upper
                x = project(poly, y)
                assert contains(poly, x, 1e-6)
                dproj = np.linalg.norm(x - y)
                dists = np.linalg.norm(feas - y, axis=1)
                assert dproj <= dists.min() + 1e-6

    def test_corner_stall_regression(self):
        """The iterate can park at a feasible corner while corrections still
        accumulate; stopping there returns a suboptimal point.  Expected
        distance frozen from an exact quadratic-programming reference."""
        poly = Polytope(
            [[0.89225277, 0.08496398, 0.38236658],
             [0.51243686, 0.12672779, 0.81845792]],
            [1.8197928, 0.6826129],
            [1.99282708, 2.08364052, 0.46624839],
        )
        y = np.array([0.33062576, 5.69509391, 1.32245901])
        x = project(poly, y)
        assert contains(poly, x, 1e-6)
        # stalled variant returned the corner (0, u2, u3) at distance 3.72626
        assert np.linalg.norm(x - y) <= 3.7205541 + 1e-6
        assert x[0] == pytest.approx(0.0721, abs=1e-3)

    def test_kkt_certificate_on_random_polytopes(self):
        """y - x is a nonnegative combination of the normals active at x, for
        targets from near the region out to 10^6 times its size."""
        rng = np.random.default_rng(9)
        for _ in range(40):
            poly = random_small_polytope(rng)
            for scale in (1.0, 10.0, 1e3, 1e6):
                y = rng.standard_normal(poly.dim) * scale
                x = project(poly, y)
                assert violation(poly, x) <= 1e-12 * max(1.0, np.linalg.norm(y))
                assert kkt_residual(poly, y, x) <= 1e-10

    def test_non_finite_input_rejected(self):
        for y in ([np.nan, 0.2], [np.inf, 0.2], [-np.inf, 5.0]):
            with pytest.raises(ValueError):
                project(TRIANGLE, y)

    def test_overflowing_norm_rejected(self):
        """||y|| overflows to inf above about 1.3e154, which would make both
        tolerances infinite and return y itself, 2e154 outside the region."""
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflows"):
            project(TRIANGLE, [1e154, 1e154])

    def test_failed_certificate_carries_iterate_and_residual(self, monkeypatch):
        # with no step allowed the active set stays empty, so the candidate
        # is y itself and its KKT check fails on feasibility
        monkeypatch.setattr(geometry, "_STEPS_PER_CONSTRAINT", 0)
        with pytest.raises(ProjectionError) as err:
            project(TRIANGLE, [1.0, 1.0])
        np.testing.assert_array_equal(err.value.iterate, [1.0, 1.0])
        assert err.value.residual == pytest.approx(1.0)


class TestLmo:
    def test_all_negative_direction_selects_origin(self):
        np.testing.assert_array_equal(lmo(UNIT_BOX2, [-1.0, -1.0]), [0.0, 0.0])

    def test_zero_coefficient_rests_at_lower_bound(self):
        np.testing.assert_array_equal(lmo(UNIT_BOX2, [1.0, 0.0]), [1.0, 0.0])

    def test_halfspace_vertex(self):
        out = lmo(TRIANGLE, [2.0, 1.0])
        verts = enumerate_vertices(TRIANGLE)
        scores = verts @ np.array([2.0, 1.0])
        np.testing.assert_allclose(out, verts[np.argmax(scores)], atol=1e-9)

    def test_matches_vertex_enumeration_on_random_instances(self):
        """1000 random directions across small polytopes: the oracle value
        equals the exhaustive vertex argmax."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            poly = random_small_polytope(rng)
            verts = enumerate_vertices(poly)
            assert verts.size
            for _ in range(50):
                g = rng.standard_normal(poly.dim)
                v = lmo(poly, g)
                best = float(np.max(verts @ g))
                assert v @ g >= best - 1e-9
                assert np.min(np.linalg.norm(verts - v, axis=1)) <= 1e-8

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        poly = random_small_polytope(rng)
        g = rng.standard_normal(poly.dim)
        np.testing.assert_array_equal(lmo(poly, g), lmo(poly, g))

    @pytest.mark.parametrize("poly", [UNIT_BOX2, TRIANGLE], ids=["box", "halfspace"])
    def test_non_finite_direction_rejected(self, poly):
        for g in ([np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf]):
            with pytest.raises(ValueError, match="finite"):
                lmo(poly, g)

    def test_highly_degenerate_vertex(self):
        """Eight rows tight at one vertex, plus duplicate and scaled copies of
        them: the answer is a vertex and optimal, against vertex enumeration
        and HiGHS, for directions that make the degenerate vertex optimal
        and for random ones."""
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(75)
        n, corner = 4, np.array([0.5, 0.4, 0.6, 0.3])
        a = rng.uniform(0.1, 1.0, size=(8, n))
        a = np.vstack([a, a[:3], 2.5 * a[3:6]])
        poly = Polytope(a, a @ corner, np.ones(n))
        assert np.all(np.abs(poly.a_matrix @ corner - poly.b_vector) <= 1e-15)
        verts = enumerate_vertices(poly)
        assert np.min(np.linalg.norm(verts - corner, axis=1)) <= 1e-12
        cone = [rng.uniform(0.0, 1.0, size=a.shape[0]) @ a for _ in range(50)]
        for g in cone + [rng.standard_normal(n) for _ in range(100)]:
            v = lmo(poly, g)
            assert violation(poly, v) <= 1e-12
            assert np.min(np.linalg.norm(verts - v, axis=1)) <= 1e-9
            best = float(np.max(verts @ g))
            assert v @ g >= best - 1e-9
            res = linprog(-g, A_ub=poly.a_matrix, b_ub=poly.b_vector,
                          bounds=[(0.0, u) for u in poly.upper], method="highs")
            assert res.status == 0
            assert v @ g >= -res.fun - 1e-9
        for g in cone:
            np.testing.assert_allclose(lmo(poly, g), corner, atol=1e-12)

    @pytest.mark.parametrize("tamper", ["flip", "budget"])
    def test_certificate_rejects_a_tampered_answer(self, monkeypatch, tamper):
        """A vertex that is infeasible (a nonbasic variable moved to its other
        bound) or suboptimal (no pivot allowed) raises ``LmoError`` with its
        residual."""
        g = np.array([2.0, 1.0])
        if tamper == "flip":
            simplex = geometry._bounded_simplex

            def flipped(state, cost):
                dual = simplex(state, cost)
                nonbasic = np.setdiff1d(np.arange(state.sign.size), state.basis)
                state.sign[nonbasic[0]] = -state.sign[nonbasic[0]]
                return dual

            monkeypatch.setattr(geometry, "_bounded_simplex", flipped)
        else:
            monkeypatch.setattr(geometry, "_PIVOTS_PER_VARIABLE", 0)
        with pytest.raises(LmoError, match="certificate") as err:
            lmo(TRIANGLE, g)
        assert err.value.residual > TOL_LP

    def test_frank_wolfe_feasibility(self):
        """x0 = 0 plus T averaged oracle vertices stays feasible at 1e-9."""
        rng = np.random.default_rng(7)
        for _ in range(10):
            poly = random_small_polytope(rng)
            T = 50
            x = np.zeros(poly.dim)
            for _ in range(T):
                x = x + lmo(poly, rng.standard_normal(poly.dim)) / T
            assert contains(poly, x, 1e-9)


class TestPresolve:
    """A halfspace the whole box satisfies is left out of the LMO only."""

    # the second row holds on the whole box (10 * 1 <= 10) but not at (1.5, -0.5)
    REDUNDANT = Polytope([[1.0, 1.0], [10.0, -10.0]], [1.0, 10.0], [1.0, 1.0])

    def test_lmo_skips_the_redundant_row(self):
        np.testing.assert_array_equal(LmoWarmStart(self.REDUNDANT).rows, [0])
        rng = np.random.default_rng(76)
        for _ in range(50):
            g = rng.standard_normal(2)
            np.testing.assert_array_equal(lmo(self.REDUNDANT, g), lmo(TRIANGLE, g))

    def test_violation_and_save_keep_the_redundant_row(self, tmp_path):
        assert violation(self.REDUNDANT, [1.5, -0.5]) == 10.0
        assert violation(TRIANGLE, [1.5, -0.5]) == 0.5
        path = tmp_path / "poly.json"
        back = round_trip(path, self.REDUNDANT)
        np.testing.assert_array_equal(back.a_matrix, self.REDUNDANT.a_matrix)
        np.testing.assert_array_equal(back.b_vector, self.REDUNDANT.b_vector)
        np.testing.assert_array_equal(LmoWarmStart(back).rows, [0])

    def test_acceptance_region_is_the_sign_rule(self):
        """The acceptance instance's one halfspace, 0.2 * sum(x) <= 1, holds
        on the unit box, so the LMO is the sign rule bit for bit."""
        poly = Polytope([[0.2] * 5], [1.0], np.ones(5))
        assert LmoWarmStart(poly).rows.size == 0
        rng = np.random.default_rng(77)
        for _ in range(200):
            g = rng.standard_normal(5) * (rng.uniform(size=5) < 0.8)
            np.testing.assert_array_equal(lmo(poly, g), np.where(g > 0.0, 1.0, 0.0))


class TestZeroRow:
    """An all-zero halfspace row holds everywhere (b > 0): the oracles answer
    bit for bit as on the region without it."""

    def assert_same_answers(self, with_zero, without, points, directions):
        for y in points:
            np.testing.assert_array_equal(project(with_zero, y), project(without, y))
            assert violation(with_zero, y) == violation(without, y)
        for g in directions:
            np.testing.assert_array_equal(lmo(with_zero, g), lmo(without, g))

    def test_triangle(self):
        poly = Polytope([[0.0, 0.0], [1.0, 1.0]], [1.0, 1.0], [1.0, 1.0])
        rng = np.random.default_rng(79)
        points = [[2.0, 2.0], [1.5, -0.5], [0.2, 0.3]] + list(rng.normal(size=(50, 2)) * 3.0)
        self.assert_same_answers(poly, TRIANGLE, points, rng.standard_normal((50, 2)))

    def test_paper_scale_region(self):
        from drsubmax.objectives import generate_nqp

        obj = generate_nqp(123, 100, 50, -100.0, 0.0)
        big = obj.polytope
        poly = Polytope(np.vstack((big.a_matrix, np.zeros(big.dim))),
                        np.append(big.b_vector, 1.0), big.upper)
        rng = np.random.default_rng(80)
        g0 = obj.grad(np.zeros(obj.dim))
        points = [rng.uniform(-1.0, 2.0, size=big.dim) for _ in range(3)] + [0.01 * g0]
        self.assert_same_answers(poly, big, points, rng.standard_normal((5, big.dim)))


class TestLmoWarmStart:
    """``lmo(p, g, warm)`` re-optimizes from the previous call's basis, and
    falls back to the slack basis when its answer fails the certificate,
    unless the call started there."""

    @pytest.fixture()
    def simplex_runs(self, monkeypatch):
        """A list that records, for each simplex run of every ``lmo`` call,
        whether it starts warm (away from the slack basis)."""
        runs = []
        simplex = geometry._bounded_simplex

        def counted(state, cost):
            runs.append(not at_slack_basis(state))
            return simplex(state, cost)

        monkeypatch.setattr(geometry, "_bounded_simplex", counted)
        return runs

    def test_constraint_matrix_is_built_once_and_read_only(self):
        poly = TestPresolve.REDUNDANT
        np.testing.assert_array_equal(LmoWarmStart(poly).base, [[1.0, 1.0, 1.0]])
        assert not LmoWarmStart(poly).base.flags.writeable
        assert LmoWarmStart(UNIT_BOX2).base.shape == (0, 2)

    def test_every_call_of_an_scg_trial_matches_the_cold_start(self, monkeypatch,
                                                                 simplex_runs):
        """All 200 calls of a 100 x 50 SCG trial: each warm answer passes its
        certificate (no call falls back to the cold start), is feasible, and
        its value agrees with the cold answer's within 1e-12 relative.  After
        each call the carried ``[B^-1; y]``, updated by the pivots, still holds
        the inverse of the basis columns of ``[A_rows I]`` and the duals
        ``c_B B^-1`` of the call's direction, and the signs mark exactly the
        basic variables with 0."""
        from drsubmax import optimizers
        from drsubmax.objectives import generate_nqp
        from drsubmax.oracles import NoiseModel

        obj = generate_nqp(123, 100, 50, -100.0, 0.0)
        poly, calls = obj.polytope, []

        def recording(p, g, warm):
            calls.append((np.array(g), lmo(p, g, warm)))
            m = warm.basis.size
            eye, basic = np.eye(m), warm.base[:, warm.basis]
            assert not np.array_equal(warm.binv, eye)
            np.testing.assert_allclose(warm.binv @ basic, eye, atol=1e-9)
            np.testing.assert_array_equal(warm.ext, np.vstack((warm.binv, warm.duals)))
            assert np.shares_memory(warm.binv, warm.ext) and np.shares_memory(warm.duals, warm.ext)
            cost = np.concatenate((g, np.zeros(m)))
            duals = np.linalg.solve(basic.T, cost[warm.basis])
            np.testing.assert_allclose(warm.duals, duals, rtol=0.0,
                                       atol=1e-9 * np.abs(duals).max())
            assert np.all(warm.sign[warm.basis] == 0.0)
            nonbasic = np.delete(warm.sign, warm.basis)
            assert nonbasic.size == p.dim and np.all(np.abs(nonbasic) == 1.0)
            return calls[-1][1]

        monkeypatch.setattr(optimizers, "lmo", recording)
        optimizers.run_trial(obj, NoiseModel.clipped_gaussian(1000.0),
                             optimizers.RunConfig("scg", 200))
        assert len(calls) == 200
        # one simplex run a call, warm from the second call on
        assert simplex_runs == [False] + [True] * 199
        for g, v in calls:
            cold = lmo(poly, g)
            assert violation(poly, v) <= 1e-12
            assert abs(g @ v - g @ cold) <= 1e-12 * abs(g @ cold)

    @pytest.mark.parametrize("scale", [0.5, 1.01, 2.0])
    def test_corrupted_state_falls_back_to_the_cold_answer(self, simplex_runs, scale):
        """A scaled ``binv`` is no longer ``B^-1``: the warm answer fails
        the certificate, and the call returns the cold answer bit for bit.
        Without the complementary-slackness check some of these warm answers,
        feasible but not optimal, would pass."""
        from drsubmax.objectives import generate_nqp

        poly = generate_nqp(123, 100, 50, -100.0, 0.0).polytope
        rng = np.random.default_rng(80)
        for _ in range(3):
            warm = LmoWarmStart(poly)
            lmo(poly, rng.standard_normal(poly.dim), warm)
            warm.binv *= scale
            g = rng.standard_normal(poly.dim)
            simplex_runs.clear()
            np.testing.assert_array_equal(lmo(poly, g, warm), lmo(poly, g))
            assert simplex_runs == [True, False, False]  # warm, cold retry, cold
            np.testing.assert_array_equal(lmo(poly, g, warm), lmo(poly, g))

    @pytest.mark.parametrize("shift", [1e-7, -1e-3, math.nan])
    def test_drifted_duals_fall_back_to_the_cold_answer(self, monkeypatch, shift):
        """A drift put into the carried ``[B^-1; y]`` before a warm call, which
        the call's rank-one updates carry along as they carry rounding, moves
        the duals the call sets, ``c_B B^-1``, and with them the basic reduced
        costs off 0 (a NaN makes them NaN): the warm run's dual half refuses
        its answer, and the call returns the cold answer bit for bit."""
        from drsubmax.objectives import generate_nqp

        poly = generate_nqp(123, 100, 50, -100.0, 0.0).polytope
        simplex, runs = geometry._bounded_simplex, []

        def recorded(state, cost):
            started_warm = not at_slack_basis(state)
            dual = simplex(state, cost)
            runs.append((started_warm, dual / max(1.0, float(np.abs(cost).max()))))
            return dual

        monkeypatch.setattr(geometry, "_bounded_simplex", recorded)
        rng = np.random.default_rng(82)
        for _ in range(3):
            warm = LmoWarmStart(poly)
            lmo(poly, rng.standard_normal(poly.dim), warm)
            g = rng.standard_normal(poly.dim)
            cold = lmo(poly, g)
            # the duals row is set from B^-1 at the call's start, so the
            # drift goes into B^-1
            warm.binv += shift
            runs.clear()
            np.testing.assert_array_equal(lmo(poly, g, warm), cold)
            (warm_run, warm_dual), (cold_run, cold_dual) = runs  # warm, cold retry
            assert warm_run and not cold_run
            assert not warm_dual <= TOL_LP and cold_dual <= TOL_LP

    @pytest.mark.parametrize("algorithm", ["scg", "scgpp"])
    @pytest.mark.parametrize("shape,sigma", [((100, 50, -100.0), 1000.0),
                                             ((100, 50, -100.0), 5e4),
                                             ((10, 5, -1.0), 4.0)],
                             ids=["100x50-1e3", "100x50-5e4", "10x5-4"])
    def test_carried_duals_certify_as_solved_duals(self, monkeypatch, algorithm, shape,
                                                   sigma):
        """On every call of a T = 1000 trial the certificate whose dual half
        the simplex returns, from the carried duals, accepts exactly when the
        one from duals solved afresh does (``solved_lmo_residual``), and the
        carried basic reduced costs stay below 1e-12 relative to ``max(1,
        ||g||_inf)``."""
        from drsubmax import optimizers
        from drsubmax.objectives import generate_nqp
        from drsubmax.oracles import NoiseModel

        simplex, decisions, drift = geometry._bounded_simplex, [], []

        def both(state, cost):
            dual = simplex(state, cost)
            if state.vertex is None:  # as lmo does next
                geometry._basic_vertex(state)
            scale = max(1.0, float(np.abs(cost).max()))
            carried = float(np.maximum(dual / scale, state.primal))
            solved = solved_lmo_residual(state, cost, scale)
            decisions.append((carried <= TOL_LP, solved <= TOL_LP))
            basis = state.basis
            drift.append(float(np.abs(cost[basis] - state.duals @ state.base[:, basis]).max())
                         / scale)
            return dual

        monkeypatch.setattr(geometry, "_bounded_simplex", both)
        optimizers.run_trial(generate_nqp(123, *shape, 0.0), NoiseModel.clipped_gaussian(sigma),
                             optimizers.RunConfig(algorithm, 1000, run_id=1))
        assert decisions == [(True, True)] * 1000  # the same decision, and no fallback
        assert max(drift) < 1e-12

    def test_the_dual_half_is_the_last_pricing_pass(self, monkeypatch):
        """The dual half ``_bounded_simplex`` returns equals, bit for bit, the
        one recomputed from its final state (``dual_half``): on a cold call,
        on warm calls that pivot, and on a warm call and its cold retry that
        run out of pivots (none allowed), where it is the improvement the
        last pass found and the call fails (100 x 50)."""
        from drsubmax.objectives import generate_nqp

        poly = generate_nqp(123, 100, 50, -100.0, 0.0).polytope
        simplex, runs = geometry._bounded_simplex, []

        def checked(state, cost):
            started_warm = not state.cold
            dual = simplex(state, cost)
            assert dual.hex() == dual_half(state, cost).hex()
            runs.append((started_warm, dual))
            return dual

        monkeypatch.setattr(geometry, "_bounded_simplex", checked)
        rng = np.random.default_rng(84)
        warm = LmoWarmStart(poly)
        for _ in range(5):
            lmo(poly, rng.standard_normal(poly.dim), warm)
        assert [started for started, _ in runs] == [False] + [True] * 4
        assert all(dual <= TOL_LP for _, dual in runs)
        runs.clear()
        monkeypatch.setattr(geometry, "_PIVOTS_PER_VARIABLE", 0)
        with pytest.raises(LmoError, match="certificate"):
            lmo(poly, rng.standard_normal(poly.dim), warm)
        assert [started for started, _ in runs] == [True, False]  # warm, cold retry
        assert all(dual > TOL_LP for _, dual in runs)

    def test_no_linalg_call_a_call(self, monkeypatch):
        """An LMO call factors and solves nothing: the pivots update the
        carried ``[B^-1; y]`` by rank-one products, and the certificate reads
        the carried duals.  Neither a cold call, a warm call that pivots, nor
        one that reuses its vertex makes an ``np.linalg`` call (100 x 50)."""
        from drsubmax.objectives import generate_nqp

        poly = generate_nqp(123, 100, 50, -100.0, 0.0).polytope
        calls = []
        for name in np.linalg.__all__:
            original = getattr(np.linalg, name)
            if isinstance(original, type):  # LinAlgError
                continue

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        rng = np.random.default_rng(83)
        warm = LmoWarmStart(poly)
        lmo(poly, rng.standard_normal(poly.dim), warm)  # cold
        assert not warm.cold and calls == []
        g = rng.standard_normal(poly.dim)
        lmo(poly, g, warm)  # warm, pivots
        stored = warm.vertex
        lmo(poly, g, warm)  # warm, reuses the stored vertex
        assert warm.vertex is stored
        lmo(poly, g)  # cold, without a state
        assert calls == []

    def test_new_and_cleared_states_hold_the_slack_basis(self):
        from drsubmax.objectives import generate_nqp

        for poly in (TRIANGLE, UNIT_BOX2, generate_nqp(123, 100, 50, -100.0, 0.0).polytope):
            warm = LmoWarmStart(poly)
            assert at_slack_basis(warm)
            lmo(poly, np.ones(poly.dim), warm)
            assert at_slack_basis(warm) == (poly is UNIT_BOX2)
            warm.clear()
            assert at_slack_basis(warm)
            assert warm.binv.flags.writeable and warm.values.flags.writeable

    def test_without_a_state_equals_a_new_state(self):
        """``lmo(p, g)`` is ``lmo(p, g, LmoWarmStart(p))`` bit for bit."""
        from drsubmax.objectives import generate_nqp

        rng = np.random.default_rng(81)
        polys = [random_small_polytope(rng) for _ in range(20)]
        polys.append(generate_nqp(123, 100, 50, -100.0, 0.0).polytope)
        for poly in polys:
            for _ in range(10):
                g = rng.standard_normal(poly.dim)
                np.testing.assert_array_equal(lmo(poly, g), lmo(poly, g, LmoWarmStart(poly)))

    def test_cold_failure_raises_and_clears_the_state(self, monkeypatch, simplex_runs):
        warm = LmoWarmStart(TRIANGLE)
        np.testing.assert_allclose(lmo(TRIANGLE, [2.0, 1.0], warm), [1.0, 0.0], atol=1e-15)
        monkeypatch.setattr(geometry, "_PIVOTS_PER_VARIABLE", 0)
        simplex_runs.clear()
        with pytest.raises(LmoError, match="certificate"):
            lmo(TRIANGLE, [1.0, 2.0], warm)
        assert simplex_runs == [True, False]  # warm, then the failing cold retry
        assert at_slack_basis(warm) and warm.cold

    @pytest.mark.parametrize("state", ["none", "new", "cleared"])
    def test_failing_cold_call_runs_the_simplex_once(self, monkeypatch, simplex_runs, state):
        """A call that starts at the slack basis and fails raises after that
        one run, without a state or from a new or cleared one: a second run
        from the slack basis would repeat it."""
        warm = None if state == "none" else LmoWarmStart(TRIANGLE)
        if state == "cleared":
            lmo(TRIANGLE, [2.0, 1.0], warm)
            assert not warm.cold
            warm.clear()
        monkeypatch.setattr(geometry, "_PIVOTS_PER_VARIABLE", 0)
        simplex_runs.clear()
        with pytest.raises(LmoError, match="certificate"):
            lmo(TRIANGLE, [1.0, 2.0], warm)
        assert simplex_runs == [False]
        if warm is not None:
            assert at_slack_basis(warm) and warm.cold

    def test_a_state_is_cold_until_it_moves(self, monkeypatch):
        """A call that moves nothing leaves a new state cold, and a bound
        flip makes it warm, even one that flips back to the slack basis: its
        failing call runs twice, from the state and then cold."""
        poly = TestStoredVertex.ROOMY
        warm = LmoWarmStart(poly)
        assert warm.cold
        np.testing.assert_array_equal(lmo(poly, [-1.0, -1.0], warm), [0.0, 0.0])
        assert warm.cold
        np.testing.assert_array_equal(lmo(poly, [1.0, -1.0], warm), [1.0, 0.0])  # x1 flips up
        assert not warm.cold
        np.testing.assert_array_equal(lmo(poly, [-1.0, -1.0], warm), [0.0, 0.0])  # and back
        assert at_slack_basis(warm) and not warm.cold
        monkeypatch.setattr(geometry, "_PIVOTS_PER_VARIABLE", 0)
        runs = []
        simplex = geometry._bounded_simplex

        def counted(state, cost):
            runs.append(state.cold)
            return simplex(state, cost)

        monkeypatch.setattr(geometry, "_bounded_simplex", counted)
        with pytest.raises(LmoError, match="certificate"):
            lmo(poly, [1.0, 1.0], warm)
        assert runs == [False, True]
        assert warm.cold

    def test_state_of_another_polytope_rejected(self):
        twin = Polytope([[1.0, 1.0]], [1.0], [1.0, 1.0])
        for poly in (twin, UNIT_BOX2):
            with pytest.raises(ValueError, match="another polytope"):
                lmo(poly, [1.0, 1.0], LmoWarmStart(TRIANGLE))

    def test_states_on_one_polytope_keep_their_own_inverses(self):
        """Two states on one polytope build equal read-only matrices
        ``[A_rows I]`` and bounds ``(upper, inf...)``; a pivot or ``clear()``
        in one leaves the other's basis inverse untouched."""
        poly = Polytope([[2.0, 1.0], [1.0, 2.0]], [1.0, 1.0], [1.0, 1.0])
        base = [[2.0, 1.0, 1.0, 0.0], [1.0, 2.0, 0.0, 1.0]]
        first, second = LmoWarmStart(poly), LmoWarmStart(poly)
        for state in (first, second):
            np.testing.assert_array_equal(state.base, base)
            assert not state.base.flags.writeable
            np.testing.assert_array_equal(state.upper, [1.0, 1.0, np.inf, np.inf])
        lmo(poly, [1.0, 0.0], first)  # x1 enters by a pivot
        assert not np.array_equal(first.binv, np.eye(2))
        assert at_slack_basis(second)
        lmo(poly, [0.0, 1.0], second)
        binv = second.binv.copy()
        assert not np.array_equal(binv, np.eye(2))
        first.clear()
        assert at_slack_basis(first)
        np.testing.assert_array_equal(second.binv, binv)
        np.testing.assert_array_equal(first.base, base)

    def test_box_ignores_the_state(self):
        warm = LmoWarmStart(UNIT_BOX2)
        arrays = (warm.binv, warm.basis, warm.sign, warm.values)
        np.testing.assert_array_equal(lmo(UNIT_BOX2, [1.0, -1.0], warm), [1.0, 0.0])
        after = (warm.binv, warm.basis, warm.sign, warm.values)
        assert all(a is b for a, b in zip(after, arrays))
        assert at_slack_basis(warm)

    def test_warm_answers_match_vertex_enumeration(self):
        """A Frank-Wolfe-like sequence of slowly turning directions on small
        polytopes: every warm answer is an optimal vertex."""
        rng = np.random.default_rng(79)
        for _ in range(10):
            poly = random_small_polytope(rng)
            verts = enumerate_vertices(poly)
            warm = LmoWarmStart(poly)
            g = rng.standard_normal(poly.dim)
            for _ in range(30):
                g = 0.8 * g + 0.2 * rng.standard_normal(poly.dim)
                v = lmo(poly, g, warm)
                assert v @ g >= float(np.max(verts @ g)) - 1e-9
                assert np.min(np.linalg.norm(verts - v, axis=1)) <= 1e-8


def dual_half(state: LmoWarmStart, cost: np.ndarray) -> float:
    """The dual half of the LMO certificate recomputed from ``state``'s
    carried duals, signs and basis: ``d = c - y [A I]``, each nonbasic
    variable's improvement ``sign * d`` and each basic one's ``|d|``, and
    the largest of them."""
    reduced = cost - np.dot(state.duals, state.base)
    gain = state.sign * reduced
    gain[state.basis] = np.abs(reduced[state.basis])
    return float(gain.max())


def basic_vertex(state: LmoWarmStart) -> np.ndarray:
    """The vertex of the basic solution ``state`` holds, built from its
    basis, signs and basic values and clipped into the box."""
    n, u, basis = state.polytope.dim, state.polytope.upper, state.basis
    v = np.where(state.sign[:n] < 0.0, u, 0.0)
    structural = basis < n
    v[basis[structural]] = state.values[structural]
    return np.clip(v, 0.0, u)


class TestStoredVertex:
    """A state keeps the vertex of its basis and the primal half of its
    certificate until a pivot, a bound flip or ``clear()`` moves the basic
    solution; a call that moves nothing answers with a copy of that vertex
    and computes only the dual half afresh."""

    # from the slack basis at the origin, x1 reaches its upper bound before
    # the row does (a bound flip); then x2 enters and the row becomes tight
    # (a pivot)
    ROOMY = Polytope([[1.0, 1.0]], [1.5], [1.0, 1.0])

    @pytest.fixture()
    def rebuilds(self, monkeypatch):
        """A list that records each rebuild of a stored vertex."""
        calls = []
        build = geometry._basic_vertex

        def counted(state):
            calls.append(state)
            build(state)

        monkeypatch.setattr(geometry, "_basic_vertex", counted)
        return calls

    def test_a_call_that_moves_nothing_returns_the_basis_vertex(self, monkeypatch):
        """Every call of a 10 x 5 SCG trial: one that makes no pivot and no
        bound flip returns, bit for bit, the vertex built from the basis, the
        signs and the basic values."""
        from drsubmax import optimizers
        from drsubmax.objectives import generate_nqp
        from drsubmax.oracles import NoiseModel

        obj = generate_nqp(11, 10, 5, -1.0, 0.0)
        moved = []
        simplex = geometry._bounded_simplex

        def watched(state, cost):
            before = (state.basis.copy(), state.sign.copy(), state.values.copy())
            dual = simplex(state, cost)
            after = (state.basis, state.sign, state.values)
            moved.append(not all(np.array_equal(x, y) for x, y in zip(before, after)))
            return dual

        still = []

        def recording(p, g, warm):
            stored = warm.vertex
            v = lmo(p, g, warm)
            if not moved[-1]:
                assert moved == [False] or stored is warm.vertex
                assert v.tobytes() == basic_vertex(warm).tobytes()
                assert v is not warm.vertex
                still.append(v)
            return v

        monkeypatch.setattr(geometry, "_bounded_simplex", watched)
        monkeypatch.setattr(optimizers, "lmo", recording)
        cfg = optimizers.RunConfig("scg", 40, momentum_rule=optimizers.MomentumRule("alpha", 0.5))
        optimizers.run_trial(obj, NoiseModel.clipped_gaussian(4.0), cfg)
        assert len(moved) == 40
        assert 0 < len(still) < 40

    def test_mutating_an_answer_leaves_the_next_call_alone(self, rebuilds):
        warm = LmoWarmStart(TRIANGLE)
        v = lmo(TRIANGLE, [2.0, 1.0], warm)
        expected = v.copy()
        v[:] = -7.0
        np.testing.assert_array_equal(lmo(TRIANGLE, [2.0, 1.0], warm), expected)
        assert len(rebuilds) == 1  # the second call answered from the stored vertex

    def test_clear_a_pivot_and_a_flip_drop_the_vertex(self, rebuilds):
        poly = self.ROOMY
        warm = LmoWarmStart(poly)
        assert warm.vertex is None and warm.primal is None
        np.testing.assert_array_equal(lmo(poly, [-1.0, -1.0], warm), [0.0, 0.0])
        np.testing.assert_array_equal(lmo(poly, [-2.0, -1.0], warm), [0.0, 0.0])
        assert len(rebuilds) == 1
        # a bound flip (x1 to its upper bound), then a pivot (x2 enters)
        for g, sign, v in (([1.0, -1.0], [-1.0, 1.0, 0.0], [1.0, 0.0]),
                           ([1.0, 1.0], [-1.0, 0.0, 1.0], [1.0, 0.5])):
            stored = warm.vertex
            np.testing.assert_array_equal(lmo(poly, g, warm), v)
            np.testing.assert_array_equal(warm.sign, sign)
            assert warm.vertex is not stored
        assert len(rebuilds) == 3
        warm.clear()
        assert warm.vertex is None and warm.primal is None
        np.testing.assert_array_equal(lmo(poly, [1.0, 1.0], warm), [1.0, 0.5])
        assert len(rebuilds) == 4

    @pytest.mark.parametrize("poly, sign", [(ROOMY, [-1.0, 1.0, 0.0]),
                                            (Polytope([[2.0, 1.0]], [1.0], [1.0, 1.0]),
                                             [0.0, 1.0, 1.0])],
                             ids=["flip", "pivot"])
    def test_the_simplex_drops_the_vertex_when_it_moves(self, poly, sign):
        """The drop happens inside ``_bounded_simplex``, so a caller that runs
        the simplex on its own never keeps a stale vertex; a run that moves
        nothing keeps it."""
        warm = LmoWarmStart(poly)
        lmo(poly, [-1.0, -1.0], warm)
        stored = warm.vertex
        geometry._bounded_simplex(warm, np.zeros(3))
        assert warm.vertex is stored
        geometry._bounded_simplex(warm, np.array([1.0, -1.0, 0.0]))
        np.testing.assert_array_equal(warm.sign, sign)
        assert warm.vertex is None and warm.primal is None

    def test_a_stored_vertex_still_meets_the_dual_half(self, monkeypatch):
        """With no pivot allowed the simplex leaves the stored basis and its
        vertex in place: the dual half, solved afresh for each direction,
        passes them while they stay optimal and rejects them after."""
        warm = LmoWarmStart(self.ROOMY)
        np.testing.assert_array_equal(lmo(self.ROOMY, [1.0, 1.0], warm), [1.0, 0.5])
        monkeypatch.setattr(geometry, "_PIVOTS_PER_VARIABLE", 0)
        np.testing.assert_array_equal(lmo(self.ROOMY, [2.0, 1.0], warm), [1.0, 0.5])
        with pytest.raises(LmoError, match="certificate"):
            lmo(self.ROOMY, [-1.0, 1.0], warm)


class TestPaperScaleOracles:
    """The full-size benchmark region (100 coordinates, 50 halfspaces)."""

    @pytest.fixture()
    def big(self):
        from drsubmax.objectives import generate_nqp

        return generate_nqp(123, 100, 50, -100.0, 0.0).polytope

    def test_lmo_matches_lp_reference(self, big):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(71)
        for _ in range(20):
            g = rng.standard_normal(big.dim)
            v = lmo(big, g)
            assert contains(big, v, 1e-9)
            res = linprog(-g, A_ub=big.a_matrix, b_ub=big.b_vector,
                          bounds=[(0.0, u) for u in big.upper], method="highs")
            assert res.status == 0
            assert float(v @ g) >= -res.fun - 1e-9

    def test_lmo_at_the_gradient_scale_of_scg(self):
        """SCG's directions at 100 x 50 have entries near 5e3, and TOL_LP is
        absolute: the answer is still feasible and optimal against HiGHS."""
        from drsubmax.objectives import generate_nqp

        linprog = pytest.importorskip("scipy.optimize").linprog
        obj = generate_nqp(123, 100, 50, -100.0, 0.0)
        big = obj.polytope
        rng = np.random.default_rng(78)
        for _ in range(10):
            x = rng.uniform(0.0, 0.02, size=big.dim) * big.upper
            g = obj.grad(x) + 1000.0 * rng.standard_normal(big.dim)
            assert np.max(np.abs(g)) > 1e3
            v = lmo(big, g)
            assert violation(big, v) <= 1e-12
            res = linprog(-g, A_ub=big.a_matrix, b_ub=big.b_vector,
                          bounds=[(0.0, u) for u in big.upper], method="highs")
            assert res.status == 0
            assert float(v @ g) >= -res.fun - 1e-12 * abs(res.fun)

    def test_lmo_degenerate_structures_match_lp_reference(self):
        """Duplicate rows, parallel scaled rows, and untouched columns."""
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(73)
        for trial in range(30):
            n = int(rng.integers(2, 21))
            m = int(rng.integers(2, 8))
            a = rng.uniform(0.0, 1.0, size=(m, n))
            if trial % 3 == 0:
                a[1] = a[0]
            elif trial % 3 == 1:
                a[1] = 0.5 * a[0]
            else:
                a[:, 0] = 0.0
            poly = Polytope(a, rng.uniform(0.3, 2.0, size=m), rng.uniform(0.1, 3.0, size=n))
            for _ in range(5):
                g = rng.standard_normal(n) * 10 ** rng.uniform(-4, 4)
                v = lmo(poly, g)
                assert contains(poly, v, 1e-7)
                res = linprog(-g, A_ub=poly.a_matrix, b_ub=poly.b_vector,
                              bounds=[(0.0, u) for u in poly.upper], method="highs")
                assert res.status == 0
                assert float(v @ g) >= -res.fun - 1e-7 * max(1.0, abs(res.fun))

    def test_projection_kkt_certificate(self, big):
        rng = np.random.default_rng(74)
        for _ in range(5):
            y = rng.uniform(-1.0, 2.0, size=big.dim)
            x = project(big, y)
            assert violation(big, x) <= 1e-12
            assert kkt_residual(big, y, x) <= 1e-10

    def test_projection_of_far_point(self):
        """PGA's first step at the default step value, 2 * grad f(0), lands
        about 10^5 away from the region."""
        from drsubmax.objectives import generate_nqp

        obj = generate_nqp(123, 100, 50, -100.0, 0.0)
        y = 2.0 * obj.grad(np.zeros(obj.dim))
        assert np.linalg.norm(y) > 1e5
        x = project(obj.polytope, y)
        assert violation(obj.polytope, x) <= 1e-9
        assert kkt_residual(obj.polytope, y, x) <= 1e-10

    def test_projection_feasible_and_witness_optimal(self, big):
        rng = np.random.default_rng(72)
        witnesses = sample_feasible(big, rng, 200)
        for _ in range(5):
            y = rng.uniform(-1.0, 2.0, size=big.dim)
            x = project(big, y)
            assert contains(big, x, 1e-6)
            d = np.linalg.norm(x - y)
            assert d <= np.min(np.linalg.norm(witnesses - y, axis=1)) + 1e-6


class TestAbsoluteAccuracy:
    """The KKT certificate's tolerance ``_KKT_RTOL * max(1, ||y||)`` grows
    with the target: at the 100 x 50 default step, where ``||y||`` reaches
    1e5, it admits about 1e-4, while the region lies in [0, 1]^100.  So the
    answers are also held to an absolute tolerance."""

    @pytest.mark.parametrize("seed, shape, low, sigma, T", [
        (123, (100, 50), -100.0, 1000.0, 30),
        (7, (10, 5), -1.0, 49.7, 300),
    ], ids=["100x50", "10x5"])
    def test_default_step_pga_answers_are_their_face_points(self, monkeypatch, seed, shape,
                                                            low, sigma, T):
        """Every projection of a default-step ``pga`` trial lies within
        ``1e-9 * max(1, max u)`` of the face point of the final set it leaves
        in its warm start, refined in extended precision (``face_point``); an
        answer that is the clamped target, which leaves the set as it was, is
        that target."""
        from drsubmax import optimizers
        from drsubmax.objectives import generate_nqp
        from drsubmax.oracles import NoiseModel

        obj = generate_nqp(seed, *shape, low, 0.0)
        poly, calls = obj.polytope, []

        def recording(p, y, warm):
            x = project(p, y, warm)
            calls.append((np.array(y), x, warm.face.copy()))
            return x

        monkeypatch.setattr(optimizers, "project", recording)
        optimizers.run_trial(obj, NoiseModel.clipped_gaussian(sigma),
                             optimizers.RunConfig("pga", T))
        assert len(calls) == T + 1  # the start point's projection, then one a step
        tol = 1e-9 * max(1.0, float(poly.upper.max()))
        on_a_face = 0
        for y, x, face in calls:
            clamped = np.clip(y, 0.0, poly.upper)
            if np.all(poly.a_matrix @ clamped <= poly.b_vector):
                np.testing.assert_array_equal(x, clamped)
                continue
            on_a_face += 1
            assert float(np.max(np.abs(x - face_point(poly, y, face)))) <= tol
        assert on_a_face >= 0.9 * len(calls)


class TestCarriedFactorization:
    """``_dual_active_set`` carries the inverse Gram matrix of its active
    halfspaces on the free coordinates (``_GramInverse``) and updates it on
    each join and each leave instead of refactorizing every dual step."""

    UPDATES = ("add_row", "fix", "drop_row", "release")

    @pytest.fixture()
    def far_targets(self):
        """Random 30 x 12 regions with targets from 10 to 10^6 times their
        size, far enough that halfspaces drop and box faces are fixed and
        freed."""
        from drsubmax.objectives import generate_nqp

        rng = np.random.default_rng(90)
        return [(generate_nqp(seed, 30, 12, -1.0, 0.0).polytope,
                 rng.standard_normal(30) * scale)
                for seed in range(6) for scale in (1e1, 1e2, 1e3, 1e4, 1e5, 1e6)]

    def spy_updates(self, monkeypatch) -> dict:
        counts = dict.fromkeys(self.UPDATES + ("refactor",), 0)
        for name in counts:
            method = getattr(geometry._GramInverse, name)

            def counted(carrier, *args, _name=name, _method=method):
                counts[_name] += 1
                return _method(carrier, *args)

            monkeypatch.setattr(geometry._GramInverse, name, counted)
        return counts

    def test_every_update_keeps_the_inverse(self, monkeypatch):
        """After each join and leave, ``ginv`` is the inverse of ``A_SF A_SF^T``
        recomputed from the active rows and free coordinates, and no update
        fell back to recomputing it."""
        counts = self.spy_updates(monkeypatch)
        rng = np.random.default_rng(91)
        a = rng.uniform(0.0, 1.0, size=(6, 10))
        carrier = geometry._GramInverse(6, 10)
        rows, free = [], np.ones(10)

        def join(normal):
            r, w = carrier.split(normal)
            return r, float((w * carrier.free) @ w)

        def check():  # in the carrier's slot order
            order = carrier.rows[:len(rows)]
            assert sorted(order) == sorted(rows)
            gram = (a[order] * free) @ a[order].T
            np.testing.assert_allclose(carrier.ginv @ gram, np.eye(len(rows)), atol=1e-10)

        for k in (0, 3, 5, 1):
            carrier.add_row(k, a[k], *join(a[k]))
            rows.append(k)
            check()
        for j in (2, 7, 4):
            carrier.fix(j, *join(np.eye(10)[j]))
            free[j] = 0.0
            check()
        for k in (3, 0):
            carrier.drop_row(k)
            rows.remove(k)
            check()
        for j in (7, 2):
            carrier.release(j)
            free[j] = 1.0
            check()
        carrier.add_row(2, a[2], *join(a[2]))
        rows.append(2)
        check()
        assert counts["refactor"] == 0

    def test_box_face_split_equals_the_general_split(self):
        """On random carried states (halfspaces joined and dropped, coordinates
        fixed and freed), ``split_face(j, sign)`` returns ``split`` of the
        normal that is ``sign`` at ``j`` and 0.0 elsewhere, bit for bit, for
        every free coordinate ``j`` and both faces."""
        rng = np.random.default_rng(93)
        checked = 0
        for _ in range(20):
            m, n = int(rng.integers(1, 8)), int(rng.integers(8, 16))
            a = rng.uniform(-1.0, 1.0, size=(m, n))
            carrier = geometry._GramInverse(m, n)
            rows = rng.permutation(m)[:int(rng.integers(0, m + 1))]
            for k in rows:
                r, w = carrier.split(a[k])
                carrier.add_row(k, a[k], r, float((w * carrier.free) @ w))
            for j in rng.permutation(n)[:int(rng.integers(0, n - len(rows)))]:
                r, w = carrier.split_face(j, 1.0)
                carrier.fix(j, r, float((w * carrier.free) @ w))
            if len(rows) > 1 and rng.random() < 0.5:
                carrier.drop_row(rows[0])
            fixed = np.flatnonzero(carrier.free == 0.0)
            if fixed.size and rng.random() < 0.5:
                carrier.release(fixed[0])
            for j in np.flatnonzero(carrier.free):
                for sign in (1.0, -1.0):
                    r, w = carrier.split_face(j, sign)
                    r, w = r.copy(), w.copy()
                    normal = np.zeros(n)
                    normal[j] = sign
                    r_ref, w_ref = carrier.split(normal)
                    assert r.tobytes() == r_ref.tobytes()
                    assert w.tobytes() == w_ref.tobytes()
                    checked += 1
        assert checked > 200

    def test_far_targets_are_certified(self, monkeypatch, far_targets):
        """Every kind of update happens, and each answer meets the
        constraints and passes the NNLS cross-check of its KKT conditions."""
        counts = self.spy_updates(monkeypatch)
        for poly, y in far_targets:
            x = project(poly, y)
            assert violation(poly, x) <= 1e-12 * max(1.0, np.linalg.norm(y))
            assert kkt_residual(poly, y, x) <= 1e-10
        assert min(counts[name] for name in self.UPDATES) > 0, counts

    def test_recomputing_every_update_gives_the_same_answers(self, monkeypatch,
                                                             far_targets):
        """With no growth trusted, every update is replaced by a
        recomputation, and the answers stay the same bit for bit."""
        updated = [project(poly, y) for poly, y in far_targets]
        monkeypatch.setattr(geometry, "_MAX_GROWTH", 1.0)
        counts = self.spy_updates(monkeypatch)
        for (poly, y), x in zip(far_targets, updated):
            np.testing.assert_array_equal(project(poly, y), x)
        assert counts["refactor"] >= 0.9 * sum(counts[name] for name in self.UPDATES)

    @pytest.mark.parametrize("delta", [1e-4, 1e-5, 1e-6])
    def test_nearly_parallel_halfspaces_recompute_the_inverse(self, monkeypatch, delta):
        """Two active halfspaces whose normals differ by ``delta`` make the
        bordered update's growth about ``1 / delta^2``, past ``_MAX_GROWTH``,
        so the inverse is recomputed; the answer is their common vertex."""
        counts = self.spy_updates(monkeypatch)
        poly = Polytope([[1.0, 1.0], [1.0, 1.0 + delta]], [1.0, 1.0 + delta / 2], [1.0, 1.0])
        y = np.array([0.5, 0.5]) + 3.0 * np.array([1.0, 1.0 + delta / 2])
        x = project(poly, y)
        assert counts["refactor"] == 1
        np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-9)
        assert violation(poly, x) <= 1e-14

    @pytest.mark.parametrize("update", UPDATES)
    @pytest.mark.parametrize("factor", [1.001, 1.5, -1.0])
    def test_corrupted_carrier_never_returns_an_uncertified_point(self, monkeypatch,
                                                                 far_targets, update,
                                                                 factor):
        """An update that scales the carried inverse sends the method down
        another path, and the KKT certificate catches every wrong answer:
        each call returns the uncorrupted answer bit for bit or raises."""
        clean = [project(poly, y) for poly, y in far_targets]
        method = getattr(geometry._GramInverse, update)

        def corrupted(carrier, *args):
            method(carrier, *args)
            carrier.ginv *= factor

        monkeypatch.setattr(geometry._GramInverse, update, corrupted)
        failed = 0
        for (poly, y), x in zip(far_targets, clean):
            try:
                np.testing.assert_array_equal(project(poly, y), x)
            except ProjectionError:
                failed += 1
        assert failed > 0

    def test_one_factorization_a_call(self, monkeypatch):
        """The dual steps make no QR, solve or inverse; only the final
        certificate does (one QR, two triangular solves).  Each round of the
        resume inverts its Gram matrix once and solves nothing: the empty
        set, the cold start, makes one 0 x 0 inverse, and a stored set one
        inverse a round.  Nothing is factored by Cholesky."""
        from drsubmax.objectives import generate_nqp

        obj = generate_nqp(123, 100, 50, -100.0, 0.0)
        names = ("qr", "solve", "cholesky", "inv")
        calls, empty = dict.fromkeys(names, 0), dict.fromkeys(names, 0)
        for name in names:
            original = getattr(np.linalg, name)

            def counted(matrix, *args, _name=name, _original=original, **kwargs):
                (empty if np.size(matrix) == 0 else calls)[_name] += 1
                return _original(matrix, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        project(obj.polytope, 2.0 * obj.grad(np.zeros(obj.dim)))
        assert calls == {"qr": 1, "solve": 2, "cholesky": 0, "inv": 0}
        assert empty == {"qr": 0, "solve": 0, "cholesky": 0, "inv": 1}
        two_rows = TestProjectionWarmStart.TWO_ROWS
        # both rows, then the second alone once the first leaves: two rounds;
        # the triangle's row stays: one round
        for poly, face, y, rounds in ((two_rows, [1.0, 1.0, 0.0, 0.0], [2.0, 0.2], 2),
                                      (TRIANGLE, [1.0, 0.0, 0.0], [3.0, 0.5], 1)):
            warm = ProjectionWarmStart(poly)
            warm.face = np.array(face)
            for counts in (calls, empty):
                counts.update(dict.fromkeys(names, 0))
            project(poly, y, warm)
            assert calls == {"qr": 1, "solve": 2, "cholesky": 0, "inv": rounds}
            assert empty == dict.fromkeys(names, 0)

    def test_far_targets_at_paper_scale_warn_nothing(self):
        """The ratio test divides only where a multiplier falls, so no numpy
        warning is emitted (100 x 50, targets at 10 to 10^6)."""
        import warnings

        from drsubmax.objectives import generate_nqp

        poly = generate_nqp(123, 100, 50, -100.0, 0.0).polytope
        rng = np.random.default_rng(92)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (1e1, 1e2, 1e3, 1e4, 1e5, 1e6):
                x = project(poly, rng.standard_normal(poly.dim) * scale)
                assert violation(poly, x) <= 1e-12 * scale


class TestProjectionWarmStart:
    """``project(p, y, warm)`` resumes the dual method from the previous
    call's final active set, or from the empty set, the cold start, and runs
    once more cold when a stored set is singular or its answer fails the
    certificate."""

    @pytest.fixture()
    def starts(self, monkeypatch):
        """A list that records, for each run of the dual method, whether it
        starts from the empty set (cold) or a stored one (warm), and whether
        that stored set was singular; the empty set never is."""
        runs = []
        method = geometry._dual_active_set

        def recorded(p, y, scale, row_norms, start):
            face = method(p, y, scale, row_norms, start)
            assert start.any() or face is not None
            runs.append("cold" if not start.any() else "warm" if face is not None else "singular")
            return face

        monkeypatch.setattr(geometry, "_dual_active_set", recorded)
        return runs

    @pytest.mark.parametrize("shape,sigma", [((10, 5, -1.0, 0.0), 0.5),
                                             ((100, 50, -100.0, 0.0), 1000.0)],
                             ids=["10x5", "100x50"])
    @pytest.mark.parametrize("algorithm", ["pga", "boosted_pga"])
    @pytest.mark.parametrize("step", ["default", "1/L"])
    def test_every_projection_of_a_trial_matches_the_cold_start(self, monkeypatch, shape,
                                                                sigma, algorithm, step):
        """Every projection of the trial, its start point's included, is
        bit-identical to the cold answer and ends on the cold answer's active
        set.  With the batch rounds off, the warm calls take fewer dual steps
        (one split a step) than the cold ones: a cold call's batch rounds may
        take fewer dual steps still, but each costs a fresh inverse."""
        from drsubmax import optimizers
        from drsubmax.bounds import spectral_norm
        from drsubmax.objectives import generate_nqp
        from drsubmax.oracles import NoiseModel

        obj = generate_nqp(123, *shape)
        poly = obj.polytope
        rule = {} if step == "default" else {
            "step_rule": optimizers.StepRule("inv_sqrt", 1.0 / spectral_norm(obj.h_matrix))}
        cfg = optimizers.RunConfig(algorithm, 12 if step == "default" else 24, run_id=1,
                                   **rule)
        splits = [0]
        for name in ("split", "split_face"):
            method = getattr(geometry._GramInverse, name)

            def counted(carrier, *args, _method=method):
                splits[0] += 1
                return _method(carrier, *args)

            monkeypatch.setattr(geometry._GramInverse, name, counted)
        calls = []

        def recording(p, y, warm):
            start = warm.face
            x = project(p, y, warm)
            calls.append((np.array(y), x.copy(), start, warm.face))
            return x

        monkeypatch.setattr(optimizers, "project", recording)
        optimizers.run_trial(obj, NoiseModel.clipped_gaussian(sigma), cfg)
        assert len(calls) == cfg.T + 1
        for y, x, _, face in calls:
            cold = ProjectionWarmStart(poly)
            assert project(poly, y, cold).tobytes() == x.tobytes()
            if cold.face.any():  # not a clamped answer
                np.testing.assert_array_equal(face, cold.face)
        TestBatchRounds.batch_free(monkeypatch, poly)
        batch_free = []
        for warm in (True, False):
            splits[0] = 0
            for y, _, start, _ in calls:
                state = ProjectionWarmStart(poly)
                if warm:
                    state.face = start
                project(poly, y, state)
            batch_free.append(splits[0])
        assert 0 < batch_free[0] < batch_free[1]

    def test_state_of_another_polytope_rejected(self):
        """A state is checked before anything runs and is left as it was."""
        warm = ProjectionWarmStart(TRIANGLE)
        other = Polytope([[1.0, 1.0]], [1.0], [1.0, 1.0])
        for face in (np.zeros(3), np.array([1.0, 0.0, 0.0])):
            with pytest.raises(ValueError, match="another polytope"):
                project(other, [1.0, 1.0], warm)
            np.testing.assert_array_equal(warm.face, face)
            project(TRIANGLE, [1.0, 1.0], warm)

    def test_new_state_is_cold_and_a_clamped_answer_keeps_it(self, starts):
        """A new state holds the empty set, and ``project`` without a state
        starts cold too."""
        warm = ProjectionWarmStart(TRIANGLE)
        np.testing.assert_array_equal(warm.face, np.zeros(3))
        empty = warm.face
        np.testing.assert_array_equal(project(TRIANGLE, [0.2, -3.0], warm), [0.2, 0.0])
        assert warm.face is empty and starts == []
        np.testing.assert_array_equal(project(TRIANGLE, [1.0, 1.0], warm),
                                      project(TRIANGLE, [1.0, 1.0]))
        np.testing.assert_array_equal(warm.face, [1.0, 0.0, 0.0])
        face = warm.face
        project(TRIANGLE, [0.5, -1.0], warm)  # the clamped answer: the set stays
        assert warm.face is face
        y = np.array([3.0, 0.5])
        np.testing.assert_array_equal(project(TRIANGLE, y, warm), project(TRIANGLE, y))
        assert starts == ["cold", "cold", "warm", "cold"]
        warm.clear()
        np.testing.assert_array_equal(warm.face, np.zeros(3))

    # x1 + 2 x2 <= 2 and 2 x1 + x2 <= 2 in the unit box
    TWO_ROWS = Polytope([[1.0, 2.0], [2.0, 1.0]], [2.0, 2.0], [1.0, 1.0])

    @pytest.mark.parametrize("face,y,start", [
        # both rows tight at (2/3, 2/3): the first row's multiplier is -34/45
        ([1.0, 1.0, 0.0, 0.0], [2.0, 0.2], [0.0, 1.0, 0.0, 0.0]),
        # the first row with x1 at 1: x1's multiplier is -0.6
        ([1.0, 0.0, 1.0, 0.0], [0.9, 1.5], [1.0, 0.0, 0.0, 0.0]),
    ])
    def test_negative_multipliers_leave_before_the_first_step(self, monkeypatch, face, y,
                                                             start):
        """A stored constraint whose multiplier is negative for the new
        target leaves the start, and the rest are solved again."""
        cold = project(self.TWO_ROWS, y)
        resumed = []
        method = geometry._resume

        def recorded(*args):
            out = method(*args)
            resumed.append(out[1].copy())
            return out

        monkeypatch.setattr(geometry, "_resume", recorded)
        warm = ProjectionWarmStart(self.TWO_ROWS)
        warm.face = np.array(face)
        np.testing.assert_array_equal(project(self.TWO_ROWS, y, warm), cold)
        np.testing.assert_array_equal(resumed, [start])

    @pytest.mark.parametrize("face", [[1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, -1.0],
                                      [0.0, 1.0, -1.0, 1.0]])
    def test_singular_start_runs_cold(self, starts, face):
        """Two halfspaces with one normal, or a halfspace whose free part is
        gone, are a singular set: the call runs cold and returns the cold
        answer bit for bit."""
        poly = Polytope([[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0], [1.0, 1.0])
        y = np.array([1.0, 1.2])
        cold = project(poly, y)
        warm = ProjectionWarmStart(poly)
        warm.face = np.array(face)
        starts.clear()
        np.testing.assert_array_equal(project(poly, y, warm), cold)
        assert starts == ["singular", "cold"]
        assert np.count_nonzero(warm.face[:2]) == 1

    @pytest.mark.parametrize("poly,face,y,runs", [
        # 1e5 x1 + x2 <= 1e5 + 0.5 in the unit box: with x1 at its upper face
        # the row's free part is x2 alone, 1e-5 of its length; at (1, 0.5) the
        # multipliers are 0.1 (row) and 1000 (x1's face)
        (Polytope([[1e5, 1.0]], [1e5 + 0.5], [1.0, 1.0]), [1.0, 1.0, 0.0], [11001.0, 0.6],
         ["warm"]),
        # x1 + x2 <= 1 and x1 + (1 + d) x2 <= 1 + d / 2, whose inverse Gram
        # matrix grows by about 4 / d^2: under _MAX_GROWTH at d = 1e-3, past it
        # at d = 1e-4; at (0.5, 0.5) both multipliers are 1.5
        (Polytope([[1.0, 1.0], [1.0, 1.001]], [1.0, 1.0005], [1.0, 1.0]),
         [1.0, 1.0, 0.0, 0.0], [3.5, 3.5015], ["warm"]),
        (Polytope([[1.0, 1.0], [1.0, 1.0001]], [1.0, 1.00005], [1.0, 1.0]),
         [1.0, 1.0, 0.0, 0.0], [3.5, 3.50015], ["singular", "cold"]),
    ], ids=["weighted", "growth-under", "growth-over"])
    def test_a_stored_set_is_judged_by_its_growth(self, starts, poly, face, y, runs):
        """A stored set is singular exactly when its inverse Gram matrix on
        the free coordinates fails ``drop_row``'s growth test, whatever the
        rows' weight on the fixed coordinates: a row that is mostly fixed
        resumes warm, as do nearly parallel rows under ``_MAX_GROWTH``, and
        rows past it run cold.  Either way the call returns the cold answer
        bit for bit and stores the set it ends on."""
        cold = ProjectionWarmStart(poly)
        x = project(poly, y, cold)
        np.testing.assert_array_equal(cold.face, face)
        warm = ProjectionWarmStart(poly)
        warm.face = np.array(face)
        starts.clear()
        assert project(poly, y, warm).tobytes() == x.tobytes()
        assert starts == runs
        np.testing.assert_array_equal(warm.face, face)

    @pytest.mark.parametrize("a_s,trusted", [
        (np.zeros((0, 2)), True),
        (np.array([[1.0, np.nan]]), False),
        (np.array([[1.0, 1.0], [np.nan, 1.0]]), False),
        # the nearly parallel rows above: growth about 4e6, then about 4e8
        (np.array([[1.0, 1.0], [1.0, 1.001]]), True),
        (np.array([[1.0, 1.0], [1.0, 1.0001]]), False),
    ], ids=["empty", "nan", "nan-row", "growth-under", "growth-over"])
    def test_the_growth_test_of_a_stored_set(self, a_s, trusted):
        """``_gram_inverse`` returns the inverse Gram matrix of a set, a 0 x 0
        one for the empty set, and None when a growth ``ginv_kk G_kk`` is NaN
        or not under ``_MAX_GROWTH``."""
        ginv = geometry._gram_inverse(a_s, np.ones(2, dtype=bool))
        if trusted:
            np.testing.assert_array_equal(ginv, np.linalg.inv(a_s @ a_s.T), strict=True)
        else:
            assert ginv is None

    def test_failed_warm_answer_runs_cold(self, monkeypatch, starts):
        """A warm answer that fails the certificate is replaced by the cold
        answer; when that fails too, the error carries the cold iterate and
        the state is cleared."""
        from drsubmax.objectives import generate_nqp

        poly = generate_nqp(7, 30, 12, -1.0, 0.0).polytope
        rng = np.random.default_rng(95)
        warm = ProjectionWarmStart(poly)
        project(poly, 3.0 * rng.standard_normal(poly.dim), warm)
        kkt, failing = geometry._kkt_point, {"warm"}

        def refused(p, y, face, row_norms):
            x, residual = kkt(p, y, face, row_norms)
            return x, (math.inf if starts[-1] in failing else residual)

        monkeypatch.setattr(geometry, "_kkt_point", refused)
        for _ in range(3):
            y = 3.0 * rng.standard_normal(poly.dim)
            starts.clear()
            x = project(poly, y, warm)
            assert starts == ["warm", "cold"]
            failing.clear()
            cold = ProjectionWarmStart(poly)
            np.testing.assert_array_equal(x, project(poly, y, cold))
            np.testing.assert_array_equal(warm.face, cold.face)
            failing.add("warm")
        failing.add("cold")
        starts.clear()
        with pytest.raises(ProjectionError) as err:
            project(poly, y, warm)
        assert starts == ["warm", "cold"]
        np.testing.assert_array_equal(err.value.iterate, x)
        np.testing.assert_array_equal(warm.face, np.zeros(poly.n_halfspaces + poly.dim))

    @pytest.mark.parametrize("state", ["none", "new", "cleared", "singular"])
    def test_failing_cold_call_runs_the_dual_method_once(self, monkeypatch, starts, state):
        """A call whose cold answer fails raises after one cold run, whether
        it starts cold (without a state, or from a new or cleared one) or
        falls back from a singular stored set."""
        poly = Polytope([[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0], [1.0, 1.0])
        y = np.array([1.0, 1.2])
        cold = project(poly, y)
        warm = None if state == "none" else ProjectionWarmStart(poly)
        if state == "cleared":
            project(poly, y, warm)
            warm.clear()
        elif state == "singular":
            warm.face = np.array([1.0, 1.0, 0.0, 0.0])
        kkt = geometry._kkt_point
        monkeypatch.setattr(geometry, "_kkt_point",
                            lambda *args: (kkt(*args)[0], math.inf))
        starts.clear()
        with pytest.raises(ProjectionError) as err:
            project(poly, y, warm)
        assert starts == (["singular", "cold"] if state == "singular" else ["cold"])
        np.testing.assert_array_equal(err.value.iterate, cold)
        if warm is not None:
            np.testing.assert_array_equal(warm.face, np.zeros(4))

    def test_run_trial_owns_one_state_per_trial(self, monkeypatch):
        """Each pga and boosted_pga trial creates one state and passes it to
        all its projections, its start point's included, and a rerun of a
        trial is bit-identical."""
        from drsubmax import optimizers
        from drsubmax.objectives import generate_nqp
        from drsubmax.oracles import NoiseModel

        obj, noise = generate_nqp(7, 10, 5, -1.0, 0.0), NoiseModel.clipped_gaussian(1.0)
        seen = []

        def recording(p, y, warm):
            seen.append(warm)
            return project(p, y, warm)

        monkeypatch.setattr(optimizers, "project", recording)
        for algorithm in ("pga", "boosted_pga"):
            states, iterates = [], []
            for run_id in (0, 1, 0):
                seen.clear()
                cfg = optimizers.RunConfig(algorithm, 6, run_id=run_id)
                iterates.append(optimizers.run_trial(obj, noise, cfg).iterates.tobytes())
                assert len(seen) == 7 and isinstance(seen[0], ProjectionWarmStart)
                assert all(warm is seen[0] for warm in seen)
                assert seen[0].polytope is obj.polytope
                states.append(seen[0])
            assert len({id(warm) for warm in states}) == 3
            assert iterates[0] == iterates[2]


class TestBatchRounds:
    """While ``_resume`` prunes its set it may also add every violated
    constraint at once (a join), in the same loop.  The joins only choose the
    start, so every answer and final set are the batch-free method's.  A
    join shows in the sets the loop inverts: a set holds a constraint that
    the set inverted before it lacks (a pruned or restored set never does)."""

    @pytest.fixture()
    def inverted(self, monkeypatch):
        """A list of the sets ``_resume`` inverts, each as its halfspaces'
        normals (a multiset of row bytes), its fixed coordinates and whether
        it was singular."""
        sets = []
        method = geometry._gram_inverse

        def recorded(a_s, free):
            ginv = method(a_s, free)
            sets.append((Counter(row.tobytes() for row in a_s),
                         frozenset(np.flatnonzero(~free).tolist()), ginv is None))
            return ginv

        monkeypatch.setattr(geometry, "_gram_inverse", recorded)
        return sets

    @staticmethod
    def joins(sets) -> int:
        """How many of the inverted ``sets`` hold a constraint the set before
        them lacks."""
        return sum(bool(now[0] - before[0]) or bool(now[1] - before[1])
                   for before, now in zip(sets, sets[1:]))

    @staticmethod
    def batch_free(monkeypatch, poly: Polytope) -> None:
        """Raise the threshold past every constraint: nothing joins."""
        monkeypatch.setattr(geometry, "_BATCH_MIN", poly.n_halfspaces + poly.dim + 1)

    @pytest.mark.parametrize("seed,shape,sigma,algorithm,step,T", [
        (123, (100, 50, -100.0, 0.0), 1000.0, "pga", "1/L", 12),
        (123, (100, 50, -100.0, 0.0), 1000.0, "boosted_pga", "default", 4),
        (123, (50, 25, -100.0, 0.0), 1000.0, "pga", "default", 8),
        (123, (10, 5, -1.0, 0.0), 0.5, "pga", "default", 40),
        # the packaging smoke's boosted_pga config: step 0.2, about 1/L
        (7, (10, 5, -1.0, 0.0), 0.1, "boosted_pga", 0.2, 20),
    ], ids=["1/L-100x50", "default-100x50", "default-50x25", "default-10x5", "1/L-10x5-smoke"])
    def test_every_answer_is_the_batch_free_one(self, monkeypatch, inverted, seed, shape,
                                                sigma, algorithm, step, T):
        """Each projection input of a trial, from its stored set (warm) and
        from the empty set (cold), gives the batch-free method's answer bit
        for bit and ends on its set.  The first input, the projection of the
        trial's standard normal start point, joins on every instance; at
        step 1/L warm and cold calls join too."""
        from drsubmax import optimizers
        from drsubmax.bounds import spectral_norm
        from drsubmax.objectives import generate_nqp
        from drsubmax.oracles import NoiseModel

        obj = generate_nqp(seed, *shape)
        poly = obj.polytope
        value = {"default": None, "1/L": 1.0 / spectral_norm(obj.h_matrix)}.get(step, step)
        rule = {} if value is None else {"step_rule": optimizers.StepRule("inv_sqrt", value)}
        cfg = optimizers.RunConfig(algorithm, T, run_id=1, **rule)
        inputs = []

        def recording(p, y, warm):
            inputs.append((np.array(y), warm.face))
            return project(p, y, warm)

        monkeypatch.setattr(optimizers, "project", recording)
        optimizers.run_trial(obj, NoiseModel.clipped_gaussian(sigma), cfg)
        assert len(inputs) == T + 1

        def replay():
            answers, joins = [], []
            for y, start in inputs:
                for face in (start, np.zeros_like(start)):
                    state = ProjectionWarmStart(poly)
                    state.face = face
                    inverted.clear()
                    x = project(poly, y, state)
                    answers.append((x.tobytes(), state.face.tobytes()))
                    joins.append(self.joins(inverted))
            return answers, joins

        batched, joins = replay()
        self.batch_free(monkeypatch, poly)
        unbatched, none = replay()
        assert batched == unbatched
        assert not any(none)
        assert joins[0] > 0
        if step != "default":
            assert any(joins[2::2]) and any(joins[3::2])

    def test_a_set_that_overflows_the_free_coordinates_is_skipped(self, monkeypatch,
                                                                   inverted):
        """Nine constraints are violated, but with every coordinate past its
        upper face the three halfspaces would have no free coordinate: they
        do not join, and the dual method runs from the empty set, the one
        set inverted."""
        poly = Polytope([[1.0] * 6, [1.0, 2.0] * 3, [2.0, 1.0] * 3], [2.0, 3.0, 3.0],
                        np.ones(6))
        y = np.arange(5.0, 11.0)
        x = project(poly, y)
        assert inverted == [(Counter(), frozenset(), False)]
        self.batch_free(monkeypatch, poly)
        assert project(poly, y).tobytes() == x.tobytes()
        assert kkt_residual(poly, y, x) <= 1e-10

    @staticmethod
    def runs(monkeypatch) -> list:
        """A list that gets the start of each run of the dual method."""
        runs = []
        method = geometry._dual_active_set

        def counted(*args):
            runs.append(args[-1].copy())
            return method(*args)

        monkeypatch.setattr(geometry, "_dual_active_set", counted)
        return runs

    def assert_batch_free(self, monkeypatch, poly, y, x, face):
        """``x`` and its final set ``face`` are the batch-free method's, bit
        for bit."""
        self.batch_free(monkeypatch, poly)
        batch_free = ProjectionWarmStart(poly)
        assert project(poly, y, batch_free).tobytes() == x.tobytes()
        np.testing.assert_array_equal(batch_free.face, face)

    def test_a_singular_join_goes_back_to_the_set_before_it(self, monkeypatch, inverted):
        """Five violated halfspaces on six free coordinates, three of them
        parallel: the joined set is singular, so the loop goes back to the
        empty set it joined from, with no more joins, and the dual method
        runs from there once, with no ``ProjectionError`` and no second,
        cold run."""
        ones = np.ones(6)
        poly = Polytope(np.vstack([ones, 2.0 * ones, ones, np.repeat([1.0, 0.0], 3),
                                   np.repeat([0.0, 1.0], 3)]),
                        [1.0, 2.0, 1.0, 0.5, 0.5], ones)
        y = np.full(6, 0.9)
        runs = self.runs(monkeypatch)
        warm = ProjectionWarmStart(poly)
        x = project(poly, y, warm)
        assert len(runs) == 1
        assert [(sum(rows.values()), fixed, singular)
                for rows, fixed, singular in inverted] == [
            (0, frozenset(), False), (5, frozenset(), True), (0, frozenset(), False)]
        np.testing.assert_allclose(x, np.full(6, 1.0 / 6.0), rtol=1e-12)
        self.assert_batch_free(monkeypatch, poly, y, x, warm.face)

    def test_a_later_singular_join_goes_back_to_the_set_before_it(self, monkeypatch,
                                                                  inverted):
        """The first join fixes the five coordinates past their upper face;
        there four halfspaces ``x_(5+k) - x_k / 2 <= 0.2`` and a multiple of
        the first are violated, and the set they join is singular.  The loop
        goes back to the five fixed coordinates, with no more joins, and the
        dual method runs from there once, with no cold run."""
        a = np.zeros((5, 10))
        for k in range(4):
            a[k, k], a[k, 5 + k] = -0.5, 1.0
        a[4] = 2.0 * a[0]
        poly = Polytope(a, [0.2, 0.2, 0.2, 0.2, 0.4], np.ones(10))
        y = np.repeat([5.0, 0.9], 5)
        runs = self.runs(monkeypatch)
        warm = ProjectionWarmStart(poly)
        x = project(poly, y, warm)
        assert len(runs) == 1
        upper = frozenset(range(5))
        assert [(sum(rows.values()), fixed, singular)
                for rows, fixed, singular in inverted] == [
            (0, frozenset(), False), (0, upper, False), (5, upper, True), (0, upper, False)]
        assert self.joins(inverted) == 2
        assert kkt_residual(poly, y, x) <= 1e-10
        self.assert_batch_free(monkeypatch, poly, y, x, warm.face)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_a_pruned_set_singular_after_a_join_goes_back_further(self, monkeypatch,
                                                                   inverted, warm):
        """Rows ``x_0 + t x_2`` and ``x_1 + t x_2`` (t = 1e5) are orthogonal
        while ``x_2`` sits at its upper face, and nearly parallel, past the
        growth test, once it is freed.  A cold call joins both rows and three
        upper faces; there ``x_2``'s face leaves and five halfspaces
        ``x_(5+k) - 0.4 x_2 <= 0.05`` join, a singular set, and so is the set
        before the join without the leaver.  A cold call goes back to the
        empty set, with no more joins, and runs the dual method once; a call
        from that first joined set returns None from it and runs cold once
        more.  Either way the answer is the batch-free one."""
        t, n = 1e5, 12
        a = np.zeros((7, n))
        a[0, [0, 2]] = a[1, [1, 2]] = 1.0, t
        for k in range(5):
            a[2 + k, [5 + k, 2]] = 1.0, -0.4
        poly = Polytope(a, [t + 0.5, t + 0.5] + [0.05] * 5, np.ones(n))
        y = np.array([0.9, 0.9, 2.0, 2.0, 2.0] + [0.5] * 7)
        joined = np.zeros(7 + n)
        joined[[0, 1, 9, 10, 11]] = 1.0  # both rows, and x_2 to x_4 at their upper faces
        runs = self.runs(monkeypatch)
        state = ProjectionWarmStart(poly)
        if warm:
            state.face = joined
        x = project(poly, y, state)
        empty, first, upper = frozenset(), frozenset({2, 3, 4}), frozenset({3, 4})
        cold = [(0, empty, False), (2, first, False), (7, upper, True), (2, upper, True),
                (0, empty, False)]
        assert len(runs) == (2 if warm else 1)
        assert [(sum(rows.values()), fixed, singular)
                for rows, fixed, singular in inverted] == (cold[1:4] if warm else []) + cold
        self.assert_batch_free(monkeypatch, poly, y, x, state.face)


class TestDiameterBound:
    def test_paper_five_dim_value(self):
        assert diameter_bound(Polytope.box(np.ones(5))) == pytest.approx(
            2.2360679774997896, abs=1e-12
        )

    def test_unit_interval(self):
        assert diameter_bound(Polytope.box([1.0])) == 1.0

    def test_three_four_five(self):
        assert diameter_bound(Polytope.box([3.0, 4.0])) == 5.0

    def test_bounds_every_vertex_pair(self):
        """The bound is at least the largest distance between two vertices,
        the region's diameter, up to rounding, on small random polytopes; on
        a box, whose diameter it is, it equals that distance."""
        rng = np.random.default_rng(29)
        for with_halfspaces in [True] * 40 + [False] * 10:
            poly = random_small_polytope(rng, with_halfspaces)
            verts = enumerate_vertices(poly)
            widest = np.max(np.linalg.norm(verts[:, None] - verts[None], axis=-1))
            assert widest <= diameter_bound(poly) * (1.0 + 1e-12)
            if not with_halfspaces:
                assert widest == pytest.approx(diameter_bound(poly), rel=1e-12)


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        poly = Polytope(rng.uniform(0, 1, (3, 4)), rng.uniform(0.5, 1.5, 3),
                        rng.uniform(0.5, 2.0, 4))
        path = tmp_path / "poly.json"
        back = round_trip(path, poly)
        np.testing.assert_array_equal(back.a_matrix, poly.a_matrix)
        np.testing.assert_array_equal(back.b_vector, poly.b_vector)
        np.testing.assert_array_equal(back.upper, poly.upper)

    def test_round_trip_box_only(self, tmp_path):
        poly = Polytope.box([0.1, 1 / 3, 2.0])
        path = tmp_path / "box.json"
        back = round_trip(path, poly)
        assert back.n_halfspaces == 0
        np.testing.assert_array_equal(back.upper, poly.upper)
