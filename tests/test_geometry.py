import numpy as np
import pytest

from drsubmax import geometry
from drsubmax.geometry import (
    TOL_LP,
    LmoError,
    LmoWarmStart,
    Polytope,
    ProjectionError,
    contains,
    diameter_bound,
    lmo,
    project,
    violation,
)
from drsubmax.objectives import NqpObjective, load_nqp, save_nqp

from _util import enumerate_vertices, grid_projection, random_small_polytope, sample_feasible

TRIANGLE = Polytope([[1.0, 1.0]], [1.0], [1.0, 1.0])
UNIT_BOX2 = Polytope.box([1.0, 1.0])


def at_slack_basis(state: LmoWarmStart) -> bool:
    """True iff ``state`` holds the LMO's cold start: the tableau ``[A I]``,
    the slacks basic at ``b`` and every coordinate at its lower bound."""
    p = state.polytope
    n, m = p.dim, state.rows.size
    return (np.array_equal(state.tab, state.base)
            and np.array_equal(state.basis, np.arange(n, n + m))
            and np.array_equal(state.sign, np.ones(n + m))
            and np.array_equal(state.values, p.b_vector[state.rows]))


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


class TestContains:
    def test_interior_point(self):
        assert contains(UNIT_BOX2, [0.5, 0.5], 0.0)

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
                simplex(state, cost)
                nonbasic = np.setdiff1d(np.arange(state.sign.size), state.basis)
                state.sign[nonbasic[0]] = -state.sign[nonbasic[0]]

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
    falls back to the slack basis when its answer fails the certificate."""

    @pytest.fixture()
    def simplex_runs(self, monkeypatch):
        """A list that records, for each simplex run of every ``lmo`` call,
        whether it starts warm (away from the slack basis)."""
        runs = []
        simplex = geometry._bounded_simplex

        def counted(state, cost):
            runs.append(not at_slack_basis(state))
            simplex(state, cost)

        monkeypatch.setattr(geometry, "_bounded_simplex", counted)
        return runs

    def test_tableau_is_built_once_and_read_only(self):
        poly = TestPresolve.REDUNDANT
        np.testing.assert_array_equal(LmoWarmStart(poly).base, [[1.0, 1.0, 1.0]])
        assert not LmoWarmStart(poly).base.flags.writeable
        assert LmoWarmStart(UNIT_BOX2).base.shape == (0, 2)

    def test_every_call_of_an_scg_trial_matches_the_cold_start(self, monkeypatch,
                                                                 simplex_runs):
        """All 200 calls of a 100 x 50 SCG trial: each warm answer passes its
        certificate (no call falls back to the cold start), is feasible, and
        its value agrees with the cold answer's within 1e-12 relative."""
        from drsubmax import optimizers
        from drsubmax.objectives import generate_nqp
        from drsubmax.oracles import NoiseModel

        obj = generate_nqp(123, 100, 50, -100.0, 0.0)
        poly, calls = obj.polytope, []

        def recording(p, g, warm):
            calls.append((np.array(g), lmo(p, g, warm)))
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
        """A scaled tableau is no longer ``B^-1 [A I]``: the warm answer fails
        the certificate, and the call returns the cold answer bit for bit.
        Without the complementary-slackness check some of these warm answers,
        feasible but not optimal, would pass."""
        from drsubmax.objectives import generate_nqp

        poly = generate_nqp(123, 100, 50, -100.0, 0.0).polytope
        rng = np.random.default_rng(80)
        for _ in range(3):
            warm = LmoWarmStart(poly)
            lmo(poly, rng.standard_normal(poly.dim), warm)
            warm.tab *= scale
            g = rng.standard_normal(poly.dim)
            simplex_runs.clear()
            np.testing.assert_array_equal(lmo(poly, g, warm), lmo(poly, g))
            assert simplex_runs == [True, False, False]  # warm, cold retry, cold
            np.testing.assert_array_equal(lmo(poly, g, warm), lmo(poly, g))

    def test_new_and_cleared_states_hold_the_slack_basis(self):
        from drsubmax.objectives import generate_nqp

        for poly in (TRIANGLE, UNIT_BOX2, generate_nqp(123, 100, 50, -100.0, 0.0).polytope):
            warm = LmoWarmStart(poly)
            assert at_slack_basis(warm)
            lmo(poly, np.ones(poly.dim), warm)
            assert at_slack_basis(warm) == (poly is UNIT_BOX2)
            warm.clear()
            assert at_slack_basis(warm)
            assert warm.tab.flags.writeable and warm.values.flags.writeable

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
        assert at_slack_basis(warm)

    def test_state_of_another_polytope_rejected(self):
        twin = Polytope([[1.0, 1.0]], [1.0], [1.0, 1.0])
        for poly in (twin, UNIT_BOX2):
            with pytest.raises(ValueError, match="another polytope"):
                lmo(poly, [1.0, 1.0], LmoWarmStart(TRIANGLE))

    def test_states_on_one_polytope_keep_their_own_tableaux(self):
        """Two states on one polytope build equal read-only bases ``[A_rows I]``
        and bounds ``(upper, inf...)``; a pivot or ``clear()`` in one leaves
        the other's tableau untouched."""
        poly = Polytope([[2.0, 1.0], [1.0, 2.0]], [1.0, 1.0], [1.0, 1.0])
        base = [[2.0, 1.0, 1.0, 0.0], [1.0, 2.0, 0.0, 1.0]]
        first, second = LmoWarmStart(poly), LmoWarmStart(poly)
        for state in (first, second):
            np.testing.assert_array_equal(state.base, base)
            assert not state.base.flags.writeable
            np.testing.assert_array_equal(state.upper, [1.0, 1.0, np.inf, np.inf])
        lmo(poly, [1.0, 0.0], first)  # x1 enters by a pivot
        assert not np.array_equal(first.tab, base)
        assert at_slack_basis(second)
        lmo(poly, [0.0, 1.0], second)
        tab = second.tab.copy()
        assert not np.array_equal(tab, base)
        first.clear()
        assert at_slack_basis(first)
        np.testing.assert_array_equal(second.tab, tab)
        np.testing.assert_array_equal(first.base, base)

    def test_box_ignores_the_state(self):
        warm = LmoWarmStart(UNIT_BOX2)
        arrays = (warm.tab, warm.basis, warm.sign, warm.values)
        np.testing.assert_array_equal(lmo(UNIT_BOX2, [1.0, -1.0], warm), [1.0, 0.0])
        after = (warm.tab, warm.basis, warm.sign, warm.values)
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
        """The dual steps make no QR or solve; only the final certificate
        does (one QR, two triangular solves)."""
        from drsubmax.objectives import generate_nqp

        obj = generate_nqp(123, 100, 50, -100.0, 0.0)
        calls = {"qr": 0, "solve": 0}
        for name in calls:
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        project(obj.polytope, 2.0 * obj.grad(np.zeros(obj.dim)))
        assert calls == {"qr": 1, "solve": 2}

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


class TestDiameterBound:
    def test_paper_five_dim_value(self):
        assert diameter_bound(Polytope.box(np.ones(5))) == pytest.approx(
            2.2360679774997896, abs=1e-12
        )

    def test_unit_interval(self):
        assert diameter_bound(Polytope.box([1.0])) == 1.0

    def test_three_four_five(self):
        assert diameter_bound(Polytope.box([3.0, 4.0])) == 5.0


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
