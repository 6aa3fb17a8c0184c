import numpy as np
import pytest

from drsubmax.analysis import (
    TrialBattery,
    approx_opt,
    bound_violation_rate,
    fit_curve,
    shared_c1_refit,
    trajectory_statistic,
)
from drsubmax.bounds import BoundCurve, constants_for, theorem5_bound
from drsubmax.geometry import Polytope
from drsubmax.objectives import BudgetAllocationObjective, NqpObjective, generate_nqp
from drsubmax.oracles import NoiseModel
from drsubmax.optimizers import RunConfig, records_to_csv, run_battery


def constant_battery(levels, T=5):
    t = np.arange(1, T + 1)
    curves = [np.full(T, lv, dtype=float) for lv in levels]
    return TrialBattery(range(len(levels)), t, curves, curves, "scg")


class TestTrajectoryStatistic:
    def test_single_run_all_statistics_coincide(self):
        bat = constant_battery([3.0])
        for stat in ("min", "median", "mean", 0.9):
            _, values = trajectory_statistic(bat, stat)
            np.testing.assert_array_equal(values, 3.0)

    def test_order_statistics_by_hand(self):
        bat = constant_battery([1.0, 2.0, 4.0])
        assert trajectory_statistic(bat, "median")[1][0] == 2.0
        assert trajectory_statistic(bat, "min")[1][0] == 1.0
        assert trajectory_statistic(bat, "mean")[1][0] == pytest.approx(7.0 / 3.0)
        # nearest rank: ceil(0.9 * 3) = 3rd order statistic
        assert trajectory_statistic(bat, 0.9)[1][0] == 4.0

    def test_statistic_ordering_pointwise(self):
        rng = np.random.default_rng(61)
        t = np.arange(1, 21)
        curves = rng.normal(size=(9, 20))
        bat = TrialBattery(range(9), t, curves, curves, "scg")
        mn = trajectory_statistic(bat, "min")[1]
        md = trajectory_statistic(bat, "median")[1]
        q90 = trajectory_statistic(bat, 0.9)[1]
        assert np.all(mn <= md) and np.all(md <= q90)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(62)
        t = np.arange(1, 11)
        curves = rng.normal(size=(5, 10))
        ids = np.array([4, 0, 3, 1, 2])
        a = TrialBattery(ids, t, curves, curves, "scg")
        perm = np.array([2, 0, 4, 1, 3])
        b = TrialBattery(ids[perm], t, curves[perm], curves[perm], "scg")
        for stat in ("min", "median", 0.9):
            np.testing.assert_array_equal(
                trajectory_statistic(a, stat)[1], trajectory_statistic(b, stat)[1])

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValueError):
            trajectory_statistic(constant_battery([1.0]), 1.5)


class TestBatteryConstruction:
    def test_from_records_requires_shared_config(self):
        obj = NqpObjective([[-1.0]], Polytope.box([1.0]))
        recs = list(run_battery(obj, NoiseModel.none(), RunConfig("scg", 4), 2))
        other = list(run_battery(obj, NoiseModel.none(), RunConfig("scg", 5), 1))
        with pytest.raises(ValueError):
            TrialBattery.from_records(recs + other)

    def test_from_records_empty_rejected(self):
        with pytest.raises(ValueError):
            TrialBattery.from_records([])

    def test_csv_round_trip(self, tmp_path):
        obj = generate_nqp(63, 3, 1, -1.0, 0.0)
        recs = list(run_battery(obj, NoiseModel.gaussian_fixed(0.2), RunConfig("scg", 6), 4))
        path = tmp_path / "battery.csv"
        records_to_csv(recs, path)
        direct = TrialBattery.from_records(recs)
        loaded = TrialBattery.from_csv(path)
        np.testing.assert_array_equal(loaded.run_ids, direct.run_ids)
        np.testing.assert_array_equal(loaded.t, direct.t)
        np.testing.assert_array_equal(loaded.f_true, direct.f_true)
        np.testing.assert_array_equal(loaded.f_running_avg, direct.f_running_avg)


class TestFitCurve:
    def test_exact_model_recovery(self):
        t = np.arange(1, 101)
        fit = fit_curve(t, 1.0 - 2.0 / np.sqrt(t))
        assert fit.c1 == pytest.approx(1.0, abs=1e-8)
        assert fit.c2 == pytest.approx(2.0, abs=1e-8)
        assert fit.residual <= 1e-16

    def test_constant_data(self):
        t = np.arange(1, 51)
        fit = fit_curve(t, np.full(50, 0.7))
        assert fit.c1 == pytest.approx(0.7, abs=1e-10)
        assert fit.c2 == pytest.approx(0.0, abs=1e-10)

    def test_noisy_recovery_with_fixed_seed(self):
        rng = np.random.default_rng(5)
        t = np.arange(1, 1001)
        y = 1.0 - 2.0 / np.sqrt(t) + rng.normal(0.0, 1e-2, size=1000)
        fit = fit_curve(t, y)
        assert abs(fit.c1 - 1.0) <= 0.01
        assert abs(fit.c2 - 2.0) <= 0.1

    def test_t_min_filters_points(self):
        t = np.arange(1, 101)
        y = 1.0 - 2.0 / np.sqrt(t)
        y[0] = 50.0  # corrupted early transient
        fit = fit_curve(t, y, t_min=2)
        assert fit.c1 == pytest.approx(1.0, abs=1e-8)
        assert fit.n_points == 99

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_curve([1, 2, 3], [1.0, 2.0, 3.0], t_min=3)

    def test_singular_design_rejected(self):
        with pytest.raises(ValueError):
            fit_curve([4, 4, 4], [1.0, 2.0, 3.0])

    def test_alternative_exponent(self):
        t = np.arange(1, 201)
        fit = fit_curve(t, 2.0 - 0.5 * t**-0.25, p=0.25)
        assert fit.c1 == pytest.approx(2.0, abs=1e-8)
        assert fit.c2 == pytest.approx(0.5, abs=1e-8)


class TestSharedC1Refit:
    def test_identical_curves_unchanged(self):
        t = np.arange(1, 101)
        y = 1.0 - 2.0 / np.sqrt(t)
        fits = shared_c1_refit([(t, y, "a"), (t, y, "b")])
        solo = fit_curve(t, y)
        for fit in fits:
            assert fit.c1 == pytest.approx(solo.c1, abs=1e-12)
            assert fit.c2 == pytest.approx(solo.c2, abs=1e-10)

    def test_exact_pair_shares_asymptote(self):
        t = np.arange(1, 101)
        fits = shared_c1_refit([(t, 1.0 - 1.0 / np.sqrt(t), "lo"),
                                (t, 1.0 - 3.0 / np.sqrt(t), "hi")])
        assert fits[0].c1 == pytest.approx(1.0, abs=1e-8)
        assert fits[0].c2 == pytest.approx(1.0, abs=1e-8)
        assert fits[1].c2 == pytest.approx(3.0, abs=1e-8)

    def test_refit_matches_grid_oracle(self):
        """Stage-two c2 equals the brute-force scalar minimizer (1e-4 grid)."""
        t = np.arange(1, 101)
        curves = [(t, 0.9 - 1.0 / np.sqrt(t), "lo"), (t, 1.1 - 1.0 / np.sqrt(t), "hi")]
        fits = shared_c1_refit(curves)
        assert fits[0].c1 == pytest.approx(1.0, abs=1e-10)
        u = 1.0 / np.sqrt(t)
        for (_, y, _), fit in zip(curves, fits):
            grid = np.arange(0.0, 3.0, 1e-4)
            sse = ((y[None, :] - fit.c1 + grid[:, None] * u[None, :]) ** 2).sum(axis=1)
            best = grid[np.argmin(sse)]
            assert abs(fit.c2 - best) <= 1e-4

    def test_sharing_may_increase_residual_but_stays_conditionally_optimal(self):
        t = np.arange(1, 101)
        curves = [(t, 0.9 - 1.0 / np.sqrt(t), "lo"), (t, 1.1 - 2.0 / np.sqrt(t), "hi")]
        fits = shared_c1_refit(curves)
        u = 1.0 / np.sqrt(t)
        for (_, y, _), fit in zip(curves, fits):
            # perturbing c2 in either direction cannot reduce the residual
            for eps in (-1e-6, 1e-6):
                perturbed = float(np.sum((y - fit.c1 + (fit.c2 + eps) * u) ** 2))
                assert perturbed >= fit.residual


class TestApproxOpt:
    def test_one_dim_nqp(self):
        obj = NqpObjective([[-1.0]], Polytope.box([1.0]))
        assert approx_opt(obj, iterations=5000) == pytest.approx(0.5, abs=1e-6)

    def test_single_edge_budget(self):
        obj = BudgetAllocationObjective(1, 1, [(0, 0, 0.5)], alphas=[1.0],
                                        per_advertiser_upper=1.0)
        assert approx_opt(obj, iterations=5000) == pytest.approx(0.5, abs=1e-6)

    def test_never_exceeds_true_optimum(self):
        obj = NqpObjective([[-1.0]], Polytope.box([1.0]))
        val = approx_opt(obj, master_seed=3, n_runs=20, iterations=200,
                         noise=NoiseModel.clipped_gaussian(0.2))
        assert val <= 0.5 + 1e-12


class TestBoundViolationRate:
    def _noise_free_battery(self):
        obj = NqpObjective([[-1.0]], Polytope.box([1.0]))
        recs = run_battery(obj, NoiseModel.none(), RunConfig("scg", 20), 3)
        return obj, TrialBattery.from_records(recs)

    def test_noise_free_runs_respect_valid_bound(self):
        obj, bat = self._noise_free_battery()
        consts = constants_for(obj, NoiseModel.none(), opt=0.5)
        t = np.arange(1, 21)
        bound, prob = theorem5_bound(consts, t, 1.0)
        curve = BoundCurve("theorem5", t, bound, prob)
        assert bound_violation_rate(bat, curve, "final_iterate") == 0.0

    def test_huge_surrogate_bound_violated_by_all(self):
        _, bat = self._noise_free_battery()
        curve = BoundCurve("surrogate", np.arange(1, 21), np.full(20, 1e6))
        assert bound_violation_rate(bat, curve, "final_iterate") == 1.0
        assert bound_violation_rate(bat, curve, "average_iterate") == 1.0

    def test_grid_mismatch_rejected(self):
        _, bat = self._noise_free_battery()
        curve = BoundCurve("theorem5", np.arange(1, 11), np.zeros(10))
        with pytest.raises(ValueError, match="grid"):
            bound_violation_rate(bat, curve, "final_iterate")

    def test_unknown_convention_rejected(self):
        _, bat = self._noise_free_battery()
        curve = BoundCurve("x", np.arange(1, 21), np.zeros(20))
        with pytest.raises(ValueError):
            bound_violation_rate(bat, curve, "midpoint")


class TestVarianceShrinkage:
    def test_greedy_final_value_variance_shrinks_with_horizon(self):
        """More iterations shrink the spread of the greedy final value under
        gradient-proportional noise (compact version of the full experiment)."""
        obj = generate_nqp(11, 5, 1, -1.0, 0.0)
        noise = NoiseModel.gaussian_prop(1.0)
        short = run_battery(obj, noise, RunConfig("scg", 5, master_seed=3), 40)
        long = run_battery(obj, noise, RunConfig("scg", 100, master_seed=3), 40)
        var_short = float(np.var([r.f_true[-1] for r in short]))
        var_long = float(np.var([r.f_true[-1] for r in long]))
        assert var_long < var_short
