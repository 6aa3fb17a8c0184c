from dataclasses import replace

import numpy as np
import pytest

from drsubmax import analysis
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
from drsubmax.optimizers import (BATTERY_HEADER, MomentumRule, RunConfig, RunRecord, StepRule,
                                 records_to_csv, run_battery)

from _util import acceptance_nqp, exact_nqp_opt, exact_two_stage_fit


def constant_battery(levels, T=5):
    curves = [np.full(T, lv, dtype=float) for lv in levels]
    return TrialBattery(range(len(levels)), curves, "scg")


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
        curves = rng.normal(size=(9, 20))
        bat = TrialBattery(range(9), curves, "scg")
        mn = trajectory_statistic(bat, "min")[1]
        md = trajectory_statistic(bat, "median")[1]
        q90 = trajectory_statistic(bat, 0.9)[1]
        assert np.all(mn <= md) and np.all(md <= q90)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(62)
        curves = rng.normal(size=(5, 10))
        ids = np.array([4, 0, 3, 1, 2])
        a = TrialBattery(ids, curves, "scg")
        perm = np.array([2, 0, 4, 1, 3])
        b = TrialBattery(ids[perm], curves[perm], "scg")
        for stat in ("min", "median", 0.9):
            np.testing.assert_array_equal(
                trajectory_statistic(a, stat)[1], trajectory_statistic(b, stat)[1])

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValueError):
            trajectory_statistic(constant_battery([1.0]), 1.5)

    def test_unknown_statistic_or_series_rejected(self):
        with pytest.raises(ValueError, match="unknown statistic 'max'"):
            trajectory_statistic(constant_battery([1.0]), "max")
        with pytest.raises(ValueError, match="unknown series 'run_ids'"):
            trajectory_statistic(constant_battery([1.0]), "min", series="run_ids")


class TestBatteryConstruction:
    def test_from_records_requires_shared_config(self):
        obj = NqpObjective([[-1.0]], Polytope.box([1.0]))
        recs = list(run_battery(obj, NoiseModel.none(), RunConfig("scg", 4), 2))
        other = list(run_battery(obj, NoiseModel.none(), RunConfig("scg", 5), 1))
        with pytest.raises(ValueError):
            TrialBattery.from_records(recs + other)

    @pytest.mark.parametrize("values", [
        [1.0, 2.0], [[[1.0]], [[2.0]]], [[1.0], [2.0], [3.0]], [[1.0, 2.0]],
    ], ids=["vector", "3d", "extra-row", "one-row"])
    def test_values_must_be_a_matrix(self, values):
        """One row per run id, checked before the rows are sorted by run id:
        a third row is not cut off, and a single row is no ``IndexError``."""
        with pytest.raises(ValueError, match="shape disagrees with run ids"):
            TrialBattery([0, 1], values, "scg")

    def test_from_records_empty_rejected(self):
        with pytest.raises(ValueError):
            TrialBattery.from_records([])

    @staticmethod
    def record(cfg, run_id, value):
        return RunRecord(replace(cfg, run_id=run_id), np.zeros((2, 1)), np.full(2, value), value)

    def test_from_records_constructs_no_run_config(self, monkeypatch):
        """The records' configs are compared as they are, not rebuilt and
        checked again with ``run_id`` reset."""
        cfg = RunConfig("pga", 2, step_rule=StepRule("inv_sqrt", 0.5))
        recs = [self.record(cfg, 1, 2.0), self.record(cfg, 0, 1.0)]
        built = []
        post_init = RunConfig.__post_init__
        monkeypatch.setattr(RunConfig, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        battery = TrialBattery.from_records(recs)
        assert built == []
        np.testing.assert_array_equal(battery.run_ids, [0, 1])
        np.testing.assert_array_equal(battery.f_true, [[1.0, 1.0], [2.0, 2.0]])
        assert battery.algorithm == "pga"

    @pytest.mark.parametrize("base,change", [
        (RunConfig("pga", 2), {"T": 3}),
        (RunConfig("pga", 2), {"master_seed": 1}),
        (RunConfig("pga", 2), {"step_rule": StepRule("inv_sqrt", 3.0)}),
        (RunConfig("pga", 2), {"init_rule": "zero"}),
        (RunConfig("pga", 2), {"returned_convention": "last_iterate"}),
        (RunConfig("boosted_pga", 2), {"gamma": 0.5}),
        (RunConfig("scg", 2), {"momentum_rule": MomentumRule("alpha", 0.5)}),
        (RunConfig("scg", 2, momentum_rule=MomentumRule("alpha", 0.5)),
         {"momentum_rule": MomentumRule("alpha", 0.25)}),
        (RunConfig("scgpp", 2), {"batch_size": 1}),
        (RunConfig("scg", 2), {"algorithm": "scgpp", "batch_size": 2}),
    ], ids=["T", "master_seed", "step-value", "init_rule", "convention",
            "gamma", "momentum-kind", "momentum-value", "batch_size", "algorithm"])
    def test_from_records_rejects_any_other_difference(self, base, change):
        other = replace(base, **change)
        with pytest.raises(ValueError, match="must share their configuration"):
            TrialBattery.from_records([self.record(base, 0, 1.0), self.record(other, 1, 1.0)])

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

    @pytest.mark.parametrize("runs,edit", [
        ("1", {"4": None}),            # the last row of run 1 is missing
        ("1", {"2": None}),            # a middle row of run 1 is missing
        ("1", {"3": "2"}),             # run 1 repeats t = 2
        ("1", {str(t): str(t + 1) for t in range(1, 5)}),   # run 1 starts at t = 2
        ("01", {str(t): str(t + 1) for t in range(1, 5)}),  # every run starts at t = 2
    ], ids=["drop-last", "drop-middle", "repeat", "start-at-2", "all-start-at-2"])
    def test_from_csv_requires_one_grid_1_to_k(self, tmp_path, runs, edit):
        """Each run's iterations are t = 1..k, with one k for every run."""
        obj = generate_nqp(63, 3, 1, -1.0, 0.0)
        path = tmp_path / "battery.csv"
        records_to_csv(run_battery(obj, NoiseModel.none(), RunConfig("scg", 4), 2), path)
        lines = []
        for line in path.read_text().splitlines():
            rid, alg, t, rest = line.split(",", 3)
            if rid in runs and t in edit:
                if edit[t] is None:
                    continue
                line = ",".join((rid, alg, edit[t], rest))
            lines.append(line)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{path}: the rows of run {runs[0]} are not "):
            TrialBattery.from_csv(path)

    @pytest.mark.parametrize("text,message", [
        ("run_id,algorithm,t,f_true\n0,scg,1,1.0\n", "unexpected battery header"),
        (BATTERY_HEADER + "\n0,scg,1,1.0,1.0\n1,pga,1,1.0,1.0\n",
         "3: battery row '1,pga,1,1.0,1.0': mixed algorithms in one battery"),
        (BATTERY_HEADER + "\n", "empty battery"),
    ], ids=["header", "mixed-algorithms", "header-only"])
    def test_from_csv_rejects_a_malformed_file(self, tmp_path, text, message):
        path = tmp_path / "battery.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{path}:.*{message}"):
            TrialBattery.from_csv(path)

    def test_from_csv_derives_grid_and_running_average(self, tmp_path):
        """The grid is t = 1..T and the running average is derived from the
        values, whatever the file's running average column holds; a blank
        line is skipped."""
        path = tmp_path / "battery.csv"
        path.write_text("run_id,algorithm,t,f_true,f_running_avg\n"
                        "0,pga,2,3.0,0.0\n\n0,pga,1,1.0,0.0\n")
        battery = TrialBattery.from_csv(path)
        np.testing.assert_array_equal(battery.t, [1, 2])
        np.testing.assert_array_equal(battery.f_running_avg, [[1.0, 2.0]])


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
        with pytest.raises(ValueError, match="^fit '': singular design: all t equal$"):
            fit_curve([4, 4, 4], [1.0, 2.0, 3.0])
        # distinct t whose t^-p both underflow to 0
        with pytest.raises(ValueError, match="^fit 'q90': singular design: t\\^-p does not vary"):
            fit_curve([1e6, 1e6 + 1], [0.0, 1.0], p=60, label="q90")

    @pytest.mark.parametrize("t,t_min,low", [([-1, 1, 2], -5, "-1"), ([0, 1, 2], 0, "0")],
                             ids=["negative", "zero"])
    def test_nonpositive_t_rejected(self, t, t_min, low):
        """A ``t <= 0`` kept by ``t_min`` is refused by name before ``t^-p``
        is taken, which would be nan at ``t < 0`` and divide by zero at 0."""
        message = f"^fit '': a fitted t must be positive, got t = {low}$"
        with pytest.raises(ValueError, match=message):
            fit_curve(t, [0.1, 0.5, 0.7], t_min=t_min)

    @pytest.mark.parametrize("t,p", [(np.arange(1, 21), 1e-17), (np.arange(3, 8), 5e-17)],
                             ids=["one", "below-one"])
    def test_exponent_too_small_for_floats_rejected(self, t, p):
        """Every ``t^-p`` rounds to one float, 1.0 or the float below it: the
        design has exactly no spread, even where the plain mean of five
        copies of that float rounds away from it."""
        assert np.all(t**-p == t[0] ** -p)
        with pytest.raises(ValueError, match="^fit 'min': singular design: t\\^-p does not vary"):
            shared_c1_refit([(t, 0.5 - 1.0 / np.sqrt(t), "min"),
                             (t, 1.0 - 1.0 / np.sqrt(t), "median")], p=p)

    def test_alternative_exponent(self):
        t = np.arange(1, 201)
        fit = fit_curve(t, 2.0 - 0.5 * t**-0.25, p=0.25)
        assert fit.c1 == pytest.approx(2.0, abs=1e-8)
        assert fit.c2 == pytest.approx(0.5, abs=1e-8)


def random_curve(rng):
    """A noisy ``c1 - c2 t^-p`` curve over t = 1..T and a ``t_min`` anywhere
    below ``T``: ``(t, y, p, t_min)``."""
    T = int(rng.integers(20, 1000))
    t_min = int(rng.integers(1, T))
    p = float(rng.uniform(0.25, 2.0))
    c2 = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 30.0)
    t = np.arange(1, T + 1)
    y = rng.uniform(0.5, 1.5) - c2 * t**-p + rng.normal(0.0, 10.0 ** rng.integers(-6, -1), T)
    return t, y, p, t_min


class TestFitCurveReference:
    """``fit_curve`` against the exact least squares of its float design."""

    def test_matches_the_exact_least_squares(self):
        """``c1`` and ``c2`` within 1e-10 relative, also where ``t_min`` near
        ``T`` makes the basis nearly collinear."""
        rng = np.random.default_rng(39)
        for _ in range(300):
            t, y, p, t_min = random_curve(rng)
            fit = fit_curve(t, y, p, t_min, "ref")
            c1_ref, c2_ref, resid_ref = exact_two_stage_fit([(t, y)], p, t_min)[0]
            assert abs(fit.c1 - c1_ref) <= 1e-10 * abs(c1_ref)
            assert abs(fit.c2 - c2_ref) <= 1e-10 * abs(c2_ref)
            # a two-point design's exact residual is 0, which rounding misses by ~eps^2
            floor = fit.n_points * (np.finfo(float).eps * np.abs(y).max()) ** 2
            assert abs(fit.residual - resid_ref) <= 1e-10 * resid_ref + floor
            assert (fit.p, fit.label, fit.n_points) == (p, "ref", t.size - t_min + 1)

    @pytest.mark.parametrize("p", [1e-9, 1e-12, 1e-13])
    def test_residual_at_a_tiny_exponent(self, p):
        """``t^-p`` is nearly ``1 - p ln t``, so ``c1`` and ``c2`` are near
        ``1 / p``: they are still exact within 1e-12 relative, and the
        residual within 1e-6."""
        rng = np.random.default_rng(7)
        t = np.arange(1, 21)
        y = 0.9 - 1.3 / np.sqrt(t) + rng.normal(0.0, 0.05, t.size)
        fit = fit_curve(t, y, p)
        c1_ref, c2_ref, resid_ref = exact_two_stage_fit([(t, y)], p, 1)[0]
        assert abs(fit.residual - resid_ref) <= 1e-6
        assert abs(fit.c1 - c1_ref) <= 1e-12 * abs(c1_ref)
        assert abs(fit.c2 - c2_ref) <= 1e-12 * abs(c2_ref)


class TestSharedC1Refit:
    def test_no_curves_rejected(self):
        with pytest.raises(ValueError, match="need at least one curve"):
            shared_c1_refit([])

    def test_builds_each_design_once(self, monkeypatch):
        calls = []
        fit_design = analysis._fit_design
        monkeypatch.setattr(analysis, "_fit_design",
                            lambda *args: calls.append(args) or fit_design(*args))
        t = np.arange(1, 21)
        shared_c1_refit([(t, 1.0 - k / np.sqrt(t), str(k)) for k in range(3)])
        assert len(calls) == 3
        fit_curve(t, 1.0 - 1.0 / np.sqrt(t))
        assert len(calls) == 4

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_curve_that_is_not_finite_rejected_by_label(self, bad):
        """Checked before any arithmetic, so no numpy warning either; the
        value need not lie past ``t_min``."""
        t = np.arange(1, 11)
        y = 1.0 - 1.0 / np.sqrt(t)
        with pytest.raises(ValueError, match="fit 'q90': a value of its curve is not a finite"):
            shared_c1_refit([(t, y, "min"), (t, np.where(t == 1, bad, y), "q90")], t_min=2)

    @pytest.mark.parametrize("scale", [1e160, 1e307], ids=["residual", "sums"])
    def test_fit_that_floats_cannot_hold_rejected_by_label(self, scale):
        """Finite curves whose residual, or whose sums and so ``c1`` and
        ``c2``, overflow to inf or nan: a ``ValueError`` naming the curve and
        no numpy warning."""
        t = np.arange(1, 6)
        y = scale * np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        with pytest.raises(ValueError, match="fit 'min': its c1, c2 or residual is not a finite"):
            shared_c1_refit([(t, y, "min"), (t, y / 2, "median")])
        with pytest.raises(ValueError, match="fit '': its c1, c2 or residual is not a finite"):
            fit_curve(t, y)

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
        obj = BudgetAllocationObjective([[0.5]], alphas=[1.0], per_advertiser_upper=1.0)
        assert approx_opt(obj, iterations=5000) == pytest.approx(0.5, abs=1e-6)

    def test_never_exceeds_true_optimum(self):
        obj = NqpObjective([[-1.0]], Polytope.box([1.0]))
        val = approx_opt(obj, master_seed=3, n_runs=20, iterations=200,
                         noise=NoiseModel.clipped_gaussian(0.2))
        assert val <= 0.5 + 1e-12

    @pytest.mark.parametrize("seed,gap", [(1, 3.5589e-3), (2, 6.1675e-3), (3, 0.0),
                                          (4, 1.0687e-2)])
    def test_gap_to_the_exact_optimum(self, seed, gap):
        """The estimate (4 noisy runs of 200 iterations) never exceeds the
        exact optimum of face enumeration, and falls short of it by a pinned
        relative gap."""
        obj = generate_nqp(seed, 5, 2, -1.0, 0.0)
        exact = exact_nqp_opt(obj)
        estimate = approx_opt(obj, n_runs=4, iterations=200,
                              noise=NoiseModel.clipped_gaussian(0.1))
        assert estimate <= exact * (1 + 1e-9)
        assert (exact - estimate) / exact == pytest.approx(gap, rel=1e-3, abs=1e-12)

    def test_redundant_halfspace_leaves_the_corner_optimal(self):
        """On an instance shaped like the acceptance gate's, whose halfspace
        0.2 * sum(x) <= 1 holds on the unit box, the exact optimum and the
        estimate are both f(1)."""
        obj = acceptance_nqp()
        corner = obj.value(np.ones(5))
        assert exact_nqp_opt(obj) == pytest.approx(corner, rel=1e-14)
        estimate = approx_opt(obj, n_runs=4, iterations=200,
                              noise=NoiseModel.clipped_gaussian(0.1))
        assert estimate == pytest.approx(corner, rel=1e-14)

    @pytest.mark.parametrize("noise", [NoiseModel.none(), NoiseModel.clipped_gaussian(0.1)])
    @pytest.mark.parametrize("n_runs", [0, -3, 2.5, True])
    def test_n_runs_must_be_a_positive_integer(self, noise, n_runs):
        obj = generate_nqp(1, 4, 2, -1, 0)
        with pytest.raises(ValueError, match="n_runs must be a positive integer"):
            approx_opt(obj, n_runs=n_runs, iterations=10, noise=noise)


class TestBoundViolationRate:
    def _noise_free_battery(self, algorithm="scg"):
        obj = NqpObjective([[-1.0]], Polytope.box([1.0]))
        recs = run_battery(obj, NoiseModel.none(), RunConfig(algorithm, 20), 3)
        return obj, TrialBattery.from_records(recs)

    def test_noise_free_runs_respect_valid_bound(self):
        obj, bat = self._noise_free_battery()
        consts = constants_for(obj, NoiseModel.none(), opt=0.5)
        t = np.arange(1, 21)
        bound, prob = theorem5_bound(consts, t, 1.0)
        curve = BoundCurve("theorem5", bound, prob)
        assert bound_violation_rate(bat, curve) == 0.0

    def test_huge_surrogate_bound_violated_by_all(self):
        curve = BoundCurve("surrogate", np.full(20, 1e6))
        for algorithm in ("scg", "pga"):
            _, bat = self._noise_free_battery(algorithm)
            assert bound_violation_rate(bat, curve) == 1.0

    def test_grid_mismatch_rejected(self):
        _, bat = self._noise_free_battery()
        curve = BoundCurve("theorem5", np.zeros(10))
        with pytest.raises(ValueError, match="grid"):
            bound_violation_rate(bat, curve)

    @pytest.mark.parametrize("algorithm,rate", [
        ("pga", 1.0), ("boosted_pga", 1.0), ("scg", 0.0), ("scgpp", 0.0)])
    def test_reads_the_algorithms_guarantee_series(self, algorithm, rate):
        """The rate is checked on the running average for projected ascent
        and on the final iterate value for the Frank-Wolfe variants: a bound
        of 3 lies above both final running averages (2.5, 2.75) and below
        both final values (4)."""
        f_true = np.array([[1.0, 4.0], [1.5, 4.0]])
        bat = TrialBattery([0, 1], f_true, algorithm)
        curve = BoundCurve("threshold", np.array([0.0, 3.0]))
        assert bound_violation_rate(bat, curve) == rate


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
