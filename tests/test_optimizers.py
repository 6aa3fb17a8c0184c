import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from drsubmax.geometry import Polytope, contains, lmo
from drsubmax.objectives import NqpObjective, generate_budget, generate_nqp
from drsubmax.oracles import NoiseModel, OracleStream
from drsubmax.optimizers import (
    MomentumRule,
    RunConfig,
    StepRule,
    boost_mass,
    boost_s_from_uniform,
    records_to_csv,
    run_battery,
    run_trial,
    running_average,
)

from _util import enumerate_vertices

ONE_MINUS_INV_E = 1.0 - math.exp(-1.0)


# the fields each algorithm reads beyond algorithm, T, master_seed and run_id,
# and a value of each that differs from its default for every algorithm: the
# init rule's, per algorithm, is the rule the algorithm does not start from
READ_BY = {"pga": {"step_rule", "init_rule", "returned_convention"},
           "boosted_pga": {"step_rule", "init_rule", "returned_convention", "gamma"},
           "scg": {"momentum_rule"}, "scgpp": {"batch_size"}}
NON_DEFAULT = {"step_rule": StepRule("inv_sqrt", 0.05), "gamma": 0.5,
               "momentum_rule": MomentumRule("alpha", 0.5), "batch_size": 3,
               "init_rule": {"pga": "zero", "boosted_pga": "zero", "scg": "gaussian_project",
                             "scgpp": "gaussian_project"},
               "returned_convention": "best_iterate"}


def batched(algorithm, batch_size):
    """``batch_size`` as a ``RunConfig`` keyword where the algorithm reads it."""
    return {"batch_size": batch_size} if algorithm == "scgpp" else {}


def one_dim_nqp():
    return NqpObjective([[-1.0]], Polytope.box([1.0]))


class TestRunConfigValidation:
    def test_alpha_range(self):
        with pytest.raises(ValueError):
            MomentumRule("alpha", 1.0)

    def test_greedy_requires_last_iterate(self):
        with pytest.raises(ValueError):
            RunConfig("scg", 5, returned_convention="best_iterate")

    def test_defaults_per_algorithm(self):
        assert RunConfig("pga", 5).returned_convention == "uniform_random_iterate"
        assert RunConfig("scg", 5).returned_convention == "last_iterate"

    def test_batch_defaults_to_horizon(self):
        assert RunConfig("scgpp", 7).batch_size == 7
        assert RunConfig("scgpp", 7, batch_size=3).batch_size == 3

    def test_derived_defaults(self):
        """The Frank-Wolfe variants start at the origin; only scgpp has a batch."""
        assert RunConfig("scg", 7).init_rule == RunConfig("scgpp", 7).init_rule == "zero"
        assert RunConfig("pga", 7).init_rule == "gaussian_project"
        assert RunConfig("scg", 7).batch_size is None

    @pytest.mark.parametrize("algorithm", ["pga", "boosted_pga", "scg", "scgpp"])
    @pytest.mark.parametrize("name", sorted(NON_DEFAULT))
    def test_only_the_fields_its_algorithm_reads(self, algorithm, name):
        """A non-default value is accepted if and only if the algorithm reads
        the field; otherwise the error names the algorithm and the field."""
        value = NON_DEFAULT[name][algorithm] if name == "init_rule" else NON_DEFAULT[name]
        if name in READ_BY[algorithm]:
            assert getattr(RunConfig(algorithm, 7, **{name: value}), name) == value
        else:
            with pytest.raises(ValueError, match=f"^{algorithm} does not read {name}$"):
                RunConfig(algorithm, 7, **{name: value})

    def test_every_unread_field_is_named(self):
        with pytest.raises(ValueError,
                           match="^scg does not read step_rule, gamma, batch_size, init_rule$"):
            RunConfig("scg", 30, step_rule=StepRule("inv_sqrt", 0.05), gamma=0.3,
                      batch_size=7, init_rule="gaussian_project")

    def test_poly48_takes_no_value(self):
        with pytest.raises(ValueError, match="^momentum rule 'poly48' takes no value$"):
            MomentumRule("poly48", 0.7)


class TestPga:
    def test_hand_iteration_inv_sqrt_step(self):
        """On f(x) = x - x^2/2 over [0, 1] the gradient is 1 - x, so from the
        origin x_t = x_{t-1} + (0.1 / sqrt(t)) (1 - x_{t-1})."""
        cfg = RunConfig("pga", 3, step_rule=StepRule("inv_sqrt", 0.1),
                        init_rule="zero", returned_convention="last_iterate")
        rec = run_trial(one_dim_nqp(), NoiseModel.none(), cfg)
        x1 = 0.1
        x2 = x1 + 0.1 / math.sqrt(2.0) * (1.0 - x1)
        x3 = x2 + 0.1 / math.sqrt(3.0) * (1.0 - x2)
        np.testing.assert_allclose(rec.iterates.ravel(), [x1, x2, x3], atol=1e-15)

    def test_diminishing_step_clamps_to_one(self):
        cfg = RunConfig("pga", 4, step_rule=StepRule("inv_sqrt", 2.0),
                        init_rule="zero", returned_convention="last_iterate")
        rec = run_trial(one_dim_nqp(), NoiseModel.none(), cfg)
        np.testing.assert_array_equal(rec.iterates.ravel(), [1.0, 1.0, 1.0, 1.0])

    def test_gaussian_init_is_projected(self):
        obj = generate_nqp(5, 4, 2, -1.0, 0.0)
        cfg = RunConfig("pga", 3)
        rec = run_trial(obj, NoiseModel.gaussian_prop(1.0), cfg)
        for x in rec.iterates:
            assert contains(obj.polytope, x, 1e-6)

    def test_returned_conventions(self):
        obj = one_dim_nqp()
        noise = NoiseModel.gaussian_fixed(0.5)
        best = run_trial(obj, noise, RunConfig("pga", 20, returned_convention="best_iterate"))
        assert best.returned_value == np.max(best.f_true)
        last = run_trial(obj, noise, RunConfig("pga", 20, returned_convention="last_iterate"))
        assert last.returned_value == last.f_true[-1]
        uniform = run_trial(obj, noise, RunConfig("pga", 20))
        assert uniform.returned_value in set(uniform.f_true)


class TestBoostedPga:
    def test_sampler_endpoints(self):
        assert boost_s_from_uniform(0.0, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert boost_s_from_uniform(1.0, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert boost_s_from_uniform(0.0, 0.4) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("u", [-0.1, 1.5, float("nan")])
    def test_sampler_u_outside_unit_interval_rejected(self, u):
        with pytest.raises(ValueError, match=r"u must lie in \[0, 1\]"):
            boost_s_from_uniform(u)

    def test_sampler_closed_form_midpoint(self):
        assert boost_s_from_uniform(0.5, 1.0) == pytest.approx(0.6201145069582775, abs=1e-12)

    @pytest.mark.parametrize("gamma", [1.0, 0.5, 1e-4, 1e-8, 1e-12])
    @pytest.mark.parametrize("u", [0.5, 0.01, 1e-6, 1e-12, 0.999])
    def test_sampler_matches_a_decimal_reference(self, gamma, u):
        """The drawn scale is ``log(1 + u (e^gamma - 1)) / gamma`` to the
        last bits, also where ``gamma`` or ``u`` is small: the reference is
        evaluated with 60 significant digits."""
        with localcontext() as ctx:
            ctx.prec = 60
            g = Decimal(gamma)
            reference = float((Decimal(u) * (g.exp() - 1) + 1).ln() / g)
        assert boost_s_from_uniform(u, gamma) == pytest.approx(reference, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("gamma", [0.0, -0.5, 1.5, float("nan")])
    def test_sampler_gamma_outside_unit_interval_rejected(self, gamma):
        with pytest.raises(ValueError, match=r"gamma must lie in \(0, 1\]"):
            boost_s_from_uniform(0.5, gamma)
        with pytest.raises(ValueError, match=r"gamma must lie in \(0, 1\]"):
            boost_mass(gamma)

    def test_mass_at_gamma_one_keeps_the_subtraction_bits(self):
        """At gamma = 1, the default, ``expm1`` and the subtraction agree bit
        for bit, so boosted batteries at gamma = 1 keep their values."""
        assert boost_mass(1.0) == 1.0 - math.exp(-1.0)

    def test_forced_full_scale_update(self):
        """From the origin the query point s * 0 does not depend on the drawn
        scale s, so the first step is eta * (1 - 1/e) * grad(0)."""
        obj = one_dim_nqp()
        cfg = RunConfig("boosted_pga", 1, step_rule=StepRule("inv_sqrt", 0.1),
                        init_rule="zero", returned_convention="last_iterate")
        rec = run_trial(obj, NoiseModel.none(), cfg)
        assert rec.iterates[0, 0] == pytest.approx(0.1 * ONE_MINUS_INV_E, abs=1e-12)

    def test_forced_full_scale_update_at_small_gamma(self):
        """The first step from the origin scales grad(0) = 1 by
        ``(1 - exp(-gamma)) / gamma = 1 - gamma/2 + gamma^2/6 - ...``, which
        keeps its leading digits at gamma = 1e-8."""
        gamma = 1e-8
        cfg = RunConfig("boosted_pga", 1, step_rule=StepRule("inv_sqrt", 0.1), gamma=gamma,
                        init_rule="zero", returned_convention="last_iterate")
        rec = run_trial(one_dim_nqp(), NoiseModel.none(), cfg)
        assert rec.iterates[0, 0] == pytest.approx(
            0.1 * (1.0 - gamma / 2.0 + gamma**2 / 6.0), rel=1e-15, abs=0.0)

    def test_estimator_unbiased_against_quadrature(self):
        """Monte Carlo mean of the reweighted estimator matches the Simpson
        quadrature of the auxiliary gradient within 3 standard errors."""
        obj = generate_nqp(6, 2, 0, -1.0, 0.0)
        x = np.array([0.8, 0.5])
        rng = np.random.default_rng(17)
        for gamma in (1.0, 0.6):
            factor = (1.0 - math.exp(-gamma)) / gamma
            n_draws = 100_000
            draws = np.empty((n_draws, 2))
            for i in range(n_draws):
                s = boost_s_from_uniform(float(rng.random()), gamma)
                draws[i] = factor * obj.grad(s * x)
            # composite Simpson, 10^4 panels
            n_sub = 10_000
            s_nodes = np.linspace(0.0, 1.0, n_sub + 1)
            w = np.ones(n_sub + 1)
            w[1:-1:2] = 4.0
            w[2:-1:2] = 2.0
            w *= (1.0 / n_sub) / 3.0
            g_nodes = (s_nodes[:, None] * x) @ obj.h_matrix + obj.h_vector
            target = (w[:, None] * np.exp(gamma * (s_nodes[:, None] - 1.0)) * g_nodes).sum(axis=0)
            se = draws.std(axis=0) / math.sqrt(n_draws)
            assert np.all(np.abs(draws.mean(axis=0) - target) <= 3 * se)


class TestScg:
    def test_hand_iteration(self):
        rec = run_trial(one_dim_nqp(), NoiseModel.none(), RunConfig("scg", 4))
        np.testing.assert_allclose(rec.iterates.ravel(), [0.25, 0.5, 0.75, 1.0], atol=1e-15)
        np.testing.assert_allclose(rec.f_true, [0.21875, 0.375, 0.46875, 0.5], atol=1e-15)
        assert rec.returned_value == pytest.approx(0.5, abs=1e-15)

    def test_single_step_lands_on_vertex(self):
        obj = generate_nqp(9, 2, 1, -1.0, 0.0)
        rec = run_trial(obj, NoiseModel.none(), RunConfig("scg", 1))
        verts = enumerate_vertices(obj.polytope)
        assert np.min(np.linalg.norm(verts - rec.iterates[0], axis=1)) <= 1e-8

    def test_alpha_momentum_runs(self):
        cfg = RunConfig("scg", 10, momentum_rule=MomentumRule("alpha", 0.5))
        rec = run_trial(one_dim_nqp(), NoiseModel.gaussian_fixed(0.1), cfg)
        assert rec.f_true.shape == (10,)


class TestScgpp:
    def test_exact_path_integration_matches_full_momentum_greedy(self):
        """Constant Hessian and exact oracles telescope to the exact gradient,
        so the trajectory is Frank-Wolfe on the exact gradient with step 1/T."""
        obj = generate_nqp(10, 3, 1, -1.0, 0.0)
        T = 12
        rec = run_trial(obj, NoiseModel.none(), RunConfig("scgpp", T))
        x = np.zeros(3)
        for t in range(T):
            x = x + lmo(obj.polytope, obj.grad(x)) / T
            np.testing.assert_allclose(rec.iterates[t], x, atol=1e-12)

    def test_one_dim_reaches_optimum(self):
        rec = run_trial(one_dim_nqp(), NoiseModel.none(), RunConfig("scgpp", 4))
        assert rec.iterates[-1, 0] == pytest.approx(1.0, abs=1e-12)
        assert rec.returned_value == pytest.approx(0.5, abs=1e-12)

    def test_batch_one_exact_for_constant_hessian(self):
        obj = generate_nqp(11, 2, 0, -1.0, 0.0)
        a = run_trial(obj, NoiseModel.none(), RunConfig("scgpp", 6, batch_size=1))
        b = run_trial(obj, NoiseModel.none(), RunConfig("scgpp", 6))
        np.testing.assert_allclose(a.iterates, b.iterates, atol=1e-12)

    def test_runs_on_budget_objective(self):
        """The Hessian oracle route also works for the non-quadratic family."""
        obj = generate_budget(31, 3, 4, density=0.7, p_low=0.2, p_high=0.7, k=2)
        noise = NoiseModel.gaussian_fixed(0.1, hessian_sigma=0.02)
        rec = run_trial(obj, noise, RunConfig("scgpp", 20, batch_size=4))
        assert rec.returned_value > 0.0
        for x in rec.iterates:
            assert contains(obj.polytope, x, 1e-6)

    def test_displacement_estimate_unbiased(self):
        """Monte Carlo mean of the aggregated noisy Hessian-vector product
        with the displacement, at ``b`` uniform points between two iterates,
        matches the exact value within the CLT tolerance of its deviation
        ``(s / sqrt(b)) ||d||``."""
        obj = generate_nqp(12, 3, 0, -1.0, 0.0)
        hs, batch = 0.2, 4
        st = OracleStream(obj, NoiseModel.gaussian_fixed(1.0, hessian_sigma=hs), 0, 0)
        x_new = np.array([0.3, 0.2, 0.1])
        x_old = np.array([0.1, 0.1, 0.1])
        step = x_new - x_old
        n_draws = 10_000
        total = np.zeros(3)
        for _ in range(n_draws):
            total += st.hessian(x_old, x_new, st.rng.random(batch), step)
        mean = total / n_draws
        exact = obj.h_matrix @ step
        tol = 4 * hs / math.sqrt(batch) * np.linalg.norm(step) / math.sqrt(n_draws)
        assert np.all(np.abs(mean - exact) <= tol)

    @pytest.mark.parametrize("objective", [
        generate_nqp(12, 3, 1, -1.0, 0.0),
        generate_budget(31, 3, 4, density=0.7, p_low=0.2, p_high=0.7, k=2),
    ], ids=["nqp", "budget"])
    def test_one_query_of_each_kind_per_iteration(self, objective, monkeypatch):
        """An SCG++ trial makes one batched gradient query, then one Hessian
        query of ``batch`` weights per later iteration, whatever the
        objective."""
        calls = []
        for name in ("grad", "hessian"):
            original = getattr(OracleStream, name)

            def spy(stream, *args, _name=name, _original=original):
                calls.append((_name, args[-1] if _name == "grad" else len(args[2])))
                return _original(stream, *args)
            monkeypatch.setattr(OracleStream, name, spy)
        noise = NoiseModel.gaussian_fixed(0.1, hessian_sigma=0.02)
        run_trial(objective, noise, RunConfig("scgpp", 7, batch_size=5))
        assert calls == [("grad", 5)] + [("hessian", 5)] * 6


class TestTrajectoryInvariants:
    @pytest.mark.parametrize("algorithm", ["pga", "boosted_pga", "scg", "scgpp"])
    def test_every_iterate_feasible(self, algorithm):
        obj = generate_nqp(13, 4, 2, -1.0, 0.0)
        cfg = RunConfig(algorithm, 40, master_seed=1, **batched(algorithm, 2))
        rec = run_trial(obj, NoiseModel.gaussian_prop(1.0), cfg)
        for x in rec.iterates:
            assert contains(obj.polytope, x, 1e-6)

    @pytest.mark.parametrize("algorithm", ["pga", "boosted_pga"])
    def test_paper_scale_projected_ascent_stays_feasible(self, algorithm):
        """At 100 x 50 the default step 2/sqrt(t) times a gradient of about
        5e3 per coordinate sends every update about 10^5 outside the region,
        starting from a projected standard-normal point."""
        obj = generate_nqp(123, 100, 50, -100.0, 0.0)
        cfg = RunConfig(algorithm, 20, master_seed=3)
        assert cfg.step_rule == StepRule() and cfg.init_rule == "gaussian_project"
        rec = run_trial(obj, NoiseModel.clipped_gaussian(1000.0), cfg)
        assert rec.iterates.shape == (20, 100)
        for x in rec.iterates:
            assert contains(obj.polytope, x, 1e-9)

    def test_running_average_matches_prefix_means(self):
        obj = generate_nqp(14, 3, 1, -1.0, 0.0)
        rec = run_trial(obj, NoiseModel.gaussian_fixed(0.3), RunConfig("pga", 200))
        for t in (1, 7, 100, 200):
            exact = math.fsum(rec.f_true[:t]) / t
            assert abs(running_average(rec.f_true)[t - 1] - exact) <= 1e-12

    def test_running_average_of_a_matrix_is_that_of_each_row(self):
        """Bit for bit: the rows of a battery get the averages their records got."""
        f = np.random.default_rng(17).normal(size=(4, 30))
        avg = running_average(f)
        for row, row_avg in zip(f, avg):
            np.testing.assert_array_equal(running_average(row), row_avg)
            np.testing.assert_array_equal(np.cumsum(row) / np.arange(1, 31), row_avg)

    @pytest.mark.parametrize("algorithm", ["pga", "boosted_pga", "scg"])
    def test_projected_ascent_trajectories_are_prefixes_across_horizons(self, algorithm):
        """A projected ascent step depends on t alone and the returned-iterate
        draw follows the loop, so a horizon-t trial repeats the first t values
        of the horizon-T trial bit for bit.  A greedy step is 1/T, so a
        shorter greedy trial is not a prefix."""
        obj = generate_nqp(18, 4, 2, -1.0, 0.0)
        noise = NoiseModel.gaussian_fixed(0.3)
        T = 8
        for run_id in range(3):
            full = run_trial(obj, noise, RunConfig(algorithm, T, master_seed=5, run_id=run_id))
            for t in range(1, T):
                short = run_trial(obj, noise, RunConfig(algorithm, t, master_seed=5,
                                                        run_id=run_id))
                prefix = (np.array_equal(short.f_true, full.f_true[:t]) and np.array_equal(
                    running_average(short.f_true), running_average(full.f_true)[:t]))
                assert prefix == (algorithm != "scg"), (run_id, t)

    def test_greedy_steps_are_scaled_vertices(self):
        """T times each greedy displacement is a vertex, so the final point is
        a convex combination of vertices."""
        obj = generate_nqp(15, 2, 1, -1.0, 0.0)
        T = 25
        rec = run_trial(obj, NoiseModel.gaussian_fixed(0.5), RunConfig("scg", T))
        verts = enumerate_vertices(obj.polytope)
        prev = np.zeros(2)
        steps = []
        for x in rec.iterates:
            v = T * (x - prev)
            steps.append(v)
            prev = x
            assert np.min(np.linalg.norm(verts - v, axis=1)) <= 1e-8
        np.testing.assert_allclose(rec.iterates[-1], np.mean(steps, axis=0), atol=1e-12)

    def test_noise_free_sanity_all_algorithms(self):
        obj = one_dim_nqp()
        assert run_trial(obj, NoiseModel.none(), RunConfig("scg", 200)).returned_value >= 0.499
        assert run_trial(obj, NoiseModel.none(), RunConfig("scgpp", 200)).returned_value >= 0.499
        pga = run_trial(obj, NoiseModel.none(),
                        RunConfig("pga", 200, returned_convention="last_iterate"))
        assert pga.returned_value >= 0.499
        boosted = run_trial(obj, NoiseModel.none(),
                            RunConfig("boosted_pga", 200, returned_convention="last_iterate"))
        assert boosted.returned_value >= 0.499

    @pytest.mark.parametrize("algorithm", ["pga", "boosted_pga", "scg", "scgpp"])
    def test_bit_identical_reruns(self, algorithm):
        obj = generate_nqp(16, 3, 1, -1.0, 0.0)
        cfg = RunConfig(algorithm, 25, master_seed=9, run_id=3, **batched(algorithm, 2))
        noise = NoiseModel.clipped_gaussian(0.3)
        a = run_trial(obj, noise, cfg)
        b = run_trial(obj, noise, cfg)
        np.testing.assert_array_equal(a.iterates, b.iterates)
        np.testing.assert_array_equal(a.f_true, b.f_true)
        assert a.returned_value == b.returned_value


class TestWarmStartedTrials:
    """Each greedy trial owns its LMO warm start, so trials stay functions of
    ``(master_seed, run_id)``."""

    @pytest.mark.parametrize("algorithm", ["scg", "scgpp"])
    def test_rerun_is_bit_identical_after_another_trial(self, algorithm):
        obj = generate_nqp(17, 10, 5, -1.0, 0.0)
        noise = NoiseModel.clipped_gaussian(4.0)
        cfg = RunConfig(algorithm, 40, master_seed=2, run_id=1, **batched(algorithm, 5))
        a = run_trial(obj, noise, cfg)
        run_trial(obj, noise, RunConfig(algorithm, 40, master_seed=2, run_id=0,
                                        **batched(algorithm, 5)))
        b = run_trial(obj, noise, cfg)
        np.testing.assert_array_equal(a.iterates, b.iterates)
        np.testing.assert_array_equal(a.f_true, b.f_true)
        assert a.returned_value == b.returned_value

    @pytest.mark.parametrize("algorithm", ["scg", "scgpp"])
    def test_battery_is_the_same_serial_and_in_a_pool(self, algorithm):
        obj = generate_nqp(18, 10, 5, -1.0, 0.0)
        noise = NoiseModel.clipped_gaussian(4.0)
        cfg = RunConfig(algorithm, 30, master_seed=4, **batched(algorithm, 5))
        serial = list(run_battery(obj, noise, cfg, 4, workers=1))
        pooled = list(run_battery(obj, noise, cfg, 4, workers=2))
        assert [r.config.run_id for r in pooled] == [0, 1, 2, 3]
        for a, b in zip(serial, pooled):
            np.testing.assert_array_equal(a.iterates, b.iterates)
            np.testing.assert_array_equal(a.f_true, b.f_true)
            assert a.returned_value == b.returned_value

    def test_paper_scale_scg_trial(self):
        """A 100 x 50 SCG trial at the paper's horizon T = 1000: no LMO call
        raises, and the final iterate is feasible."""
        obj = generate_nqp(123, 100, 50, -100.0, 0.0)
        rec = run_trial(obj, NoiseModel.clipped_gaussian(1000.0), RunConfig("scg", 1000))
        assert rec.iterates.shape == (1000, 100)
        assert contains(obj.polytope, rec.iterates[-1], 1e-9)
        assert np.isfinite(rec.returned_value)


class TestCsvOutput:
    def test_layout_and_precision(self, tmp_path):
        obj = one_dim_nqp()
        recs = list(run_battery(obj, NoiseModel.gaussian_fixed(0.2), RunConfig("scg", 3), 2))
        path = tmp_path / "battery.csv"
        records_to_csv(recs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "run_id,algorithm,t,f_true,f_running_avg"
        assert len(lines) == 1 + 2 * 3
        rid, alg, t, f, avg = lines[1].split(",")
        assert (rid, alg, t) == ("0", "scg", "1")
        assert float(f) == recs[0].f_true[0]  # 17 significant digits round-trip
        assert float(avg) == running_average(recs[0].f_true)[0] == recs[0].f_true[0]

    def test_returns_the_returned_values_in_the_order_written(self, tmp_path):
        recs = list(run_battery(one_dim_nqp(), NoiseModel.gaussian_fixed(0.2),
                                RunConfig("pga", 4), 3))[::-1]
        returned = records_to_csv(iter(recs), tmp_path / "battery.csv")
        assert returned == [rec.returned_value for rec in recs]
        rows = (tmp_path / "battery.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows[::4]] == ["2", "1", "0"]
