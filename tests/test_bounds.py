import math
import warnings

import numpy as np
import pytest

from drsubmax.bounds import (
    THEOREMS,
    BoundConstants,
    BoundCurve,
    boosted_constants,
    bound_curve,
    constants_for,
    gamma_fn,
    k_constant,
    momentum_series_check,
    save_bound_curve,
    spectral_norm,
    theorem1_bound,
    theorem2_bound,
    theorem3_bound,
    theorem4_bound,
    theorem5_bound,
)
from drsubmax.geometry import Polytope
from drsubmax.objectives import NqpObjective, generate_budget, generate_nqp
from drsubmax.optimizers import MomentumRule, RunConfig
from drsubmax.oracles import NoiseModel

ONE_MINUS_INV_E = 1.0 - math.exp(-1.0)

UNIT = BoundConstants(lipschitz=1.0, diameter=1.0, noise_bound=1.0,
                      noise_sigma=1.0, opt=1.0, grad0_norm=1.0)

# the algorithm each theorem's docstring bounds
BOUNDED = {"theorem1": "pga", "theorem2": "boosted_pga", "theorem3": "scg",
           "theorem4": "scg", "theorem5": "scgpp"}


def paired(name, T, alpha=0.5, gamma=1.0):
    """A trial of the algorithm theorem ``name`` bounds (``scg`` for an unknown
    name), under the ``alpha`` momentum rule for theorem4."""
    rule = MomentumRule("alpha", alpha) if name == "theorem4" else MomentumRule()
    return RunConfig(BOUNDED.get(name, "scg"), T, gamma=gamma, momentum_rule=rule)


class TestSpectralNorm:
    def test_scalar(self):
        assert spectral_norm([[-1.0]]) == pytest.approx(1.0, rel=1e-10)

    def test_diagonal(self):
        assert spectral_norm(np.diag([-2.0, -1.0])) == pytest.approx(2.0, rel=1e-10)

    @staticmethod
    def assert_upper_bound(h):
        """``L`` lies on or just above the spectral norm: never more than
        1e-13 below it (rounding), and within 1e-12 above it."""
        expected = float(np.max(np.abs(np.linalg.eigvalsh(h))))
        assert expected * (1 - 1e-13) <= spectral_norm(h) <= expected * (1 + 1e-12)

    def test_random_symmetric_matches_eigen_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            h = rng.uniform(-1.0, 0.0, size=(5, 5))
            self.assert_upper_bound(np.triu(h) + np.triu(h, 1).T)

    def test_paper_scale_matrix(self):
        rng = np.random.default_rng(43)
        h = rng.uniform(-100.0, 0.0, size=(100, 100))
        self.assert_upper_bound(np.triu(h) + np.triu(h, 1).T)
        self.assert_upper_bound(generate_nqp(123, 100, 50, -100.0, 0.0).h_matrix)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            spectral_norm(np.ones((2, 3)))

    def test_reducible_budget_hessian(self):
        """The budget Hessian with several advertisers is block-diagonal, so
        the iteration cannot make its Collatz-Wielandt ratios agree."""
        obj = generate_budget(4, 5, 8, 0.6, 0.2, 0.7, k=3, alphas=[0.5, 0.3, 0.2])
        self.assert_upper_bound(obj.hessian(np.zeros(obj.dim)))

    def test_zero_row(self):
        h = np.array([[-2.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, -3.0]])
        self.assert_upper_bound(h)
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_positive_entry_rejected(self):
        with pytest.raises(ValueError, match="<= 0"):
            spectral_norm([[-1.0, 0.5], [0.5, -1.0]])


class TestGammaFunction:
    def test_factorial_identity_exact(self):
        assert gamma_fn(1.0) == 1.0
        assert gamma_fn(2.0) == 1.0
        assert gamma_fn(5.0) == 24.0

    def test_half_is_sqrt_pi(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-10)

    def test_four_and_a_half(self):
        # recurrence from sqrt(pi): 3.5 * 2.5 * 1.5 * 0.5 * Gamma(0.5)
        expected = 3.5 * 2.5 * 1.5 * 0.5 * math.sqrt(math.pi)
        assert gamma_fn(4.5) == pytest.approx(expected, rel=1e-10)

    def test_recurrence_identity(self):
        rng = np.random.default_rng(42)
        for x in rng.uniform(0.5, 10.0, size=100):
            assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-9)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            gamma_fn(0.0)
        with pytest.raises(ValueError):
            gamma_fn(-1.5)
        with pytest.raises(ValueError):
            gamma_fn(math.nan)


class TestMomentumConstant:
    def test_half_gives_exactly_two(self):
        assert k_constant(0.5) == 2.0

    def test_two_thirds(self):
        assert k_constant(2.0 / 3.0) == pytest.approx(6.0, rel=1e-9)

    def test_small_alpha_composition(self):
        inv = 1.0 / 0.99
        assert k_constant(0.01) == pytest.approx(inv * gamma_fn(inv), abs=0)

    def test_range_enforced(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                k_constant(bad)

    def test_overflow_near_one_names_alpha(self):
        # 1/(1 - alpha) = 200 lies beyond where Gamma overflows a float
        with pytest.raises(ValueError, match="alpha"):
            k_constant(0.995)

    def test_series_first_term_vanishes(self):
        assert momentum_series_check(0.5, 1) == 0.0

    @pytest.mark.parametrize("alpha", [0.0, 1.0, float("nan")])
    def test_series_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            momentum_series_check(alpha, 10)

    def test_series_horizon_must_be_a_positive_integer(self):
        for bad in (2.5, 0, -3, True):
            with pytest.raises(ValueError, match="T must be an integer >= 1"):
                momentum_series_check(0.5, bad)

    def test_series_partial_sums_frozen(self):
        # direct summation oracles, frozen after independent evaluation
        assert momentum_series_check(0.5, 10_000) == pytest.approx(0.615930212021, abs=1e-9)
        assert momentum_series_check(2.0 / 3.0, 10_000) == pytest.approx(4.258770176427, abs=1e-9)

    def test_series_never_exceeds_constant(self):
        for alpha in (0.3, 0.5, 2.0 / 3.0, 0.9):
            cap = k_constant(alpha)
            for horizon in (10, 1_000, 100_000):
                assert momentum_series_check(alpha, horizon) <= cap


class TestTheorem1:
    def test_frozen_example(self):
        val = theorem1_bound(UNIT, 100, 0.01)
        assert val == pytest.approx(-0.064242712938514635, abs=1e-12)

    def test_noise_free_drops_deviation_term(self):
        c = BoundConstants(lipschitz=1.0, diameter=1.0, noise_bound=0.0, opt=1.0)
        expected = 0.5 - (8.0 + 1.0) / 8.0 / math.sqrt(50.0)
        for delta in (0.9, 0.1, 0.001):
            assert theorem1_bound(c, 50, delta) == pytest.approx(expected, abs=1e-15)

    def test_unbounded_noise_rejected(self):
        c = BoundConstants(lipschitz=1.0, diameter=1.0, noise_bound=math.inf, opt=1.0)
        with pytest.raises(ValueError, match="M"):
            theorem1_bound(c, 10, 0.1)
        with pytest.raises(ValueError, match="M"):
            theorem2_bound(c, 10, 0.1)

    def test_delta_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            theorem1_bound(UNIT, 10, 1.5)

    def test_shrinking_confidence_substitution(self):
        # delta = exp(-sqrt(T)) turns the deviation term into
        # D M / (sqrt(2) T^(1/4)), so the bound still converges; horizons are
        # capped where exp(-sqrt(T)) stays a normal double
        for horizon in (16, 10_000, 250_000):
            delta = math.exp(-math.sqrt(horizon))
            big_c = (8.0 * (1.0 + 1.0) ** 2 + 1.0) / 8.0
            expected = 0.5 - big_c / math.sqrt(horizon) \
                - 1.0 / (math.sqrt(2.0) * horizon**0.25)
            assert theorem1_bound(UNIT, horizon, delta) == pytest.approx(
                expected, abs=1e-12)


class TestTheorem2:
    def test_auxiliary_constants_at_gamma_one(self):
        l_aux, m_aux = boosted_constants(UNIT, 1.0)
        assert m_aux == pytest.approx(1.8963616764856730, abs=1e-12)
        assert l_aux == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_auxiliary_constants_general_gamma(self):
        gamma = 0.5
        l_aux, m_aux = boosted_constants(UNIT, gamma)
        shrink = (1.0 - math.exp(-gamma)) / gamma
        assert m_aux == pytest.approx(3.0 * shrink, abs=1e-12)
        assert l_aux == pytest.approx(
            (gamma + math.exp(-gamma) - 1.0) / gamma**2, abs=1e-12)

    @pytest.mark.parametrize("gamma", [1e-8, 1e-6, 1e-4])
    def test_smoothness_at_small_gamma(self, gamma):
        """``(gamma + exp(-gamma) - 1) / gamma^2`` against its series
        ``1/2 - gamma/6 + gamma^2/24``; what cancellation is left in
        ``gamma + expm1(-gamma)`` is a relative error of a few ulps / gamma."""
        l_aux, _ = boosted_constants(UNIT, gamma)
        assert l_aux == pytest.approx(0.5 - gamma / 6.0 + gamma**2 / 24.0, rel=1e-15 / gamma)

    @pytest.mark.parametrize("gamma", [1e-8, 1e-6, 1e-4])
    def test_noise_shrink_at_small_gamma(self, gamma):
        """``M_aux = (M + 2 L D) (1 - exp(-gamma)) / gamma`` against the series
        of ``(1 - exp(-gamma)) / gamma``; ``M + 2 L D = 3`` for unit constants."""
        _, m_aux = boosted_constants(UNIT, gamma)
        assert m_aux == pytest.approx(
            3.0 * (1.0 - gamma / 2.0 + gamma**2 / 6.0 - gamma**3 / 24.0), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("gamma", [1e-8, 1e-6, 1e-4])
    def test_asymptote_at_small_gamma(self, gamma):
        """With ``L = D = M = 0`` the bound is its asymptote ``(1 - exp(-gamma))
        opt`` at every t, against ``gamma - gamma^2/2 + ...`` for opt = 1."""
        flat = BoundConstants(lipschitz=0.0, diameter=0.0)
        assert theorem2_bound(flat, 10, 0.1, gamma) == pytest.approx(
            gamma - gamma**2 / 2.0 + gamma**3 / 6.0 - gamma**4 / 24.0, rel=1e-15, abs=0.0)

    def test_asymptote(self):
        assert theorem2_bound(UNIT, 1e18, 0.01) == pytest.approx(ONE_MINUS_INV_E, abs=1e-8)


class TestTheorem3:
    def test_start_error_branch_of_q(self):
        bound, _ = theorem3_bound(UNIT, 1000, 3.0)
        q = max(1.0 * 9.0 ** (2.0 / 3.0), 16.0 + 3.0)  # = 19
        expected = (ONE_MINUS_INV_E - 3.0 * 2.0 * math.sqrt(q) / 1000 ** (1 / 3)
                    - 1.0 / (2.0 * 1000**2))
        assert bound == pytest.approx(expected, abs=1e-12)
        big_grad = BoundConstants(lipschitz=1.0, diameter=1.0, noise_sigma=1.0,
                                  opt=1.0, grad0_norm=10.0)
        q_big = 100.0 * 9.0 ** (2.0 / 3.0)
        bound_big, _ = theorem3_bound(big_grad, 1000, 3.0)
        expected_big = (ONE_MINUS_INV_E - 3.0 * 2.0 * math.sqrt(q_big) / 1000 ** (1 / 3)
                        - 1.0 / (2.0 * 1000**2))
        assert bound_big == pytest.approx(expected_big, abs=1e-12)

    def test_probability_arithmetic(self):
        _, prob = theorem3_bound(UNIT, 100, 100.0)
        assert prob == pytest.approx(0.99, abs=1e-15)
        _, floor = theorem3_bound(UNIT, 100, 1.0)
        assert floor == 0.0

    def test_fixed_confidence_substitution(self):
        delta = math.sqrt(1000 / (1.0 - 0.99))
        assert delta == pytest.approx(316.2277660168379, abs=1e-10)
        _, prob = theorem3_bound(UNIT, 1000, delta)
        assert prob == pytest.approx(0.99, abs=1e-12)

    def test_fixed_confidence_deficit_grows_with_horizon(self):
        # holding the confidence level and scaling delta accordingly makes the
        # deficit grow like T^(1/6): this bound does not converge at fixed p
        p = 0.9
        deficits = []
        for horizon in (100, 10_000, 1_000_000):
            delta = math.sqrt(horizon / (1.0 - p))
            bound, prob = theorem3_bound(UNIT, horizon, delta)
            assert prob == pytest.approx(p, abs=1e-12)
            deficits.append(ONE_MINUS_INV_E * UNIT.opt - bound)
        assert deficits[0] < deficits[1] < deficits[2]


class TestTheorem4:
    def test_frozen_example(self):
        val = theorem4_bound(UNIT, 400, 0.01, alpha=0.5)
        assert val == pytest.approx(0.19167735357068823, abs=1e-12)

    def test_noise_free_leaves_curvature_term(self):
        c = BoundConstants(lipschitz=1.0, diameter=1.0, noise_sigma=0.0, opt=1.0)
        k = k_constant(0.5)
        expected = ONE_MINUS_INV_E - (4 * k + 1) / 2.0 / 200.0
        assert theorem4_bound(c, 200, 0.3, 0.5) == pytest.approx(expected, abs=1e-15)

    def test_asymptote(self):
        assert theorem4_bound(UNIT, 1e18, 0.01, 0.5) == pytest.approx(
            ONE_MINUS_INV_E, abs=1e-8)


class TestTheorem5:
    def test_frozen_example(self):
        bound, prob = theorem5_bound(UNIT, 100, 50.0)
        assert bound == pytest.approx(0.13207055882855767, abs=1e-12)
        assert prob == pytest.approx(0.96, abs=1e-15)

    def test_fixed_confidence_form(self):
        # delta = sqrt(T / (1 - p)) turns the leading deficit into
        # L D^2 / (sqrt(1 - p) sqrt(T))
        p, horizon = 0.99, 10_000
        delta = math.sqrt(horizon / (1.0 - p))
        bound, _ = theorem5_bound(UNIT, horizon, delta)
        deficit1 = 1.0 / (math.sqrt(1.0 - p) * math.sqrt(horizon))
        assert deficit1 == pytest.approx(0.1, abs=1e-12)
        expected = ONE_MINUS_INV_E - deficit1 - 1.0 / (2.0 * horizon**2)
        assert bound == pytest.approx(expected, abs=1e-12)

    def test_vacuous_small_delta_limit(self):
        bound, prob = theorem5_bound(UNIT, 100, 1e-12)
        assert prob == 0.0
        assert bound == pytest.approx(ONE_MINUS_INV_E - 1.0 / (2.0 * 100**2), abs=1e-9)


class TestBoundShapeProperties:
    GRID = np.unique(np.round(np.logspace(math.log10(2), 8, 60))).astype(int)

    def _curves(self, c, delta):
        return [
            theorem1_bound(c, self.GRID, delta),
            theorem2_bound(c, self.GRID, delta),
            theorem3_bound(c, self.GRID, 5.0)[0],
            theorem4_bound(c, self.GRID, delta, 0.5),
            theorem5_bound(c, self.GRID, 5.0)[0],
        ]

    def test_nondecreasing_in_horizon(self):
        for curve in self._curves(UNIT, 0.05):
            assert np.all(np.diff(curve) >= -1e-12)

    def test_monotone_in_confidence(self):
        # tighter confidence (smaller delta) weakens the ascent bounds
        assert theorem1_bound(UNIT, 100, 0.001) < theorem1_bound(UNIT, 100, 0.1)
        assert theorem2_bound(UNIT, 100, 0.001) < theorem2_bound(UNIT, 100, 0.1)
        assert theorem4_bound(UNIT, 100, 0.001, 0.5) < theorem4_bound(UNIT, 100, 0.1, 0.5)
        # larger delta weakens the Chebyshev bounds but raises their probability
        b_small, p_small = theorem3_bound(UNIT, 100, 20.0)
        b_large, p_large = theorem3_bound(UNIT, 100, 200.0)
        assert b_large < b_small and p_large > p_small
        b5_small, p5_small = theorem5_bound(UNIT, 100, 20.0)
        b5_large, p5_large = theorem5_bound(UNIT, 100, 200.0)
        assert b5_large < b5_small and p5_large > p5_small

    def test_asymptotes_reached_at_huge_horizon(self):
        horizon = 1e12
        mild = BoundConstants(lipschitz=0.3, diameter=0.3, noise_bound=0.3,
                              noise_sigma=0.3, opt=1.0, grad0_norm=0.3)
        assert abs(theorem1_bound(mild, horizon, 0.01) - 0.5) <= 1e-6
        assert abs(theorem2_bound(mild, horizon, 0.01) - ONE_MINUS_INV_E) <= 1e-6
        assert abs(theorem4_bound(mild, horizon, 0.01, 0.5) - ONE_MINUS_INV_E) <= 1e-6
        tiny = BoundConstants(lipschitz=0.01, diameter=0.1, noise_sigma=0.01,
                              opt=1.0, grad0_norm=0.01)
        assert abs(theorem3_bound(tiny, horizon, 0.1)[0] - ONE_MINUS_INV_E) <= 1e-6
        assert abs(theorem5_bound(mild, horizon, 0.5)[0] - ONE_MINUS_INV_E) <= 1e-6


class TestEvaluatorInputs:
    """A theorem takes a scalar or array ``T``, and rejects inputs its bound
    has no value for."""

    ARGS = {"theorem1": (0.1,), "theorem2": (0.1, 0.5), "theorem3": (30.0,),
            "theorem4": (0.1, 0.5), "theorem5": (30.0,)}

    @pytest.mark.parametrize("name", sorted(THEOREMS))
    def test_scalar_T_is_the_last_entry_of_the_curve(self, name):
        evaluate = globals()[f"{name}_bound"]
        c = BoundConstants(lipschitz=1.3, diameter=2.1, noise_bound=0.7, noise_sigma=0.4,
                           opt=3.0, grad0_norm=1.1)
        for horizon in (1, 7, 1000):
            scalar = evaluate(c, horizon, *self.ARGS[name])
            curve = evaluate(c, np.arange(1, horizon + 1), *self.ARGS[name])
            pairs = zip(scalar, curve) if THEOREMS[name].chebyshev else [(scalar, curve)]
            for value, values in pairs:
                assert isinstance(value, float)
                assert np.array_equal(np.float64(value), values[-1])

    @pytest.mark.parametrize("name", sorted(THEOREMS))
    @pytest.mark.parametrize("T", [math.nan, [3.0, math.nan]], ids=["nan", "nan-entry"])
    def test_nan_T_rejected(self, name, T):
        with pytest.raises(ValueError, match="T must be at least 1"):
            globals()[f"{name}_bound"](UNIT, T, *self.ARGS[name])

    @pytest.mark.parametrize("name", ["theorem3", "theorem5"])
    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_chebyshev_delta_must_be_finite(self, name, delta):
        with pytest.raises(ValueError, match="delta must be finite and positive"):
            globals()[f"{name}_bound"](UNIT, 10, delta)

    @pytest.mark.parametrize("name", ["theorem3", "theorem5"])
    @pytest.mark.parametrize("delta", [1e-300, 1e300, -1.0])
    def test_chebyshev_delta_square_must_be_a_positive_float(self, name, delta):
        """delta^2 underflows to 0 at 1e-300, where t / delta^2 would divide by
        zero, and overflows at 1e300."""
        with pytest.raises(ValueError, match="its square a positive float"):
            globals()[f"{name}_bound"](UNIT, 10, delta)

    @pytest.mark.parametrize("key,value", [
        (key, value) for key in ("lipschitz", "diameter", "noise_bound", "noise_sigma", "opt",
                                 "grad0_norm") for value in (math.nan, math.inf)
        if (key, value) != ("noise_bound", math.inf)  # unclipped Gaussians have M = inf
    ])
    def test_constants_must_be_finite(self, key, value):
        with pytest.raises(ValueError, match="finite"):
            BoundConstants(**{"lipschitz": 1.0, "diameter": 1.0, key: value})


class TestConstantsAssembly:
    def test_nqp_constants(self):
        obj = generate_nqp(55, 5, 1, -1.0, 0.0)
        noise = NoiseModel.clipped_gaussian(0.1)
        c = constants_for(obj, noise, opt=2.0)
        assert c.lipschitz == pytest.approx(
            float(np.max(np.abs(np.linalg.eigvalsh(obj.h_matrix)))), rel=1e-8)
        assert c.diameter == pytest.approx(math.sqrt(5.0), abs=1e-12)
        assert c.noise_bound == pytest.approx(2 * 0.1 * math.sqrt(5.0), abs=1e-12)
        assert c.grad0_norm == pytest.approx(float(np.linalg.norm(obj.h_vector)), abs=1e-12)

    @pytest.mark.parametrize("noise", [NoiseModel.none(), NoiseModel.gaussian_prop(1.0)])
    @pytest.mark.parametrize("instance", ["generated", "row-sums"])
    def test_overflowing_constants_rejected_without_warning(self, instance, noise):
        """Entries near -1e160 overflow the gradient norm at the origin and
        the Perron iteration's first product; entries near -1e308 with a
        small box overflow the row sums it starts from.  Either way the
        smoothness constant is inf, rejected by ``BoundConstants`` as a
        ``ValueError``, and no numpy warning is emitted, nor by
        ``spectral_norm`` alone, which returns that inf."""
        if instance == "generated":
            obj = generate_nqp(3, 4, 2, -1e160, 0.0)
        else:
            obj = NqpObjective(np.full((4, 4), -1e308), Polytope.box(np.full(4, 1e-10)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^lipschitz overflows a float"):
                constants_for(obj, noise, opt=1.0)
            assert spectral_norm(obj.hessian(np.zeros(obj.dim))) == math.inf

    @pytest.mark.parametrize("key", ["lipschitz", "grad0_norm"])
    def test_infinite_computed_constant_named(self, key):
        with pytest.raises(ValueError, match=f"^{key} overflows a float"):
            BoundConstants(**{"lipschitz": 1.0, "diameter": 1.0, key: math.inf})

    def test_prop_noise_needs_gradient_bound(self):
        obj = NqpObjective([[-1.0]], Polytope.box([1.0]))
        c = constants_for(obj, NoiseModel.gaussian_prop(1.0), opt=1.0)
        assert c.noise_sigma == pytest.approx(1.0, abs=1e-12)


class TestBoundCurveEntry:
    """``bound_curve`` reads a config's bounds entry: it checks the entry
    against its theorem and evaluates it over ``t = 1..T``."""

    def test_theorem_table(self):
        table = {name: (spec.params, spec.chebyshev, spec.algorithm)
                 for name, spec in THEOREMS.items()}
        assert table == {
            "theorem1": ({}, False, "pga"),
            "theorem2": ({"gamma": 1.0}, False, "boosted_pga"),
            "theorem3": ({}, True, "scg"),
            "theorem4": ({"alpha": 0.5}, False, "scg"),
            "theorem5": ({}, True, "scgpp"),
        }
        # bound_curve casts an entry's value to float, each default's type
        assert [(key, type(value)) for key, value in THEOREMS["theorem2"].params.items()] == [
            ("gamma", float)]

    @pytest.mark.parametrize("name", sorted(THEOREMS))
    def test_p_maps_to_delta(self, name):
        curve = bound_curve({"theorem": name, "p": 0.75}, UNIT, paired(name, 20))
        delta = math.sqrt(20 / 0.25) if name in ("theorem3", "theorem5") else 0.25
        assert dict(curve.meta)["delta"] == pytest.approx(delta, rel=1e-15)
        assert curve.label == name
        assert curve.bound.shape == (20,)
        same = bound_curve({"theorem": name, "delta": dict(curve.meta)["delta"]}, UNIT,
                           paired(name, 20))
        assert np.array_equal(curve.bound, same.bound)

    def test_default_alpha_echoed(self, tmp_path):
        curve = bound_curve({"theorem": "theorem4", "delta": 0.01}, UNIT, paired("theorem4", 5))
        path = tmp_path / "bound.csv"
        save_bound_curve(path, curve)
        lines = path.read_text().splitlines()
        assert "# alpha=0.5" in lines and "# K=2" in lines
        assert np.array_equal(curve.bound, theorem4_bound(UNIT, np.arange(1, 6), 0.01))

    @pytest.mark.parametrize("entry", [
        {"theorem": "theorem9", "delta": 0.1},
        {"theorem": "theorem3", "delta": 100, "gamma": 0.3},
        {"theorem": "theorem4", "deltta": 0.1},
        {"theorem": "theorem2"},
        {"theorem": "theorem5", "delta": 1.0, "p": 0.5},
        {"theorem": "theorem4", "delta": True},
        {"theorem": "theorem3", "p": "high"},
        {"theorem": "theorem2", "delta": 0.1, "gamma": float("nan")},
        {"theorem": "theorem5", "delta": 1.0, "main_text_exponent": 1},
        {"theorem": "theorem3", "p": 1.5},
        {"theorem": "theorem1", "delta": 0.0},
        {"theorem": "theorem2", "delta": 0.1, "gamma": 2.0},
        {"theorem": "theorem4", "delta": 0.01, "alpha": 0.995},
    ])
    def test_every_error_names_the_theorem(self, entry):
        name = entry["theorem"]
        trial = paired(name, 10, alpha=entry.get("alpha", 0.5))
        with pytest.raises(ValueError, match=f"^{name}: "):
            bound_curve(entry, UNIT, trial)

    def test_foreign_keys_named(self):
        entry = {"theorem": "theorem1", "delta": 0.01, "alpha": 0.9, "main_text_exponent": True}
        with pytest.raises(ValueError, match="^theorem1: .*alpha, main_text_exponent"):
            bound_curve(entry, UNIT, paired("theorem1", 10))

    @pytest.mark.parametrize("name,constant", [
        ("theorem1", {"lipschitz": 1e160}), ("theorem2", {"lipschitz": 1e160}),
        ("theorem1", {"noise_bound": 1e200}), ("theorem3", {"noise_sigma": 1e200}),
        ("theorem3", {"grad0_norm": 1e200}),
    ])
    def test_overflowing_constant_names_the_theorem(self, name, constant):
        """A constant whose square overflows a float (``**`` raises
        ``OverflowError``) is the entry's ``ValueError``."""
        c = BoundConstants(**{"lipschitz": 1.0, "diameter": 1.0, "noise_bound": 1.0,
                              "noise_sigma": 1.0, "opt": 1.0, "grad0_norm": 1.0,
                              **constant})
        delta = 10.0 if THEOREMS[name].chebyshev else 0.1
        with pytest.raises(ValueError, match=f"^{name}: a constant of the bound overflows"):
            bound_curve({"theorem": name, "delta": delta}, c, paired(name, 10))

    def test_unbounded_noise_names_the_theorem(self):
        unbounded = BoundConstants(1.0, 1.0, noise_bound=math.inf, noise_sigma=1.0)
        with pytest.raises(ValueError, match="^theorem2: bounded gradient error"):
            bound_curve({"theorem": "theorem2", "delta": 0.1}, unbounded, paired("theorem2", 10))

    @pytest.mark.parametrize("name", sorted(THEOREMS))
    def test_theorem_bounds_only_its_algorithm(self, name):
        # each algorithm's trial sets only what it reads: scg the alpha momentum rule
        own = {"scg": {"momentum_rule": MomentumRule("alpha", 0.5)}}
        for algorithm in {"pga", "boosted_pga", "scg", "scgpp"} - {BOUNDED[name]}:
            trial = RunConfig(algorithm, 10, **own.get(algorithm, {}))
            with pytest.raises(ValueError, match=f"^{name}: bounds {BOUNDED[name]} batteries, "
                                                 f"not {algorithm}$"):
                bound_curve({"theorem": name, "delta": 0.5}, UNIT, trial)

    def test_theorem4_needs_the_alpha_momentum_rule(self):
        trial = RunConfig("scg", 10, momentum_rule=MomentumRule("poly48"))
        message = "^theorem4: bounds the alpha momentum rule, not poly48$"
        with pytest.raises(ValueError, match=message):
            bound_curve({"theorem": "theorem4", "delta": 0.1}, UNIT, trial)

    def test_trial_fixes_alpha_and_gamma(self):
        """An entry that omits ``alpha`` or ``gamma`` gets the trial's, not the
        theorem's default; one that repeats it gets the same curve."""
        t = np.arange(1, 11)
        for entry, trial, expected in (
            ({"theorem": "theorem4", "delta": 0.1}, paired("theorem4", 10, alpha=0.3),
             theorem4_bound(UNIT, t, 0.1, alpha=0.3)),
            ({"theorem": "theorem2", "delta": 0.1}, paired("theorem2", 10, gamma=0.5),
             theorem2_bound(UNIT, t, 0.1, gamma=0.5)),
        ):
            key, value = ("alpha", 0.3) if entry["theorem"] == "theorem4" else ("gamma", 0.5)
            curve = bound_curve(entry, UNIT, trial)
            assert np.array_equal(curve.bound, expected)
            assert dict(curve.meta)[key] == value
            repeated = bound_curve({**entry, key: value}, UNIT, trial)
            assert np.array_equal(repeated.bound, expected)

    @pytest.mark.parametrize("entry,trial,message", [
        ({"theorem": "theorem4", "delta": 0.1, "alpha": 0.3}, paired("theorem4", 10),
         "alpha 0.3 differs from the trial's 0.5"),
        ({"theorem": "theorem2", "delta": 0.1, "gamma": 1.0}, paired("theorem2", 10, gamma=0.5),
         "gamma 1.0 differs from the trial's 0.5"),
    ], ids=["alpha", "gamma"])
    def test_entry_may_not_restate_the_trial(self, entry, trial, message):
        with pytest.raises(ValueError, match=f"^{entry['theorem']}: {message}$"):
            bound_curve(entry, UNIT, trial)


class TestBoundCurveSerialization:
    def test_round_trip_with_probability(self, tmp_path):
        t = np.arange(1, 6)
        bound, prob = theorem5_bound(UNIT, t, 3.0)
        curve = BoundCurve("theorem5", bound, prob, (("delta", 3.0),))
        path = tmp_path / "bound.csv"
        save_bound_curve(path, curve)
        lines = path.read_text().splitlines()
        assert lines[:3] == ["# theorem5", "# delta=3", "t,bound_value,prob"]
        rows = [line.split(",") for line in lines[3:]]
        # 17 significant digits read back to the same doubles
        assert [int(row[0]) for row in rows] == list(t)
        assert [float(row[1]) for row in rows] == list(bound)
        assert [float(row[2]) for row in rows] == list(prob)
        assert float(rows[2][1]) == curve.at(3) == bound[2]
        for t in (0, 6):
            with pytest.raises(ValueError, match=f"no entry for t={t}"):
                curve.at(t)

    def test_probability_column_empty_when_not_applicable(self, tmp_path):
        t = np.arange(1, 4)
        curve = BoundCurve("theorem1", theorem1_bound(UNIT, t, 0.1))
        path = tmp_path / "b1.csv"
        save_bound_curve(path, curve)
        lines = path.read_text().splitlines()
        assert lines[:2] == ["# theorem1", "t,bound_value,prob"]
        rows = [line.split(",") for line in lines[2:]]
        assert [row[2] for row in rows] == ["", "", ""]
        assert [float(row[1]) for row in rows] == list(curve.bound)
