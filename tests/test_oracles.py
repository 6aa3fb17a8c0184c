import dataclasses
import math
import warnings

import numpy as np
import pytest

from drsubmax.geometry import Polytope
from drsubmax.objectives import NqpObjective, generate_nqp
from drsubmax.oracles import NoiseModel, OracleStream, noise_constants


def one_dim_nqp():
    return NqpObjective([[-1.0]], Polytope.box([1.0]))


class TestNoiseModelConstruction:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel("laplace")

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel.clipped_gaussian(-1.0)

    @pytest.mark.parametrize("levels", [{"sigma": 1000.0}, {"scale": 0.5},
                                        {"sigma": 5e-324}])
    def test_exact_oracle_takes_no_noise_level(self, levels):
        """Under kind ``none`` a positive sigma would still perturb gradient
        and Hessian queries, while ``noise_constants`` reports ``(0, 0)``, so
        any positive level is rejected, down to the least positive float."""
        with pytest.raises(ValueError, match="'none' takes no sigma"):
            NoiseModel("none", **levels)
        zero = {key: 0.0 for key in levels}
        assert NoiseModel("none", **zero) == NoiseModel.none()

    @pytest.mark.parametrize("kind,levels", [
        ("gaussian_prop", {"sigma": 1000.0, "scale": 0.1}),
        ("gaussian_fixed", {"sigma": 1.0, "scale": 50.0}),
        ("clipped_gaussian", {"sigma": 1.0, "scale": 50.0}),
    ])
    def test_a_kind_takes_only_the_level_it_reads(self, kind, levels):
        """``gaussian_prop`` reads ``scale`` only: a positive ``sigma`` would
        still set its Hessian noise at ``0.1 * sigma`` while its gradient
        noise and ``noise_constants`` ignore it.  The other two
        kinds never read ``scale``."""
        unread = "sigma" if kind == "gaussian_prop" else "scale"
        with pytest.raises(ValueError, match=f"'{kind}' takes no {unread}"):
            NoiseModel(kind, **levels)
        read = {key: value for key, value in levels.items() if key != unread}
        assert NoiseModel(kind, **{**levels, unread: 0.0}) == NoiseModel(kind, **read)

    def test_fields_are_kind_sigma_scale(self):
        """The Hessian level is ``0.1 * sigma``, not a field: neither the
        constructor nor a factory takes ``hessian_sigma``."""
        assert [f.name for f in dataclasses.fields(NoiseModel)] == ["kind", "sigma", "scale"]
        with pytest.raises(TypeError, match="hessian_sigma"):
            NoiseModel("gaussian_fixed", sigma=1.0, hessian_sigma=0.1)
        with pytest.raises(TypeError, match="hessian_sigma"):
            NoiseModel.clipped_gaussian(1.0, hessian_sigma=0.1)

    def test_factories_equal_the_constructor(self):
        assert NoiseModel.none() == NoiseModel()
        assert NoiseModel.gaussian_prop(2.0) == NoiseModel("gaussian_prop", scale=2.0)
        assert NoiseModel.gaussian_fixed(0.5) == NoiseModel("gaussian_fixed", sigma=0.5)
        assert NoiseModel.clipped_gaussian(0.5) == NoiseModel("clipped_gaussian", sigma=0.5)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        obj = generate_nqp(3, 4, 2, -1.0, 0.0)
        nm = NoiseModel.gaussian_fixed(0.7)
        a = OracleStream(obj, nm, master_seed=11, run_id=4)
        b = OracleStream(obj, nm, master_seed=11, run_id=4)
        x = np.full(4, 0.2)
        y = np.array([0.3, 0.2, 0.2, 0.5])
        for batch in (1, 3, 10):
            np.testing.assert_array_equal(a.grad(x), b.grad(x))
            np.testing.assert_array_equal(a.grad(x, batch), b.grad(x, batch))
            weights = a.rng.random(batch)
            np.testing.assert_array_equal(weights, b.rng.random(batch))
            np.testing.assert_array_equal(a.hessian(x, y, weights, y - x),
                                          b.hessian(x, y, weights, y - x))

    def test_distinct_run_ids_differ(self):
        obj = one_dim_nqp()
        nm = NoiseModel.gaussian_fixed(1.0)
        a = OracleStream(obj, nm, 11, 0)
        b = OracleStream(obj, nm, 11, 1)
        assert a.grad([0.0])[0] != b.grad([0.0])[0]


class TestNoisyGrad:
    def test_exact_when_noise_free(self):
        stream = OracleStream(one_dim_nqp(), NoiseModel.none(), 0, 0)
        np.testing.assert_array_equal(stream.grad([0.0]), [1.0])

    def test_clipped_error_never_exceeds_bound(self):
        """10^4 vector draws stay within 2 sigma sqrt(n) of the exact gradient."""
        obj = generate_nqp(5, 5, 0, -1.0, 0.0)
        sigma = 0.3
        stream = OracleStream(obj, NoiseModel.clipped_gaussian(sigma), 1, 0)
        x = np.full(5, 0.4)
        g = obj.grad(x)
        bound = 2 * sigma * math.sqrt(5)
        errs = np.array([np.linalg.norm(stream.grad(x) - g) for _ in range(10_000)])
        assert np.all(errs <= bound + 1e-12)

    def test_clipped_scalar_draws_bounded(self):
        """10^6 scalar draws of the clipped model, as 10^4 queries of 100
        coordinates, respect the clip level, and about 4.6% reach it."""
        obj = NqpObjective(-np.eye(100), Polytope.box(np.ones(100)))
        stream = OracleStream(obj, NoiseModel.clipped_gaussian(1.0), 2, 0)
        x = np.full(100, 0.5)
        g = obj.grad(x)
        draws = np.array([stream.grad(x) - g for _ in range(10_000)])
        assert draws.size == 1_000_000
        assert np.all(np.abs(draws) <= 2.0 + 1e-12)
        assert np.mean(np.abs(draws) >= 2.0 - 1e-12) > 0.04

    def test_gaussian_fixed_unbiased(self):
        """CLT check: |mean error| <= 0.02 over 10^5 draws at sigma = 1."""
        stream = OracleStream(one_dim_nqp(), NoiseModel.gaussian_fixed(1.0), 3, 0)
        g = stream.objective.grad([0.25])[0]
        errs = [stream.grad([0.25])[0] - g for _ in range(100_000)]
        assert abs(np.mean(errs)) <= 0.02

    def test_gaussian_prop_scales_with_gradient_norm(self):
        obj = generate_nqp(8, 3, 0, -1.0, 0.0)
        stream = OracleStream(obj, NoiseModel.gaussian_prop(2.0), 4, 0)
        x = np.full(3, 0.2)
        g = obj.grad(x)
        per_coord = 2.0 * np.linalg.norm(g) / 3
        errs = np.array([stream.grad(x) - g for _ in range(20_000)])
        assert abs(np.std(errs) - per_coord) <= 0.05 * per_coord
        assert abs(np.mean(errs)) <= 4 * per_coord / math.sqrt(errs.size)

    def test_gaussian_prop_exact_at_stationary_point(self):
        obj = one_dim_nqp()
        stream = OracleStream(obj, NoiseModel.gaussian_prop(1.0), 5, 0)
        np.testing.assert_array_equal(stream.grad([1.0]), [0.0])
        np.testing.assert_array_equal(stream.grad([1.0], 4), [0.0])
        fresh = OracleStream(obj, NoiseModel.none(), 5, 0).rng
        assert stream.rng.bit_generator.state == fresh.bit_generator.state

    @pytest.mark.parametrize("noise", [NoiseModel.gaussian_fixed(0.0),
                                       NoiseModel.clipped_gaussian(0.0)],
                             ids=lambda nm: nm.kind)
    def test_zero_sigma_is_exact_and_still_draws(self, noise):
        """At sigma 0 a query returns the gradient exactly and advances the
        generator as one ``normal(size=n)`` draw, so streams do not move."""
        obj = generate_nqp(5, 3, 0, -1.0, 0.0)
        stream = OracleStream(obj, noise, 5, 0)
        x = np.full(3, 0.4)
        np.testing.assert_array_equal(stream.grad(x), obj.grad(x))
        fresh = OracleStream(obj, NoiseModel.none(), 5, 0).rng
        fresh.normal(size=3)
        assert stream.rng.bit_generator.state == fresh.bit_generator.state

    def test_a_matrix_draw_is_the_stacked_vector_draws(self):
        """The numpy property a batched query rests on: one ``(b, n)`` draw
        equals b draws of n, stacked."""
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        np.testing.assert_array_equal(a.normal(0.0, 0.5, size=(4, 7)),
                                      [b.normal(0.0, 0.5, size=7) for _ in range(4)])

    @pytest.mark.parametrize("noise", [NoiseModel.gaussian_fixed(0.7),
                                       NoiseModel.clipped_gaussian(0.4),
                                       NoiseModel.gaussian_prop(1.5)],
                             ids=lambda nm: nm.kind)
    @pytest.mark.parametrize("batch", [1, 5])
    def test_batch_is_the_mean_of_single_queries(self, noise, batch):
        """``grad(x, b)`` equals the mean of b single queries from a stream
        of the same seed bit for bit, and leaves the generator where they do."""
        obj = generate_nqp(3, 4, 2, -1.0, 0.0)
        x = np.full(4, 0.2)
        batched = OracleStream(obj, noise, 11, 4)
        single = OracleStream(obj, noise, 11, 4)
        np.testing.assert_array_equal(batched.grad(x, batch),
                                      np.mean([single.grad(x) for _ in range(batch)], axis=0))
        assert batched.rng.bit_generator.state == single.rng.bit_generator.state

    @pytest.mark.parametrize("noise", [NoiseModel.none(), NoiseModel.gaussian_fixed(1.0)],
                             ids=lambda nm: nm.kind)
    @pytest.mark.parametrize("batch", [0, -2, 1.5, 2.0, True])
    def test_batch_must_be_a_positive_integer(self, noise, batch):
        """A batch of no queries has no mean, and a fractional one no size."""
        stream = OracleStream(one_dim_nqp(), noise, 0, 0)
        with pytest.raises(ValueError, match="batch must be an integer >= 1"):
            stream.grad([0.5], batch)


def dense_noise_products(rng, s, d, n_draws):
    """``Z d`` for ``n_draws`` symmetric ``Z`` with i.i.d. N(0, s^2) entries
    on and above the diagonal: the dense sampler the oracle's law comes from."""
    upper = np.triu(rng.normal(0.0, s, size=(n_draws, d.size, d.size)))
    z = upper + np.swapaxes(np.triu(upper, 1), 1, 2)
    return z @ d


class TestNoisyHessian:
    """``OracleStream.hessian(x0, x1, a, d)`` draws the mean of b = ``len(a)``
    products ``(H(x_k) + Z_k) d`` from its exact law with n + 1 normals,
    without building any ``Z_k``."""

    N_DRAWS = 50_000
    SIGMA = 2.0
    HS = 0.1 * SIGMA
    D = np.array([0.5, -1.0, 0.0, 2.0, 0.25, -0.75])
    BATCH = 3

    def answers(self, weights):
        """``N_DRAWS`` noisy answers with ``weights`` at a 6-dimensional
        quadratic minus the exact product ``H d``."""
        obj = generate_nqp(7, 6, 0, -1.0, 0.0)
        stream = OracleStream(obj, NoiseModel.gaussian_fixed(self.SIGMA), 1, 0)
        x0, x1 = np.full(6, 0.3), np.full(6, 0.5)
        exact = obj.h_matrix @ self.D
        return np.array([stream.hessian(x0, x1, weights, self.D)
                         for _ in range(self.N_DRAWS)]) - exact

    @pytest.fixture(scope="class")
    def draws(self):
        """Single queries: one weight."""
        return self.answers([0.0])

    @pytest.fixture(scope="class")
    def aggregated(self):
        """Queries of ``BATCH`` weights."""
        return self.answers(np.linspace(0.0, 1.0, self.BATCH))

    @pytest.mark.parametrize("noise", [NoiseModel.none(), NoiseModel.gaussian_prop(0.5),
                                       NoiseModel.clipped_gaussian(0.0)],
                             ids=["none", "gaussian_prop", "zero-sigma"])
    def test_zero_sigma_exact_and_draws_nothing(self, noise):
        """``none``, ``gaussian_prop`` and a zero ``sigma`` leave Hessian
        queries exact, beside noisy gradients under ``gaussian_prop``."""
        obj = generate_nqp(6, 3, 0, -1.0, 0.0)
        stream = OracleStream(obj, noise, 0, 0)
        before = stream.rng.bit_generator.state
        d = np.array([0.2, -0.1, 0.4])
        for weights in ([0.0], [0.1, 0.5, 0.9, 0.3]):
            np.testing.assert_array_equal(stream.hessian(np.zeros(3), d, weights, d),
                                          obj.h_matrix @ d)
        assert stream.rng.bit_generator.state == before

    def test_unbiased(self, draws):
        """Each coordinate's deviation is ``s ||d||``, so its empirical mean
        lies within 4 s ||d|| / sqrt(N)."""
        tol = 4 * self.HS * np.linalg.norm(self.D) / math.sqrt(self.N_DRAWS)
        assert np.max(np.abs(draws.mean(axis=0))) <= tol

    def test_covariance_is_that_of_the_dense_sampler(self, draws):
        """The empirical covariance matches ``s^2 (||d||^2 I + d d' - diag(d * d))``
        and the empirical covariance of the dense symmetric ``Z d``, within
        five standard errors (an entry's is at most s^2 ||d||^2 sqrt(2 / N))."""
        d, s2 = self.D, self.HS ** 2
        exact = s2 * (d @ d * np.eye(d.size) + np.outer(d, d) - np.diag(d * d))
        dense = dense_noise_products(np.random.default_rng(5), self.HS, d, self.N_DRAWS)
        se = s2 * (d @ d) * math.sqrt(2.0 / self.N_DRAWS)
        cov = np.cov(draws, rowvar=False)
        assert np.max(np.abs(cov - exact)) <= 5 * se
        assert np.max(np.abs(np.cov(dense, rowvar=False) - exact)) <= 5 * se
        assert np.max(np.abs(cov - np.cov(dense, rowvar=False))) <= 5 * math.sqrt(2) * se

    def test_aggregate_is_the_mean_of_b_dense_queries(self, aggregated):
        """A query of b weights has the law of the mean of b independent
        dense products ``Z_k d``: mean 0 within 4 (s / sqrt(b)) ||d|| / sqrt(N),
        and covariance ``(s^2 / b) (||d||^2 I + d d' - diag(d * d))``, which
        both it and the mean of b dense draws match within five standard
        errors."""
        d, b = self.D, self.BATCH
        s2 = self.HS ** 2 / b
        rng = np.random.default_rng(6)
        dense = sum(dense_noise_products(rng, self.HS, d, self.N_DRAWS) for _ in range(b)) / b
        exact = s2 * (d @ d * np.eye(d.size) + np.outer(d, d) - np.diag(d * d))
        tol = 4 * math.sqrt(s2) * np.linalg.norm(d) / math.sqrt(self.N_DRAWS)
        assert np.max(np.abs(aggregated.mean(axis=0))) <= tol
        assert np.max(np.abs(dense.mean(axis=0))) <= tol
        se = s2 * (d @ d) * math.sqrt(2.0 / self.N_DRAWS)
        cov = np.cov(aggregated, rowvar=False)
        assert np.max(np.abs(cov - exact)) <= 5 * se
        assert np.max(np.abs(np.cov(dense, rowvar=False) - exact)) <= 5 * se
        assert np.max(np.abs(cov - np.cov(dense, rowvar=False))) <= 5 * math.sqrt(2) * se

    def test_one_dim_draws_inside_five_sigma(self):
        """In one dimension the product is ``(h + s eta) d``; the root's
        argument ``||d||^2 - d_1^2`` is 0."""
        obj = one_dim_nqp()
        stream = OracleStream(obj, NoiseModel.gaussian_fixed(1.0), 2, 0)
        draws = np.array([stream.hessian([0.0], [1.0], [0.0], [1.0])[0] for _ in range(10_000)])
        inside = np.mean((draws >= -1.5) & (draws <= -0.5))
        assert inside >= 0.9999

    def test_one_hot_direction_is_finite_without_warning(self):
        """A one-hot ``d`` makes one root's argument exactly 0."""
        obj = generate_nqp(9, 4, 0, -1.0, 0.0)
        stream = OracleStream(obj, NoiseModel.gaussian_fixed(3.0), 3, 0)
        x = np.full(4, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for j in range(4):
                d = np.zeros(4)
                d[j] = 0.7
                out = stream.hessian(x, x + d, [0.2, 0.6], d)
                assert np.all(np.isfinite(out))

    def test_one_query_draws_n_plus_one_normals(self):
        """The stream contract: after one noisy query of b weights (here 1
        and 4) the generator equals a fresh one of the same seed that drew
        ``normal(size=n + 1)``, and the answer is
        ``H d + (s / sqrt(b)) (sqrt(||d||^2 - d_j^2) xi_j + eta d_j)`` with
        those draws, ``xi`` first and ``eta`` last."""
        obj = generate_nqp(4, 5, 0, -1.0, 0.0)
        sigma = 3.0
        hs = 0.1 * sigma
        d = np.array([0.3, -0.1, 0.0, 0.2, 0.05])
        x = np.full(5, 0.2)
        for weights in ([0.0], [0.3, 0.9, 0.1, 0.5]):
            stream = OracleStream(obj, NoiseModel.gaussian_fixed(sigma), 11, 2)
            fresh = OracleStream(obj, NoiseModel.none(), 11, 2).rng
            out = stream.hessian(x, x + d, weights, d)
            xi_eta = fresh.normal(size=6)
            assert stream.rng.bit_generator.state == fresh.bit_generator.state
            scale = hs / math.sqrt(len(weights))
            expected = obj.h_matrix @ d + scale * (np.sqrt(d @ d - d * d) * xi_eta[:5]
                                                   + xi_eta[5] * d)
            np.testing.assert_allclose(out, expected, rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("weights", [[], [[0.5]], 0.5], ids=["empty", "2-D", "scalar"])
    def test_weights_must_be_a_nonempty_vector(self, weights):
        """b = ``len(a)`` must be at least 1, or the noise scale ``s / sqrt(b)``
        has no value."""
        stream = OracleStream(one_dim_nqp(), NoiseModel.gaussian_fixed(1.0), 0, 0)
        with pytest.raises(ValueError, match="nonempty 1-D"):
            stream.hessian([0.0], [1.0], weights, [1.0])


class TestNoiseConstants:
    def test_clipped_matches_known_value(self):
        m, s = noise_constants(NoiseModel.clipped_gaussian(1.0), 5)
        assert m == pytest.approx(2 * math.sqrt(5), abs=1e-12)
        assert s == pytest.approx(math.sqrt(5), abs=1e-12)

    def test_none_is_zero(self):
        assert noise_constants(NoiseModel.none(), 10) == (0.0, 0.0)

    def test_dimension_must_be_positive(self):
        with pytest.raises(ValueError, match="dimension must be positive"):
            noise_constants(NoiseModel.none(), 0)

    def test_gaussian_fixed_unbounded_with_total_sigma(self):
        m, s = noise_constants(NoiseModel.gaussian_fixed(0.3), 4)
        assert math.isinf(m)
        assert s == pytest.approx(0.6, abs=1e-12)

    def test_prop_requires_gradient_bound(self):
        nm = NoiseModel.gaussian_prop(1.5)
        with pytest.raises(ValueError, match="G_max"):
            noise_constants(nm, 4)
        m, s = noise_constants(nm, 4, g_max=2.0)
        assert math.isinf(m)
        assert s == pytest.approx(1.5 * 2.0 / 2.0, abs=1e-12)
