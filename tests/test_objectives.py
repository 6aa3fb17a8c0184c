import json
import math

import numpy as np
import pytest

from drsubmax.geometry import Polytope
from drsubmax.objectives import (
    BudgetAllocationObjective,
    NqpObjective,
    generate_budget,
    generate_nqp,
    instance_digest,
    load_nqp,
    save_nqp,
)

from _util import (MALFORMED_NQP_FILES, TRIANGLE_FILE, acceptance_nqp, exact_nqp_opt,
                   fd_gradient, fd_hessian, sample_feasible)

LN2 = math.log(2.0)


def one_dim_nqp() -> NqpObjective:
    return NqpObjective([[-1.0]], Polytope.box([1.0]))


def tiny_budget(p=0.5, k=1, alphas=None, upper=2.0) -> BudgetAllocationObjective:
    return BudgetAllocationObjective([[p]], k=k, alphas=alphas, per_advertiser_upper=upper)


class TestNqp:
    def test_value_examples(self):
        obj = one_dim_nqp()
        assert obj.value([0.0]) == 0.0
        assert obj.value([0.5]) == pytest.approx(0.375, abs=1e-15)
        assert obj.value([1.0]) == pytest.approx(0.5, abs=1e-15)

    def test_grad_examples(self):
        obj = generate_nqp(0, 4, 2, -3.0, 0.0)
        np.testing.assert_allclose(obj.grad(obj.polytope.upper), 0.0, atol=1e-12)
        np.testing.assert_allclose(obj.grad(np.zeros(4)), obj.h_vector, atol=0)
        assert one_dim_nqp().grad([0.25])[0] == pytest.approx(0.75, abs=1e-15)

    def test_hessian_constant_and_matches_finite_differences(self):
        h = np.array([[-2.0, -1.0], [-1.0, -3.0]])
        obj = NqpObjective(h, Polytope.box([1.0, 1.0]))
        np.testing.assert_array_equal(obj.hessian(np.zeros(2)), h)
        gen = generate_nqp(1, 4, 2, -1.0, 0.0)
        x = np.full(4, 0.3)
        np.testing.assert_allclose(fd_hessian(gen, x), gen.h_matrix, atol=1e-4)

    def test_requires_symmetric_nonpositive(self):
        with pytest.raises(ValueError):
            NqpObjective([[-1.0, 0.5], [0.5, -1.0]], Polytope.box([1.0, 1.0]))
        with pytest.raises(ValueError):
            NqpObjective([[-1.0, -0.5], [-0.4, -1.0]], Polytope.box([1.0, 1.0]))

    def test_requires_the_polytope_dimension(self):
        with pytest.raises(ValueError, match="H dimension disagrees with the polytope"):
            NqpObjective(-np.eye(2), Polytope.box([1.0]))

    def test_requires_finite_entries(self):
        with pytest.raises(ValueError, match="finite"):
            NqpObjective([[-np.inf, 0.0], [0.0, -1.0]], Polytope.box([1.0, 1.0]))

    def test_overflowing_linear_term_rejected(self):
        """Finite entries whose row sums overflow give an infinite ``h = -H u``:
        a ``ValueError``, with no numpy warning on the way."""
        huge = np.full((2, 2), -1e308)
        with pytest.raises(ValueError, match="linear term h = -H @ upper overflows"):
            NqpObjective(huge, Polytope.box([1.0, 1.0]))
        with pytest.raises(ValueError, match="linear term"):
            generate_nqp(3, 4, 2, -1e308, 0.0)


class TestExactOpt:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n,m", [(5, 2), (4, 3), (4, 2), (3, 0), (2, 3)])
    def test_equals_the_face_by_face_enumeration(self, n, m, seed):
        """The batched enumeration finds the maximum that ``exact_nqp_opt``,
        one KKT solve a face, finds: on a box (m = 0) and where some tight
        sets are larger than every free set (m > n) too."""
        obj = generate_nqp(seed, n, m, -1.0, 0.0)
        assert obj.exact_opt() == pytest.approx(exact_nqp_opt(obj), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_no_feasible_point_exceeds_it(self, seed):
        obj = generate_nqp(seed, 6, 3, -1.0, 0.0)
        points = sample_feasible(obj.polytope, np.random.default_rng(seed), 200)
        assert max(map(obj.value, points)) <= obj.exact_opt()

    def test_one_dimension(self):
        """f(x) = -x^2/2 + x on [0, 1] is largest at the upper bound."""
        assert one_dim_nqp().exact_opt() == 0.5

    def test_redundant_halfspace_leaves_the_corner_optimal(self):
        obj = acceptance_nqp()
        assert obj.exact_opt() == pytest.approx(obj.value(np.ones(5)), rel=1e-12, abs=0.0)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="up to dimension 12, not 13"):
            generate_nqp(0, 13, 1, -1.0, 0.0).exact_opt()

    def test_singular_face_is_reported(self):
        """With a rank-one H every face with two free coordinates and no
        tight halfspace has a singular KKT matrix: an error that names the
        face, not a point taken from it."""
        obj = NqpObjective(-np.ones((3, 3)), Polytope([[0.5, 0.5, 0.5]], [1.0], np.ones(3)))
        with pytest.raises(ValueError, match=r"free coordinates \[0, 1\] and tight "
                                             r"halfspaces \[\] has condition number"):
            obj.exact_opt()


class TestGenerateNqp:
    def test_paper_scale_instance(self):
        obj = generate_nqp(123, 100, 50, -100.0, 0.0)
        assert obj.h_matrix.shape == (100, 100)
        assert np.all(obj.h_matrix <= 0) and np.all(obj.h_matrix >= -100)
        np.testing.assert_array_equal(obj.h_matrix, obj.h_matrix.T)
        assert np.all(obj.grad(np.zeros(100)) >= 0)
        assert obj.polytope.a_matrix.shape == (50, 100)
        assert np.all(obj.polytope.a_matrix >= 0) and np.all(obj.polytope.a_matrix <= 1)
        np.testing.assert_array_equal(obj.polytope.b_vector, np.ones(50))
        np.testing.assert_array_equal(obj.polytope.upper, np.ones(100))

    def test_small_validation_family(self):
        obj = generate_nqp(7, 5, 1, -1.0, 0.0)
        assert np.all(obj.h_matrix <= 0) and np.all(obj.h_matrix >= -1)

    def test_deterministic(self):
        a = generate_nqp(42, 6, 3, -2.0, 0.0)
        b = generate_nqp(42, 6, 3, -2.0, 0.0)
        np.testing.assert_array_equal(a.h_matrix, b.h_matrix)
        np.testing.assert_array_equal(a.polytope.a_matrix, b.polytope.a_matrix)

    def test_positive_entries_rejected(self):
        with pytest.raises(ValueError):
            generate_nqp(0, 3, 1, -1.0, 0.5)

    def test_box_only_allowed(self):
        assert generate_nqp(0, 3, 0, -1.0, 0.0).polytope.n_halfspaces == 0

    @pytest.mark.parametrize("seed,n", [(0, 1), (32, 3), (5, 6)])
    def test_no_halfspaces_is_the_box(self, seed, n):
        """With m = 0 the halfspace draw is empty, so the instance is the one
        on ``Polytope.box``."""
        obj = generate_nqp(seed, n, 0, -1.0, 0.0)
        box = NqpObjective(obj.h_matrix, Polytope.box(np.ones(n)))
        assert instance_digest(obj) == instance_digest(box)


class TestBudget:
    def test_value_examples(self):
        obj = tiny_budget(p=0.5, alphas=[1.0])
        assert obj.value([0.0]) == 0.0
        assert obj.value([1.0]) == pytest.approx(0.5, abs=1e-15)
        assert obj.value([2.0]) == pytest.approx(0.75, abs=1e-15)

    def test_grad_examples(self):
        obj = tiny_budget(p=0.5, alphas=[1.0])
        assert obj.grad([0.0])[0] == pytest.approx(LN2, abs=1e-15)
        assert obj.grad([1.0])[0] == pytest.approx(LN2 / 2, abs=1e-15)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        obj = generate_budget(2, 4, 6, density=0.5, p_low=0.1, p_high=0.8, k=2)
        for _ in range(20):
            x = rng.uniform(0.05, 0.95, size=obj.dim) * obj.polytope.upper
            np.testing.assert_allclose(fd_gradient(obj, x), obj.grad(x),
                                       rtol=1e-6, atol=1e-9)

    def test_hessian_example(self):
        obj = tiny_budget(p=0.5, alphas=[1.0])
        assert obj.hessian([0.0])[0, 0] == pytest.approx(-LN2**2, abs=1e-15)

    def test_cross_advertiser_block_is_zero(self):
        obj = generate_budget(3, 3, 4, density=0.6, p_low=0.2, p_high=0.7, k=2)
        h = obj.hessian(np.full(obj.dim, 0.4))
        n = obj.n_channels
        np.testing.assert_array_equal(h[:n, n:], 0.0)
        np.testing.assert_array_equal(h[n:, :n], 0.0)
        assert np.all(h <= 0)

    def test_hessian_matches_finite_differences(self):
        obj = generate_budget(5, 3, 4, density=0.7, p_low=0.2, p_high=0.6, k=1)
        x = np.full(obj.dim, 0.5)
        np.testing.assert_allclose(fd_hessian(obj, x), obj.hessian(x),
                                   rtol=1e-4, atol=1e-7)

    def test_medium_instance_calculus_spot_check(self):
        obj = generate_budget(41, 30, 120, density=0.15, p_low=0.05, p_high=0.9, k=3)
        rng = np.random.default_rng(42)
        for _ in range(3):
            x = rng.uniform(0.1, 0.9, size=obj.dim) * obj.polytope.upper
            np.testing.assert_allclose(fd_gradient(obj, x), obj.grad(x),
                                       rtol=1e-5, atol=1e-9)
        x = rng.uniform(0.1, 0.9, size=obj.dim) * obj.polytope.upper
        h = obj.hessian(x)
        np.testing.assert_allclose(h, h.T, atol=1e-12)
        assert np.all(h <= 1e-12)

    def test_value_range_and_default_alphas(self):
        obj = generate_budget(6, 3, 5, density=0.5, p_low=0.2, p_high=0.6, k=3)
        np.testing.assert_allclose(obj.alphas, 1 / 3)
        top = obj.value(obj.polytope.upper)
        assert 0.0 <= top <= float(np.sum(obj.alphas * obj.n_customers)) + 1e-12

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            tiny_budget().value([-0.1])

    @pytest.mark.parametrize("probs", [[[1.0]], [[-0.1]], [[math.nan]], [0.5], [[[0.5]]]],
                             ids=["one", "negative", "nan", "1-D", "3-D"])
    def test_bad_probability_matrix_rejected(self, probs):
        with pytest.raises(ValueError, match="probabilities|matrix"):
            BudgetAllocationObjective(probs)

    def test_zero_probability_is_no_edge(self):
        obj = BudgetAllocationObjective([[0.5, 0.0]], alphas=[1.0])
        assert (obj.n_channels, obj.n_customers) == (1, 2)
        assert obj.value([1.0]) == pytest.approx(0.5, abs=1e-15)
        with pytest.raises(ValueError, match="no edges"):
            BudgetAllocationObjective([[0.0, 0.0]])

    def test_small_probability_keeps_its_mass(self):
        """A probability of 1e-17 gives one unit of budget a positive value,
        not the 0 that ``1 - (1 - p)`` rounds to."""
        obj = BudgetAllocationObjective([[1e-17]], alphas=[1.0])
        assert obj.value([1.0]) == pytest.approx(1e-17, rel=1e-12)
        assert obj.value([1.0]) > 0.0

    def test_channels_combine_on_a_customer(self):
        """Two channels reaching one customer cover it with probability
        ``1 - (1 - p1)(1 - p2)``; one channel reaching two customers covers
        each on its own."""
        two_channels = BudgetAllocationObjective([[0.5], [0.25]], alphas=[1.0])
        assert two_channels.value([1.0, 1.0]) == pytest.approx(1 - 0.5 * 0.75, abs=1e-15)
        two_customers = BudgetAllocationObjective([[0.5, 0.25]], alphas=[1.0])
        assert two_customers.value([1.0]) == pytest.approx(0.75, abs=1e-15)

    def test_alphas_weight_advertisers(self):
        obj = BudgetAllocationObjective([[0.5]], k=2, alphas=[0.25, 0.75])
        assert obj.value([1.0, 0.0]) == pytest.approx(0.25 * 0.5, abs=1e-15)
        assert obj.value([0.0, 2.0]) == pytest.approx(0.75 * 0.75, abs=1e-15)

    @pytest.mark.parametrize("upper, per_channel", [(3.0, [3.0, 3.0]), ([2.0, 3.0], [2.0, 3.0])],
                             ids=["scalar", "per-channel"])
    def test_advertisers_replicate_budget(self, upper, per_channel):
        obj = BudgetAllocationObjective([[0.5], [0.25]], k=3, per_advertiser_upper=upper)
        assert obj.dim == 6
        np.testing.assert_array_equal(obj.per_advertiser_upper, per_channel)
        np.testing.assert_array_equal(obj.polytope.upper, per_channel * 3)

    @pytest.mark.parametrize("seed, channels, customers, density",
                             [(1, 5, 40, 0.01), (2, 40, 5, 0.01), (3, 12, 12, 0.2)])
    def test_generator_reaches_every_channel_and_customer(self, seed, channels,
                                                          customers, density):
        obj = generate_budget(seed, channels, customers, density, 0.1, 0.8)
        edge = obj._coeff > 0.0  # (customers, channels)
        assert edge.shape == (customers, channels)
        assert edge.any(axis=0).all() and edge.any(axis=1).all()

    def test_generator_probabilities_in_range(self):
        obj = generate_budget(7, 6, 9, 0.5, 0.3, 0.6)
        probs = -np.expm1(-obj._coeff[obj._coeff > 0.0])
        assert np.all((probs >= 0.3 - 1e-15) & (probs <= 0.6 + 1e-15))


class TestDrProperties:
    """DR sign, monotonicity, and gradient antitonicity on both families."""

    @pytest.fixture()
    def instances(self):
        return [
            generate_nqp(21, 6, 3, -2.0, 0.0),
            generate_budget(22, 4, 5, density=0.6, p_low=0.1, p_high=0.8, k=2),
        ]

    def test_hessian_entries_nonpositive(self, instances):
        rng = np.random.default_rng(23)
        for obj in instances:
            pts = sample_feasible(obj.polytope, rng, 20)
            for x in pts[:10]:
                h = obj.hessian(x)
                idx = rng.integers(0, obj.dim, size=(20, 2))
                assert np.all(h[idx[:, 0], idx[:, 1]] <= 1e-12)

    def test_hvp_is_the_hessian_times_the_direction(self, instances):
        """On NQP and on a budget instance with two advertisers, whose
        product is taken block by block without building the Hessian.  One
        weight 0 is the product at the segment's start."""
        rng = np.random.default_rng(26)
        for obj in instances:
            pts = sample_feasible(obj.polytope, rng, 6)
            for x, y in zip(pts[:5], pts[1:]):
                d = rng.normal(size=obj.dim)
                np.testing.assert_allclose(obj.hvp(x, y, [0.0], d), obj.hessian(x) @ d,
                                           rtol=1e-12, atol=1e-14)

    def test_batched_hvp_is_the_mean_of_single_products(self, instances):
        """Along a segment, the product at b weights equals the mean of the
        products at the b points, each a single-weight product and the
        Hessian there times ``d``."""
        rng = np.random.default_rng(27)
        for obj in instances:
            pts = sample_feasible(obj.polytope, rng, 4)
            for x0, x1 in zip(pts[:3], pts[1:]):
                d = x1 - x0
                a = rng.random(7)
                points = [x0 + ak * (x1 - x0) for ak in a]
                singles = [obj.hvp(p, p, [0.0], d) for p in points]
                np.testing.assert_allclose(obj.hvp(x0, x1, a, d), np.mean(singles, axis=0),
                                           rtol=1e-12, atol=0)
                np.testing.assert_allclose(np.mean(singles, axis=0),
                                           np.mean([obj.hessian(p) @ d for p in points], axis=0),
                                           rtol=1e-12, atol=1e-14)

    def test_monotone(self, instances):
        rng = np.random.default_rng(24)
        for obj in instances:
            ys = sample_feasible(obj.polytope, rng, 500)
            for y in ys:
                x = y * rng.uniform(0.0, 1.0, size=obj.dim)
                assert obj.value(x) <= obj.value(y) + 1e-9

    def test_gradient_antitone(self, instances):
        rng = np.random.default_rng(25)
        for obj in instances:
            ys = sample_feasible(obj.polytope, rng, 500)
            for y in ys:
                x = y * rng.uniform(0.0, 1.0, size=obj.dim)
                assert np.all(obj.grad(x) >= obj.grad(y) - 1e-9)


class TestNqpSerialization:
    @pytest.mark.parametrize("obj", [generate_nqp(31, 5, 2, -1.0, 0.0),
                                     generate_nqp(32, 3, 0, -1.0, 0.0), acceptance_nqp()],
                             ids=["halfspaces", "box", "acceptance"])
    def test_round_trip_exact(self, tmp_path, obj):
        """The loaded instance has the saved one's digest, and saving it
        again writes the same bytes."""
        path, again = tmp_path / "inst.json", tmp_path / "again.json"
        save_nqp(path, obj)
        back = load_nqp(path)
        assert instance_digest(back) == instance_digest(obj)
        save_nqp(again, back)
        assert again.read_bytes() == path.read_bytes()

    def test_generator_and_save_are_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_nqp(p1, generate_nqp(5, 4, 2, -1.0, 0.0))
        save_nqp(p2, generate_nqp(5, 4, 2, -1.0, 0.0))
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_is_the_json_of_the_digested_arrays(self, tmp_path):
        """Sorted keys A, b, u and H, and a box's A and b are empty lists."""
        obj = generate_nqp(32, 3, 0, -1.0, 0.0)
        path = tmp_path / "box.json"
        save_nqp(path, obj)
        data = json.loads(path.read_text())
        assert data == {name: array.tolist() for name, array in obj._arrays().items()}
        assert data["A"] == data["b"] == []
        assert path.read_text() == json.dumps(data, sort_keys=True)

    def test_integers_are_numbers(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text('{"A": [[1, 1]], "b": [1], "u": [1, 1], "H": [[-1, 0], [0, -1]]}')
        triangle = NqpObjective(TRIANGLE_FILE["H"], Polytope(TRIANGLE_FILE["A"],
                                                             TRIANGLE_FILE["b"],
                                                             TRIANGLE_FILE["u"]))
        assert instance_digest(load_nqp(path)) == instance_digest(triangle)

    @pytest.mark.parametrize("text,message",
                             [pytest.param(t, m, id=i) for i, t, m in MALFORMED_NQP_FILES])
    def test_malformed_file_names_the_file(self, tmp_path, text, message):
        """The file's own format is checked on load, and its shapes and values
        by the constructors; either error starts with the file's path."""
        path = tmp_path / "inst.json"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_nqp(path)
        assert str(info.value).startswith(f"{path}: {message}")


class TestInstanceDigest:
    def test_equal_contents_equal_digest(self, tmp_path):
        obj = generate_nqp(31, 5, 2, -1.0, 0.0)
        path = tmp_path / "inst.json"
        save_nqp(path, obj)
        assert instance_digest(load_nqp(path)) == instance_digest(obj)
        assert instance_digest(generate_budget(5, 3, 4, 0.7, 0.2, 0.7, k=2)) == \
            instance_digest(generate_budget(5, 3, 4, 0.7, 0.2, 0.7, k=2))

    def test_budget_digests_pinned(self):
        """The acceptance budget instance hashes to a fixed digest, so any
        change to the generator's draws or to the coefficient arithmetic
        shows here."""
        acceptance = generate_budget(104, 4, 5, density=0.6, p_low=0.1, p_high=0.8, k=2)
        assert instance_digest(acceptance) == \
            "ea1b3724071babe1699d79bbc13c313acdbb3f81522b6b167e623ff8eaeb4ab3"

    def test_every_defining_array_counts(self):
        """Changing H, A, b, u, the budget coefficients, alphas or the kind of
        objective changes the digest."""
        h = -np.ones((2, 2))
        base = NqpObjective(h, Polytope([[1.0, 1.0]], [1.0], [1.0, 1.0]))
        variants = [
            NqpObjective(2 * h, base.polytope),
            NqpObjective(h, Polytope([[1.0, 0.5]], [1.0], [1.0, 1.0])),
            NqpObjective(h, Polytope([[1.0, 1.0]], [0.5], [1.0, 1.0])),
            NqpObjective(h, Polytope([[1.0, 1.0]], [1.0], [1.0, 0.5])),
            NqpObjective(h, Polytope.box([1.0, 1.0])),
            BudgetAllocationObjective([[0.5], [0.5]]),
            BudgetAllocationObjective([[0.5], [0.25]]),
            BudgetAllocationObjective([[0.5]], k=2, alphas=[0.5, 0.5]),
            BudgetAllocationObjective([[0.5]], k=2, alphas=[0.25, 0.75]),
        ]
        digests = [instance_digest(obj) for obj in [base, *variants]]
        assert len(set(digests)) == len(digests)
