import warnings

import numpy as np
import pytest

from pnum import (KernelFamily, SingularGram, exp_quadratic, fit_hyperparameters, gp,
                  gram_matrix, kernel_eval, linear_spline, log_marginal_likelihood,
                  sample_path)
from pnum.gp import JITTER_REL_START, _factorize, _solve_refined, default_bounds


def random_kernel(rng):
    domain = (-3.0, 3.0)
    if rng.uniform() < 0.5:
        return linear_spline(c=10 ** rng.uniform(-1, 1), b=10 ** rng.uniform(-1, 1),
                             domain=domain)
    return exp_quadratic(theta=10 ** rng.uniform(-1, 1), lam=10 ** rng.uniform(-0.7, 0.7),
                         domain=domain)


class TestKernelEval:
    def test_spline_zero_lag(self):
        assert kernel_eval(linear_spline(1, 1), 0.0, 0.0) == 2.0

    def test_spline_unit_lag(self):
        assert kernel_eval(linear_spline(1, 3), 0.0, 1.0) == 3.0

    def test_eq_zero_lag(self):
        assert kernel_eval(exp_quadratic(2, 1), 0.3, 0.3) == 4.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = random_kernel(rng)
            x, xp = rng.uniform(-3, 3, size=2)
            assert kernel_eval(k, x, xp) == kernel_eval(k, xp, x)

    def test_eq_stationary_maximum_at_zero_lag(self):
        k = exp_quadratic(1.3, 0.8)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x, xp = rng.uniform(-3, 3, size=2)
            assert kernel_eval(k, x, x) >= kernel_eval(k, x, xp)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            kernel_eval(linear_spline(), np.nan, 0.0)

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            kernel_eval(linear_spline(domain=(-1, 1)), 0.0, 2.0)

    def test_gram_psd(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            k = random_kernel(rng)
            nodes = np.sort(rng.uniform(-3, 3, size=rng.integers(2, 30)))
            nodes = np.unique(nodes)
            K = gram_matrix(k, nodes)
            eig = np.linalg.eigvalsh(K)
            assert eig[0] >= -1e-8 * np.trace(K)


class TestCondition:
    """The refined solve of the jittered Gram, through which BQ conditions."""

    @staticmethod
    def weights(k, nodes, values):
        K = gram_matrix(k, np.asarray(nodes, dtype=float))
        factor, _ = _factorize(K)
        return K, _solve_refined(factor, K, np.asarray(values, dtype=float))

    def test_single_node_interpolates(self):
        for k in (linear_spline(), exp_quadratic()):
            K, w = self.weights(k, [0.0], [5.0])
            assert (K @ w)[0] == pytest.approx(5.0, rel=1e-8)

    def test_against_dense_solve_oracle(self):
        # explicit 3x3 inversion, independent of the cho_solve path
        k = exp_quadratic(1, 1)
        nodes = np.array([-1.0, 0.0, 1.0])
        values = np.array([1.0, 2.0, 1.0])
        K = np.array([[kernel_eval(k, a, b) for b in nodes] for a in nodes])
        Kinv = np.linalg.inv(K)
        kx = np.array([kernel_eval(k, 0.5, b) for b in nodes])
        _, w = self.weights(k, nodes, values)
        assert kx @ w == pytest.approx(kx @ Kinv @ values, rel=1e-7)
        assert np.allclose(w, Kinv @ values, rtol=1e-7, atol=0.0)

    def test_interpolation_invariant(self):
        # spline any parameters; EQ with node spacing >= lam/2 (below that the
        # Gram is numerically singular and exact interpolation of arbitrary
        # values is not identifiable in float64)
        rng = np.random.default_rng(3)
        for trial in range(30):
            n = int(rng.integers(5, 25))
            nodes = np.linspace(-3, 3, n)
            if trial % 2 == 0:
                k = linear_spline(c=10 ** rng.uniform(-1, 1), b=10 ** rng.uniform(-1, 1))
            else:
                gap = 6.0 / (n - 1)
                k = exp_quadratic(theta=10 ** rng.uniform(-1, 1),
                                  lam=rng.uniform(0.3, min(2 * gap, 1.5)))
            values = rng.standard_normal(n)
            K, w = self.weights(k, nodes, values)
            assert np.allclose(K @ w, values, rtol=1e-8, atol=1e-8 * np.abs(values).max())

    def test_mean_linear_in_values(self):
        rng = np.random.default_rng(4)
        k = linear_spline(0.7, 2.0)
        nodes = np.linspace(-3, 3, 9)
        y1 = rng.standard_normal(9)
        y2 = rng.standard_normal(9)
        a, b = 0.7, -1.3
        kx = gram_matrix(k, rng.uniform(-3, 3, size=20), nodes)
        combo = kx @ self.weights(k, nodes, a * y1 + b * y2)[1]
        parts = (a * kx @ self.weights(k, nodes, y1)[1]
                 + b * kx @ self.weights(k, nodes, y2)[1])
        assert np.allclose(combo, parts, atol=1e-10)

    def test_singular_gram_raised(self):
        with pytest.raises(SingularGram):
            _factorize(-np.eye(3))


class TestFit:
    def test_degenerate_all_identical(self):
        nodes = np.linspace(-3, 3, 10)
        res = fit_hyperparameters(KernelFamily.EXP_QUADRATIC, nodes, np.zeros(10))
        assert res.degenerate
        bounds = default_bounds(KernelFamily.EXP_QUADRATIC, nodes, np.zeros(10))
        assert res.kernel.scale == pytest.approx(bounds["theta"][0])

    def test_lengthscale_recovery(self):
        # sampling oracle: draws from a known kernel, fitted lengthscale
        # recovered within [0.25, 1.0] in at least 90% of 50 repetitions
        truth = exp_quadratic(theta=1.0, lam=0.5, domain=(-3, 3))
        nodes = np.linspace(-3, 3, 30)
        hits = 0
        for seed in range(50):
            values = sample_path(truth, nodes, seed=seed)
            res = fit_hyperparameters(KernelFamily.EXP_QUADRATIC, nodes, values)
            lam = res.kernel.shape[0]
            hits += 0.25 <= lam <= 1.0
        assert hits >= 45

    def test_local_search_refines_grid(self):
        rng = np.random.default_rng(7)
        nodes = np.linspace(-3, 3, 15)
        values = np.sin(nodes) + 0.1 * rng.standard_normal(15)
        bounds = default_bounds(KernelFamily.EXP_QUADRATIC, nodes, values)
        # grid-only: best of the 16x16 grid
        thetas = np.geomspace(*bounds["theta"], 16)
        lams = np.geomspace(*bounds["lam"], 16)
        grid_best = max(
            log_marginal_likelihood(exp_quadratic(t, l, (-3, 3)), nodes, values)
            for t in thetas for l in lams)
        res = fit_hyperparameters(KernelFamily.EXP_QUADRATIC, nodes, values,
                                  bounds=bounds)
        assert (log_marginal_likelihood(res.kernel, nodes, values)
                >= grid_best - 1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_spline_shape_search_capped_on_wide_box(self, seed):
        # on [-5, 5] the linear-spline kernel is positive definite only for
        # b <= 6 / (10 - 6) = 1.5; the search must not wander past that edge
        nodes = np.linspace(-5.0, 5.0, 21)
        values = np.cumsum(np.random.default_rng(seed).standard_normal(21))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit_hyperparameters(KernelFamily.LINEAR_SPLINE, nodes, values)
        assert res.kernel.shape[0] <= 1.5
        assert np.isfinite(log_marginal_likelihood(res.kernel, nodes, values))

    @pytest.mark.parametrize("family, v", [(KernelFamily.EXP_QUADRATIC, 1e152),
                                           (KernelFamily.LINEAR_SPLINE, 1e153)],
                             ids=["eq", "spline"])
    def test_shapes_whose_quadratic_form_overflows_are_skipped(self, family, v):
        # y' K1^-1 y overflows for some shapes: they are skipped without a
        # warning, and the fit is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = fit_hyperparameters(family, [-3.0, -1.0, 1.0, 3.0], [v, -v, v, v])
        assert np.isfinite([res.kernel.scale, *res.kernel.shape]).all()

    def test_spline_bounds_past_the_cap_rejected(self):
        nodes = np.linspace(-5.0, 5.0, 21)
        with pytest.raises(ValueError, match="indefinite"):
            fit_hyperparameters(KernelFamily.LINEAR_SPLINE, nodes, np.sin(nodes),
                                bounds={"c": (0.1, 10.0), "b": (2.0, 100.0)})

    def test_requires_three_nodes(self):
        with pytest.raises(ValueError):
            fit_hyperparameters(KernelFamily.EXP_QUADRATIC, [0.0, 1.0], [1.0, 2.0])

    @pytest.mark.parametrize("family, bounds", [
        (KernelFamily.LINEAR_SPLINE, {"c": (0.1, 10.0), "b": (0.1, 1.0)}),
        (KernelFamily.EXP_QUADRATIC, {"theta": (0.1, 10.0), "lam": (0.1, 3.0)}),
        (KernelFamily.EXP_QUADRATIC, None),
    ])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_values_rejected(self, family, bounds, bad):
        nodes = np.linspace(-3.0, 3.0, 8)
        values = np.sin(nodes)
        values[3] = bad
        with pytest.raises(ValueError, match=f"finite, got \\[{bad}\\]"):
            fit_hyperparameters(family, nodes, values, bounds=bounds)

    @pytest.mark.parametrize("family, bounds", [
        (KernelFamily.LINEAR_SPLINE, {"c": (0.1, 10.0), "b": (0.1, 1.0)}),
        (KernelFamily.LINEAR_SPLINE, None),
        (KernelFamily.EXP_QUADRATIC, {"theta": (0.1, 10.0), "lam": (0.1, 3.0)}),
        (KernelFamily.EXP_QUADRATIC, None),
    ])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_nodes_rejected(self, family, bounds, bad):
        nodes = np.linspace(-3.0, 3.0, 8)
        values = np.sin(nodes)
        nodes[3] = bad
        with pytest.raises(ValueError, match=f"nodes to fit must be finite, "
                                             f"got \\[{bad}\\]"):
            fit_hyperparameters(family, nodes, values, bounds=bounds,
                                domain=(-3.0, 3.0))

    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_no_finite_likelihood_raises(self, family, monkeypatch):
        # every shape fails the profiled likelihood: no kernel to return
        def singular(*args, **kwargs):
            raise SingularGram("profiled quadratic form is not finite")

        monkeypatch.setattr(gp, "_profiled_likelihood", singular)
        nodes = np.linspace(-3.0, 3.0, 8)
        with pytest.raises(SingularGram, match="finite likelihood"):
            fit_hyperparameters(family, nodes, np.sin(nodes))


class TestSamplePath:
    def test_deterministic(self):
        k = linear_spline(1, 1)
        grid = np.linspace(-3, 3, 50)
        a = sample_path(k, grid, seed=42)
        b = sample_path(k, grid, seed=42)
        assert np.array_equal(a, b)

    def test_two_point_covariance_oracle(self):
        # Monte Carlo moment oracle: empirical covariance over 2000 draws
        k = linear_spline(1.0, 1.0)
        grid = np.array([-1.0, 1.0])
        draws = np.stack([sample_path(k, grid, seed=s) for s in range(2000)])
        emp = np.cov(draws.T)
        K = gram_matrix(k, grid)
        assert np.all(np.abs(emp - K) <= 0.1 * np.abs(K))

    def test_single_point_variance(self):
        k = exp_quadratic(theta=1.5, lam=1.0)
        v = kernel_eval(k, 0.0, 0.0)
        draws = np.array([sample_path(k, [0.0], seed=s)[0] for s in range(2000)])
        assert abs(np.var(draws) - v) <= 0.1 * v

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            sample_path(linear_spline(), [1.0, -1.0], seed=0)

    def test_spline_grid_outside_box_rejected(self):
        k = linear_spline(1.0, 1.0, (-3.0, 3.0))
        for grid in ([-3.5, 0.0], [0.0, 3.0 + 1e-12], [-1.0, np.nan, 1.0]):
            with pytest.raises(ValueError):
                sample_path(k, grid, seed=0)

    @pytest.mark.parametrize("rung", [0, 1, 2, 3, 4])
    def test_spline_jitter_escalates_like_factorize(self, rung):
        # on (0, 12 + delta) the kernel 2 - |x - x'| / 3 is indefinite: the
        # Gram of the two ends has eigenvalue -delta / 3, so the first rung
        # to pass is the one with jitter above it.  The exact draw takes
        # no jitter: it forgives only the rounding band of rung 0
        delta = 1.5 * JITTER_REL_START * 10.0 ** rung
        k = linear_spline(1.0, 1.0, (0.0, 12.0 + delta))
        for n in (2, 7, 50):
            grid = np.linspace(0.0, 12.0 + delta, n)
            expected = _factorize(gram_matrix(k, grid))[1]
            assert expected == pytest.approx(2.0 * JITTER_REL_START * 10.0 ** rung,
                                             rel=1e-9, abs=0.0)
            if rung == 0:
                assert np.isfinite(sample_path(k, grid, seed=0)).all()
            else:
                with pytest.raises(SingularGram):
                    sample_path(k, grid, seed=0)

    def test_spline_jitter_ceiling_raises(self):
        delta = 1.5e-5     # eigenvalue -5e-6, past the ceiling 2e-6
        k = linear_spline(1.0, 1.0, (0.0, 12.0 + delta))
        grid = np.linspace(0.0, 12.0 + delta, 7)
        with pytest.raises(SingularGram):
            _factorize(gram_matrix(k, grid))
        with pytest.raises(SingularGram):
            sample_path(k, grid, seed=0)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: linear_spline(domain=[(-1.0, 1.0), (-1.0, 1.0)]),
                 ValueError, "defined on an interval only", id="spline-on-2d-box"),
    pytest.param(lambda: kernel_eval(exp_quadratic(domain=[(-1.0, 1.0)] * 2),
                                     np.zeros(3), np.zeros(3)),
                 ValueError, "lack the 2 coordinates", id="points-without-coordinates"),
    pytest.param(lambda: fit_hyperparameters(
        KernelFamily.EXP_QUADRATIC, np.linspace(-3.0, 3.0, 8), np.arange(8.0),
        bounds={"theta": (0.0, 1.0), "lam": (0.1, 1.0)}),
                 ValueError, "bounds must be positive", id="fit-zero-bound"),
    pytest.param(lambda: sample_path(linear_spline(), np.zeros((2, 2)), seed=0),
                 ValueError, "non-empty 1-D array", id="draw-on-2d-grid"),
    # the spread of these values overflows np.std, which would otherwise
    # warn and leave an infinite scale in the search bounds
    pytest.param(lambda: fit_hyperparameters(
        KernelFamily.EXP_QUADRATIC, [-3.0, -1.0, 1.0, 3.0],
        [1e307, -1e307, 1e307, 1e307]),
                 ValueError, r"values \[1e\+307, -1e\+307, 1e\+307, 1e\+307\] "
                 "overflow their spread", id="fit-values-overflow-spread"),
    # the spread is finite, but the square of its theta bound is not
    pytest.param(lambda: fit_hyperparameters(
        KernelFamily.EXP_QUADRATIC, [-3.0, -1.0, 1.0, 3.0],
        [1e153, -1e153, 1e153, 1e153]),
                 ValueError, r"values \[1e\+153, -1e\+153, 1e\+153, 1e\+153\] "
                 "overflow the squared theta bound", id="fit-values-overflow-theta-bound"),
    # the nodes are finite, but their span max - min overflows
    pytest.param(lambda: fit_hyperparameters(
        KernelFamily.EXP_QUADRATIC, [-1e308, 0.0, 1e308], [1.0, 2.0, 3.0]),
                 ValueError, r"nodes \[-1e\+308, 0\.0, 1e\+308\] overflow their span",
                 id="fit-nodes-overflow-span"),
    pytest.param(lambda: log_marginal_likelihood(exp_quadratic(), [-1.0, 0.0, 1.0],
                                                 [1.0, np.nan, 2.0]),
                 ValueError, r"^values must be finite, got \[nan\]", id="lml-nan-values"),
    pytest.param(lambda: default_bounds(KernelFamily.EXP_QUADRATIC, [-1.0, np.nan, 1.0],
                                        [1.0, 2.0, 3.0]),
                 ValueError, r"^nodes must be finite, got \[nan\]", id="bounds-nan-nodes"),
])
def test_typed_rejections(call, error, message):
    with pytest.raises(error, match=message):
        call()
