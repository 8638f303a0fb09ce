import tracemalloc

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.linalg import cho_solve

from pnum import (BQState, NoCandidates, NonPositiveEvaluation, SingularGram,
                  UnsortedNodes, bq_posterior, exp_quadratic, gram_matrix,
                  kernel_embeddings, kernel_eval, linear_spline, quadrature,
                  select_node_active, select_nodes_grid, trapezoid,
                  warped_bq_integrate)
from pnum.gp import _factorize
from pnum.quadrature import _pair_embed, _warped_moments


def grid_warped_moments(kern, factor, X, g, alpha_w, var_grid=33):
    """Reference: the linearized warped variance on the explicit 33^d tensor
    grid, as ``_warped_moments`` evaluated it before it became separable."""
    w = cho_solve((factor, True), g)
    P = _pair_embed(kern, X, X)
    volume = float(np.prod([hi - lo for lo, hi in kern.box]))
    mean = alpha_w * volume + 0.5 * float(w @ (P @ w))
    box = np.asarray(kern.box)
    d = box.shape[0]
    axes, weights = [], []
    for lo, hi in box:
        wq = np.full(var_grid, (hi - lo) / (var_grid - 1))
        wq[[0, -1]] *= 0.5
        axes.append(np.linspace(lo, hi, var_grid))
        weights.append(wq)
    G = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    # gram_matrix(kern, G, X), summed one dimension at a time to hold only
    # 33^d x n
    d2 = sum(((G[:, j, None] - X[None, :, j]) / lam) ** 2
             for j, lam in enumerate(kern.shape))
    K_gx = kern.scale ** 2 * np.exp(-d2)
    u = weights[0]
    for wq in weights[1:]:
        u = np.multiply.outer(u, wq)
    v = u.reshape(-1) * (K_gx @ w)
    t = v.reshape([var_grid] * d)
    for j, (ax, lam) in enumerate(zip(axes, kern.shape)):
        A = np.exp(-((ax[:, None] - ax[None, :]) / lam) ** 2)
        t = np.moveaxis(np.tensordot(A, t, axes=([1], [j])), 0, j)
    quad_kk = kern.scale ** 2 * float(v @ t.reshape(-1))
    t2 = K_gx.T @ v
    return mean, quad_kk - float(t2 @ cho_solve((factor, True), t2)), quad_kk


def state_with(kernel, nodes, values):
    st = BQState.for_kernel(kernel)
    for x, y in zip(nodes, values):
        st = st.with_node(x, y)
    return st


class TestTrapezoid:
    def test_constant_exact(self):
        nodes = np.array([-3.0, -1.5, 0.2, 3.0])
        assert trapezoid(nodes, np.ones(4)) == pytest.approx(6.0)

    def test_odd_function_cancels(self):
        nodes = np.array([-3.0, -1.0, 1.0, 3.0])
        assert trapezoid(nodes, nodes) == pytest.approx(0.0, abs=1e-14)

    def test_square_overestimates(self):
        # direct evaluation: segments contribute 10 + 2 + 10 = 22 (truth 18)
        nodes = np.array([-3.0, -1.0, 1.0, 3.0])
        assert trapezoid(nodes, nodes ** 2) == pytest.approx(22.0)

    def test_unsorted_rejected(self):
        with pytest.raises(UnsortedNodes):
            trapezoid([0.0, 2.0, 1.0], [1.0, 1.0, 1.0])


def double_integral_oracle(kernel) -> float:
    """Adaptive 2-D integration of the kernel over its domain squared.

    The square is split along the diagonal so the integrand is smooth on
    each region (the spline kernel has a kink at x = x').
    """
    ((lo, hi),) = kernel.box
    lower, _ = dblquad(lambda y, x: kernel_eval(kernel, x, y), lo, hi,
                       lambda x: lo, lambda x: x, epsabs=1e-12, epsrel=1e-12)
    upper, _ = dblquad(lambda y, x: kernel_eval(kernel, x, y), lo, hi,
                       lambda x: x, lambda x: hi, epsabs=1e-12, epsrel=1e-12)
    return lower + upper


class TestEmbeddings:
    def test_spline_z0_value(self):
        # 36 c (1 + b) - (c b / 3) * 6^3 / 3 = 48 for c = b = 1
        _, z0 = kernel_embeddings(linear_spline(1, 1, (-3, 3)))
        assert z0 == pytest.approx(48.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_spline_matches_double_integration(self, seed):
        rng = np.random.default_rng(seed)
        c, b = 10 ** rng.uniform(-1, 1, size=2)
        k = linear_spline(c, b, (-3, 3))
        _, z0 = kernel_embeddings(k)
        assert z0 == pytest.approx(double_integral_oracle(k), rel=1e-6)

    def test_eq_matches_double_integration(self):
        k = exp_quadratic(1.0, 1.0, (-3, 3))
        _, z0 = kernel_embeddings(k)
        assert z0 == pytest.approx(double_integral_oracle(k), rel=1e-6)

    def test_eq_flat_limit(self):
        domain = (-3.0, 3.0)
        theta = 1.3
        k = exp_quadratic(theta, 100.0 * 6.0, domain)
        _, z0 = kernel_embeddings(k)
        assert z0 == pytest.approx(theta ** 2 * 36.0, rel=1e-2)

    @pytest.mark.parametrize("kernel", [linear_spline(0.7, 2.1, (-3, 3)),
                                        exp_quadratic(1.4, 0.8, (-3, 3))])
    def test_z_function_matches_quad_oracle(self, kernel):
        z_func, _ = kernel_embeddings(kernel)
        for xi in (-2.5, -0.3, 1.7):
            oracle, _ = quad(lambda x: kernel_eval(kernel, x, xi), -3, 3,
                             epsabs=1e-12, limit=200)
            assert z_func(xi) == pytest.approx(oracle, rel=1e-6)


class TestBQPosterior:
    def test_prior_with_no_nodes(self):
        st = BQState.for_kernel(linear_spline(1, 1))
        est = bq_posterior(st)
        assert est.mean == 0.0
        assert est.variance == pytest.approx(48.0)

    def test_spline_bq_equals_trapezoid(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 60))
            c, b = 10 ** rng.uniform(-1, 1, size=2)
            nodes = np.linspace(-3, 3, n)
            values = np.sin(nodes * rng.uniform(0.3, 2)) + rng.uniform(1, 3)
            est = bq_posterior(state_with(linear_spline(c, b), nodes, values))
            tr = trapezoid(nodes, values)
            assert est.mean == pytest.approx(tr, rel=1e-9)

    def test_eq_beats_trapezoid_on_smooth_integrand(self):
        # marginal-likelihood-fitted EQ kernel at N = 16 (the trapezoid rule
        # superconverges on this even integrand at isolated larger budgets,
        # so the comparison is pinned where the generic quadratic rate holds)
        from pnum import KernelFamily, fit_hyperparameters
        f = lambda x: np.exp(-np.sin(3 * x) ** 2 - x ** 2)
        fine = np.linspace(-3, 3, 1_000_001)
        truth = trapezoid(fine, f(fine))
        nodes = np.linspace(-3, 3, 16)
        kernel = fit_hyperparameters(KernelFamily.EXP_QUADRATIC, nodes, f(nodes),
                                     domain=(-3.0, 3.0)).kernel
        est = bq_posterior(state_with(kernel, nodes, f(nodes)))
        assert abs(est.mean - truth) < abs(trapezoid(nodes, f(nodes)) - truth)

    def test_variance_monotone_in_nodes(self):
        rng = np.random.default_rng(1)
        st = BQState.for_kernel(linear_spline(0.8, 1.7))
        prev = bq_posterior(st).variance
        for x in np.sort(rng.uniform(-3, 3, size=15)):
            st = st.with_node(x, rng.standard_normal())
            var = bq_posterior(st).variance
            assert var <= prev + 1e-10
            prev = var

    def test_scale_equivariance(self):
        nodes = np.linspace(-3, 3, 8)
        rng = np.random.default_rng(2)
        values = rng.standard_normal(8)
        k = exp_quadratic(1.2, 0.9)
        base = bq_posterior(state_with(k, nodes, values))
        scaled = bq_posterior(state_with(k, nodes, 3.5 * values))
        assert scaled.mean == pytest.approx(3.5 * base.mean, rel=1e-12)
        assert scaled.variance == pytest.approx(base.variance, rel=1e-12)

    @pytest.mark.parametrize("below, clamped", [(0.5e-8, True), (2e-8, False)])
    def test_negative_variance_clamped_or_raised(self, monkeypatch, below,
                                                 clamped):
        # z0 lowered so that z0 - z'K^-1 z lands `below` * z0 under zero: a
        # slightly negative variance is clamped, one past 1e-8 * z0 raises.
        # The EQ kernel is used because the linear-spline variance is formed
        # without z0.
        kernel = exp_quadratic(1.0, 1.0)
        nodes = np.linspace(-3, 3, 13)
        st = state_with(kernel, nodes, np.cos(nodes))
        z_func, z0 = kernel_embeddings(kernel)
        shifted = z0 - bq_posterior(st).variance - below * z0
        monkeypatch.setattr(quadrature, "kernel_embeddings",
                            lambda k: (z_func, shifted))
        if not clamped:
            with pytest.raises(SingularGram, match="below clamp threshold"):
                bq_posterior(st)
            return
        est = bq_posterior(st)
        assert est.clamped and est.variance == 0.0

    @pytest.mark.parametrize("kernel", [linear_spline(), exp_quadratic()],
                             ids=["spline", "eq"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_values_rejected(self, kernel, bad):
        # the solves do not scan their right-hand sides, so a non-finite value
        # would otherwise come back as a non-finite mean
        st = state_with(kernel, [-1.0, 0.0, 1.0], [1.0, bad, 2.0])
        with pytest.raises(ValueError, match="BQ values must be finite"):
            bq_posterior(st)

    @pytest.mark.parametrize("kernel", [linear_spline(), exp_quadratic(),
                                        exp_quadratic(lam=0.3)],
                             ids=["spline", "eq", "eq-lam0.3"])
    @pytest.mark.parametrize("v", [1e307, 8e307, 1.7e308])
    def test_huge_values_give_finite_mean_or_value_error(self, kernel, v):
        # finite values this large can overflow K w in the refined solve:
        # the mean is finite or the values are named, never a bare warning
        st = state_with(kernel, [-2.0, -1.0, 0.5, 2.0], [v, -v, v, v])
        try:
            est = bq_posterior(st)
        except ValueError as exc:
            assert "overflow the posterior mean" in str(exc) and repr(v) in str(exc)
        else:
            assert np.isfinite(est.mean) and np.isfinite(est.variance)


class TestNodeSelection:
    def test_grid_two_nodes(self):
        assert list(select_nodes_grid((-3, 3), 2)) == [-3.0, 3.0]

    def test_grid_four_nodes(self):
        assert np.allclose(select_nodes_grid((-3, 3), 4), [-3, -1, 1, 3])

    def test_grid_beats_random_designs(self):
        # among endpoint-inclusive designs the equidistant grid is variance
        # optimal; unconstrained designs can do better by shifting mass away
        # from the endpoints, so the comparison is within the design class
        k = linear_spline(1, 1)
        grid_var = bq_posterior(state_with(k, select_nodes_grid((-3, 3), 5),
                                           np.zeros(5))).variance
        rng = np.random.default_rng(3)
        for _ in range(200):
            inner = np.sort(rng.uniform(-3, 3, size=3))
            nodes = np.concatenate([[-3.0], inner, [3.0]])
            while np.min(np.diff(nodes)) < 1e-6:
                inner = np.sort(rng.uniform(-3, 3, size=3))
                nodes = np.concatenate([[-3.0], inner, [3.0]])
            var = bq_posterior(state_with(k, nodes, np.zeros(5))).variance
            assert grid_var <= var

    def test_first_active_node_is_midpoint(self):
        st = BQState.for_kernel(linear_spline(1, 1))
        sel = select_node_active(st, candidates=np.linspace(-3, 3, 513))
        assert sel == 0.0

    def test_symmetric_tie_breaks_left(self):
        st = BQState.for_kernel(linear_spline(1, 1))
        # even count: no exact midpoint, the two central candidates tie
        sel = select_node_active(st, candidates=np.linspace(-3, 3, 512))
        assert sel < 0.0
        assert abs(sel) <= 3.5 / 511 * 6

    def test_second_node_falls_left_of_midpoint(self):
        st = state_with(linear_spline(1, 1), [0.0], [1.0])
        sel = select_node_active(st)
        assert sel < 0.0

    @pytest.mark.parametrize("k", [linear_spline(0.9, 1.4), exp_quadratic(1.0, 0.8)],
                             ids=["spline", "eq"])
    def test_matches_exhaustive_refactorization_oracle(self, k):
        # the spline scores candidates in closed form, EQ through its Gram
        rng = np.random.default_rng(4)
        st = state_with(k, [-2.0, 0.5, 2.4], rng.standard_normal(3))
        candidates = np.linspace(-3, 3, 41)
        keep = np.all(np.abs(candidates[:, None] - st.node_array) > 1e-9, axis=1)
        candidates = candidates[keep]
        best_var, best_x = np.inf, None
        for xc in candidates:
            var = bq_posterior(st.with_node(xc, 0.0)).variance
            if var < best_var - 0.0:
                best_var, best_x = var, xc
        sel = select_node_active(st, candidates=candidates)
        assert sel == pytest.approx(best_x)
        # selected variance is <= variance of every other candidate
        sel_var = bq_posterior(st.with_node(sel, 0.0)).variance
        for xc in candidates:
            assert sel_var <= bq_posterior(st.with_node(xc, 0.0)).variance + 1e-12

    def test_default_candidates_stay_in_an_asymmetric_box(self):
        # on this box the mirrored grid's first point rounds below lo
        k = linear_spline(1.0, 1.0, (-0.1362285189277883, 7.15784354351724))
        for nodes in ([], [1.0]):
            sel = select_node_active(state_with(k, nodes, np.ones(len(nodes))))
            assert k.box[0][0] <= sel <= k.box[0][1]

    def test_empty_candidates_rejected(self):
        with pytest.raises(NoCandidates):
            select_node_active(BQState.for_kernel(linear_spline()),
                               candidates=np.array([]))


class TestWarped:
    def test_constant_integrand(self):
        est, record = warped_bq_integrate(lambda x: 1.0, (0.0, 1.0), 5, seed=0)
        assert 0.99 <= est.mean <= 1.01
        assert len(record.budgets) == 5

    def test_gaussian_mass(self):
        # fine-grid trapezoid oracle: mass of the unit Gaussian on [-5, 5]
        xs = np.linspace(-5, 5, 1_000_001)
        oracle = trapezoid(xs, np.exp(-xs ** 2 / 2) / np.sqrt(2 * np.pi))
        assert oracle == pytest.approx(0.9999994, abs=1e-6)
        f = lambda x: float(np.exp(-x ** 2 / 2) / np.sqrt(2 * np.pi))
        est, _ = warped_bq_integrate(f, (-5.0, 5.0), 15, seed=0)
        assert abs(est.mean - oracle) < 0.01

    def test_mean_positive_for_all_budgets(self):
        f = lambda x: float(np.exp(-x ** 2)) + 1e-3
        for budget in (3, 5, 9):
            est, record = warped_bq_integrate(f, (-2.0, 2.0), budget, seed=1)
            assert est.mean > 0.0
            assert all(e > 0.0 for e in record.estimates)

    def test_variance_nonnegative(self):
        est, _ = warped_bq_integrate(lambda x: 1.0 + 0.1 * float(np.sin(x)),
                                     (0.0, 3.0), 6, seed=2)
        assert est.variance >= 0.0

    def test_nonpositive_integrand_rejected(self):
        with pytest.raises(NonPositiveEvaluation):
            warped_bq_integrate(lambda x: -1.0, (0.0, 1.0), 4, seed=0)

    def test_2d_box(self):
        f = lambda x: float(np.exp(-0.5 * (x[0] ** 2 + x[1] ** 2)) / (2 * np.pi))
        est, _ = warped_bq_integrate(f, [(-4, 4), (-4, 4)], 25, seed=0)
        assert est.mean == pytest.approx(1.0, abs=0.02)

    def test_clamp_flagged(self, monkeypatch):
        f = lambda x: float(np.exp(-x ** 2 / 2) / np.sqrt(2 * np.pi))
        est, _ = warped_bq_integrate(f, (-5.0, 5.0), 15, seed=0)
        assert est.variance > 0.0 and not est.clamped

        def negative(*args, **kwargs):
            mean, var, w, P = _warped_moments(*args, **kwargs)
            return mean, -1e-3 * abs(var) - 1e-300, w, P

        monkeypatch.setattr(quadrature, "_warped_moments", negative)
        est, record = warped_bq_integrate(f, (-5.0, 5.0), 15, seed=0)
        assert est.clamped and est.variance == 0.0
        assert record.spreads[-1] == 0.0

    def test_nonfinite_gram_raises_singular_gram(self, monkeypatch):
        # a NaN that reaches the lengthscale scan through an off-diagonal
        # entry of the unit Grams, or through the values (and so theta), is a
        # SingularGram.  The entry is above the diagonal, where a lower
        # Cholesky factorization never reads it
        scan = quadrature._profiled_scan

        def nan_off_diagonal(K1s, g, m_lo):
            K1s = K1s.copy()
            if K1s.shape[1] > 1:
                K1s[:, 0, 1] = np.nan
            return scan(K1s, g, m_lo)

        for poisoned in (nan_off_diagonal,
                         lambda K1s, g, m_lo: scan(K1s, g * np.nan, m_lo)):
            monkeypatch.setattr(quadrature, "_profiled_scan", poisoned)
            with pytest.raises(SingularGram):
                warped_bq_integrate(lambda x: 1.0 + x, (0.0, 1.0), 4, seed=0)

    def test_budget_too_small(self):
        with pytest.raises(ValueError):
            warped_bq_integrate(lambda x: 1.0, (0, 1), 2, seed=0)


def draw_warped_inputs(rng, d, cond_range, clustered):
    """Random box, nodes, theta, lengthscales and values for
    ``_warped_moments`` whose Gram condition number lies in cond_range."""
    while True:
        n = int(rng.integers(2, 5 if d == 4 else 13))
        lo = rng.uniform(-2.0, 2.0, d)
        widths = rng.uniform(0.5, 4.0, d)
        if clustered:
            u = rng.uniform(0.3, 0.7, d) + 0.08 * rng.standard_normal((n, d))
        else:
            u = rng.uniform(size=(n, d))
        X = lo + widths * np.clip(u, 0.0, 1.0)
        kern = exp_quadratic(
            theta=float(10 ** rng.uniform(-1, 1)),
            lam=tuple(widths * rng.uniform(0.1, 1.0, d)),
            domain=tuple(zip(lo, lo + widths)))
        K = gram_matrix(kern, X)
        if cond_range[0] <= np.linalg.cond(K) <= cond_range[1]:
            return kern, X, K, rng.uniform(0.0, 2.0, n)


class TestWarpedMoments:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_separable_variance_matches_grid(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(8):
            kern, X, K, g = draw_warped_inputs(rng, d, (1.0, 1e4), False)
            factor, _ = _factorize(K)
            mean, var, _, _ = _warped_moments(kern, factor, X, g, 0.1)
            ref_mean, ref_var, quad_kk = grid_warped_moments(
                kern, factor, X, g, 0.1)
            assert mean == ref_mean
            assert abs(var - ref_var) <= 1e-9 * quad_kk

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_ill_conditioned_variance_matches_grid(self, d):
        # w = K^-1 g has large cancelling entries here; quadratic forms in w
        # lose up to 1e-2 of theta^2 v' K_GG v to rounding at cond 1e11, so
        # the grid contraction must take over
        rng = np.random.default_rng(200 + d)
        for _ in range(6):
            kern, X, K, g = draw_warped_inputs(rng, d, (1e8, 1e11), True)
            factor, _ = _factorize(K)
            _, var, _, _ = _warped_moments(kern, factor, X, g, 0.1)
            _, ref_var, quad_kk = grid_warped_moments(kern, factor, X, g, 0.1)
            assert abs(var - ref_var) <= 1e-9 * quad_kk

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_grid_contraction_matches_grid(self, d, monkeypatch):
        # a negative tolerance sends every input through _grid_terms
        monkeypatch.setattr(quadrature, "SEPARABLE_REL_TOL", -1.0)
        rng = np.random.default_rng(300 + d)
        for _ in range(4):
            kern, X, K, g = draw_warped_inputs(rng, d, (1.0, 1e4), False)
            factor, _ = _factorize(K)
            _, var, _, _ = _warped_moments(kern, factor, X, g, 0.1)
            _, ref_var, quad_kk = grid_warped_moments(kern, factor, X, g, 0.1)
            assert abs(var - ref_var) <= 1e-9 * quad_kk

    def test_4d_grid_contraction_holds_few_grids(self, monkeypatch):
        # v, the array an axis Gram is applied to and its product: three
        # 33^4 arrays, plus the 33^3 x n axis products
        monkeypatch.setattr(quadrature, "SEPARABLE_REL_TOL", -1.0)
        rng = np.random.default_rng(7)
        kern = exp_quadratic(theta=1.0, lam=(1.5,) * 4, domain=((-2.0, 2.0),) * 4)
        X = rng.uniform(-2.0, 2.0, (5, 4))
        factor, _ = _factorize(gram_matrix(kern, X))
        g = rng.uniform(0.1, 2.0, 5)
        tracemalloc.start()
        try:
            _warped_moments(kern, factor, X, g, 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * 33 ** 4

    def test_4d_memory_does_not_grow_with_grid(self):
        mu = np.array([0.3, -0.2, 0.1, 0.4])
        f = lambda x: float(np.exp(-0.5 * np.sum((x - mu) ** 2)))
        tracemalloc.start()
        try:
            warped_bq_integrate(f, [(-5.0, 5.0)] * 4, 10, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32e6


class TestProductKernel:
    def test_pair_embed_matches_quad(self):
        # oracle integrates k(x, X_i) * k(x, X_j): theta^2 appears twice
        k = exp_quadratic(theta=1.2, lam=0.8, domain=(-2.0, 2.0))
        X = np.array([[-0.5], [1.0]])
        P = _pair_embed(k, X, X)
        for i in range(2):
            for j in range(2):
                oracle, _ = quad(
                    lambda x: (k.scale ** 4
                               * np.exp(-(x - X[i, 0]) ** 2 / k.shape[0] ** 2)
                               * np.exp(-(x - X[j, 0]) ** 2 / k.shape[0] ** 2)),
                    -2, 2, epsabs=1e-12)
                assert P[i, j] == pytest.approx(oracle, rel=1e-8)

    def test_embed_matches_quad(self):
        k = exp_quadratic(theta=0.9, lam=1.1, domain=(-2.0, 2.0))
        X = np.array([0.3])
        oracle, _ = quad(
            lambda x: k.scale ** 2 * np.exp(-(x - 0.3) ** 2 / k.shape[0] ** 2),
            -2, 2, epsabs=1e-12)
        z_func, _ = kernel_embeddings(k)
        assert z_func(X)[0] == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: trapezoid([0.0, 1.0, 2.0], [1.0, 2.0]),
                 ValueError, "matching values", id="trapezoid-values-mismatch"),
    pytest.param(lambda: trapezoid([0.0, 1.0, 2.0], [1.0, np.nan, np.inf]),
                 ValueError, r"trapezoid values must be finite, got \[nan, inf\]",
                 id="trapezoid-nonfinite-values"),
    pytest.param(lambda: trapezoid([-3.0, np.nan, 3.0], [1.0, 2.0, 3.0]),
                 ValueError, r"trapezoid nodes must be finite, got \[nan\]",
                 id="trapezoid-nonfinite-nodes"),
    # finite values whose pairwise sum overflows
    pytest.param(lambda: trapezoid([0.0, 1.0], [1.7e308, 1.7e308]),
                 ValueError, r"values \[1\.7e\+308, 1\.7e\+308\] overflow the sum",
                 id="trapezoid-overflow"),
    pytest.param(lambda: warped_bq_integrate(lambda x: 1.0, [(0.0, 1.0)] * 5, 5, seed=0),
                 ValueError, "dimension <= 4", id="warped-5d"),
    pytest.param(lambda: bq_posterior(state_with(linear_spline(), [1.0, -2.0, 1.0],
                                                 [0.0, 1.0, 2.0])),
                 UnsortedNodes, r"repeated abscissae \[1.0\]", id="spline-bq-repeated-node"),
    pytest.param(lambda: bq_posterior(state_with(linear_spline(), [0.0, np.nan],
                                                 [1.0, 2.0])),
                 ValueError, "NaN or outside the kernel box", id="spline-bq-nan-node"),
    pytest.param(lambda: bq_posterior(state_with(linear_spline(), [0.0, 3.5],
                                                 [1.0, 2.0])),
                 ValueError, "NaN or outside the kernel box", id="spline-bq-node-outside"),
    # 2 c (1 + b) = 4 < (c b / 3) * 13: the kernel is indefinite on the nodes
    pytest.param(lambda: bq_posterior(state_with(linear_spline(domain=(0.0, 13.0)),
                                                 [0.0, 13.0], [1.0, 2.0])),
                 SingularGram, "indefinite on span 13.0", id="spline-bq-indefinite"),
    pytest.param(lambda: select_node_active(state_with(linear_spline(), [0.0], [1.0]),
                                            candidates=[-1.0, np.nan]),
                 ValueError, "NaN or outside the kernel box", id="spline-active-nan-candidate"),
    pytest.param(lambda: select_node_active(state_with(linear_spline(), [0.0], [1.0]),
                                            candidates=[-1.0, 4.0]),
                 ValueError, "NaN or outside the kernel box", id="spline-active-candidate-outside"),
    pytest.param(lambda: bq_posterior(BQState(linear_spline(), (0.0, 1.0), (1.0, 2.0, 3.0))),
                 ValueError, "3 BQ values do not match 2 nodes", id="spline-bq-extra-value"),
    pytest.param(lambda: bq_posterior(BQState(linear_spline(), (0.0, 1.0, 2.0), (1.0, 2.0))),
                 ValueError, "2 BQ values do not match 3 nodes", id="spline-bq-missing-value"),
    pytest.param(lambda: bq_posterior(BQState(exp_quadratic(1.0, 1.0, (0.0, 3.0)),
                                              (0.0, 1.0, 2.0), (1.0, 2.0))),
                 ValueError, "2 BQ values do not match 3 nodes", id="eq-bq-missing-value"),
])
def test_typed_rejections(call, error, message):
    with pytest.raises(error, match=message):
        call()
