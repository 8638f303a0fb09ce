import timeit
from functools import partial
from typing import List, Sequence

import numpy as np
import pytest

from pnum import (CovarianceBreakdown, IVProblem, NonFiniteField, RKMethod,
                  convergence_order_estimate, iwp_transition, named_problem,
                  odefilter, rk_method, rk_reference, solve_ivp_filter,
                  trajectory)
from pnum.odefilter import PSD_SLACK_REL


class TestRKReference:
    def test_zero_field_stays_constant(self):
        prob = IVProblem(f=lambda x, t: np.zeros_like(x), x0=[2.0, -1.0],
                         t0=0.0, t_end=1.0)
        for name in ("euler", "midpoint", "rk4"):
            _, xs = rk_reference(prob, rk_method(name), 0.25)
            assert np.allclose(xs, [2.0, -1.0])

    def test_euler_single_step(self):
        prob = named_problem("linear", a=1.0, t_end=0.1)
        _, xs = rk_reference(prob, rk_method("euler"), 0.1)
        assert xs[-1, 0] == pytest.approx(1.1, abs=1e-15)

    def test_rk4_matches_exponential(self):
        # true RK4 global error on x' = x at h = 0.1 is 2.08e-6 (h^5/120
        # local truncation); halving h brings it under 1e-6
        prob = named_problem("linear", a=1.0, t_end=1.0)
        _, xs = rk_reference(prob, rk_method("rk4"), 0.1)
        assert xs[-1, 0] == pytest.approx(np.e, abs=1e-5)
        _, xs_fine = rk_reference(prob, rk_method("rk4"), 0.05)
        assert xs_fine[-1, 0] == pytest.approx(np.e, abs=1e-6)

    def test_nonfinite_field_raises(self):
        prob = named_problem("linear")
        bad = IVProblem(f=lambda x, t: x / (t - 0.5) if t != 0.5 else x * np.nan,
                        x0=[1.0], t0=0.0, t_end=1.0)
        with pytest.raises(NonFiniteField):
            rk_reference(bad, rk_method("euler"), 0.25)
        del prob

    def test_step_must_divide_horizon(self):
        prob = named_problem("linear")
        with pytest.raises(ValueError):
            rk_reference(prob, rk_method("euler"), 0.3)

    def test_field_finiteness_check(self):
        prob = IVProblem(f=lambda x, t: x, x0=[1.0, 1.0, 1.0], t0=0.0, t_end=1.0)
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(NonFiniteField):
                prob.eval_field(np.array([1.0, bad, 1.0]), 0.0)
        # finite values whose sum overflows are still finite
        big = np.array([1.7e308, 1.7e308, -1.7e308])
        assert np.array_equal(prob.eval_field(big, 0.0), big)

    def test_nonfinite_interior_stage_stops_the_solve(self):
        # rk4's second stage of the second step sits at t = 0.25 + 0.125
        calls = []

        def field(x, t):
            calls.append(t)
            return x * np.nan if t == 0.375 else -x

        prob = IVProblem(f=field, x0=[1.0, 2.0], t0=0.0, t_end=1.0)
        with pytest.raises(NonFiniteField, match=r"at t=0\.375$"):
            rk_reference(prob, rk_method("rk4"), 0.25)
        assert calls == [0.0, 0.0, 0.125, 0.125, 0.25, 0.25, 0.375]

    @pytest.mark.parametrize("name, wrap", [
        ("lotka-volterra", lambda y: y.tolist()),
        ("logistic", lambda y: float(y[0])),
        ("lotka-volterra", lambda y: y[None, :]),
    ], ids=["list", "float", "row"])
    def test_field_values_that_are_not_1d_arrays(self, name, wrap):
        base = named_problem(name)
        prob = IVProblem(f=lambda x, t: wrap(base.f(x, t)), x0=base.x0,
                         t0=base.t0, t_end=base.t_end)
        for method in ("euler", "midpoint", "rk4"):
            _, ref = rk_reference(base, rk_method(method), 0.05)
            _, xs = rk_reference(prob, rk_method(method), 0.05)
            assert xs.tobytes() == ref.tobytes()
        for q in (1, 2):
            ref = solve_ivp_filter(base, q=q, h=0.05).state_mean
            assert solve_ivp_filter(prob, q=q, h=0.05).state_mean.tobytes() == ref.tobytes()
        echo = IVProblem(f=lambda x, t: wrap(x), x0=base.x0, t0=0.0, t_end=1.0)
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(NonFiniteField):
                echo.eval_field(np.full(echo.dim, bad), 0.0)

    def test_tableau_consistency(self):
        for name in ("euler", "midpoint", "rk4"):
            m = rk_method(name)
            assert np.allclose(m.a.sum(axis=1), m.c, atol=1e-12)

    @pytest.mark.parametrize("c, b, message", [
        ([0.0, 0.4], [0.5, 0.5], "row sums of a must equal c"),
        ([0.0, 0.5], [0.5, 0.6], "weights must sum to 1"),
    ])
    def test_inconsistent_tableau_rejected(self, c, b, message):
        with pytest.raises(ValueError, match=message):
            RKMethod(a=[[0.0, 0.0], [0.5, 0.0]], b=b, c=c)

    @pytest.mark.parametrize("a, b, c", [
        ([[0.0, 0.0], [0.5, 0.5]], [0.5, 0.5], [0.0, 1.0]),    # implicit trapezoid
        ([[1.0]], [1.0], [1.0]),                               # backward Euler
        ([[0.0, 0.0], [0.5, 0.0]], [1.0], [0.0, 0.5]),         # b of length 1
    ], ids=["trapezoid", "backward-euler", "short-b"])
    def test_non_explicit_tableau_rejected(self, a, b, c):
        # rk_reference runs explicit stages only: any other tableau would
        # silently run a different method
        with pytest.raises(ValueError, match="tableau not explicit"):
            RKMethod(a=a, b=b, c=c)


class TestFilter:
    def test_zero_field_constant_mean_pinned_derivative(self):
        prob = IVProblem(f=lambda x, t: np.zeros_like(x), x0=[3.0], t0=0.0,
                         t_end=1.0)
        res = solve_ivp_filter(prob, q=1, h=0.1)
        assert np.allclose(res.mean, 3.0)
        # derivative coordinate pinned to the observed 0 after updates
        assert np.all(np.abs(res.state_mean[:-1, 1]) <= 1e-14)

    def test_q1_mean_is_euler_exactly(self):
        prob = named_problem("linear", a=1.0, t_end=1.0)
        res = solve_ivp_filter(prob, q=1, h=0.1)
        x = 1.0
        traj = [x]
        for _ in range(10):
            x = x + 0.1 * x
            traj.append(x)
        assert np.allclose(res.mean[:, 0], traj, atol=1e-12)

    def test_q1_matches_euler_on_seeded_problems(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = rng.uniform(-2.0, 2.0)
            x0 = rng.uniform(0.5, 2.0)
            h = rng.choice([0.05, 0.1, 0.2])
            prob = named_problem("linear", a=a, x0=x0, t_end=1.0)
            res = solve_ivp_filter(prob, q=1, h=h)
            _, euler = rk_reference(prob, rk_method("euler"), h)
            dev = np.abs(res.mean[:, 0] - euler[:, 0])
            assert np.all(dev <= 1e-10 * (1.0 + np.abs(euler[:, 0])))

    def test_position_std_nondecreasing_for_zero_field(self):
        prob = IVProblem(f=lambda x, t: np.zeros_like(x), x0=[0.0], t0=0.0,
                         t_end=2.0)
        for q in (1, 2):
            res = solve_ivp_filter(prob, q=q, h=0.1, rho2=0.5)
            stds = res.std[:, 0]
            assert np.all(np.diff(stds) >= -1e-12)

    def test_covariance_psd_every_step(self):
        prob = named_problem("logistic")
        res = solve_ivp_filter(prob, q=2, h=0.05)
        slacks = []
        for k in range(len(res.ts)):
            cov = res.cov(k)
            eig = np.linalg.eigvalsh(cov)
            slacks.append(eig[0] / max(np.trace(cov), 1e-300))
        assert min(slacks) >= -PSD_SLACK_REL
        # the reported slack also covers the conditioned covariances
        assert np.isfinite(res.psd_slack)
        assert -PSD_SLACK_REL <= res.psd_slack <= min(slacks) + 1e-15

    def test_breakdown_raised_before_any_field_evaluation(self, monkeypatch):
        calls = []
        prob = IVProblem(f=lambda x, t: calls.append(t) or -x, x0=[1.0],
                         t0=0.0, t_end=1.0)
        calls.clear()
        iwp = odefilter.iwp_transition

        def indefinite_noise(q, h, rho2):
            A, Q = iwp(q, h, rho2)
            return A, -Q

        monkeypatch.setattr(odefilter, "iwp_transition", indefinite_noise)
        with pytest.raises(CovarianceBreakdown):
            solve_ivp_filter(prob, q=2, h=0.1)
        assert calls == []

    def test_states_sit_on_the_time_grid(self):
        # 200 steps of t += 0.01 drift off t0 + k h; the grid does not
        calls = []
        base = named_problem("logistic")
        prob = IVProblem(f=lambda x, t: calls.append(t) or base.f(x, t),
                         x0=base.x0, t0=0.0, t_end=base.t_end)
        calls.clear()
        res = solve_ivp_filter(prob, q=2, h=0.01)
        assert list(res.ts) == list(0.01 * np.arange(201))
        assert len(res.state_mean) == len(res.cov_factor) == len(res.ts)
        assert calls == list(res.ts[:-1])

    def test_overflowing_covariance_raises(self):
        # the position variance leaves the float range while h^3 still fits:
        # a typed failure (CLI exit code 3), not an inf std and a NaN slack
        prob = named_problem("linear", a=0.0, t_end=1.2e104)
        with pytest.raises(CovarianceBreakdown, match="non-finite.*in step"):
            solve_ivp_filter(prob, q=1, h=4e102)

    def test_diffusion_scaling(self):
        prob = IVProblem(f=lambda x, t: np.zeros_like(x), x0=[0.0], t0=0.0,
                         t_end=1.0)
        beta = 4.0
        v1 = solve_ivp_filter(prob, q=1, h=0.1, rho2=1.0).std[-1, 0] ** 2
        v2 = solve_ivp_filter(prob, q=1, h=0.1, rho2=beta).std[-1, 0] ** 2
        assert v2 == pytest.approx(beta * v1, rel=1e-8)

    def test_multidimensional_problem_runs(self):
        prob = named_problem("lotka-volterra", t_end=1.0)
        res = solve_ivp_filter(prob, q=1, h=0.01)
        assert res.mean.shape == (101, 2)
        assert np.all(np.isfinite(res.mean))

    def test_q_validation(self):
        with pytest.raises(ValueError):
            solve_ivp_filter(named_problem("linear"), q=3, h=0.1)

    def test_diffusion_calibration_runs(self):
        prob = named_problem("linear", a=1.0, t_end=1.0)
        res = solve_ivp_filter(prob, q=1, h=0.1, calibrate_diffusion=True)
        assert res.rho2 > 0

    def test_calibrated_rho2_is_mean_scaled_residual(self):
        # reference from the stored predictions of a plain rho2 = 1 run: the
        # residual of each observed derivative against its predicted block
        for name, q, h in (("logistic", 2, 0.05), ("linear", 1, 0.1),
                           ("lotka-volterra", 2, 0.02)):
            prob = named_problem(name, t_end=1.0)
            d = prob.dim
            plain = solve_ivp_filter(prob, q=q, h=h)
            terms = []
            for k in range(1, len(plain.ts) - 1):
                S = plain.cov(k)[d:2 * d, d:2 * d]
                S = S + 1e-14 * np.trace(S) * np.eye(d)
                m = plain.state_mean[k]
                r = prob.eval_field(m[0], plain.ts[k]) - m[1]
                terms.append(r @ np.linalg.solve(S, r) / d)
            res = solve_ivp_filter(prob, q=q, h=h, calibrate_diffusion=True)
            assert res.rho2 == pytest.approx(np.mean(terms), rel=1e-10)
            for cal, ref in zip(res.cov_factor, plain.cov_factor):
                assert np.allclose(cal, res.rho2 * ref, rtol=1e-10,
                                   atol=1e-12 * res.rho2 * np.abs(ref).max())

    def test_calibrated_row_field_is_the_array_field(self):
        # a field value of shape (1, d) calibrates like its (d,) form
        base = named_problem("lotka-volterra")
        row = IVProblem(f=lambda x, t: base.f(x, t)[None, :], x0=base.x0,
                        t0=base.t0, t_end=base.t_end)
        for q in (1, 2):
            ref = solve_ivp_filter(base, q=q, h=0.1, calibrate_diffusion=True)
            res = solve_ivp_filter(row, q=q, h=0.1, calibrate_diffusion=True)
            assert res.state_mean.tobytes() == ref.state_mean.tobytes()
            assert res.cov_factor.tobytes() == ref.cov_factor.tobytes()
            assert res.rho2 == ref.rho2

    def test_calibration_is_not_clipped(self):
        prob = named_problem("stiff-linear")
        res = solve_ivp_filter(prob, q=2, h=0.01, calibrate_diffusion=True)
        assert res.rho2 > 1e3

    def test_zero_residual_keeps_given_rho2(self):
        prob = named_problem("linear", a=0.0)
        res = solve_ivp_filter(prob, q=2, h=0.1, rho2=0.5,
                               calibrate_diffusion=True)
        plain = solve_ivp_filter(prob, q=2, h=0.1, rho2=0.5)
        assert res.rho2 == 0.5
        assert np.allclose(res.std, plain.std, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("name,params,q,h,rho2,calibrate", [
        ("lotka-volterra", {}, 1, 0.01, 1.0, False),
        ("lotka-volterra", {}, 2, 0.01, 0.37, False),
        ("lotka-volterra", {}, 2, 0.01, 1.0, True),
        ("logistic", {}, 2, 0.01, 0.37, True),
        ("stiff-linear", {}, 2, 0.01, 1.0, True),
        ("linear", {"a": 0.0}, 2, 0.1, 0.37, True),
    ])
    def test_matches_full_size_filter(self, name, params, q, h, rho2, calibrate):
        prob = named_problem(name, **params)
        res = solve_ivp_filter(prob, q=q, h=h, rho2=rho2,
                               calibrate_diffusion=calibrate)
        means, covs, ref_rho2 = full_size_filter(prob, q, h, rho2, calibrate)
        assert res.rho2 == pytest.approx(ref_rho2, rel=1e-13, abs=0.0)
        for k, (m, P) in enumerate(zip(means, covs)):
            mean = res.state_mean[k].ravel()
            assert np.all(np.abs(mean - m) <= 1e-10 * (1.0 + np.abs(m)))
            assert np.abs(res.cov(k) - P).max() <= 1e-13 * np.abs(P).max()

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("h", [0.1, 0.01, 0.002])
    def test_covariance_pass_turns_stationary_early(self, q, h):
        # the covariance pass steps only to its stationary step, not to n
        prob = named_problem("linear", a=-0.5, t_end=10.0)
        res = solve_ivp_filter(prob, q=q, h=h)
        assert res.stationary_step <= 32

    def test_short_horizon_never_stationary(self):
        prob = named_problem("linear", a=-0.5, t_end=1.0)
        res = solve_ivp_filter(prob, q=2, h=0.1)
        assert res.stationary_step == 10

    @pytest.mark.parametrize("rho2", [-1.0, -1e-300, np.nan, np.inf])
    @pytest.mark.parametrize("calibrate", [False, True])
    def test_invalid_rho2_rejected(self, rho2, calibrate):
        prob = named_problem("logistic")
        with pytest.raises(ValueError, match="rho2"):
            solve_ivp_filter(prob, q=2, h=0.1, rho2=rho2,
                             calibrate_diffusion=calibrate)

    def test_zero_rho2_allowed(self):
        res = solve_ivp_filter(named_problem("logistic"), q=2, h=0.1, rho2=0.0)
        assert np.all(res.std == 0.0)
        assert res.rho2 == 0.0

    def test_stiff_linear_problem(self):
        prob = named_problem("stiff-linear", lam=-20.0, t_end=0.5)
        res = solve_ivp_filter(prob, q=1, h=0.01)
        assert np.all(np.isfinite(res.mean))
        assert abs(res.mean[-1, 0] - prob.exact(0.5)[0]) < 0.01
        with pytest.raises(ValueError):
            named_problem("stiff-linear", lam=1.0)


def full_size_filter(problem, q, h, rho2=1.0, calibrate=False):
    """The filter as one loop over the full (q+1)d state: the reference for
    the two-pass solver, whose arithmetic differs only in rounding."""
    d = problem.dim
    n = int(round((problem.t_end - problem.t0) / h))
    A1, Q1 = iwp_transition(q, h, 1.0 if calibrate else rho2)
    eye_d = np.eye(d)
    A, Q = np.kron(A1, eye_d), np.kron(Q1, eye_d)
    dim_s = (q + 1) * d
    deriv = slice(d, 2 * d)
    m = np.zeros(dim_s)
    m[:d] = problem.x0
    P = np.zeros((dim_s, dim_s))
    means, covs, residual = [m], [P], 0.0
    for k in range(n):
        y = problem.eval_field(m[:d], problem.t0 + k * h)
        S = P[deriv, deriv]
        K = np.zeros((dim_s, d))
        if np.trace(S) > 1e-300:
            S = S + 1e-14 * np.trace(S) * eye_d
            K = np.linalg.solve(S, P[:, deriv].T).T
            r = y - m[deriv]
            residual += r @ np.linalg.solve(S, r)
        K[:d] = 0.0
        K[deriv] = eye_d
        m = A @ (m + K @ (y - m[deriv]))
        Z = np.eye(dim_s)
        Z[:, deriv] -= K
        P = Z @ P @ Z.T
        P = 0.5 * (P + P.T)
        P = A @ P @ A.T + Q
        P = 0.5 * (P + P.T)
        means.append(m)
        covs.append(P)
    if calibrate and residual > 0.0:
        rho2 = residual / ((n - 1) * d)
    scale = rho2 if calibrate else 1.0
    return np.array(means), scale * np.array(covs), rho2


class TestIWPTransition:
    def test_q1_closed_form(self):
        A, Q = iwp_transition(1, 0.5, 2.0)
        assert np.allclose(A, [[1.0, 0.5], [0.0, 1.0]])
        h = 0.5
        assert np.allclose(Q, 2.0 * np.array([[h ** 3 / 3, h ** 2 / 2],
                                              [h ** 2 / 2, h]]))

    def test_q2_psd(self):
        _, Q = iwp_transition(2, 0.3, 1.0)
        assert np.all(np.linalg.eigvalsh(Q) >= -1e-15)

    def test_overflowing_step_raises_typed_error(self):
        # h^3 = 1e300 still fits a float; h^5 = 1e500 does not
        _, Q = iwp_transition(1, 1e100, 1.0)
        assert np.all(np.isfinite(Q))
        with pytest.raises(CovarianceBreakdown, match=r"h = 1e\+100.*q = 2"):
            iwp_transition(2, 1e100, 1.0)


class TestConvergenceOrder:
    HS = (0.1, 0.05, 0.025, 0.0125)

    def test_euler_first_order(self):
        est = convergence_order_estimate(partial(trajectory, "euler"),
                                         named_problem("linear", a=1.0), self.HS)
        assert 0.8 <= est.slope <= 1.2

    def test_rk4_fourth_order(self):
        est = convergence_order_estimate(partial(trajectory, "rk4"),
                                         named_problem("linear", a=1.0), self.HS)
        assert 3.6 <= est.slope <= 4.4

    def test_filter_q1_tracks_euler(self):
        prob = named_problem("linear", a=1.0)
        euler = convergence_order_estimate(partial(trajectory, "euler"), prob, self.HS)
        filt = convergence_order_estimate(partial(trajectory, "filter-q1"), prob, self.HS)
        assert abs(filt.slope - euler.slope) <= 0.1

    def test_filter_q2_second_order(self):
        est = convergence_order_estimate(partial(trajectory, "filter-q2"),
                                         named_problem("linear", a=1.0), self.HS)
        assert 1.5 <= est.slope <= 2.5

    def test_zero_error_flagged(self):
        prob = IVProblem(f=lambda x, t: np.zeros_like(x), x0=[1.0], t0=0.0,
                         t_end=1.0, exact=lambda t: np.array([1.0]))
        est = convergence_order_estimate(partial(trajectory, "euler"), prob, self.HS)
        assert est.slope is None

    def test_requires_geometric_progression(self):
        with pytest.raises(ValueError):
            convergence_order_estimate(partial(trajectory, "euler"),
                                       named_problem("linear"),
                                       (0.1, 0.05, 0.03, 0.02))


class TestTrajectory:
    @pytest.mark.parametrize("name", ["euler", "midpoint", "rk4"])
    def test_rk_names_are_rk_reference(self, name):
        prob = named_problem("lotka-volterra")
        ts, xs, std = trajectory(name, prob, 0.05)
        ref_ts, ref = rk_reference(prob, rk_method(name), 0.05)
        assert np.array_equal(ts, ref_ts) and np.array_equal(xs, ref)
        assert std.shape == ref.shape and not std.any()

    # names are case-insensitive, as rk_method's are
    @pytest.mark.parametrize("name, q", [("filter-q1", 1), ("filter-q2", 2),
                                         ("Filter-Q1", 1)])
    def test_filter_names_are_solve_ivp_filter(self, name, q):
        prob = named_problem("lotka-volterra")
        ts, mean, std = trajectory(name, prob, 0.05, rho2=2.5)
        ref = solve_ivp_filter(prob, q=q, h=0.05, rho2=2.5)
        assert np.array_equal(ts, ref.ts) and np.array_equal(mean, ref.mean)
        assert np.array_equal(std, ref.std)


def runtime_per_steps(problem: IVProblem, q: int, step_counts: Sequence[int],
                      repeats: int = 3) -> List[float]:
    """Least ``timeit`` wall time (garbage collection off) of a filter run for
    each step count, the counts in turn in every repeat (cost linearity)."""
    best = [np.inf] * len(step_counts)
    span = problem.t_end - problem.t0
    for _ in range(repeats):
        for k, n in enumerate(step_counts):
            run = lambda: solve_ivp_filter(problem, q=q, h=span / n)
            best[k] = min(best[k], timeit.timeit(run, number=1))
    return best


class TestLinearCost:
    def test_runtime_scales_linearly(self):
        prob = named_problem("linear", a=-0.5, t_end=1.0)
        times = runtime_per_steps(prob, q=1, step_counts=(1000, 10000),
                                  repeats=5)
        ratio = times[1] / times[0]
        assert 8.0 <= ratio <= 12.0


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: IVProblem(f=lambda x, t: x, x0=[1.0], t0=1.0, t_end=1.0),
                 ValueError, "t_end must exceed t0", id="empty-horizon"),
    pytest.param(lambda: named_problem("brusselator"),
                 ValueError, "unknown problem name 'brusselator'", id="unknown-problem"),
    pytest.param(lambda: solve_ivp_filter(named_problem("linear"), q=1, h=0.0),
                 ValueError, "step size must be positive", id="zero-step"),
    pytest.param(lambda: solve_ivp_filter(named_problem("linear"), q=2, h=-0.1),
                 ValueError, "step size must be positive", id="negative-step"),
    pytest.param(lambda: convergence_order_estimate(
        partial(trajectory, "filter-q1"), named_problem("lotka-volterra"),
        [0.1, 0.05, 0.025, 0.0125]),
                 ValueError, "closed-form solution", id="order-without-exact"),
    pytest.param(lambda: trajectory("filter-q3", named_problem("linear"), 0.1),
                 ValueError, "unknown RK method 'filter-q3'", id="unknown-solver"),
    # the field ignores x, so nothing downstream would see the NaN
    pytest.param(lambda: IVProblem(f=lambda x, t: np.zeros(1), x0=[np.nan], t0=0.0,
                                   t_end=1.0),
                 ValueError, r"^x0 must be finite, got \[nan\]", id="nan-x0"),
    # a length-1 value would broadcast over both coordinates
    pytest.param(lambda: IVProblem(f=lambda x, t: np.ones(1), x0=[1.0, 2.0], t0=0.0,
                                   t_end=1.0),
                 ValueError, "field value has 1 entries, x0 has 2", id="short-field"),
])
def test_typed_rejections(call, error, message):
    with pytest.raises(error, match=message):
        call()
