import numpy as np
import pytest

from pnum import (IVProblem, NonFiniteField,
                  convergence_order_estimate, filter_solver, iwp_transition,
                  named_problem, rk_method, rk_reference, rk_solver,
                  solve_ivp_filter)


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

    def test_tableau_consistency(self):
        for name, order in (("euler", 1), ("midpoint", 2), ("rk4", 4)):
            m = rk_method(name)
            assert m.order == order
            assert np.allclose(m.a.sum(axis=1), m.c, atol=1e-12)


class TestFilter:
    def test_zero_field_constant_mean_pinned_derivative(self):
        prob = IVProblem(f=lambda x, t: np.zeros_like(x), x0=[3.0], t0=0.0,
                         t_end=1.0)
        res = solve_ivp_filter(prob, q=1, h=0.1)
        assert np.allclose(res.mean, 3.0)
        d = prob.dim
        for state in res.states[:-1]:
            # derivative coordinate pinned to the observed 0 after updates
            assert abs(state.mean[d]) <= 1e-14

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
        for state in res.states:
            eig = np.linalg.eigvalsh(state.cov)
            assert eig[0] >= -1e-8 * max(np.trace(state.cov), 1e-300)

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
            for state in plain.states[1:-1]:
                S = state.cov[d:2 * d, d:2 * d]
                S = S + 1e-14 * np.trace(S) * np.eye(d)
                r = prob.eval_field(state.mean[:d], state.t) - state.mean[d:2 * d]
                terms.append(r @ np.linalg.solve(S, r) / d)
            res = solve_ivp_filter(prob, q=q, h=h, calibrate_diffusion=True)
            assert res.rho2 == pytest.approx(np.mean(terms), rel=1e-10)
            assert all(state.rho2 == res.rho2 for state in res.states)
            for cal, ref in zip(res.states, plain.states):
                assert np.allclose(cal.cov, res.rho2 * ref.cov, rtol=1e-10,
                                   atol=1e-12 * res.rho2 * np.abs(ref.cov).max())

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
        assert all(state.rho2 == 0.5 for state in res.states)
        assert np.allclose(res.std, plain.std, rtol=1e-12, atol=0.0)

    def test_stiff_linear_problem(self):
        prob = named_problem("stiff-linear", lam=-20.0, t_end=0.5)
        res = solve_ivp_filter(prob, q=1, h=0.01)
        assert np.all(np.isfinite(res.mean))
        assert abs(res.mean[-1, 0] - prob.exact(0.5)[0]) < 0.01
        with pytest.raises(ValueError):
            named_problem("stiff-linear", lam=1.0)


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


class TestConvergenceOrder:
    HS = (0.1, 0.05, 0.025, 0.0125)

    def test_euler_first_order(self):
        est = convergence_order_estimate(rk_solver("euler"),
                                         named_problem("linear", a=1.0), self.HS)
        assert 0.8 <= est.slope <= 1.2

    def test_rk4_fourth_order(self):
        est = convergence_order_estimate(rk_solver("rk4"),
                                         named_problem("linear", a=1.0), self.HS)
        assert 3.6 <= est.slope <= 4.4

    def test_filter_q1_tracks_euler(self):
        prob = named_problem("linear", a=1.0)
        euler = convergence_order_estimate(rk_solver("euler"), prob, self.HS)
        filt = convergence_order_estimate(filter_solver(q=1), prob, self.HS)
        assert abs(filt.slope - euler.slope) <= 0.1

    def test_filter_q2_second_order(self):
        est = convergence_order_estimate(filter_solver(q=2),
                                         named_problem("linear", a=1.0), self.HS)
        assert 1.5 <= est.slope <= 2.5

    def test_zero_error_flagged(self):
        prob = IVProblem(f=lambda x, t: np.zeros_like(x), x0=[1.0], t0=0.0,
                         t_end=1.0, exact=lambda t: np.array([1.0]))
        est = convergence_order_estimate(rk_solver("euler"), prob, self.HS)
        assert est.zero_error
        assert est.slope is None

    def test_requires_geometric_progression(self):
        with pytest.raises(ValueError):
            convergence_order_estimate(rk_solver("euler"),
                                       named_problem("linear"),
                                       (0.1, 0.05, 0.03, 0.02))


class TestLinearCost:
    def test_runtime_scales_linearly(self):
        from pnum.odefilter import runtime_per_steps
        prob = named_problem("linear", a=-0.5, t_end=1.0)
        times = runtime_per_steps(prob, q=1, step_counts=(1000, 10000),
                                  repeats=5)
        ratio = times[1] / times[0]
        assert 8.0 <= ratio <= 12.0
