"""Solving an initial value problem by filtering.

The state (solution and its derivatives) follows an integrated Wiener
process; each step observes the vector field at the current position mean
and conditions the derivative coordinate on it.  The q = 1 configuration
reproduces explicit Euler exactly in the mean while also carrying a
covariance; the q = 2 configuration is empirically second order.
"""

from functools import partial

import numpy as np

from pnum import (convergence_order_estimate, named_problem, rk_method,
                  rk_reference, solve_ivp_filter, trajectory)


def main():
    problem = named_problem("logistic", r=2.0, k=1.0, x0=0.1, t_end=2.0)
    h = 0.2
    result = solve_ivp_filter(problem, q=1, h=h, rho2=1.0)
    _, euler = rk_reference(problem, rk_method("euler"), h)

    print("filter mean (q=1) against explicit Euler, logistic problem:")
    print(f"{'t':>5}  {'filter mean':>12}  {'euler':>12}  {'filter std':>10}  {'exact':>12}")
    for k in range(0, len(result.ts), 2):
        t = result.ts[k]
        print(f"{t:>5.1f}  {result.mean[k, 0]:>12.8f}  {euler[k, 0]:>12.8f}  "
              f"{result.std[k, 0]:>10.2e}  {problem.exact(t)[0]:>12.8f}")

    print("\nempirical convergence orders on x' = x (global error at t_end):")
    hs = (0.1, 0.05, 0.025, 0.0125)
    linear = named_problem("linear", a=1.0, t_end=1.0)
    for name in ("euler", "midpoint", "rk4", "filter-q1", "filter-q2"):
        est = convergence_order_estimate(partial(trajectory, name), linear, hs)
        print(f"  {name:<11} slope {est.slope:+.2f}   errors "
              + "  ".join(f"{e:.1e}" for e in est.errors))

    print("\ndiffusion scale can be fitted per solve from the observed field values:")
    fitted = solve_ivp_filter(linear, q=1, h=0.1, calibrate_diffusion=True)
    print(f"  calibrated rho2 = {fitted.rho2:.3f}, "
          f"final std {fitted.std[-1, 0]:.2e}, "
          f"true error {abs(fitted.mean[-1, 0] - np.e):.2e}")


if __name__ == "__main__":
    main()
