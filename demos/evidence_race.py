"""Racing quadrature methods on a model-evidence integral.

The target is Z = int L(theta) p(theta) dtheta on a 2-D box with an analytic
value.  Simple Monte Carlo converges at N^(-1/2); annealed importance
sampling works harder per sample; the warped Bayesian quadrature exploits
positivity and smoothness of the likelihood and actively places its nodes,
reaching the same accuracy orders of magnitude sooner.
"""

import numpy as np

from pnum import (ais_evidence, make_evidence_problem, smc_integrate,
                  warped_bq_integrate)


def evals_to_reach(budgets, log_errors, tol=0.1):
    for i, _ in enumerate(budgets):
        if all(e < tol for e in log_errors[i:]):
            return budgets[i]
    return None


def main():
    problem = make_evidence_problem("gaussian-2d")
    log_z = problem.true_log_z
    print(f"true log Z = {log_z:.4f}\n")

    log_prior = -np.log(problem.volume)

    def integrand(x):
        pt = np.atleast_2d(np.asarray(x, dtype=float))
        return float(np.exp(problem.log_likelihood(pt)[0] + log_prior))

    print("evaluations needed to hold |log error| < 0.1 (per seed):")
    print(f"{'seed':>5}  {'warped-bq':>10}  {'smc':>10}")
    ratios = []
    for seed in range(5):
        _, bq_rec = warped_bq_integrate(integrand, problem.box, 40, seed=seed)
        bq_errs = [abs(np.log(max(v, 1e-300)) - log_z) for v in bq_rec.estimates]
        bq_need = evals_to_reach(bq_rec.budgets, bq_errs)
        _, smc_rec = smc_integrate(problem, 2 ** 14, seed=seed)
        smc_errs = [abs(np.log(max(v, 1e-300)) - log_z) for v in smc_rec.estimates]
        smc_need = evals_to_reach(smc_rec.budgets, smc_errs)
        ratios.append(bq_need / smc_need)
        print(f"{seed:>5}  {bq_need:>10}  {smc_need:>10}")
    print(f"\nmedian evaluation ratio: {np.median(ratios):.4f}")

    print("\nannealed importance sampling at two ladder resolutions (seed 0):")
    for n_temps in (8, 64):
        result = ais_evidence(problem, n_temps=n_temps, n_chains=32,
                              mh_steps=5, seed=0)
        print(f"  T={n_temps:3d}: log Z estimate {result.log_z:+.4f}  "
              f"|error| {abs(result.log_z - log_z):.4f}  "
              f"likelihood evals {result.n_likelihood_evals}")


if __name__ == "__main__":
    main()
