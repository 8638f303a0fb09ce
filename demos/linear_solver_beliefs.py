"""A linear solve as inference over the inverse matrix.

The solver keeps a Gaussian belief over H = A^-1, steps along the belief's
mean applied to the residual, and absorbs every projection pair (s, As).
With an identity prior the iterates coincide with conjugate gradients; the
belief itself is the new output: a low-rank, symmetric estimate of A^-1 with
a scale calibrated from scalars the run produced anyway.
"""

import numpy as np

from pnum import (LinearOperator, calibrate_scale, classic_cg,
                  posterior_mean_apply, random_spd, solve_probabilistic,
                  truncate_belief)


def main():
    n = 32
    A = random_spd(n, seed=0, cond=20.0)
    op = LinearOperator.from_dense(A)
    b = np.random.default_rng(1).standard_normal(n)

    classic = classic_cg(op, b, tol=1e-10)
    prob = solve_probabilistic(op, b, tol=1e-10)
    print(f"classic CG iterations:      {classic.iterations}")
    print(f"probabilistic iterations:   {prob.iterations}")
    dev = max(np.linalg.norm(xc - xp) / (1 + np.linalg.norm(xc))
              for xc, xp in zip(classic.iterates, prob.iterates))
    print(f"worst per-iterate deviation: {dev:.2e}  (same sequence)\n")

    belief = prob.belief
    x_direct = np.linalg.solve(A, b)
    hb = posterior_mean_apply(belief, b)
    print(f"belief mean applied to b vs direct solve: "
          f"{np.linalg.norm(hb - x_direct) / np.linalg.norm(x_direct):.2e} relative")

    sigma = calibrate_scale(prob)
    lam = np.linalg.eigvalsh(A)
    print(f"calibrated scale sigma: {sigma:.3f}  "
          f"(spectrum spans [{lam[0]:.2f}, {lam[-1]:.2f}])\n")

    print("truncating the belief (keep the largest eigencomponents):")
    rng = np.random.default_rng(2)
    probes = rng.standard_normal((5, n))
    for rank in (n, 16, 8, 0):
        small = truncate_belief(belief, rank)
        errs = [np.linalg.norm(posterior_mean_apply(belief, v)
                               - posterior_mean_apply(small, v))
                / np.linalg.norm(v) for v in probes]
        print(f"  rank {rank:3d}: mean application change {np.mean(errs):.2e}")


if __name__ == "__main__":
    main()
