"""Carrying solver knowledge across a drifting sequence of linear systems.

A synthetic deconvolution setup: the blur kernel of a 1-D convolution walks
slowly, producing twenty related SPD systems.  Solving them independently
wastes everything each solve learned about the operator; carrying the
truncated posterior belief forward seeds each new solve with an approximate
inverse, collapsing both the initial residuals and the iteration counts.
"""

import numpy as np

from pnum import SequenceConfig, generate_sequence, run_recycling_benchmark


def main():
    config = SequenceConfig(dim=32, length=20, drift=0.02)
    problem = generate_sequence(config, seed=0)
    mats = [op.dense for op, _ in problem.systems]
    drifts = np.array([np.linalg.norm(b - a, "fro") / np.linalg.norm(a, "fro")
                       for a, b in zip(mats, mats[1:])])
    print(f"sequence of {config.length} systems, dim {config.dim}, "
          f"measured per-step drift <= {drifts.max():.4f}\n")

    report = run_recycling_benchmark(problem, rank=64, tol=1e-8)
    print(f"{'problem':>7}  {'cold iters':>10}  {'warm iters':>10}  "
          f"{'cold res0':>10}  {'warm res0':>10}")
    for i, (c, w) in enumerate(zip(report.cold, report.warm)):
        print(f"{i:>7}  {c.iterations:>10}  {w.iterations:>10}  "
              f"{c.initial_residual:>10.2e}  {w.initial_residual:>10.2e}")
    ratio = report.initial_residual_ratio(start=4)
    print(f"\ntotal matrix-vector products: cold {report.cold_matvecs}, "
          f"warm {report.warm_matvecs}")
    print(f"mean initial-residual ratio from problem 5 on: {ratio:.4f}")


if __name__ == "__main__":
    main()
