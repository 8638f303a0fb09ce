"""Per-evaluation convergence traces shared by the benchmark drivers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class ConvergenceRecord:
    """Trace of a single method run: estimate and spread per budget.

    ``budgets`` must be strictly increasing.  ``spreads`` holds the posterior
    standard deviation for Bayesian methods and the standard error for Monte
    Carlo ones.
    """

    budgets: List[int] = field(default_factory=list)
    estimates: List[float] = field(default_factory=list)
    spreads: List[float] = field(default_factory=list)

    def append(self, budget: int, estimate: float, spread: float) -> None:
        if self.budgets and budget <= self.budgets[-1]:
            raise ValueError(
                f"budgets must be strictly increasing, got {budget} after "
                f"{self.budgets[-1]}")
        self.budgets.append(int(budget))
        self.estimates.append(float(estimate))
        self.spreads.append(float(spread))
