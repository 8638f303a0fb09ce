"""Monte Carlo baselines: simple MC integration and annealed importance sampling.

Both are fully determined by (inputs, seed): one generator drives each run and
reductions happen in a fixed order, so repeated runs are bit-identical.
Evidence problems live on a box with a uniform prior whose density integrates
to one by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.special import logsumexp
from scipy.stats import norm

from .gp import _as_box
from .records import ConvergenceRecord

AIS_BETA_MIN = 0.03  # first positive rung of the geometric ladder


@dataclass(frozen=True)
class EvidenceProblem:
    """Evidence (marginal likelihood) target Z = int L(theta) p(theta) dtheta.

    ``log_likelihood`` is vectorized over an (n, d) array of parameter points.
    The prior is uniform on ``box`` (rows of (lo, hi)); its log density is
    -log(volume) inside.  ``true_log_z`` is known for the synthetic
    constructions and used as the oracle.
    """

    name: str
    log_likelihood: Callable[[np.ndarray], np.ndarray]
    box: np.ndarray
    true_log_z: Optional[float] = None

    def __post_init__(self):
        box = _as_box(self.box)
        if box.shape[0] > 4:
            raise ValueError("evidence problems support dimension <= 4")
        object.__setattr__(self, "box", box)

    @property
    def dim(self) -> int:
        return self.box.shape[0]

    @property
    def volume(self) -> float:
        return float(np.prod(self.box[:, 1] - self.box[:, 0]))

    def sample_prior(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.box[:, 0], self.box[:, 1], size=(n, self.dim))


def make_evidence_problem(name: str, **params) -> EvidenceProblem:
    """Named synthetic problems with analytic evidence.

    ``gaussian-1d`` / ``gaussian-2d``: isotropic Gaussian likelihood centered
    at ``mu`` with scale ``sigma`` > 0 on the box [-half_width, half_width]^d, so
    Z = prod_j (Phi((hi - mu)/sigma) - Phi((lo - mu)/sigma)) / volume.
    ``constant``: likelihood identically ``value`` > 0 (Z = value) on the
    unit box of dimension ``dim`` >= 1.  Other values raise ValueError.
    """
    if name in ("gaussian-1d", "gaussian-2d"):
        d = 1 if name.endswith("1d") else 2
        half = float(params.get("half_width", 5.0))
        sigma = float(params.get("sigma", 1.0))
        mu = float(params.get("mu", 0.0))
        if not (0.0 < sigma < np.inf and 0.0 < half < np.inf):
            raise ValueError(f"{name} needs finite sigma, half_width > 0: got {sigma}, {half}")
        box = np.tile([[-half, half]], (d, 1))

        def log_likelihood(theta):
            theta = np.atleast_2d(theta)
            return (-0.5 * ((theta - mu) ** 2).sum(axis=1) / sigma ** 2
                    - d * np.log(sigma * np.sqrt(2 * np.pi)))

        mass = (norm.cdf((half - mu) / sigma) - norm.cdf((-half - mu) / sigma)) ** d
        vol = (2 * half) ** d
        return EvidenceProblem(name=name, log_likelihood=log_likelihood,
                               box=box, true_log_z=float(np.log(mass / vol)))
    if name == "constant":
        value = float(params.get("value", 1.0))
        d = int(params.get("dim", 1))
        if not (0.0 < value < np.inf and d >= 1):
            raise ValueError(f"constant needs finite value > 0, dim >= 1: got {value}, {d}")
        box = np.tile([[0.0, 1.0]], (d, 1))
        return EvidenceProblem(
            name=name, box=box, true_log_z=float(np.log(value)),
            log_likelihood=lambda theta: np.full(np.atleast_2d(theta).shape[0],
                                                 np.log(value)))
    raise ValueError(f"unknown evidence problem {name!r}")


def _power_of_two_budgets(n: int) -> list:
    budgets = []
    k = 1
    while k <= n:
        budgets.append(k)
        k *= 2
    if budgets[-1] != n:
        budgets.append(n)
    return budgets


def smc_integrate(problem: EvidenceProblem, n: int,
                  seed: int) -> Tuple[float, ConvergenceRecord]:
    """Simple Monte Carlo: mean likelihood over n prior draws.

    The running estimate and its standard error are recorded at every
    power-of-two sample count (plus n itself).
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    theta = problem.sample_prior(rng, n)
    lik = np.exp(problem.log_likelihood(theta))
    record = ConvergenceRecord()
    csum = np.cumsum(lik)
    csum2 = np.cumsum(lik ** 2)
    for m in _power_of_two_budgets(n):
        est = csum[m - 1] / m
        if m > 1:
            var = max(csum2[m - 1] / m - est ** 2, 0.0) * m / (m - 1)
            stderr = float(np.sqrt(var / m))
        else:
            stderr = float("inf")
        record.append(budget=m, estimate=float(est), spread=stderr)
    return float(csum[-1] / n), record


@dataclass
class AISResult:
    """Annealed-importance-sampling outcome."""

    log_z: float
    degenerate: bool
    record: ConvergenceRecord
    n_likelihood_evals: int


def ais_evidence(problem: EvidenceProblem, n_temps: int, n_chains: int,
                 mh_steps: int, seed: int) -> AISResult:
    """Annealed importance sampling with random-walk Metropolis transitions.

    The temperature ladder is geometric: beta_0 = 0 followed by ``n_temps``
    log-spaced rungs from ``AIS_BETA_MIN`` to 1.  The proposal scale is the
    untuned 0.5 * (box width) * n_temps^(-1/2) per dimension.  Chains are
    vectorized under one seeded generator and reduced in chain order, so the
    estimate is deterministic per seed.  An effective sample size of the
    final weights below 2 flags the result as degenerate (the estimate is
    still returned; the ESS itself is not kept).
    """
    if n_temps < 1 or mh_steps < 1 or n_chains < 1:
        raise ValueError("n_temps, n_chains and mh_steps must be >= 1")
    rng = np.random.default_rng(seed)
    box = problem.box
    widths = box[:, 1] - box[:, 0]
    betas = np.concatenate([[0.0], np.geomspace(AIS_BETA_MIN, 1.0, n_temps)])
    theta = problem.sample_prior(rng, n_chains)
    log_w = np.zeros(n_chains)
    scale = 0.5 * widths / np.sqrt(n_temps)
    log_lik = problem.log_likelihood(theta)
    n_evals = n_chains
    for j in range(1, betas.size):
        log_w += (betas[j] - betas[j - 1]) * log_lik
        for _ in range(mh_steps):
            prop = theta + rng.standard_normal(theta.shape) * scale
            inside = np.all((prop >= box[:, 0]) & (prop <= box[:, 1]), axis=1)
            log_lik_prop = problem.log_likelihood(prop)
            n_evals += n_chains
            log_acc = betas[j] * (log_lik_prop - log_lik)
            accept = inside & (np.log(rng.uniform(size=n_chains)) < log_acc)
            theta[accept] = prop[accept]
            log_lik[accept] = log_lik_prop[accept]
    record = ConvergenceRecord()
    for m in _power_of_two_budgets(n_chains):
        est = float(logsumexp(log_w[:m]) - np.log(m))
        spread = float(np.std(log_w[:m]) / np.sqrt(m)) if m > 1 else float("inf")
        record.append(budget=m, estimate=est, spread=spread)
    log_z = float(logsumexp(log_w) - np.log(n_chains))
    w_norm = np.exp(log_w - logsumexp(log_w))
    ess = float(1.0 / np.sum(w_norm ** 2))
    return AISResult(log_z=log_z, degenerate=ess < 2.0,
                     record=record, n_likelihood_evals=n_evals)
