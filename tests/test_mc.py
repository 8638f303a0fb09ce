import numpy as np
import pytest
from scipy.stats import norm

from pnum import (ConvergenceRecord, ais_evidence, make_evidence_problem,
                  smc_integrate)
from pnum.mc import EvidenceProblem


class TestProblems:
    def test_gaussian_1d_analytic_z(self):
        p = make_evidence_problem("gaussian-1d", half_width=5.0, sigma=1.0)
        mass = norm.cdf(5) - norm.cdf(-5)
        assert p.true_log_z == pytest.approx(np.log(mass / 10.0))

    @pytest.mark.parametrize("box", [[[0.0, np.nan]], [[-np.inf, 1.0]],
                                     [[0.0, 1.0], [0.0, np.inf]],
                                     np.zeros((0, 2))])
    def test_nonfinite_or_empty_box_rejected(self, box):
        with pytest.raises(ValueError, match="domain must be"):
            EvidenceProblem(name="bad", log_likelihood=lambda t: np.zeros(len(t)),
                            box=box)

    @pytest.mark.parametrize("name, params", [
        ("gaussian-1d", {"sigma": 0.0}), ("gaussian-2d", {"sigma": -1.0}),
        ("gaussian-1d", {"sigma": np.inf}), ("gaussian-2d", {"half_width": 0.0}),
        ("constant", {"value": -1.0}), ("constant", {"value": 0.0}),
        ("constant", {"dim": 0})])
    def test_invalid_parameters_rejected(self, name, params):
        with pytest.raises(ValueError):
            make_evidence_problem(name, **params)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            EvidenceProblem(name="big", log_likelihood=lambda t: np.zeros(len(t)),
                            box=np.tile([[0.0, 1.0]], (5, 1)))


class TestSMC:
    def test_constant_likelihood_exact(self):
        p = make_evidence_problem("constant", value=2.5)
        for n in (1, 7, 64):
            est, record = smc_integrate(p, n, seed=0)
            assert est == pytest.approx(2.5, rel=1e-12)
            assert record.budgets[-1] == n

    def test_rmse_within_twice_analytic_stderr(self):
        # analytic variance of the estimator under the uniform prior
        p = make_evidence_problem("gaussian-1d", half_width=5.0, sigma=1.0)
        half, sigma, vol = 5.0, 1.0, 10.0
        z = np.exp(p.true_log_z)
        # E[L^2] = (1/vol) int N(x;0,1)^2 dx = (1/vol) * mass_2 / (2 sqrt(pi))
        mass2 = norm.cdf(half * np.sqrt(2) / sigma) - norm.cdf(-half * np.sqrt(2) / sigma)
        e_l2 = mass2 / (2 * sigma * np.sqrt(np.pi)) / vol
        n = 4096
        analytic_se = np.sqrt((e_l2 - z ** 2) / n)
        errs = []
        for seed in range(100):
            est, _ = smc_integrate(p, n, seed=seed)
            errs.append(est - z)
        rmse = float(np.sqrt(np.mean(np.square(errs))))
        assert rmse <= 2.0 * analytic_se

    def test_unbiased_within_three_stderr(self):
        p = make_evidence_problem("gaussian-1d")
        z = np.exp(p.true_log_z)
        n = 256
        ests = np.array([smc_integrate(p, n, seed=s)[0] for s in range(1000)])
        se_of_mean = ests.std(ddof=1) / np.sqrt(len(ests))
        assert abs(ests.mean() - z) <= 3.0 * se_of_mean

    def test_deterministic_per_seed(self):
        p = make_evidence_problem("gaussian-2d")
        a, ra = smc_integrate(p, 512, seed=7)
        b, rb = smc_integrate(p, 512, seed=7)
        assert a == b
        assert ra.estimates == rb.estimates

    def test_budgets_strictly_increasing(self):
        p = make_evidence_problem("gaussian-1d")
        _, record = smc_integrate(p, 1000, seed=0)
        assert all(x < y for x, y in zip(record.budgets, record.budgets[1:]))

    @pytest.mark.parametrize("budget", [4, 3])
    def test_record_rejects_non_increasing_budget(self, budget):
        record = ConvergenceRecord()
        record.append(4, 1.0, 0.1)
        with pytest.raises(ValueError, match="strictly increasing"):
            record.append(budget, 1.0, 0.1)
        assert record.budgets == [4]


class TestAIS:
    def test_constant_likelihood_exact(self):
        p = make_evidence_problem("constant", value=0.7)
        result = ais_evidence(p, n_temps=8, n_chains=4, mh_steps=2, seed=0)
        assert result.log_z == pytest.approx(np.log(0.7), abs=1e-12)

    def test_gaussian_2d_accuracy(self):
        p = make_evidence_problem("gaussian-2d")
        errs = []
        for seed in range(20):
            result = ais_evidence(p, n_temps=64, n_chains=32, mh_steps=5,
                                  seed=seed)
            errs.append(abs(result.log_z - p.true_log_z))
        assert np.median(errs) < 0.1

    def test_more_temperatures_reduce_error(self):
        p = make_evidence_problem("gaussian-2d")
        med = {}
        for n_temps in (8, 64):
            errs = [abs(ais_evidence(p, n_temps, 32, 5, seed=s).log_z
                        - p.true_log_z) for s in range(20)]
            med[n_temps] = np.median(errs)
        assert med[64] < med[8]

    def test_deterministic_per_seed(self):
        p = make_evidence_problem("gaussian-2d")
        a = ais_evidence(p, 16, 8, 3, seed=3)
        b = ais_evidence(p, 16, 8, 3, seed=3)
        assert a.log_z == b.log_z
        assert a.record.estimates == b.record.estimates

    def test_degenerate_weights_flagged(self):
        # extremely peaked likelihood: one chain dominates the weights
        box = np.array([[-5.0, 5.0]])
        p = EvidenceProblem(
            name="spike", box=box,
            log_likelihood=lambda t: -5e4 * np.atleast_2d(t)[:, 0] ** 2)
        result = ais_evidence(p, n_temps=4, n_chains=8, mh_steps=1, seed=0)
        assert result.degenerate
        assert np.isfinite(result.log_z)

    def test_evaluation_count(self):
        p = make_evidence_problem("gaussian-1d")
        result = ais_evidence(p, n_temps=8, n_chains=4, mh_steps=3, seed=0)
        assert result.n_likelihood_evals == 4 * (1 + 8 * 3)
