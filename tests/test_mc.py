import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

import pnum
from pnum import (ConvergenceRecord, ais_evidence, make_evidence_problem,
                  smc_integrate)
from pnum.mc import EvidenceProblem


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.optimize"])
def test_import_leaves_out(module):
    # a fresh interpreter, since this one has imported both modules already
    src = str(Path(pnum.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import pnum; "
            f"print({module!r} in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


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
        ("constant", {"dim": 0}),
        # the prior mass underflows to 0: (4e-239)^2, and exactly 0
        ("gaussian-2d", {"mu": 38.0}), ("gaussian-1d", {"mu": np.inf})])
    def test_invalid_parameters_rejected(self, name, params):
        with pytest.raises(ValueError):
            make_evidence_problem(name, **params)

    def test_far_mean_with_tiny_mass_kept(self):
        # mass ~ 4e-239 is small but representable, so the problem stands
        p = make_evidence_problem("gaussian-1d", mu=38.0)
        assert p.true_log_z == pytest.approx(-551.2189473627321, rel=1e-12)

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

    def test_equal_samples_have_zero_spread(self):
        # every likelihood is 0.37: the sample deviation is exactly 0 at
        # every budget, also where a sum of the 0.37s rounds
        p = make_evidence_problem("constant", value=0.37, dim=2)
        _, record = smc_integrate(p, 1000, seed=0)
        assert record.spreads[0] == np.inf
        assert all(s == 0.0 for s in record.spreads[1:])

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

    # (seed, n_temps): float.hex of log_z, and the first 16 hex digits of the
    # sha256 of the record's estimates then spreads as float.hex, on
    # gaussian-2d with 32 chains and 5 Metropolis steps per rung
    PINNED = {(0, 8): ("-0x1.498dad71fb7abp+2", "869b56eae2f2a888"),
              (1, 8): ("-0x1.1b49ba0cd4e4bp+2", "f7bf3e17a9767cfa"),
              (2, 8): ("-0x1.27c74481d0a38p+2", "02f8231d14c63566"),
              (0, 64): ("-0x1.2a0c60325c4b8p+2", "3ecb02d7dcaaa94e"),
              (1, 64): ("-0x1.21bb481328273p+2", "f9b9e3d845d330c6"),
              (2, 64): ("-0x1.2c4a199481025p+2", "fa15595757ab324e")}

    @pytest.mark.parametrize("seed, n_temps", sorted(PINNED))
    def test_pinned_bits(self, seed, n_temps):
        # the Metropolis step draws the same random stream and keeps the same
        # arithmetic, so its estimates stay the same to the bit
        p = make_evidence_problem("gaussian-2d")
        result = ais_evidence(p, n_temps, 32, 5, seed)
        record = result.record.estimates + result.record.spreads
        digest = hashlib.sha256(" ".join(map(float.hex, record)).encode())
        assert (result.log_z.hex(), digest.hexdigest()[:16]) == self.PINNED[seed, n_temps]


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: smc_integrate(make_evidence_problem("gaussian-1d"), 0, 0),
                 ValueError, "need at least one sample", id="smc-no-samples"),
    pytest.param(lambda: ais_evidence(make_evidence_problem("gaussian-1d"), 0, 8, 2, 0),
                 ValueError, "must be >= 1", id="ais-no-temperatures"),
    pytest.param(lambda: ais_evidence(make_evidence_problem("gaussian-1d"), 8, 0, 2, 0),
                 ValueError, "must be >= 1", id="ais-no-chains"),
    pytest.param(lambda: ais_evidence(make_evidence_problem("gaussian-1d"), 8, 8, 0, 0),
                 ValueError, "must be >= 1", id="ais-no-mh-steps"),
    # sigma ** 2 underflows to 0, so every log-likelihood but at mu is -inf
    pytest.param(lambda: make_evidence_problem("gaussian-1d", sigma=1e-200),
                 ValueError, "sigma = 1e-200 has a log-likelihood that is not finite",
                 id="gaussian-tiny-sigma"),
    pytest.param(lambda: smc_integrate(make_evidence_problem("constant", value=1e308), 4, 0),
                 ValueError, "constant: the sum of 4 likelihoods overflows",
                 id="smc-sum-overflows"),
    # likelihoods near 1e200 sum finitely, but their squared spread overflows;
    # RuntimeWarning is an error in this suite, so no warning may escape either
    pytest.param(lambda: smc_integrate(EvidenceProblem(
                     name="hot", box=[[0.0, 1.0]],
                     log_likelihood=lambda t: 460.0 + np.atleast_2d(t)[:, 0]), 64, 0),
                 ValueError, "hot: the spread of 64 likelihoods overflows",
                 id="smc-spread-overflows"),
    # Phi(5e-200) - Phi(-5e-200) rounds to 0: the width of sigma, not mu, is at fault
    pytest.param(lambda: make_evidence_problem("gaussian-1d", sigma=1e200),
                 ValueError, r"sigma = 1e\+200 over half_width = 5.0 leaves no prior mass",
                 id="gaussian-huge-sigma"),
])
def test_typed_rejections(call, error, message):
    with pytest.raises(error, match=message):
        call()
