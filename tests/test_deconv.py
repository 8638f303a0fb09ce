from dataclasses import replace

import numpy as np
import pytest

from pnum import SequenceConfig, cli, generate_sequence, run_recycling_benchmark


class TestGenerate:
    def test_zero_drift_identical_operators(self):
        problem = generate_sequence(SequenceConfig(dim=16, length=5, drift=0.0),
                                    seed=0)
        A0 = problem.systems[0][0].dense
        for op, _ in problem.systems[1:]:
            assert np.linalg.norm(op.dense - A0, "fro") == 0.0

    def test_drift_bound_respected(self):
        cfg = SequenceConfig(dim=32, length=20, drift=0.02)
        problem = generate_sequence(cfg, seed=0)
        mats = [op.dense for op, _ in problem.systems]
        for a, b in zip(mats, mats[1:]):
            rel = np.linalg.norm(b - a, "fro") / np.linalg.norm(a, "fro")
            assert rel <= 0.02 + 1e-12

    def test_zero_noise_reference_solution_solves(self):
        problem = generate_sequence(SequenceConfig(dim=16, length=4, drift=0.01,
                                                   noise=0.0), seed=1)
        for op, rhs in problem.systems:
            residual = rhs - op.dense @ problem.signal
            assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(rhs)

    def test_noise_scales_rhs_deviation(self):
        # same seed, same draws: the operators match bit for bit and the
        # deviation rhs - A x_ref is linear in the noise level
        cfg = SequenceConfig(dim=16, length=5, drift=0.02, noise=0.05)
        low = generate_sequence(cfg, seed=3)
        high = generate_sequence(replace(cfg, noise=0.1), seed=3)
        assert np.array_equal(low.signal, high.signal)
        for (op_lo, rhs_lo), (op_hi, rhs_hi) in zip(low.systems, high.systems):
            assert np.array_equal(op_lo.dense, op_hi.dense)
            dev_lo = rhs_lo - op_lo.dense @ low.signal
            dev_hi = rhs_hi - op_hi.dense @ high.signal
            assert np.linalg.norm(dev_lo) > 0.0
            assert (np.linalg.norm(dev_hi - 2.0 * dev_lo)
                    <= 1e-12 * np.linalg.norm(dev_hi))

    def test_operators_pass_spd_probe(self):
        problem = generate_sequence(SequenceConfig(dim=24, length=6, drift=0.05),
                                    seed=2)
        for op, _ in problem.systems:
            op.spd_probe()

    def test_drift_magnitude_validated(self):
        with pytest.raises(ValueError):
            SequenceConfig(drift=0.5)

    def test_deterministic_per_seed(self):
        a = generate_sequence(SequenceConfig(dim=16, length=4), seed=5)
        b = generate_sequence(SequenceConfig(dim=16, length=4), seed=5)
        for (opa, ra), (opb, rb) in zip(a.systems, b.systems):
            assert np.array_equal(opa.dense, opb.dense)
            assert np.array_equal(ra, rb)


class TestRecyclingBenchmark:
    def test_zero_drift_warm_converges_immediately(self):
        problem = generate_sequence(SequenceConfig(dim=24, length=5, drift=0.0),
                                    seed=0)
        report = run_recycling_benchmark(problem, rank=64, tol=1e-8)
        assert report.warm_matvecs <= report.cold_matvecs
        for r in report.warm[1:]:
            assert r.iterations <= 2

    def test_drifting_sequence_recycling_benefit(self):
        problem = generate_sequence(SequenceConfig(dim=32, length=20, drift=0.02),
                                    seed=0)
        report = run_recycling_benchmark(problem, rank=64, tol=1e-8)
        assert report.initial_residual_ratio(start=4) <= 1.0 / 3.0
        assert report.warm_matvecs < report.cold_matvecs

    def test_rank_zero_disables_recycling(self):
        problem = generate_sequence(SequenceConfig(dim=16, length=4, drift=0.02),
                                    seed=3)
        report = run_recycling_benchmark(problem, rank=0, tol=1e-8)
        cold_iters = [r.iterations for r in report.cold]
        warm_iters = [r.iterations for r in report.warm]
        assert cold_iters == warm_iters

    def test_recycling_never_wastes_matvecs(self):
        # regression guard: <= 5% overhead on drifting sequences
        for seed, drift in ((0, 0.01), (1, 0.05), (2, 0.02)):
            problem = generate_sequence(
                SequenceConfig(dim=24, length=8, drift=drift), seed=seed)
            report = run_recycling_benchmark(problem, rank=48, tol=1e-8)
            assert report.warm_matvecs <= 1.05 * report.cold_matvecs

    def test_csv_rows_schema(self):
        # the rows `pnum recycle` writes: one per system, cold then warm
        problem = generate_sequence(SequenceConfig(dim=16, length=3, drift=0.01),
                                    seed=0)
        report = run_recycling_benchmark(problem, rank=32, tol=1e-8)
        rows = report.rows()
        assert len(rows) == 2 * 3
        assert all(list(row) == cli._RECYCLE_FIELDS for row in rows)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: SequenceConfig(length=1),
                 ValueError, "sequence length must be >= 2", id="one-system"),
    pytest.param(lambda: SequenceConfig(dim=0),
                 ValueError, "dim and kernel_size must be >= 1, got 0, 9", id="empty-signal"),
    pytest.param(lambda: SequenceConfig(kernel_size=0),
                 ValueError, "dim and kernel_size must be >= 1, got 32, 0", id="empty-stencil"),
])
def test_typed_rejections(call, error, message):
    with pytest.raises(error, match=message):
        call()
