import dataclasses

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from pnum import linalg
from pnum import (BeliefDimensionMismatch, Breakdown, DimensionMismatch,
                  InsufficientTrace, LinearOperator, calibrate_scale,
                  classic_cg, condition_on_observations, identity_belief,
                  load_operator, posterior_mean_apply, random_spd,
                  solve_probabilistic, truncate_belief, warm_start_sequence)
from pnum.linalg import _BorderedCholesky


def seeded_system(n, seed, cond=20.0):
    A = random_spd(n, seed, cond=cond)
    b = np.random.default_rng(1000 + seed).standard_normal(n)
    return LinearOperator.from_dense(A), b


class TestClassicCG:
    def test_identity_converges_in_one_iteration(self):
        op = LinearOperator.from_dense(np.eye(7))
        b = np.arange(1.0, 8.0)
        rep = classic_cg(op, b, tol=1e-12)
        assert rep.iterations == 1
        assert np.allclose(rep.solution, b)

    def test_diagonal_two_by_two(self):
        op = LinearOperator.from_dense(np.diag([1.0, 2.0]))
        rep = classic_cg(op, np.array([1.0, 1.0]), tol=1e-12)
        assert rep.iterations <= 2
        assert np.allclose(rep.solution, [1.0, 0.5], atol=1e-10)

    def test_matches_dense_solve(self):
        op, b = seeded_system(50, 0)
        rep = classic_cg(op, b, tol=1e-12, maxiter=200)
        oracle = np.linalg.solve(op.dense, b)
        assert np.linalg.norm(rep.solution - oracle) <= 1e-8 * np.linalg.norm(oracle)

    def test_breakdown_on_indefinite(self):
        A = np.diag([1.0, -1.0])
        op = LinearOperator(dim=2, matvec=lambda v: A @ v)  # skip the probe
        with pytest.raises(Breakdown):
            classic_cg(op, np.array([0.0, 1.0]))

    def test_error_monotone_in_a_norm(self):
        op, b = seeded_system(20, 3)
        rep = classic_cg(op, b, tol=1e-12)
        x_true = np.linalg.solve(op.dense, b)
        norms = [np.sqrt((x - x_true) @ op.dense @ (x - x_true))
                 for x in rep.iterates]
        assert all(n2 <= n1 + 1e-12 for n1, n2 in zip(norms, norms[1:]))

    def test_residual_trace_recorded(self):
        op, b = seeded_system(16, 4)
        rep = classic_cg(op, b, tol=1e-10)
        assert len(rep.residual_norms) == rep.iterations + 1
        assert rep.converged
        assert rep.residual_norms[-1] <= 1e-10 * np.linalg.norm(b)


class TestProbabilisticSolver:
    def test_identity_operator(self):
        op = LinearOperator.from_dense(np.eye(5))
        b = np.ones(5)
        rep = solve_probabilistic(op, b, tol=1e-12)
        assert rep.iterations == 1
        assert np.allclose(rep.solution, b)

    def test_matches_classic_cg_iterates(self):
        for seed in range(8):
            op, b = seeded_system(30, seed)
            classic = classic_cg(op, b, tol=1e-10, maxiter=60)
            prob = solve_probabilistic(op, b, tol=1e-10, maxiter=60)
            nb = np.linalg.norm(b)
            for i in range(min(len(classic.iterates), len(prob.iterates))):
                if classic.residual_norms[min(i, len(classic.residual_norms) - 1)] < 1e-8 * nb:
                    break
                rel = (np.linalg.norm(classic.iterates[i] - prob.iterates[i])
                       / (1.0 + np.linalg.norm(classic.iterates[i])))
                assert rel <= 1e-6

    def test_converges_within_n_iterations(self):
        op, b = seeded_system(16, 11)
        rep = solve_probabilistic(op, b, tol=1e-10, maxiter=16)
        assert rep.converged
        assert rep.iterations <= 16

    def test_dimension_mismatch(self):
        op, b = seeded_system(8, 0)
        with pytest.raises(BeliefDimensionMismatch):
            solve_probabilistic(op, b, identity_belief(9))
        with pytest.raises(BeliefDimensionMismatch, match="operator dimension"):
            solve_probabilistic(op, np.ones(9), identity_belief(9))

    @pytest.mark.parametrize("tol", [0.0, -1e-8])
    def test_nonpositive_tol_rejected(self, tol):
        op, b = seeded_system(8, 0)
        with pytest.raises(ValueError, match="tol must be positive"):
            solve_probabilistic(op, b, tol=tol)

    def test_breakdown_on_indefinite(self):
        op = LinearOperator.from_dense(np.diag([1.0, -1.0]), check=False)
        with pytest.raises(Breakdown):
            solve_probabilistic(op, np.array([0.0, 1.0]))

    def test_past_floating_point_floor_stops_cleanly(self):
        # run far below the attainable residual: the direction eventually
        # vanishes in floating point, which must end the solve, not raise
        for n in (16, 32):
            for seed in range(15):
                op, b = seeded_system(n, seed, cond=1e8)
                for rep in (solve_probabilistic(op, b, tol=1e-300, maxiter=3 * n),
                            classic_cg(op, b, tol=1e-300, maxiter=40 * n)):
                    assert np.all(np.isfinite(rep.solution))
                    assert rep.converged == (rep.final_residual
                                             <= 1e-300 * np.linalg.norm(b))

    def test_well_conditioned_solve_needs_no_jitter(self):
        op, b = seeded_system(30, 2)
        rep = solve_probabilistic(op, b, tol=1e-10)
        assert rep.converged
        assert rep.jitter == 0.0
        assert rep.eig_fallback is False
        cg = classic_cg(op, b, tol=1e-10)
        assert (cg.jitter, cg.eig_fallback) == (0.0, False)

    def test_solve_past_n_iterations_reports_jitter(self):
        op, b = seeded_system(12, 3)
        rep = solve_probabilistic(op, b, tol=1e-300, maxiter=36)
        assert rep.iterations > 12
        assert rep.jitter > 0.0


def _rank_deficient_gram(rank, size, shifts, seed=0):
    """Gram matrix of ``size`` vectors in R^rank, diagonal lowered from column
    ``start`` on by ``delta`` relative for each (start, delta) in shifts."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((rank, size)) * rng.uniform(0.5, 3.0, size)
    G = X.T @ X
    for start, delta in shifts:
        idx = np.arange(start, size)
        G[idx, idx] -= delta * G[idx, idx]
    return G


class TestBorderedCholesky:
    SIZE = 40  # past the first two doublings of the initial capacity

    def grow(self, G):
        """Feed G column by column; yield (factor, leading block, rhs)."""
        factor = _BorderedCholesky()
        rng = np.random.default_rng(1)
        for j in range(G.shape[0]):
            factor.append(G[:j + 1, j])
            yield factor, G[:j + 1, :j + 1], rng.standard_normal(j + 1)

    def test_jitter_climbs_and_solves_match_fresh_factor(self):
        # the leading 10 x 10 block is SPD; the later columns are linearly
        # dependent on the first ten and lowered by 2e-9, so the matrix turns
        # indefinite and only the top rung 1e-8 factors it
        G = _rank_deficient_gram(10, self.SIZE, [(10, 2e-9)])
        path = []
        for factor, N, v in self.grow(G):
            path.append(factor.jitter)
            assert not factor.eig_fallback
            dd = np.sqrt(np.diag(N))
            Ns = N / dd[:, None] / dd[None, :]
            L = np.linalg.cholesky(Ns + factor.jitter * np.eye(N.shape[0]))
            ref = np.linalg.solve(L.T, np.linalg.solve(L, v / dd)) / dd
            got = factor.solve(v)
            assert np.linalg.norm(got - ref) <= 1e-6 * np.linalg.norm(ref)
        assert path[:10] == [0.0] * 10
        assert path == sorted(path)
        assert path[-1] == 1e-8

    def test_triangular_solves_match_solve_triangular_bitwise(self):
        empty = _BorderedCholesky()
        assert empty.solve(np.empty(0)).shape == (0,)
        G = _rank_deficient_gram(10, self.SIZE, [(10, 2e-9)])
        for factor, N, v in self.grow(G):
            m = N.shape[0]
            L = np.tril(factor._l[:m, :m])
            for trans in (0, 1):
                ref = solve_triangular(L, v, lower=True, trans=1 - trans,
                                       check_finite=False)
                assert factor._trsv(v, trans).tobytes() == ref.tobytes()
            dd = np.sqrt(np.diag(N))
            z = solve_triangular(L, v / dd, lower=True, check_finite=False)
            ref = solve_triangular(L, z, lower=True, trans="T",
                                   check_finite=False) / dd
            assert factor.solve(v).tobytes() == ref.tobytes()

    def test_eigenvalue_clipped_solve_once_every_rung_fails(self):
        G = _rank_deficient_gram(10, self.SIZE, [(10, 1e-6)])
        for factor, N, v in self.grow(G):
            m = N.shape[0]
            assert factor.eig_fallback == (m > 10)
            if m <= 10:
                continue
            dd = np.sqrt(np.diag(N))
            lam, P = np.linalg.eigh(N / dd[:, None] / dd[None, :])
            lam = np.where(lam > 1e-12 * lam.max(), lam, np.inf)
            ref = (P @ ((P.T @ (v / dd)) / lam)) / dd
            got = factor.solve(v)
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


class TestBelief:
    def test_fresh_belief_is_identity(self):
        belief = identity_belief(6)
        v = np.arange(6.0)
        assert np.array_equal(posterior_mean_apply(belief, v), v)

    def test_single_observation_consistency(self):
        # Dirac conditioning: the posterior mean must map y back to s
        rng = np.random.default_rng(7)
        A = random_spd(10, 7)
        s = rng.standard_normal(10)
        y = A @ s
        belief = condition_on_observations(identity_belief(10), s, y)
        assert np.allclose(posterior_mean_apply(belief, y), s,
                           atol=1e-8 * np.linalg.norm(s))

    def test_posterior_consistency_after_solve(self):
        op, b = seeded_system(16, 21)
        rep = solve_probabilistic(op, b, tol=1e-10)
        # recover the steps from the iterate trace and check H y_i = s_i
        for i in range(1, len(rep.iterates)):
            s = rep.iterates[i] - rep.iterates[i - 1]
            y = op.dense @ s
            hy = posterior_mean_apply(rep.belief, y)
            assert np.linalg.norm(hy - s) <= 1e-6 * (1 + np.linalg.norm(s))

    def test_posterior_mean_applies_inverse_to_rhs(self):
        op, b = seeded_system(16, 5)
        rep = solve_probabilistic(op, b, tol=1e-10, maxiter=32)
        hb = posterior_mean_apply(rep.belief, b)
        oracle = np.linalg.solve(op.dense, b)
        assert np.linalg.norm(hb - oracle) <= 1e-6 * np.linalg.norm(oracle)

    def test_posterior_mean_symmetric(self):
        op, b = seeded_system(12, 6)
        rep = solve_probabilistic(op, b, tol=1e-10)
        rng = np.random.default_rng(8)
        for _ in range(10):
            u = rng.standard_normal(12)
            v = rng.standard_normal(12)
            left = u @ posterior_mean_apply(rep.belief, v)
            right = v @ posterior_mean_apply(rep.belief, u)
            assert abs(left - right) <= 1e-8 * (1 + abs(left))

    def test_conditioning_stacks_onto_the_prior(self):
        # H_M - I = [W0 S D] blockdiag(C0, C) [W0 S D]': the prior's factor
        # and core are kept as they are, and each observation adds 2 columns
        op, b = seeded_system(16, 22)
        prior = truncate_belief(solve_probabilistic(op, b, tol=1e-10).belief, 6)
        rep = solve_probabilistic(op, np.ones(16), prior, tol=1e-10)
        post = rep.belief
        assert post.rank == prior.rank + 2 * rep.iterations
        assert np.array_equal(post.w[:, :6], prior.w)
        assert np.array_equal(post.c[:6, :6], prior.c)
        assert not post.c[:6, 6:].any() and np.array_equal(post.c, post.c.T)

    def test_conditioning_that_keeps_no_direction_returns_the_prior(self):
        # zero steps leave N = S'Y = 0, so no direction is identifiable
        op, b = seeded_system(16, 23)
        for prior in (identity_belief(16),
                      truncate_belief(solve_probabilistic(op, b, tol=1e-10).belief, 6)):
            for k in (1, 3):
                zeros = np.zeros((16, k))
                assert condition_on_observations(prior, zeros, zeros) is prior

    def test_apply_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            posterior_mean_apply(identity_belief(4), np.ones(5))


def count_conditionings(monkeypatch):
    calls = []
    eager = linalg.condition_on_observations

    def counted(*args):
        calls.append(1)
        return eager(*args)
    monkeypatch.setattr(linalg, "condition_on_observations", counted)
    return calls


class TestLazyBelief:
    def assert_conditioned_on_read(self, rep, calls):
        before = len(calls)
        belief = rep.belief
        assert len(calls) == before + 1
        S, Y = rep.observations
        assert S.shape == Y.shape == (rep.prior.dim, rep.iterations)
        eager = condition_on_observations(rep.prior, S, Y)
        assert belief.w.tobytes() == eager.w.tobytes()
        assert belief.c.tobytes() == eager.c.tobytes()

    def test_cold_solve_conditions_on_first_read_only(self, monkeypatch):
        calls = count_conditionings(monkeypatch)
        op, b = seeded_system(30, 81)
        rep = solve_probabilistic(op, b, tol=1e-10)
        assert calls == []
        self.assert_conditioned_on_read(rep, calls)

    def test_warm_solve_conditions_on_first_read_only(self, monkeypatch):
        calls = count_conditionings(monkeypatch)
        problems = [seeded_system(30, s) for s in (82, 83)]
        reports = warm_start_sequence(problems, rank=16, tol=1e-10)
        assert len(calls) == 1   # the first belief, for the second prior
        assert reports[1].prior.rank == 16
        self.assert_conditioned_on_read(reports[1], calls)

    def test_no_observations_gives_the_prior(self):
        op = LinearOperator.from_dense(np.eye(5))
        prior = identity_belief(5)
        rep = solve_probabilistic(op, np.zeros(5), prior)
        assert rep.observations is None and rep.belief is prior
        assert classic_cg(op, np.ones(5)).belief is None


class TestCalibrateScale:
    def test_scaled_identity_recovers_scale(self):
        c = 3.7
        op = LinearOperator.from_dense(c * np.eye(6))
        rep = solve_probabilistic(op, np.ones(6), tol=1e-14, maxiter=12)
        # scaled identity converges immediately; extend trace with a second
        # system sharing the operator
        if len(rep.rayleigh_quotients) < 2:
            rep2 = classic_cg(op, np.arange(1.0, 7.0), tol=1e-14)
            quotients = rep.rayleigh_quotients + rep2.rayleigh_quotients
            rep = dataclasses.replace(rep, rayleigh_quotients=quotients)
        assert calibrate_scale(rep) == pytest.approx(c, rel=1e-10)

    def test_diagonal_matches_dense_oracle(self):
        A = np.diag([1.0, 4.0])
        op = LinearOperator.from_dense(A)
        b = np.array([1.0, 1.0])
        rep = classic_cg(op, b, tol=1e-14)
        sigma = calibrate_scale(rep)
        # recompute the quotients from the recorded iterates with dense A
        quotients = []
        for i in range(1, len(rep.iterates)):
            s = rep.iterates[i] - rep.iterates[i - 1]
            quotients.append((s @ A @ s) / (s @ s))
        oracle = float(np.exp(np.mean(np.log(quotients))))
        assert sigma == pytest.approx(oracle, rel=1e-10)

    def test_homogeneous_in_operator_scale(self):
        op, b = seeded_system(10, 9)
        beta = 2.5
        scaled = LinearOperator.from_dense(beta * op.dense)
        s1 = calibrate_scale(classic_cg(op, b, tol=1e-12))
        s2 = calibrate_scale(classic_cg(scaled, beta * b, tol=1e-12))
        assert s2 == pytest.approx(beta * s1, rel=1e-8)

    def test_insufficient_trace(self):
        op = LinearOperator.from_dense(np.eye(3))
        rep = solve_probabilistic(op, np.ones(3), tol=1e-12)
        with pytest.raises(InsufficientTrace):
            calibrate_scale(rep)


class TestTruncation:
    def solved_belief(self, n=20, seed=31):
        op, b = seeded_system(n, seed)
        return solve_probabilistic(op, b, tol=1e-12, maxiter=2 * n).belief

    def test_rank_zero_resets_to_prior(self):
        belief = self.solved_belief()
        reset = truncate_belief(belief, 0)
        v = np.random.default_rng(0).standard_normal(20)
        assert np.array_equal(posterior_mean_apply(reset, v), v)

    def test_full_rank_is_identity_operation(self):
        belief = self.solved_belief()
        same = truncate_belief(belief, belief.rank)
        v = np.random.default_rng(1).standard_normal(20)
        assert np.allclose(posterior_mean_apply(same, v),
                           posterior_mean_apply(belief, v), atol=1e-12)

    def test_truncation_gives_the_eigen_form(self):
        belief = self.solved_belief()
        for r in (belief.rank, 20, 7):
            trunc = truncate_belief(belief, r)
            assert trunc.rank == min(r, 20)
            assert np.allclose(trunc.w.T @ trunc.w, np.eye(trunc.rank), atol=1e-12)
            assert np.array_equal(trunc.c, np.diag(np.diag(trunc.c)))
        e = np.diag(truncate_belief(belief, belief.rank).c)
        assert np.all(np.diff(e) >= 0)   # nothing cut: eigh's ascending order
        kept = np.diag(truncate_belief(belief, 7).c)
        assert np.array_equal(np.sort(np.abs(kept)), np.sort(np.abs(e))[-7:])

    def test_truncation_error_bounded_by_discarded_spectrum(self):
        belief = self.solved_belief()
        r = 10
        trunc = truncate_belief(belief, r)
        e = np.diag(truncate_belief(belief, belief.rank).c)
        order = np.argsort(-np.abs(e))
        discarded = np.abs(e[order[r:]]).sum()
        rng = np.random.default_rng(2)
        for _ in range(50):
            v = rng.standard_normal(20)
            v /= np.linalg.norm(v)
            diff = (posterior_mean_apply(belief, v)
                    - posterior_mean_apply(trunc, v))
            assert np.linalg.norm(diff) <= discarded + 1e-12


class TestWarmStart:
    def test_repeated_problem_needs_no_iterations(self):
        op, b = seeded_system(24, 41)
        reports = warm_start_sequence([(op, b), (op, b)], rank=64, tol=1e-8)
        nb = np.linalg.norm(b)
        assert reports[1].initial_residual <= 1e-8 * nb
        assert reports[1].iterations <= 1

    def test_drifting_sequence_speeds_up(self):
        rng = np.random.default_rng(5)
        A = random_spd(32, 50)
        delta = random_spd(32, 51)
        delta *= 0.02 * np.linalg.norm(A, "fro") / np.linalg.norm(delta, "fro")
        problems = []
        for t in range(20):
            At = A + (t * 0.05) * delta
            problems.append((LinearOperator.from_dense(At),
                             rng.standard_normal(32)))
        reports = warm_start_sequence(problems, rank=64, tol=1e-8)
        iters = [r.iterations for r in reports]
        assert np.mean(iters[-5:]) < np.mean(iters[:5])

    def test_warm_initial_residuals_beat_cold(self):
        rng = np.random.default_rng(6)
        A = random_spd(32, 60)
        x_ref = rng.standard_normal(32)
        problems = []
        for t in range(12):
            delta = random_spd(32, 61 + t)
            delta *= 0.01 * np.linalg.norm(A, "fro") / np.linalg.norm(delta, "fro")
            A = A + delta
            op = LinearOperator.from_dense(A)
            problems.append((op, A @ x_ref))
        cold = warm_start_sequence(problems, rank=0, tol=1e-8)
        warm = warm_start_sequence(problems, rank=64, tol=1e-8)
        cold_r = np.mean([r.initial_residual for r in cold[4:]])
        warm_r = np.mean([r.initial_residual for r in warm[4:]])
        assert warm_r <= cold_r / 3.0

    def test_rank_zero_equals_cold_start(self):
        problems = [seeded_system(16, s) for s in (70, 71, 72)]
        disabled = warm_start_sequence(problems, rank=0, tol=1e-10)
        independent = [solve_probabilistic(op, b, tol=1e-10)
                       for op, b in problems]
        assert ([r.iterations for r in disabled]
                == [r.iterations for r in independent])
        for a, b in zip(disabled, independent):
            assert np.array_equal(a.solution, b.solution)


    def test_rank_zero_never_conditions(self, monkeypatch):
        calls = count_conditionings(monkeypatch)
        problems = [seeded_system(16, s) for s in (70, 71, 72)]
        warm_start_sequence(problems, rank=0, tol=1e-10)
        assert calls == []
        warm_start_sequence(problems, rank=8, tol=1e-10)
        assert len(calls) == 2   # the last solve's belief is left unread

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError, match="rank must be >= 0"):
            warm_start_sequence([seeded_system(8, 73)], rank=-1)


class TestOperatorLoading:
    def test_random_spd_spec(self):
        op = load_operator({"kind": "random_spd", "dim": 12, "seed": 3})
        assert op.dim == 12
        op.spd_probe()

    def test_diagonal_spec(self):
        op = load_operator({"kind": "diagonal", "entries": [1.0, 2.0, 3.0]})
        assert np.allclose(op(np.ones(3)), [1.0, 2.0, 3.0])

    def test_csv_roundtrip(self, tmp_path):
        A = random_spd(5, 0)
        path = tmp_path / "op.csv"
        np.savetxt(path, A, delimiter=",")
        op = load_operator({"kind": "csv", "path": str(path)})
        assert np.allclose(op.dense, A)

    def test_npy_roundtrip(self, tmp_path):
        A = random_spd(4, 1)
        path = tmp_path / "op.npy"
        np.save(path, A)
        op = load_operator({"kind": "npy", "path": str(path)})
        assert np.allclose(op.dense, A)

    def test_spd_probe_rejects_indefinite(self):
        with pytest.raises(ValueError):
            LinearOperator.from_dense(np.diag([1.0, -1.0]))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            load_operator({"kind": "mystery"})

    def test_unknown_key_rejected_and_config_kept(self):
        for config in ({"kind": "random_spd", "dim": 8, "cnd": 1e6},
                       {"kind": "diagonal", "entries": [1, 2, 3], "dim": 9}):
            kept = dict(config)
            with pytest.raises(ValueError, match="unknown .* operator keys"):
                load_operator(config)
            assert config == kept
        config = {"kind": "random_spd", "dim": 8, "seed": 1, "cond": 1e3}
        load_operator(config)
        assert config == {"kind": "random_spd", "dim": 8, "seed": 1, "cond": 1e3}


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: LinearOperator.from_dense(np.ones((2, 3))),
                 ValueError, "must be a square matrix", id="non-square-operator"),
    # dsymv rejects an empty vector with an untyped error
    pytest.param(lambda: LinearOperator.from_dense(np.zeros((0, 0)), check=False),
                 ValueError, r"must be a square matrix of dim >= 1, got shape \(0, 0\)",
                 id="empty-operator"),
    # SPD by the probe, but not symmetric; check=False skips only the probe
    pytest.param(lambda: LinearOperator.from_dense([[2.0, 1.0], [0.0, 2.0]]),
                 ValueError, r"^dense operator must be symmetric, "
                 r"got max\|A - A'\| = 1\.000e\+00", id="asymmetric-operator"),
    pytest.param(lambda: LinearOperator.from_dense([[2.0, 1.0], [0.0, 2.0]], check=False),
                 ValueError, "^dense operator must be symmetric",
                 id="asymmetric-operator-unchecked"),
    # dsymv itself would read the first 3 entries of the longer vector
    pytest.param(lambda: LinearOperator.from_dense(np.eye(3))(np.ones(4)),
                 DimensionMismatch, r"^vector of shape \(4,\) does not match operator dim 3",
                 id="operator-vector-length"),
    pytest.param(lambda: condition_on_observations(identity_belief(3), np.ones((3, 2)),
                                                   np.ones((3, 1))),
                 BeliefDimensionMismatch, "observations of shape", id="s-y-shapes-differ"),
    pytest.param(lambda: truncate_belief(identity_belief(3), -1),
                 ValueError, "rank must be >= 0", id="negative-rank"),
    pytest.param(lambda: classic_cg(LinearOperator.from_dense(np.eye(3)), np.ones(4)),
                 DimensionMismatch, "rhs does not match operator dimension",
                 id="cg-rhs-length"),
    pytest.param(lambda: LinearOperator.from_dense(np.diag([1.0, np.nan, 2.0])),
                 ValueError, r"^dense operator must be finite, got \[nan\]",
                 id="nan-operator"),
    pytest.param(lambda: classic_cg(LinearOperator.from_dense(np.eye(3)), [1.0, np.nan, 1.0]),
                 ValueError, r"^rhs must be finite, got \[nan\]", id="cg-nan-rhs"),
    pytest.param(lambda: solve_probabilistic(LinearOperator.from_dense(np.eye(3)),
                                             [1.0, np.nan, 1.0]),
                 ValueError, r"^rhs must be finite, got \[nan\]", id="prob-nan-rhs"),
    pytest.param(lambda: posterior_mean_apply(identity_belief(3), [1.0, np.nan, 1.0]),
                 ValueError, r"^v must be finite, got \[nan\]", id="nan-v"),
    pytest.param(lambda: condition_on_observations(identity_belief(3), [[1.0], [np.nan], [0.0]],
                                                   [[1.0], [1.0], [0.0]]),
                 ValueError, r"^S must be finite, got \[nan\]", id="nan-s"),
    # ||b|| overflows, so ||r|| <= tol * ||b|| would hold at once, at x = 0
    pytest.param(lambda: solve_probabilistic(
        LinearOperator.from_dense(np.diag([1.0, 1e308, 1e308])), [1.0, 1e308, 1e308]),
                 ValueError, "^rhs norm overflows", id="rhs-norm-overflows"),
])
def test_typed_rejections(call, error, message):
    with pytest.raises(error, match=message):
        call()
