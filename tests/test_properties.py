"""Property tests of the paper's identities over random inputs.

Linear solver: each example draws a dimension, a condition number and a seed
for a ``random_spd`` operator and a right-hand side, and for the warm solves
a rank and the size of a perturbation of the operator.  Bordered factor:
each example draws a Gram size, a rank, a relative lowering of the diagonal
past the rank and a seed.  Dense operator: each example draws a dimension
up to 300, a condition number and a seed.  Convolution matrix: each example
draws a stencil size, a signal length, and a stencil width and offset.
Quadrature: each example draws
a linear-spline kernel, an interval, nodes and values, or a random SPD
joint covariance of nodes and candidate nodes.  Prior
draws: each example draws a linear-spline kernel, an interval, a grid in it
and a seed.  Kernel:
each example draws an exponentiated-quadratic kernel on a box of dimension
1-4 and points in it.  Gram solves: each example draws a kernel family, its
scale and shape, nodes on [-3, 3] and a 1-D or n x m right-hand side, or
a family, its scale and shape, an interval on which a linear-spline kernel
may be indefinite and nodes on it, for the jitter ladder.
Hyperparameter fit: each example draws a kernel family, an interval, nodes
and values.  ODE filter: each example draws a
prior order, a problem, a step and a diffusion scale, or a linear, logistic
or Lotka-Volterra problem, a step and a diffusion scale for the q = 1 Euler
identity, or two vector fields of one dimension, or a prior order, a step,
a step count and a dimension for the covariance pass.  Runge-Kutta: each
example draws a linear, logistic or Lotka-Volterra problem, to which a
forcing term in t is added, a step and a built-in tableau.  Finite-value
guard: each example plants NaN, +inf or -inf at a drawn position of a valid
input to one public entry.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import block_diag, cho_factor, cho_solve, solve_triangular
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs
from scipy.special import erf

from pnum import (BQState, IVProblem, KernelFamily, LinearOperator,
                  RKMethod, SingularGram, bq_posterior, classic_cg,
                  condition_on_observations, convergence_order_estimate, exp_quadratic,
                  fit_hyperparameters, gram_matrix, identity_belief,
                  kernel_embeddings, kernel_eval, linear_spline,
                  log_marginal_likelihood, named_problem, odefilter,
                  posterior_mean_apply, random_spd, rk_method, rk_reference,
                  sample_path, solve_ivp_filter, solve_probabilistic,
                  trapezoid, truncate_belief)
from pnum.deconv import _conv_matrix, _gaussian_stencil
from pnum.linalg import _BorderedCholesky
from pnum.gp import (JITTER_REL_MAX, JITTER_REL_START, _factorize,
                     _profiled_likelihood, _profiled_scan, _spline_draw,
                     default_bounds)
from pnum.quadrature import (WARP_LENGTH_MULTS, _candidate_grid,
                             _default_candidates, _pair_embed,
                             _profile_theta_fit, _spline_reductions,
                             _variance_reductions)

systems = st.tuples(st.integers(2, 48), st.floats(1.0, 1e4),
                    st.integers(0, 2**31 - 1))
warm_starts = st.tuples(st.integers(0, 96),          # rank carried forward
                        st.floats(0.01, 0.1))        # relative perturbation
# derandomized: every run checks the same examples, so the suite repeats
checks = settings(max_examples=40, deadline=None, derandomize=True,
                  database=None)


def build(n, cond, seed):
    op = LinearOperator.from_dense(random_spd(n, seed, cond=cond))
    b = np.random.default_rng(seed + 1).standard_normal(n)
    return op, b


def exact_cg_iterates(A, b, count):
    """CG iterates as in exact arithmetic: Galerkin solutions on the Krylov
    spaces K_k(A, b), k = 1..count, from a twice-orthogonalized basis."""
    V = np.zeros((b.size, count))
    v = b / np.linalg.norm(b)
    out = []
    for k in range(count):
        for _ in range(2):
            v = v - V[:, :k] @ (V[:, :k].T @ v)
        V[:, k] = v / np.linalg.norm(v)
        Vk = V[:, :k + 1]
        out.append(Vk @ np.linalg.solve(Vk.T @ A @ Vk, Vk.T @ b))
        v = A @ V[:, k]
    return out


def rel_dev(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


@checks
@given(systems)
def test_first_iterates_match_cg(system):
    # Classic CG loses orthogonality in floating point: at N = 10 and cond
    # 4.5e3 its tenth iterate is 10 % off the exact one.  The probabilistic
    # solver keeps every observation, so it matches the exact iterates, and
    # classic CG wherever classic CG is itself still exact.
    n, cond, seed = system
    op, b = build(n, cond, seed)
    classic = classic_cg(op, b, tol=1e-10)
    prob = solve_probabilistic(op, b, tol=1e-10)
    count = min(n, 10, len(prob.iterates) - 1)
    exact = exact_cg_iterates(op.dense, b, count)
    cg_exact = True
    for i, ref in enumerate(exact, start=1):
        assert rel_dev(prob.iterates[i], ref) <= 1e-8
        cg_exact = (cg_exact and i < len(classic.iterates)
                    and rel_dev(classic.iterates[i], ref) <= 1e-10)
        if cg_exact:
            assert rel_dev(prob.iterates[i], classic.iterates[i]) <= 1e-8


def cold_and_warm_solves(system, warm):
    """A cold solve, then a perturbed system A + eps B started from the
    first belief truncated to ``rank``: its conditioning runs on a prior
    mean that is not the identity."""
    n, cond, seed = system
    rank, eps = warm
    op, b = build(n, cond, seed)
    cold = solve_probabilistic(op, b, identity_belief(n), tol=1e-10)
    perturbed = LinearOperator.from_dense(
        op.dense + eps * random_spd(n, seed + 2, cond=cond))
    prior = truncate_belief(cold.belief, rank)
    warm = solve_probabilistic(perturbed, b, prior, tol=1e-10)
    return [(op, b, cold), (perturbed, b, warm)]


@checks
@given(systems, warm_starts)
def test_every_step_is_an_exact_line_search(system, warm):
    # classic CG and the cold and warm probabilistic solves, checked from
    # their iterates alone: s_k = x_{k+1} - x_k is orthogonal to the true
    # residual b - A x_{k+1}, and each Rayleigh quotient is s_k'A s_k / s_k's_k.
    # s_k from the iterates carries the rounding of x_{k+1} - x_k, so the
    # quotient's tolerance grows as ||s_k|| falls below ||x_k||.
    eps = np.finfo(float).eps
    (op, b, cold), warm_solve = cold_and_warm_solves(system, warm)
    for A, b, rep in [(op, b, classic_cg(op, b, tol=1e-10)), (op, b, cold),
                      warm_solve]:
        A = A.dense
        norm_a = np.linalg.norm(A, 2)
        xs = rep.iterates
        assert len(rep.rayleigh_quotients) == len(xs) - 1
        for x, x_next, q in zip(xs, xs[1:], rep.rayleigh_quotients):
            s = x_next - x
            ns, nx = np.linalg.norm(s), np.linalg.norm(x_next)
            assert abs(s @ (b - A @ x_next)) <= 500 * eps * ns * norm_a * nx
            scale = norm_a * (1.0 + (np.linalg.norm(x) + nx) / ns)
            assert abs(q - s @ A @ s / (s @ s)) <= 100 * eps * scale


@checks
@given(systems, warm_starts)
def test_posterior_mean_is_symmetric(system, warm):
    n = system[0]
    for _, _, rep in cold_and_warm_solves(system, warm):
        H = np.column_stack([posterior_mean_apply(rep.belief, e) for e in np.eye(n)])
        assert np.abs(H - H.T).max() <= 1e-10 * np.abs(H).max()


def block_conditioned(belief, S, Y):
    """W and C of ``condition_on_observations`` as assembled by np.block,
    the full-core symmetrization and block_diag: the reference for its
    direct fill of the final arrays."""
    norms = np.linalg.norm(S, axis=0)
    norms = np.where(norms > 0, norms, 1.0)
    S, Y = S / norms, Y / norms
    N = S.T @ Y
    lam_n, P_n = np.linalg.eigh(0.5 * (N + N.T))
    keep = lam_n > 1e-12 * max(lam_n.max(), 0.0)
    S, Y, inv = S @ P_n[:, keep], Y @ P_n[:, keep], 1.0 / lam_n[keep]
    HY = Y.copy() if belief.w is None else Y + belief.w @ (belief.c @ (belief.w.T @ Y))
    D = S - HY
    Ninv = np.diag(inv)
    C = np.block([[-(inv[:, None] * (Y.T @ D) * inv), Ninv],
                  [Ninv, np.zeros((inv.size, inv.size))]])
    C = 0.5 * (C + C.T)
    W = np.hstack([S, D])
    if belief.w is not None:
        C = block_diag(belief.c, C)
        W = np.hstack([belief.w, W])
    return W, C


@checks
@given(systems, warm_starts)
def test_conditioning_fills_the_block_assembly_bitwise(system, warm):
    # 0.5 (x + x) = x, so symmetrizing only the B block leaves the N^-1
    # blocks, the zero block and the prior core exactly as they were
    for _, _, rep in cold_and_warm_solves(system, warm):
        belief = condition_on_observations(rep.prior, *rep.observations)
        W, C = block_conditioned(rep.prior, *rep.observations)
        assert belief.w.shape == W.shape and belief.c.shape == C.shape
        assert np.array_equal(belief.w, W) and np.array_equal(belief.c, C)


@checks
@given(systems, warm_starts)
def test_posterior_mean_maps_rhs_to_solution(system, warm):
    # the mean maps the initial residual b - A x0 to the step x - x0; a
    # cold solve starts at x0 = 0, a warm one at x0 = H0 b
    for op, b, rep in cold_and_warm_solves(system, warm):
        assert rep.converged
        x0 = rep.iterates[0]
        step = rep.solution - x0
        hr = posterior_mean_apply(rep.belief, b - op.dense @ x0)
        assert np.linalg.norm(hr - step) <= 1e-6 * np.linalg.norm(step)


@checks
@given(systems, st.integers(0, 96))
def test_truncation_error_bounded_by_discarded_spectrum(system, rank):
    # H - H_r is the sum of the discarded rank-one terms e_i u_i u_i'
    n, cond, seed = system
    op, b = build(n, cond, seed)
    belief = solve_probabilistic(op, b, tol=1e-10).belief
    trunc = truncate_belief(belief, rank)
    eigenvalues = np.diag(truncate_belief(belief, belief.rank).c)
    magnitudes = np.sort(np.abs(eigenvalues))[::-1]
    discarded = magnitudes[rank:].sum()
    V = np.random.default_rng(seed + 2).standard_normal((8, n))
    for v in V / np.linalg.norm(V, axis=1, keepdims=True):
        diff = posterior_mean_apply(belief, v) - posterior_mean_apply(trunc, v)
        assert np.linalg.norm(diff) <= discarded + 1e-12 * (1.0 + magnitudes.sum())


@checks
@given(st.integers(1, 300), st.floats(1.0, 1e4), st.integers(0, 2**31 - 1))
def test_dense_matvec_is_the_matrix_product(n, cond, seed):
    # the operator applies one triangle of A by dsymv, whatever A's layout;
    # a C-ordered A is read in place, through its F-ordered transpose
    A = random_spd(n, seed, cond=cond)
    v = np.random.default_rng(seed + 1).standard_normal(n)
    bound = 4 * n * np.finfo(float).eps * np.linalg.norm(A, 2) * np.linalg.norm(v)
    wide = np.zeros((2 * n, 2 * n))
    wide[::2, ::2] = A
    for layout in (A, np.asfortranarray(A), wide[::2, ::2]):
        op = LinearOperator.from_dense(layout, check=False)
        assert op.dense is layout
        assert np.linalg.norm(op.matvec(v) - A @ v) <= bound
    assert np.shares_memory(A, LinearOperator.from_dense(A).matvec.args[1])


def diagonal_sum_conv(kernel, n):
    """The convolution matrix as a sum of one np.diag matrix per tap; it
    needs n >= size // 2."""
    half = kernel.size // 2
    X = np.zeros((n, n))
    for offset in range(kernel.size):
        j = offset - half
        X += np.diag(kernel[offset] * np.ones(n - abs(j)), k=j)
    return X


@checks
@given(st.integers(1, 15), st.integers(1, 80), st.floats(0.6, 3.0), st.floats(-2.0, 2.0))
def test_conv_matrix_is_the_diagonal_sum(size, n, width, center):
    # a stencil wider than the signal drops its off-edge taps as every edge
    # row does, so the matrix is the top-left n x n block of a larger one
    kernel = _gaussian_stencil(width, center, size)
    X = _conv_matrix(kernel, n)
    assert X.tobytes() == diagonal_sum_conv(kernel, n + size)[:n, :n].tobytes()
    if n >= size // 2:
        assert X.tobytes() == diagonal_sum_conv(kernel, n).tobytes()


bordered_grams = st.tuples(
    st.integers(1, 80),                                # size, past capacity 16, 32, 64
    st.floats(0.0, 1.0),                               # rank / size
    st.sampled_from([0.0, 1e-13, 1e-11, 1e-9]),        # diagonal lowering past the rank
    st.integers(0, 2**31 - 1))


@checks
@given(bordered_grams)
@example((80, 0.1, 1e-9, 0))
@example((70, 0.5, 0.0, 1))
def test_bordered_factor_grows_in_place(draw):
    # columns past the rank are dependent and their diagonal is lowered, so
    # bordering fails and the factor is refactored higher up the ladder; the
    # top rung 1e-8 exceeds every lowering, so no draw needs the eigen solve.
    # Past such a tail the block's condition number reaches ~1e14, so the
    # factor is checked by L L' rather than entrywise against a fresh one
    size, frac, delta, seed = draw
    rank = max(1, int(np.ceil(frac * size)))
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((rank, size)) * rng.uniform(0.5, 3.0, size)
    G = X.T @ X
    tail = np.arange(rank, size)
    G[tail, tail] -= delta * G[tail, tail]
    factor = _BorderedCholesky()
    for m in range(1, size + 1):
        jitter = factor.jitter
        factor.append(G[:m, m - 1])
        assert not factor.eig_fallback
        dd = np.sqrt(np.diag(G[:m, :m]))
        N = np.triu(G[:m, :m] / dd[:, None] / dd)   # scaled as the factor does
        N = N + np.triu(N, 1).T + factor.jitter * np.eye(m)
        L = np.tril(factor._l[:m, :m])
        v = rng.standard_normal(m)
        for trans in (0, 1):
            ref = solve_triangular(L, v, lower=True, trans=1 - trans,
                                   check_finite=False)
            assert factor._trsv(v, trans).tobytes() == ref.tobytes()
        z = solve_triangular(L, v / dd, lower=True, check_finite=False)
        ref = solve_triangular(L, z, lower=True, trans="T", check_finite=False) / dd
        assert factor.solve(v).tobytes() == ref.tobytes()
        if factor.jitter != jitter:
            assert L.tobytes() == np.tril(dpotrf(N, lower=1)[0]).tobytes()
        assert np.all(np.diag(L) > 0)
        assert np.abs(L @ L.T - N).max() <= 1e-12
    assert factor.jitter > 0 or delta == 0.0 or rank == size


quad_rules = st.tuples(
    st.floats(0.1, 10.0), st.floats(0.1, 10.0),        # kernel c, b
    st.floats(-5.0, 5.0), st.floats(0.1, 0.9),         # start, width fraction
    st.lists(st.tuples(st.floats(0.05, 1.0), st.floats(-10.0, 10.0)),
             min_size=2, max_size=40))                 # (gap, value) pairs


@checks
@given(quad_rules)
def test_spline_bq_mean_is_trapezoid(rule):
    # nodes include both endpoints; the gaps are relative, so the smallest
    # spacing is at least 1/800 of the interval.  The width is a fraction of
    # 3 (1 + b) / b, where the kernel c (1 + b - b |x - x'| / 3) reaches 0.
    # The posterior is then a chain of Brownian bridges of rate 2 c b / 3,
    # whose integral variance is (c b / 18) sum_i h_i^3 exactly, and the end
    # pieces are empty: the mean is the trapezoid sum to the bit.
    c, b, lo, frac, pairs = rule
    width = frac * 3.0 * (1.0 + b) / b
    gaps, values = (np.array(v) for v in zip(*pairs))
    nodes = lo + width * np.concatenate(([0.0], np.cumsum(gaps[1:]))) / gaps[1:].sum()
    nodes[-1] = lo + width
    state = BQState.for_kernel(linear_spline(c, b, (lo, lo + width)))
    for x, y in zip(nodes, values):
        state = state.with_node(x, y)
    est = bq_posterior(state)
    assert est.mean == trapezoid(nodes, values)
    bridges = c * b / 18.0 * np.sum(np.diff(nodes) ** 3)
    assert abs(est.variance - bridges) <= 1e-13 * est.variance


schur_scans = st.tuples(st.integers(1, 8), st.integers(1, 6),  # nodes, candidates
                        st.floats(1.0, 1e3), st.integers(0, 2**31 - 1))


@checks
@given(schur_scans)
def test_variance_reduction_is_the_bordered_gram_difference(scan):
    # the joint covariance of nodes and candidates is a random SPD matrix;
    # adding candidate j borders the node Gram K with its column and lowers
    # the integral variance by [e; e_j]' K_aug^-1 [e; e_j] - e' K^-1 e
    n, m, cond, seed = scan
    G = random_spd(n + m, seed, cond=cond)
    v = np.random.default_rng(seed + 1).standard_normal(n + m)
    K, e = G[:n, :n], v[:n]
    got = _variance_reductions(cho_factor(K, lower=True)[0], G[:n, n:],
                               np.diag(G)[n:], v[n:], e, 1e-300)
    base = e @ np.linalg.solve(K, e)
    for j in range(m):
        idx = np.r_[:n, n + j]
        bordered = v[idx] @ np.linalg.solve(G[np.ix_(idx, idx)], v[idx])
        assert abs(got[j] - (bordered - base)) <= 1e-12 * (1.0 + bordered)


spline_kernels = st.tuples(
    st.floats(0.1, 10.0), st.floats(0.1, 10.0),        # kernel c, b
    st.floats(-5.0, 5.0), st.floats(0.1, 1.0))         # start, width fraction


def spline_box(c, b, lo, frac):
    # the width is a fraction of 6 (1 + b) / b, the widest box on which the
    # kernel is positive semidefinite: two nodes that far apart make the
    # Gram singular.  lo + width * t, t in [0, 1], stays in the box
    width = frac * 6.0 * (1.0 + b) / b
    return linear_spline(c, b, (lo, lo + width)), lo, width


bq_layouts = st.tuples(
    st.just(0.0) | st.floats(0.0, 0.3),    # empty share of the box left of the nodes
    st.just(0.0) | st.floats(0.0, 0.3),    # and right of them
    st.lists(st.tuples(st.floats(0.05, 1.0), st.floats(-10.0, 10.0)),
             min_size=1, max_size=30),                 # (gap, value) pairs
    st.booleans())                                     # nodes added in reverse


def spline_bq_case(kernel_input, layout):
    """A linear-spline state on a box of up to 0.9 of the widest, whose nodes
    leave the given shares of the box empty at its ends (a share of 0 puts a
    node on that end), with the dense Gram solve of its posterior."""
    c, b, lo, frac = kernel_input
    kern, lo, width = spline_box(c, b, lo, 0.9 * frac)
    left, right, pairs, reverse = layout
    gaps, values = (np.array(v) for v in zip(*pairs))
    u = np.cumsum(gaps) - gaps[0]
    nodes = lo + width * (left + (1.0 - left - right) * u / (u[-1] or 1.0))
    if right == 0.0 and nodes.size > 1:
        nodes[-1] = lo + width
    nodes = np.minimum(nodes, lo + width)
    order = slice(None, None, -1) if reverse else slice(None)
    state = BQState(kern, tuple(nodes[order]), tuple(values[order]))
    z_func, z0 = kernel_embeddings(kern)
    z, factor = z_func(nodes), cho_factor(gram_matrix(kern, nodes))
    dense = (z @ cho_solve(factor, values), z0 - z @ cho_solve(factor, z))
    return state, nodes, values, width, factor, dense


@checks
@given(spline_kernels, bq_layouts)
def test_spline_bq_is_the_dense_gram_solve(kernel_input, layout):
    # the closed form (trapezoid rule and Brownian bridges plus the 2 x 2
    # end piece) against z' K^-1 y and Z0 - z' K^-1 z on the same state, in
    # any node order, with and without nodes on the ends of the box
    state, nodes, values, width, _, (mean, variance) = spline_bq_case(
        kernel_input, layout)
    est = bq_posterior(state)
    assert abs(est.mean - mean) <= 1e-11 * np.abs(values).max() * width
    assert abs(est.variance - variance) <= 1e-13 * state.z0


@checks
@given(spline_kernels, bq_layouts)
def test_spline_active_reductions_are_the_dense_schur_complements(kernel_input,
                                                                 layout):
    # each default candidate's closed-form variance drop against the Schur
    # complement of the node Gram bordered by its column; the picks agree
    # but for ties within 1e-13 of the larger drop
    state, nodes, _, _, factor, _ = spline_bq_case(kernel_input, layout)
    kern = state.kernel
    cand = _default_candidates(state)
    got = _spline_reductions(kern, state.node_array, cand)
    z_func, z0 = kernel_embeddings(kern)
    k_xc = gram_matrix(kern, nodes, cand)
    schur = kernel_eval(kern, cand, cand) - np.einsum(
        "ij,ij->j", k_xc, cho_solve(factor, k_xc))
    dense = (z_func(cand) - k_xc.T @ cho_solve(factor, z_func(nodes))) ** 2 / schur
    assert np.abs(got - dense).max() <= 1e-13 * z0
    i, j = int(np.argmax(got)), int(np.argmax(dense))
    assert i == j or got[i] - got[j] <= 1e-13 * got[i]


@checks
@given(spline_kernels, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=200),
       st.integers(0, 2**32 - 1))
@example((1.0, 1.0, 0.0, 50 / 49), [j / 50 for j in range(1, 51)], 0)
@example((2.0, 0.5, -1.0, 1.0), [0.0, 0.3, 0.3 + 1e-12, 1.0], 1)
def test_spline_draw_is_exact(kernel_input, unit, seed):
    # the draws on the n + 1 unit vectors are the columns of a factor M of
    # the unjittered Gram on any distinct grid, near-coincident nodes and
    # spans at which the Gram turns singular included: the first explicit
    # example's grid spans 12, that width for b = 1, and the second's the
    # whole box of frac = 1.  sample_path is the draw on its seeded normals
    kern, lo, width = spline_box(*kernel_input)
    grid = np.unique(lo + width * np.array(unit))
    M = np.column_stack([_spline_draw(kern, grid, e) for e in np.eye(grid.size + 1)])
    K = gram_matrix(kern, grid)
    assert np.abs(M @ M.T - K).max() <= 1e-13 * K.max()
    draw = sample_path(kern, grid, seed)
    z = np.random.default_rng(seed).standard_normal(grid.size + 1)
    assert np.array_equal(draw, _spline_draw(kern, grid, z))
    assert np.isfinite(draw).all()


eq_kernels = st.tuples(
    st.integers(1, 4), st.floats(0.1, 10.0),           # dimension, theta
    st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(0.5, 6.0),
                       st.floats(0.1, 3.0)),
             min_size=4, max_size=4),                  # (start, width, lam / width)
    st.lists(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
             min_size=1, max_size=20))                 # points in the unit cube


@checks
@given(eq_kernels)
def test_box_kernel_is_the_interval_kernel_and_its_products(draw):
    # at d = 1 the box kernel reproduces the interval closed forms bit for
    # bit; at d > 1 its Gram and embeddings are products of d = 1 factors
    d, theta, dims, unit = draw
    box = [(lo, lo + width) for lo, width, _ in dims[:d]]
    lams = [frac * width for _, width, frac in dims[:d]]
    lo, hi = np.array(box).T
    X = np.clip(lo + np.array(unit)[:, :d] * (hi - lo), lo, hi)
    kern = exp_quadratic(theta, lams, box)
    K = gram_matrix(kern, X)
    z_func, z0 = kernel_embeddings(kern)
    if d == 1:
        (lo, hi), (lam,), x = box[0], lams, X[:, 0]
        width = hi - lo
        sqrt_pi = np.sqrt(np.pi)
        assert np.array_equal(
            K, theta ** 2 * np.exp(-(np.abs(x[:, None] - x[None, :]) / lam) ** 2))
        assert np.array_equal(
            z_func(x), theta ** 2 * lam * sqrt_pi / 2.0
            * (erf((hi - x) / lam) - erf((lo - x) / lam)))
        assert z0 == theta ** 2 * (sqrt_pi * width * lam * erf(width / lam)
                                   + lam ** 2 * (np.exp(-(width / lam) ** 2) - 1.0))
        return
    factors = [exp_quadratic(1.0, lam, interval) for lam, interval in zip(lams, box)]
    embeddings = [kernel_embeddings(k) for k in factors]
    ref_K = theta ** 2 * np.prod(
        [gram_matrix(k, X[:, j]) for j, k in enumerate(factors)], axis=0)
    ref_z = theta ** 2 * np.prod(
        [z_j(X[:, j]) for j, (z_j, _) in enumerate(embeddings)], axis=0)
    ref_z0 = theta ** 2 * np.prod([z0_j for _, z0_j in embeddings])
    assert np.allclose(K, ref_K, rtol=1e-12, atol=0.0)
    assert np.allclose(z_func(X), ref_z, rtol=1e-12, atol=0.0)
    assert abs(z0 - ref_z0) <= 1e-12 * ref_z0


hyper_fits = st.tuples(
    st.sampled_from(tuple(KernelFamily)),
    st.floats(-5.0, 5.0), st.floats(0.5, 6.0),         # start, width
    st.lists(st.tuples(st.floats(0.05, 1.0), st.floats(-10.0, 10.0)),
             min_size=3, max_size=40))                 # (gap, value) pairs


def grid_log_marginal(make, scale, shape, domain, nodes, values):
    try:
        return log_marginal_likelihood(make(scale, shape, domain), nodes, values)
    except SingularGram:
        return -np.inf


@checks
@given(hyper_fits)
def test_profiled_fit_is_never_below_the_scale_shape_grid(fit_input):
    # the scale's closed-form optimum given each shape dominates every scale
    # on the grid, so the shape search cannot end below the 16 x 16 grid
    family, lo, width, pairs = fit_input
    gaps, values = (np.array(v) for v in zip(*pairs))
    assume(np.ptp(values) > 0.0)      # equal values take the degenerate path
    nodes = lo + width * np.concatenate(([0.0], np.cumsum(gaps[1:]))) / gaps[1:].sum()
    nodes[-1] = lo + width
    res = fit_hyperparameters(family, nodes, values)
    log_marginal = log_marginal_likelihood(res.kernel, nodes, values)
    s_bounds, h_bounds = default_bounds(family, nodes, values).values()
    assert s_bounds[0] <= res.kernel.scale <= s_bounds[1]
    make = linear_spline if family is KernelFamily.LINEAR_SPLINE else exp_quadratic
    best = max(grid_log_marginal(make, s, h, res.kernel.box[0], nodes, values)
               for s in np.geomspace(*s_bounds, 16)
               for h in np.geomspace(*h_bounds, 16))
    assert log_marginal >= best - 1e-8 * (1.0 + abs(best))


gram_solves = st.tuples(
    st.sampled_from(tuple(KernelFamily)),
    st.floats(0.1, 10.0), st.floats(0.1, 1.0),         # scale; b, or lam / width
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),   # unit nodes
    st.integers(0, 4), st.integers(0, 2**32 - 1))      # rhs columns (0: 1-D), seed


@checks
@given(gram_solves)
def test_factor_solves_are_the_scipy_solves(draw):
    # gp and quadrature solve with dpotrs on the bare factor of _factorize:
    # that is cho_solve((L, True), b) bit for bit, and since dpotrs reads only
    # the lower triangle, a NaN upper triangle leaves the solve unchanged
    family, scale, shape, unit, m, seed = draw
    nodes = np.unique(-3.0 + 6.0 * np.array(unit))
    if family is KernelFamily.LINEAR_SPLINE:
        kern = linear_spline(scale, shape, (-3.0, 3.0))   # b <= 1: PSD on width 6
    else:
        kern = exp_quadratic(scale, 6.0 * shape, (-3.0, 3.0))
    L, _ = _factorize(gram_matrix(kern, nodes))
    b = np.random.default_rng(seed).standard_normal((nodes.size, m) if m else nodes.size)
    ref = cho_solve((L, True), b)
    assert np.array_equal(dpotrs(L, b, lower=1)[0], ref)
    L[np.triu_indices(nodes.size, 1)] = np.nan
    assert np.array_equal(dpotrs(L, b, lower=1)[0], ref)


ladder_grams = st.tuples(
    st.sampled_from(tuple(KernelFamily)),
    st.floats(0.1, 10.0), st.floats(0.1, 2.0),         # scale; lam / width
    st.sampled_from([6.0, 12.0]),                      # spline span, 6(1 + b)/b at 12
    st.integers(-1, 5),                                # log10(excess span / 1.5e-10)
    st.lists(st.floats(0.0, 1.0), max_size=40))        # unit nodes besides the ends


def ladder_reference(K):
    """_factorize as it was written with an identity matrix: (L, jitter),
    or None past the ceiling."""
    scale = float(np.mean(np.diag(K)))
    eye = np.eye(K.shape[0])
    jitter = JITTER_REL_START * scale
    while jitter <= JITTER_REL_MAX * scale * (1 + 1e-9):
        L, info = dpotrf(K + jitter * eye, lower=1, clean=0)
        if info == 0:
            return L, jitter
        jitter *= 10.0
    return None


@checks
@given(ladder_grams)
@example((KernelFamily.LINEAR_SPLINE, 1.0, 1.0, 12.0, 2, [0.5]))
@example((KernelFamily.LINEAR_SPLINE, 1.0, 1.0, 12.0, 5, [0.5]))
def test_factorize_is_the_identity_matrix_form(draw):
    # _factorize adds the jitter to the diagonal of a copy of K at each rung,
    # and its scale is trace(K) / n: the factor and jitter are those of
    # K + jitter * eye(n) bit for bit.  The linear-spline kernel with b = 1
    # is indefinite on a span beyond 12, so spans 12 + 1.5e-10 * 10^e climb
    # the ladder to rung e or past its ceiling
    family, scale, shape, span, e, unit = draw
    if family is KernelFamily.LINEAR_SPLINE:
        hi = span + (0.0 if e < 0 else 1.5e-10 * 10.0 ** e)
        kern = linear_spline(scale, 1.0, (0.0, hi))
    else:
        hi = 6.0
        kern = exp_quadratic(scale, 6.0 * shape, (0.0, hi))
    nodes = np.unique(np.concatenate(([0.0, hi], hi * np.array(unit))))
    K = gram_matrix(kern, nodes)
    ref = ladder_reference(K)
    if ref is None:
        with pytest.raises(SingularGram):
            _factorize(K)
        return
    L, jitter = _factorize(K)
    assert L.tobytes() == ref[0].tobytes() and jitter == ref[1]


warped_inputs = st.tuples(
    st.integers(1, 4),                                 # dimension
    st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(0.5, 6.0),
                       st.floats(0.05, 2.0)),
             min_size=4, max_size=4),                  # (start, width, lam / width)
    st.lists(st.tuples(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
                       st.floats(0.0, 3.0)),
             min_size=2, max_size=12))                 # (unit point, value) pairs


def warped_box_and_nodes(d, dims, unit):
    box = np.array([(lo, lo + width) for lo, width, _ in dims[:d]])
    lams = [frac * width for _, width, frac in dims[:d]]
    X = np.clip(box[:, 0] + np.array(unit)[:, :d] * (box[:, 1] - box[:, 0]),
                box[:, 0], box[:, 1])
    return box, lams, X


@checks
@given(warped_inputs)
def test_axis_embeddings_are_the_candidate_embeddings(draw):
    # the candidates are a tensor grid, so indexing per-axis erf factors by
    # each candidate's rows gives the embedding of the candidates bit for bit
    d, dims, pairs = draw
    box, lams, X = warped_box_and_nodes(d, dims, [u for u, _ in pairs])
    kern = exp_quadratic(1.7, lams, box)
    axes, rows, candidates = _candidate_grid(box)
    mesh = np.meshgrid(*axes.T, indexing="ij")
    assert np.array_equal(candidates, np.stack(mesh, axis=-1).reshape(-1, d))
    assert np.array_equal(_pair_embed(kern, axes, X, rows),
                          _pair_embed(kern, candidates, X))


def ladder_fit(K1s, g):
    """The lengthscale scan one slice at a time, each through the jitter
    ladder: (index, log evidence, m, factor) of the first best slice."""
    best = None
    for i, K1 in enumerate(K1s):
        try:
            factor = _factorize(K1)[0]
            fit = (i, *_profiled_likelihood(factor, g, 1e-16), factor)
        except SingularGram:
            continue
        if best is None or fit[1] > best[1]:
            best = fit
    return best


def per_slice_fit(K1s, g):
    """The lengthscale scan one slice at a time: each factored by
    np.linalg.cholesky at its first jitter rung, q = |L^-1 g|^2 by forward
    substitution.  (index, m, factor) of the first best slice; the ladder
    scan if any slice fails its first rung."""
    fits = []
    for K1 in K1s:
        n = len(K1)
        try:
            factor = np.linalg.cholesky(
                K1 + JITTER_REL_START * (K1.trace() / n) * np.eye(n))
        except np.linalg.LinAlgError:
            i, _, m, factor = ladder_fit(K1s, g)
            return i, m, factor
        z = dtrtrs(factor.T, g, lower=0, trans=1)[0]
        q = np.sum(z * z)
        m = max(q / n, 1e-16)
        fits.append((-0.5 * q / m - 0.5 * n * np.log(m)
                     - np.sum(np.log(np.diag(factor))), m, factor))
    i = max(range(len(fits)), key=lambda i: fits[i][0])
    return i, *fits[i][1:]


@checks
@given(warped_inputs, st.integers(9, 15))
def test_stacked_scan_is_the_per_slice_scan(draw, gap_exp):
    # node 1 sits 10^-gap_exp box widths from node 0; the warped fit over one
    # stack of unit Grams equals the loop over Grams built one at a time, in
    # kernel and in factor bits
    d, dims, pairs = draw
    box, _, X = warped_box_and_nodes(d, dims, [u for u, _ in pairs])
    widths = box[:, 1] - box[:, 0]
    X[1] = np.clip(X[0] + 10.0 ** -gap_exp * widths, box[:, 0], box[:, 1])
    g = np.array([v for _, v in pairs])
    S = X / widths
    D = np.sum((S[:, None, :] - S[None, :, :]) ** 2, axis=-1)
    i, theta2, L1 = per_slice_fit([np.exp(-D / m ** 2) for m in WARP_LENGTH_MULTS], g)
    kern, L = _profile_theta_fit(X, g, box)
    assert kern == exp_quadratic(np.sqrt(theta2), WARP_LENGTH_MULTS[i] * widths, box)
    assert np.array_equal(L, kern.scale * L1)


@checks
@given(st.integers(2, 12), st.integers(0, 2**31 - 1), st.permutations(range(3)))
def test_scan_falls_back_to_the_jitter_ladder(n, seed, order):
    # a Gram with an eigenvalue of -3e-9 times its mean diagonal fails the
    # first two jitter rungs and factors at a higher one; beside it a sound
    # Gram and one with a NaN entry.  A stack that is not finite, or whose
    # stacked factorization raises, climbs _factorize's ladder slice by
    # slice: the scan is the ladder scan, the failing Gram gets _factorize's
    # jitter and factor, and the NaN Gram is skipped
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    eig = rng.uniform(0.5, 1.5, n)

    def gram(low):   # Q diag(eig) Q' with its first eigenvalue low * mean(eig)
        K = (Q * np.concatenate(([low * eig.mean()], eig[1:]))) @ Q.T
        return 0.5 * (K + K.T)

    failing = gram(-3e-9)
    sound = random_spd(n, seed, cond=1e3)
    nan = sound.copy()
    nan[tuple(rng.integers(n, size=2))] = np.nan
    g = rng.standard_normal(n)
    stack = np.stack([(failing, sound, nan)[k] for k in order])

    factor, jitter = _factorize(failing)
    assert jitter > JITTER_REL_START * failing.trace() / n
    i, ll, m, L = _profiled_scan(stack, g, 1e-16)
    ref = ladder_fit(stack, g)
    assert (i, ll, m) == ref[:3] and np.array_equal(L, ref[3])
    assert order[i] != 2
    finite = np.stack([failing, sound])
    i, ll, m, L = _profiled_scan(finite, g, 1e-16)
    ref = ladder_fit(finite, g)
    assert (i, ll, m) == ref[:3] and np.array_equal(L, ref[3])
    for sub in (stack[[order.index(0), order.index(2)]], failing[None]):
        i, ll, m, L = _profiled_scan(sub, g, 1e-16)
        assert i == 0 and np.array_equal(L, factor)
        assert (ll, m) == _profiled_likelihood(factor, g, 1e-16)
    for doomed in ([gram(-1e-3), nan], [gram(-1e-3)]):   # past the last rung
        with pytest.raises(SingularGram):
            _profiled_scan(np.stack(doomed), g, 1e-16)


filter_runs = st.tuples(
    st.sampled_from((1, 2)),
    st.one_of(st.tuples(st.just("linear"), st.floats(-2.0, 2.0),
                        st.floats(0.5, 2.0)),                  # a, x0
              st.tuples(st.just("logistic"), st.floats(0.5, 3.0),
                        st.floats(0.05, 0.9))),                # r, x0
    st.integers(1, 50),                                        # steps on [0, 1]
    st.floats(-3.0, 3.0))                                      # log10 rho2


@checks
@given(filter_runs)
def test_filter_mean_free_of_rho2_and_covariance_linear_in_it(run):
    # these identities make the closed-form diffusion calibration exact
    q, (name, rate, x0), steps, log_rho2 = run
    rate_key = "a" if name == "linear" else "r"
    prob = named_problem(name, x0=x0, t_end=1.0, **{rate_key: rate})
    h = 1.0 / steps
    rho2 = 10.0 ** log_rho2
    unit = solve_ivp_filter(prob, q=q, h=h)
    scaled = solve_ivp_filter(prob, q=q, h=h, rho2=rho2)
    assert np.all(np.abs(scaled.state_mean - unit.state_mean)
                  <= 1e-12 * (1.0 + np.abs(unit.state_mean)))
    for ref, P in zip(unit.cov_factor, scaled.cov_factor):
        assert np.abs(P - rho2 * ref).max() <= 1e-12 * rho2 * np.abs(ref).max()
    if q == 1:
        _, euler = rk_reference(prob, rk_method("euler"), h)
        assert np.all(np.abs(scaled.mean - euler)
                      <= 1e-10 * (1.0 + np.abs(euler)))


ode_problems = st.one_of(
    st.tuples(st.just("linear"), st.fixed_dictionaries(
        {"a": st.floats(-2.0, 2.0), "x0": st.floats(0.5, 2.0)})),
    st.tuples(st.just("logistic"), st.fixed_dictionaries(
        {"r": st.floats(0.5, 3.0), "k": st.floats(0.5, 2.0),
         "x0": st.floats(0.05, 0.9)})),
    st.tuples(st.just("lotka-volterra"), st.fixed_dictionaries(
        {"a": st.floats(0.5, 2.0), "b": st.floats(0.5, 1.5),
         "c": st.floats(1.0, 4.0), "d": st.floats(0.5, 1.5),
         "x0": st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0))})))
ode_steps = st.sampled_from((0.01, 0.02, 0.025, 0.04, 0.05, 0.1, 0.125, 0.2))  # h on [0, 1]
euler_runs = st.tuples(ode_problems, ode_steps,
                       st.floats(-3.0, 3.0))                   # log10 rho2


@checks
@given(euler_runs)
def test_filter_q1_mean_is_explicit_euler(run):
    # the update never moves the position and the q = 1 transition adds h
    # times the pinned derivative: the mean is Euler's, in any dimension
    (name, params), h, log_rho2 = run
    prob = named_problem(name, t_end=1.0, **params)
    filt = solve_ivp_filter(prob, q=1, h=h, rho2=10.0 ** log_rho2)
    _, euler = rk_reference(prob, rk_method("euler"), h)
    assert filt.mean.shape == euler.shape
    assert np.all(np.abs(filt.mean - euler) <= 1e-10 * (1.0 + np.abs(euler)))


def textbook_rk(problem, method, h):
    """The generic explicit RK loop, stage s at x + h (a[s, :s] @ k[:s]) and
    the step x + h (b @ k): the reference for ``rk_reference``."""
    n = int(round((problem.t_end - problem.t0) / h))
    ts = problem.t0 + h * np.arange(n + 1)
    xs = np.empty((n + 1, problem.dim))
    xs[0] = problem.x0
    k = np.empty((method.b.size, problem.dim))
    for i in range(n):
        t, x = ts[i], xs[i]
        for s in range(method.b.size):
            xi = x + h * (method.a[s, :s] @ k[:s]) if s else x.copy()
            k[s] = problem.eval_field(xi, t + method.c[s] * h)
        xs[i + 1] = x + h * (method.b @ k)
    return ts, xs


kutta_three_eighths = RKMethod(
    a=[[0.0, 0.0, 0.0, 0.0], [1 / 3, 0.0, 0.0, 0.0],
       [-1 / 3, 1.0, 0.0, 0.0], [1.0, -1.0, 1.0, 0.0]],
    b=[1 / 8, 3 / 8, 3 / 8, 1 / 8], c=[0.0, 1 / 3, 2 / 3, 1.0])


def test_user_tableau_runs_through_the_order_estimate():
    # a user RKMethod reaches convergence_order_estimate through rk_reference:
    # Kutta's 3/8 rule is fourth order
    est = convergence_order_estimate(
        lambda p, h: rk_reference(p, kutta_three_eighths, h),
        named_problem("linear", a=1.0), (0.1, 0.05, 0.025, 0.0125))
    assert 3.6 <= est.slope <= 4.4


@checks
@given(ode_problems, ode_steps, st.sampled_from(("euler", "midpoint", "rk4")))
def test_rk_reference_is_the_textbook_tableau_loop(problem, h, method):
    # every built-in stage coefficient is 0.5 or 1, so (h a_sj) k_j rounds
    # like h (a_sj k_j): the stage table reproduces the textbook loop bit for
    # bit.  A forcing term makes the field read its stage times too
    name, params = problem
    base = named_problem(name, t_end=1.0, **params)
    prob = IVProblem(f=lambda x, t: base.f(x, t) + 0.5 * np.cos(3.0 * t),
                     x0=base.x0, t0=0.0, t_end=1.0)
    ts, xs = rk_reference(prob, rk_method(method), h)
    ref_ts, ref = textbook_rk(prob, rk_method(method), h)
    assert np.array_equal(ts, ref_ts) and np.array_equal(xs, ref)
    # dense rows and coefficients like 1/3 round differently in the stage
    # table: a few ulps per stage, carried through n steps of a smooth map
    # (measured at most 0.41 n eps |x| on 300 random forced runs)
    _, xs = rk_reference(prob, kutta_three_eighths, h)
    _, ref = textbook_rk(prob, kutta_three_eighths, h)
    n = len(ref) - 1
    assert np.all(np.abs(xs - ref) <= 4 * n * np.finfo(float).eps * np.abs(ref))


field_pairs = st.tuples(
    st.sampled_from((1, 2)),
    st.integers(1, 3),                                         # dimension
    st.floats(-2.0, 2.0), st.floats(0.5, 3.0),                 # linear a, logistic r
    st.floats(0.05, 0.9),                                      # x0 scale
    st.integers(1, 50),                                        # steps on [0, 1]
    st.floats(-3.0, 3.0))                                      # log10 rho2


@checks
@given(field_pairs)
def test_filter_covariance_free_of_the_field_and_kronecker(run):
    # the covariance pass never sees the field: any two fields of one
    # dimension give the same covariances, each P1 (x) I_d, and std is
    # read off the position block of that derivative-major layout
    q, d, a, r, x0, steps, log_rho2 = run
    linear = IVProblem(f=lambda x, t: a * x, x0=np.full(d, x0), t0=0.0,
                       t_end=1.0)
    nonlinear = IVProblem(f=lambda x, t: r * x * (1.0 - x) + t,
                         x0=np.linspace(x0, 1.0, d), t0=0.0, t_end=1.0)
    kw = dict(q=q, h=1.0 / steps, rho2=10.0 ** log_rho2)
    first = solve_ivp_filter(linear, **kw)
    second = solve_ivp_filter(nonlinear, **kw)
    assert np.array_equal(first.cov_factor, second.cov_factor)
    for k in range(len(first.ts)):
        cov = first.cov(k)
        assert np.array_equal(cov, np.kron(cov[::d, ::d], np.eye(d)))
        assert np.array_equal(first.std[k],
                              np.sqrt(np.maximum(np.diag(cov)[:d], 0.0)))


def per_step_covariance_pass(A1, Q1, n, d):
    """The covariance recursion with one (q+1) x (q+1) update and prediction
    per step, to the end of the horizon: the reference for the stationary
    covariance pass.  Returns the predicted factors, gains, s and PSD slack."""
    q1 = A1.shape[0]
    factors = np.zeros((2 * n + 1, q1, q1))
    gains = np.zeros((n, q1, 1))
    s = np.zeros(n)
    eye = np.eye(q1)
    P = factors[0]
    for k in range(n):
        g = gains[k, :, 0]
        tr = d * P[1, 1]
        if tr > 1e-300:
            s[k] = P[1, 1] + 1e-14 * tr
            g[:] = P[:, 1] / s[k]
        g[0] = 0.0
        g[1] = 1.0
        Z = eye.copy()
        Z[:, 1] -= g
        P = Z.dot(P).dot(Z.T)
        P = factors[2 * k + 1] = 0.5 * (P + P.T)
        P = A1.dot(P).dot(A1.T) + Q1
        P = factors[2 * k + 2] = 0.5 * (P + P.T)
    return factors[::2], gains, s, odefilter._check_psd(factors, d)


def assert_matches_per_step_pass(q, h, n, d):
    A1, Q1 = odefilter.iwp_transition(q, h, 1.0)
    Ps, gains, s, slack, start = odefilter._covariance_pass(A1, Q1, n, d)
    ref_Ps, ref_gains, ref_s, ref_slack = per_step_covariance_pass(A1, Q1, n, d)
    assert gains.tobytes() == ref_gains.tobytes()
    assert s.tobytes() == ref_s.tobytes()
    flat, ref_flat = Ps.reshape(n + 1, -1), ref_Ps.reshape(n + 1, -1)
    assert flat[:, 1:].tobytes() == ref_flat[:, 1:].tobytes()
    # P1[0, 0]: the reference rounds it once per step, so its own error
    # grows to about n ulps of max|P|; the stationary fill rounds once
    tol = max(1e-13, n * np.finfo(float).eps) * np.abs(ref_Ps).max()
    assert np.abs(flat[:, 0] - ref_flat[:, 0]).max() <= tol
    assert abs(slack - ref_slack) <= 1e-15
    return start, ref_Ps


covariance_runs = st.tuples(
    st.sampled_from((1, 2)),
    st.floats(-3.0, -0.3),                                     # log10 h
    st.one_of(st.integers(1, 40), st.integers(1, 3000)),       # steps
    st.integers(1, 3))                                         # dimension


@checks
@given(covariance_runs)
def test_stationary_covariance_pass_matches_per_step_recursion(run):
    # the gain, s and every entry but P1[0, 0] bit for bit, on horizons
    # shorter and longer than the stationary step
    q, log_h, n, d = run
    assert_matches_per_step_pass(q, 10.0 ** log_h, n, d)


def test_stationary_covariance_pass_accepts_a_two_cycle():
    # at q = 2, h = 0.01 the recursion settles into a 2-cycle one ulp apart
    start, ref_Ps = assert_matches_per_step_pass(2, 0.01, 1000, 1)
    rest = ref_Ps.reshape(1001, -1)[:, 1:]
    assert start < 1000
    assert np.array_equal(rest[start], rest[start - 2])
    assert not np.array_equal(rest[start], rest[start - 1])


GUARD_OP = random_spd(5, 0)
GUARD_NODES = np.linspace(-2.0, 2.0, 5)
GUARD_VALUES = np.sin(GUARD_NODES)
GUARD_S = np.eye(5)[:, :2]
GUARD_BELIEF = condition_on_observations(identity_belief(5), GUARD_S, GUARD_OP @ GUARD_S)
EQ = KernelFamily.EXP_QUADRATIC


@checks
@given(plant=st.sampled_from((np.nan, np.inf, -np.inf)), data=st.data())
@pytest.mark.parametrize("what, valid, call", [
    # the name the message starts with, a valid input, the entry called on it
    pytest.param("trapezoid nodes", GUARD_NODES, lambda a: trapezoid(a, GUARD_VALUES),
                 id="trapezoid-nodes"),
    pytest.param("trapezoid values", GUARD_VALUES, lambda a: trapezoid(GUARD_NODES, a),
                 id="trapezoid-values"),
    pytest.param("BQ values", GUARD_VALUES, lambda a: bq_posterior(
        BQState(linear_spline(), tuple(GUARD_NODES), tuple(a))), id="bq-values"),
    pytest.param("nodes to fit", GUARD_NODES,
                 lambda a: fit_hyperparameters(EQ, a, GUARD_VALUES), id="fit-nodes"),
    pytest.param("values to fit", GUARD_VALUES,
                 lambda a: fit_hyperparameters(EQ, GUARD_NODES, a), id="fit-values"),
    pytest.param("nodes", GUARD_NODES, lambda a: default_bounds(EQ, a, GUARD_VALUES),
                 id="bounds-nodes"),
    pytest.param("values", GUARD_VALUES, lambda a: default_bounds(EQ, GUARD_NODES, a),
                 id="bounds-values"),
    pytest.param("values", GUARD_VALUES, lambda a: log_marginal_likelihood(
        exp_quadratic(), GUARD_NODES, a), id="lml-values"),
    pytest.param("dense operator", GUARD_OP, LinearOperator.from_dense, id="operator"),
    pytest.param("rhs", GUARD_VALUES, lambda a: classic_cg(
        LinearOperator.from_dense(GUARD_OP), a), id="cg-rhs"),
    pytest.param("rhs", GUARD_VALUES, lambda a: solve_probabilistic(
        LinearOperator.from_dense(GUARD_OP), a, belief=GUARD_BELIEF), id="prob-rhs"),
    pytest.param("v", GUARD_VALUES, lambda a: posterior_mean_apply(GUARD_BELIEF, a),
                 id="mean-apply-v"),
    pytest.param("S", GUARD_S, lambda a: condition_on_observations(
        GUARD_BELIEF, a, GUARD_OP @ GUARD_S), id="condition-s"),
    pytest.param("Y", GUARD_OP @ GUARD_S, lambda a: condition_on_observations(
        GUARD_BELIEF, GUARD_S, a), id="condition-y"),
    pytest.param("x0", GUARD_VALUES[:2], lambda a: IVProblem(
        f=lambda x, t: -x, x0=a, t0=0.0, t_end=1.0), id="ivp-x0"),
])
def test_non_finite_input_is_rejected_by_name(what, valid, call, plant, data):
    # the valid input returns; one planted entry raises the one message
    call(valid)
    bad = valid.copy()
    bad.flat[data.draw(st.integers(0, valid.size - 1))] = plant
    with pytest.raises(ValueError) as info:
        call(bad)
    assert str(info.value).startswith(f"{what} must be finite")
    assert str(info.value).endswith(f"got [{plant}]")
