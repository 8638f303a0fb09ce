"""Property tests of the paper's identities over random inputs.

Linear solver: each example draws a dimension, a condition number and a seed
for a ``random_spd`` operator and a right-hand side, and for the warm solves
a rank and the size of a perturbation of the operator.  Quadrature: each
example draws a linear-spline kernel, an interval, nodes and values, or a
random SPD joint covariance of nodes and candidate nodes.  Prior
draws: each example draws a linear-spline kernel, an interval, a grid in it
and a seed.  Kernel:
each example draws an exponentiated-quadratic kernel on a box of dimension
1-4 and points in it.  Hyperparameter fit: each example draws a kernel
family, an interval, nodes and values.  ODE filter: each example draws a
prior order, a problem, a step and a diffusion scale, or a linear, logistic
or Lotka-Volterra problem, a step and a diffusion scale for the q = 1 Euler
identity, or two vector fields of one dimension, or a prior order, a step,
a step count and a dimension for the covariance pass.
"""

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import cho_factor
from scipy.special import erf

from pnum import (BQState, IVProblem, KernelFamily, LinearOperator,
                  SingularGram, bq_posterior, classic_cg, exp_quadratic,
                  fit_hyperparameters, gram_matrix, identity_belief,
                  kernel_embeddings, linear_spline, log_marginal_likelihood,
                  named_problem, odefilter, posterior_mean_apply, random_spd,
                  rk_method, rk_reference, sample_path, solve_ivp_filter,
                  solve_probabilistic, trapezoid, truncate_belief)
from pnum.gp import (_factorize, _profiled_likelihood, _spline_cholesky,
                     default_bounds)
from pnum.quadrature import (_candidate_grid, _pair_embed, _profile_theta_fit,
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
def test_posterior_mean_is_symmetric(system, warm):
    n = system[0]
    for _, _, rep in cold_and_warm_solves(system, warm):
        H = np.column_stack([posterior_mean_apply(rep.belief, e) for e in np.eye(n)])
        assert np.abs(H - H.T).max() <= 1e-10 * np.abs(H).max()


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
    # whose integral variance is (c b / 18) sum_i h_i^3 exactly.
    c, b, lo, frac, pairs = rule
    width = frac * 3.0 * (1.0 + b) / b
    gaps, values = (np.array(v) for v in zip(*pairs))
    nodes = lo + width * np.concatenate(([0.0], np.cumsum(gaps[1:]))) / gaps[1:].sum()
    nodes[-1] = lo + width
    state = BQState.for_kernel(linear_spline(c, b, (lo, lo + width)))
    for x, y in zip(nodes, values):
        state = state.with_node(x, y)
    est = bq_posterior(state)
    assert abs(est.mean - trapezoid(nodes, values)) <= 1e-9 * trapezoid(nodes, np.abs(values))
    bridges = c * b / 18.0 * np.sum(np.diff(nodes) ** 3)
    assert abs(est.variance - bridges) <= 1e-12 * state.z0


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
    got = _variance_reductions(cho_factor(K, lower=True), G[:n, n:],
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


@checks
@given(spline_kernels, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=200))
def test_spline_factor_generators_rebuild_the_gram(kernel_input, unit):
    # L_ij = p_i' w_j below the diagonal, p_i = (u_i, 1): L L' is the
    # jittered Gram on any distinct grid, near-coincident nodes included
    kern, lo, width = spline_box(*kernel_input)
    grid = np.unique(lo + width * np.array(unit))
    d, w, u, jitter = _spline_cholesky(kern, grid)
    L = np.diag(d) + np.tril(np.outer(u, w[0]) + w[1], -1)
    K = gram_matrix(kern, grid) + jitter * np.eye(grid.size)
    assert np.abs(L @ L.T - K).max() <= 1e-13 * K.max()


@checks
@given(spline_kernels, st.lists(st.floats(0.05, 1.0), min_size=1, max_size=200),
       st.integers(0, 2**32 - 1))
@example((1.0, 1.0, 0.0, 50 / 49), [1.0] * 50, 0)
def test_spline_draw_is_the_dense_cholesky_draw(kernel_input, gaps, seed):
    # the grid ends at the box's right end and its smallest spacing is at
    # least 1/4000 of the box.  Nearer nodes leave pivots of the size of the
    # jitter, which every float64 Cholesky, the dense one included, meets
    # with relative errors of order 1e-16 / 1e-10.  The explicit example's
    # grid spans 12, the width at which the Gram of b = 1 turns singular;
    # there the generators need the grid's midpoint as origin
    kern, lo, width = spline_box(*kernel_input)
    ends = np.cumsum(gaps)
    grid = lo + width * (ends / ends[-1])
    jitter = _spline_cholesky(kern, grid)[3]
    L = np.linalg.cholesky(gram_matrix(kern, grid) + jitter * np.eye(grid.size))
    z = np.random.default_rng(seed).standard_normal(grid.size)
    draw = sample_path(kern, grid, seed)
    assert np.abs(draw - L @ z).max() <= 1e-11 * max(1.0, np.abs(draw).max())


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


def per_slice_fit(K1s, g):
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
    mults = np.geomspace(0.05, 2.0, 16)
    i, _, theta2, (L1, _) = per_slice_fit([np.exp(-D / m ** 2) for m in mults], g)
    kern, (L, lower) = _profile_theta_fit(X, g, box)
    assert kern == exp_quadratic(np.sqrt(theta2), mults[i] * widths, box)
    assert lower and np.array_equal(L, kern.scale * L1)


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


euler_runs = st.tuples(
    st.one_of(st.tuples(st.just("linear"), st.fixed_dictionaries(
                  {"a": st.floats(-2.0, 2.0), "x0": st.floats(0.5, 2.0)})),
              st.tuples(st.just("logistic"), st.fixed_dictionaries(
                  {"r": st.floats(0.5, 3.0), "k": st.floats(0.5, 2.0),
                   "x0": st.floats(0.05, 0.9)})),
              st.tuples(st.just("lotka-volterra"), st.fixed_dictionaries(
                  {"a": st.floats(0.5, 2.0), "b": st.floats(0.5, 1.5),
                   "c": st.floats(1.0, 4.0), "d": st.floats(0.5, 1.5),
                   "x0": st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0))}))),
    st.sampled_from((0.01, 0.02, 0.025, 0.04, 0.05, 0.1, 0.125, 0.2)),  # h on [0, 1]
    st.floats(-3.0, 3.0))                                      # log10 rho2


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
