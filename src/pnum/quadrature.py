"""Probabilistic integration.

Closed-form kernel embeddings, the Gaussian posterior over an integral,
equidistant and variance-minimizing node selection, and a square-root-warped
variant for strictly positive integrands on boxes up to dimension 4.  The
exponentiated-quadratic kernel factors over the dimensions of its box, so its
embeddings are products of one-dimensional erf forms.  The warped
variance is evaluated per dimension, in O(d (33^2 + 33 n) + n^2) memory for
n nodes, so the dimension cap is a policy choice, not a memory limit; only
the grid contraction that takes over for ill-conditioned Grams holds
33^d + 33^(d-1) n values (12 MB at d = 4, n = 10).

For the linear-spline kernel on an endpoint-inclusive grid, the posterior
mean coincides with the trapezoid rule; the posterior variance is what the
probabilistic treatment adds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Tuple

import numpy as np
from scipy.linalg import cho_solve
from scipy.special import erf

from .exceptions import (NoCandidates, NonPositiveEvaluation, SingularGram,
                         UnsortedNodes)
from .gp import (Kernel, KernelFamily, _as_box, _factorize, _make_kernel,
                 _points, _profiled_likelihood, _solve_refined, _unit_kernel,
                 gram_matrix, kernel_eval)
from .records import ConvergenceRecord

SQRT_PI = np.sqrt(np.pi)

# Variance smaller than -1e-8 * Z0 signals a numerical problem; anything in
# (-1e-8 * Z0, 0) is clamped to zero and flagged.
NEG_VAR_REL_TOL = 1e-8

DEFAULT_CANDIDATE_COUNT = 512

# Largest rounding bound of the separable warped variance, relative to
# theta^2 v' K_GG v, that is accepted without re-evaluating on the grid; the
# grid evaluation itself errs by up to about 3e-13 of that term in 4-D.
SEPARABLE_REL_TOL = 1e-12

# Points per dimension of the trapezoid rule for the warped variance.
VAR_GRID = 33

# The warp offset alpha is this fraction of the smallest observed value.
WARP_ALPHA_FACTOR = 0.8


def trapezoid(nodes, values) -> float:
    """Trapezoid-rule estimate sum_i (f_i + f_{i-1})/2 * (x_i - x_{i-1})."""
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2 or nodes.shape != values.shape:
        raise ValueError("need >= 2 nodes with matching values")
    dx = np.diff(nodes)
    if np.any(dx <= 0):
        raise UnsortedNodes("nodes must be strictly increasing")
    return float(np.sum(0.5 * (values[1:] + values[:-1]) * dx))


def kernel_embeddings(kernel: Kernel) -> Tuple[Callable[[np.ndarray], np.ndarray], float]:
    """Closed forms of z(x_i) = int k(x, x_i) dx and Z0 = double int k.

    For the linear-spline kernel both are piecewise polynomials in x_i and
    the interval endpoints; for the exponentiated quadratic both are
    products over the dimensions of the box of Gaussian error function
    forms.  z takes points as :func:`gp.kernel_eval` does.
    """
    if kernel.family is KernelFamily.LINEAR_SPLINE:
        c, (b,) = kernel.scale, kernel.shape
        ((lo, hi),) = kernel.box
        width = hi - lo

        def z_func(x):
            x = np.asarray(x, dtype=float)
            abs_int = 0.5 * ((x - lo) ** 2 + (hi - x) ** 2)
            return c * (1.0 + b) * width - (c * b / 3.0) * abs_int

        z0 = c * (1.0 + b) * width ** 2 - (c * b / 9.0) * width ** 3
        return z_func, float(z0)

    def z_func(x):
        z = kernel.scale ** 2
        coords = np.moveaxis(_points(kernel, x), -1, 0)
        for (lo, hi), lam, xj in zip(kernel.box, kernel.shape, coords):
            z = z * lam * SQRT_PI / 2.0 * (erf((hi - xj) / lam) - erf((lo - xj) / lam))
        return z

    z0 = kernel.scale ** 2
    for (lo, hi), lam in zip(kernel.box, kernel.shape):
        width = hi - lo
        z0 = z0 * (SQRT_PI * width * lam * erf(width / lam)
                   + lam ** 2 * (np.exp(-(width / lam) ** 2) - 1.0))
    return z_func, float(z0)


@dataclass(frozen=True)
class QuadratureEstimate:
    """Gaussian posterior over an integral value."""

    mean: float
    variance: float
    n_evals: int
    kernel: Kernel
    clamped: bool = False

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))


@dataclass(frozen=True)
class BQState:
    """Accumulated quadrature evidence: nodes, values and embedding cache.

    ``z`` always has one entry per node; ``z0`` is fixed once the kernel and
    its domain are fixed.  States are immutable; ``with_node`` returns an
    extended copy.
    """

    kernel: Kernel
    nodes: Tuple[float, ...] = ()
    values: Tuple[float, ...] = ()
    z: Tuple[float, ...] = ()
    z0: float = 0.0

    @classmethod
    def for_kernel(cls, kernel: Kernel) -> "BQState":
        _, z0 = kernel_embeddings(kernel)
        return cls(kernel=kernel, z0=z0)

    def with_node(self, x: float, value: float) -> "BQState":
        z_func, _ = kernel_embeddings(self.kernel)
        return replace(self, nodes=self.nodes + (float(x),),
                       values=self.values + (float(value),),
                       z=self.z + (float(z_func(x)),))

    @property
    def node_array(self) -> np.ndarray:
        return np.asarray(self.nodes, dtype=float)

    @property
    def value_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    @property
    def z_array(self) -> np.ndarray:
        return np.asarray(self.z, dtype=float)


def bq_posterior(state: BQState) -> QuadratureEstimate:
    """Posterior over the integral: mean z' K^-1 y, variance Z0 - z' K^-1 z.

    With no nodes this is the prior (mean 0, variance Z0).  A variance more
    negative than -1e-8 * Z0 raises; a slightly negative one is clamped to
    zero with ``clamped`` set.
    """
    n = len(state.nodes)
    if n == 0:
        return QuadratureEstimate(mean=0.0, variance=state.z0, n_evals=0,
                                  kernel=state.kernel)
    K = gram_matrix(state.kernel, state.node_array)
    factor, _ = _factorize(K)
    zvec = state.z_array
    mean = float(zvec @ _solve_refined(factor, K, state.value_array))
    variance = float(state.z0 - zvec @ _solve_refined(factor, K, zvec))
    clamped = False
    if variance < 0.0:
        if variance < -NEG_VAR_REL_TOL * state.z0:
            raise SingularGram(
                f"integral variance {variance:.3e} below clamp threshold")
        variance, clamped = 0.0, True
    return QuadratureEstimate(mean=mean, variance=variance, n_evals=n,
                              kernel=state.kernel, clamped=clamped)


def select_nodes_grid(domain: Tuple[float, float], n: int) -> np.ndarray:
    """N equidistant nodes including both endpoints."""
    if n < 2:
        raise ValueError("need at least 2 nodes")
    lo, hi = domain
    return np.linspace(lo, hi, int(n))


def _default_candidates(state: BQState) -> np.ndarray:
    ((lo, hi),) = state.kernel.box
    cand = np.linspace(lo, hi, DEFAULT_CANDIDATE_COUNT)
    # force exact mirror symmetry about the midpoint so that a symmetric
    # state produces bitwise-equal variances at mirrored candidates and the
    # documented smallest-abscissa tie-break is reachable
    mid = 0.5 * (lo + hi)
    offsets = cand - mid
    cand = mid + 0.5 * (offsets - offsets[::-1])
    if state.nodes:
        tol = 1e-12 * (hi - lo)
        keep = np.all(np.abs(cand[:, None] - state.node_array[None, :]) > tol, axis=1)
        cand = cand[keep]
    return cand


def select_node_active(state: BQState, candidates=None) -> float:
    """Candidate whose hypothetical addition minimizes the integral variance.

    The posterior variance does not depend on observed values, so no
    integrand evaluation is needed.  Candidates are scanned in ascending
    order and ties break toward the smallest abscissa.  The default candidate
    set is 512 equidistant points minus the existing nodes.
    """
    if candidates is None:
        candidates = _default_candidates(state)
    candidates = np.sort(np.asarray(candidates, dtype=float))
    if candidates.size == 0:
        raise NoCandidates("empty candidate set")
    z_func, _ = kernel_embeddings(state.kernel)
    z_cand = z_func(candidates)
    k_cc = kernel_eval(state.kernel, candidates, candidates)
    if len(state.nodes) == 0:
        # variance reduction of a single node: z_c^2 / k(x_c, x_c)
        reduction = z_cand ** 2 / k_cc
        return float(candidates[int(np.argmax(reduction))])
    nodes = state.node_array
    K = gram_matrix(state.kernel, nodes)
    factor, _ = _factorize(K)
    k_xc = kernel_eval(state.kernel, nodes[:, None], candidates[None, :])
    solved = cho_solve(factor, k_xc)                     # K^-1 k(X, c)
    post_var_c = np.maximum(k_cc - np.einsum("ij,ij->j", k_xc, solved), 1e-300)
    w_z = cho_solve(factor, state.z_array)
    # Schur complement of the bordered Gram: adding candidate x_c lowers the
    # integral variance by (z_c - k_c' K^-1 z)^2 / postvar(x_c).
    reduction = (z_cand - k_xc.T @ w_z) ** 2 / post_var_c
    return float(candidates[int(np.argmax(reduction))])


def _pair_embed(kernel: Kernel, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """P[i, j] = int_box k(x, X_i) k(x, Y_j) dx of the exponentiated
    quadratic, a product of per-dimension erf forms; X, Y are (n, d)."""
    P = np.full((X.shape[0], Y.shape[0]), kernel.scale ** 4)
    for j, ((lo, hi), lam) in enumerate(zip(kernel.box, kernel.shape)):
        a = X[:, j][:, None]
        b = Y[None, :, j]
        mid = 0.5 * (a + b)
        fac = (np.exp(-(a - b) ** 2 / (2.0 * lam ** 2))
               * (lam / np.sqrt(2.0)) * (SQRT_PI / 2.0)
               * (erf(np.sqrt(2.0) * (hi - mid) / lam)
                  - erf(np.sqrt(2.0) * (lo - mid) / lam)))
        P = P * fac
    return P


def _candidate_grid(box: np.ndarray) -> np.ndarray:
    d = box.shape[0]
    per_dim = max(2, int(round(DEFAULT_CANDIDATE_COUNT ** (1.0 / d))))
    axes = [np.linspace(lo, hi, per_dim) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, d)


def _profile_theta_fit(X: np.ndarray, g: np.ndarray, box: np.ndarray):
    """Fit an exponentiated-quadratic kernel on the box to g by profiled
    marginal likelihood.

    The lengthscales are a common multiple of the box widths on a 16-point
    log grid, each with its closed-form theta.  Returns the kernel and the
    jittered factor of its Gram, theta^2 K1 (theta times K1's).
    """
    widths = box[:, 1] - box[:, 0]
    S = X / widths
    D = np.sum((S[:, None, :] - S[None, :, :]) ** 2, axis=-1)
    best = None
    for mult in np.geomspace(0.05, 2.0, 16):
        try:
            fit = _profiled_likelihood(np.exp(-D / mult ** 2), g, 1e-16) + (mult,)
        except SingularGram:
            continue
        if best is None or fit[0] > best[0]:
            best = fit
    if best is None:
        raise SingularGram("no lengthscale candidate factorized")
    _, theta2, (L1, lower), mult = best
    kern = _make_kernel(KernelFamily.EXP_QUADRATIC, theta2, mult * widths, box)
    return kern, (kern.scale * L1, lower)


def _warped_moments(kern: Kernel, factor, X: np.ndarray,
                    g: np.ndarray, alpha_w: float):
    """Posterior mean and variance of the integral under the sqrt warp.

    Mean uses the exact pairwise embedding of the squared GP mean; variance
    integrates the first-order (linearized) covariance m C m by the
    ``VAR_GRID``-point trapezoid rule per dimension.  With v = u * m on the
    tensor grid G (u the tensor trapezoid weights), the variance is
    theta^2 v' K_GG v - (K_GX' v)' K^-1 (K_GX' v).  Kernel, mean and weights
    all factor over dimensions, so with E_j[a, i] = exp(-(a_j - X_ij)^2 /
    lam_j^2) on the grid axis a_j, W_j = diag(weights) and A_j the axis Gram,

        theta^2 v' K_GG v = theta^6 w' (prod_j E_j' W_j A_j W_j E_j) w
        K_GX' v           = theta^4 (prod_j E_j' W_j E_j) w

    with elementwise products of n x n matrices: no grid is built and memory
    does not grow with the dimension.  These forms are quadratic in w, so
    their rounding error grows with |w|' M |w|, which an ill-conditioned Gram
    makes far larger than w' M w.  When that bound exceeds
    ``SEPARABLE_REL_TOL`` times theta^2 v' K_GG v, the mean is contracted
    with w on the grid first (``_grid_terms``), which is accurate to rounding
    in v.  The variance is returned unclamped and can be slightly negative.
    """
    w = cho_solve(factor, g)
    P = _pair_embed(kern, X, X)
    volume = float(np.prod([hi - lo for lo, hi in kern.box]))
    mean = alpha_w * volume + 0.5 * float(w @ (P @ w))

    n = X.shape[0]
    theta = kern.scale
    kk = np.ones((n, n))
    kx = np.ones((n, n))
    Es, ws, As = [], [], []
    for j, ((lo, hi), lam) in enumerate(zip(kern.box, kern.shape)):
        ax = np.linspace(lo, hi, VAR_GRID)
        wq = np.full(VAR_GRID, (hi - lo) / (VAR_GRID - 1))
        wq[[0, -1]] *= 0.5
        E = _unit_kernel(kern.family, (lam,), (ax[:, None] - X[None, :, j],))
        A = _unit_kernel(kern.family, (lam,), (ax[:, None] - ax[None, :],))
        WE = wq[:, None] * E
        kk *= WE.T @ A @ WE
        kx *= E.T @ WE
        Es.append(E)
        ws.append(wq)
        As.append(A)
    quad_kk = theta ** 6 * float(w @ kk @ w)
    t2 = theta ** 4 * (kx @ w)
    s = cho_solve(factor, t2)
    # kk and kx are entrywise positive, so |w|' kk |w| bounds the terms
    # that cancel in w' kk w (likewise for t2 and the projection t2' s)
    aw = np.abs(w)
    bound = np.finfo(float).eps * (
        theta ** 6 * float(aw @ kk @ aw)
        + 2.0 * theta ** 4 * float(np.abs(s) @ kx @ aw))
    if bound > SEPARABLE_REL_TOL * quad_kk:
        quad_kk, t2 = _grid_terms(theta, Es, ws, As, w)
        s = cho_solve(factor, t2)
    return mean, quad_kk - float(t2 @ s), w, P


def _grid_terms(theta: float, Es, ws, As, w: np.ndarray):
    """theta^2 v' K_GG v and K_GX' v with the mean m = K_GX w formed first.

    The product over all but the last dimension, T[g', i] =
    prod_{j<d} E_j[g'_j, i], is the largest array: VAR_GRID^(d-1) x n.
    The grid Gram K_GG is applied through its Kronecker factors.
    """
    n = w.size
    T = np.ones((1, n))
    for E in Es[:-1]:
        T = (T[:, None, :] * E[None, :, :]).reshape(-1, n)
    m = theta ** 2 * ((T * w) @ Es[-1].T)
    u = ws[0]
    for wq in ws[1:]:
        u = np.multiply.outer(u, wq)
    v = u.reshape(m.shape) * m
    t = v.reshape(u.shape)
    for j, A in enumerate(As):
        t = np.moveaxis(np.tensordot(A, t, axes=([1], [j])), 0, j)
    quad_kk = theta ** 2 * float(v.reshape(-1) @ t.reshape(-1))
    t2 = theta ** 2 * np.sum(T * (v @ Es[-1]), axis=0)
    return quad_kk, t2


def warped_bq_integrate(f: Callable, domain, budget: int,
                        seed: int) -> Tuple[QuadratureEstimate, ConvergenceRecord]:
    """Actively integrate a strictly positive function via a square-root warp.

    Models f(x) = alpha + g(x)^2 / 2 with a GP on g, where
    g_i = sqrt(2 (f_i - alpha)) and alpha is re-set to ``WARP_ALPHA_FACTOR``
    times the smallest observed value each iteration.  Nodes after the first are
    chosen to maximize the (linearized, value-frozen) reduction of the
    integral variance over a fixed equidistant candidate scan.

    Returns the final estimate and a per-evaluation convergence record.
    Raises NonPositiveEvaluation as soon as f returns a value <= 0.
    """
    if budget < 3:
        raise ValueError("budget must be >= 3")
    box = _as_box(domain)
    d = box.shape[0]
    if d > 4:
        raise ValueError("warped integration supports dimension <= 4")
    widths = box[:, 1] - box[:, 0]
    rng = np.random.default_rng(seed)

    def evaluate(x):
        arg = x if d > 1 else float(x[0])
        val = float(f(arg))
        if not np.isfinite(val) or val <= 0.0:
            raise NonPositiveEvaluation(
                f"integrand returned {val} at {x}; strictly positive values required")
        return val

    x0 = box.mean(axis=1) + rng.uniform(-0.25, 0.25, size=d) * widths
    X = [x0]
    fv = [evaluate(x0)]
    candidates = _candidate_grid(box)
    record = ConvergenceRecord(method="warped-bq", seed=seed)
    estimate = None
    for it in range(budget):
        Xa = np.asarray(X)
        fa = np.asarray(fv)
        alpha_w = WARP_ALPHA_FACTOR * float(fa.min())
        g = np.sqrt(2.0 * (fa - alpha_w))
        kern, factor = _profile_theta_fit(Xa, g, box)
        mean, variance, w, P = _warped_moments(kern, factor, Xa, g, alpha_w)
        clamped = variance < 0.0
        variance = max(variance, 0.0)
        record.append(budget=it + 1, estimate=mean, spread=np.sqrt(variance))
        estimate = QuadratureEstimate(mean=mean, variance=variance,
                                      n_evals=it + 1, kernel=kern,
                                      clamped=clamped)
        if it + 1 == budget:
            break
        # value-frozen variance reduction of each candidate
        q = P @ w
        k_cx = gram_matrix(kern, candidates, Xa)
        p_c = _pair_embed(kern, candidates, Xa) @ w
        solved = cho_solve(factor, k_cx.T)
        proj = q @ solved
        cand_var = np.maximum(
            kern.scale ** 2 - np.einsum("ij,ji->i", k_cx, solved),
            1e-12 * kern.scale ** 2)
        gain = (p_c - proj) ** 2 / cand_var
        taken = np.min(
            np.max(np.abs(candidates[:, None, :] - Xa[None, :, :]), axis=2),
            axis=1) < 1e-9 * widths.max()
        gain[taken] = -np.inf
        x_next = candidates[int(np.argmax(gain))]
        X.append(x_next)
        fv.append(evaluate(x_next))
    return estimate, record
