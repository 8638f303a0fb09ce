"""Probabilistic integration.

Closed-form kernel embeddings, the Gaussian posterior over an integral,
equidistant and variance-minimizing node selection, and a square-root-warped
variant for strictly positive integrands on boxes up to dimension 4.  The
exponentiated-quadratic kernel factors over the dimensions of its box, so its
embeddings are products of one-dimensional erf forms.  The warped
variance is evaluated per dimension, in O(d (33^2 + 33 n) + n^2) memory for
n nodes, so the dimension cap is a policy choice, not a memory limit; only
the grid contraction that takes over for ill-conditioned Grams holds
3 * 33^d + 2 * 33^(d-1) n values (a traced 34 MB at d = 4, n = 10).

Given the nodes, the linear-spline prior splits into Brownian bridges and
one end piece, so its posterior is closed-form in O(n): on an endpoint grid
its mean is the trapezoid rule, and its variance is what BQ adds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np
from scipy.linalg.lapack import dpotrs
from scipy.special import erf

from .exceptions import (NoCandidates, NonPositiveEvaluation, SingularGram,
                         UnsortedNodes, _require_finite)
from .gp import (Kernel, KernelFamily, _as_box, _factorize, _make_kernel,
                 _points, _profiled_scan, _solve_refined, _unit_kernel,
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

# Warped-BQ lengthscales, as multiples of the box widths, that the fit scans.
WARP_LENGTH_MULTS = np.geomspace(0.05, 2.0, 16)


def trapezoid(nodes, values) -> float:
    """Trapezoid-rule estimate sum_i (f_i + f_{i-1})/2 * (x_i - x_{i-1}).
    Non-finite nodes or values, and finite ones whose sum overflows, raise
    ValueError."""
    nodes = _require_finite("trapezoid nodes", nodes)
    values = _require_finite("trapezoid values", values)
    if nodes.ndim != 1 or nodes.size < 2 or nodes.shape != values.shape:
        raise ValueError("need >= 2 nodes with matching values")
    with np.errstate(over="ignore", invalid="ignore"):
        dx = np.diff(nodes)
        total = _trapezoid_sum(dx, values)
    if np.any(dx <= 0):
        raise UnsortedNodes("nodes must be strictly increasing")
    if not np.isfinite(total):
        raise ValueError(f"trapezoid nodes {nodes.tolist()} and values "
                         f"{values.tolist()} overflow the sum")
    return total


def _trapezoid_sum(dx: np.ndarray, values: np.ndarray) -> float:
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
    clamped: bool = False

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))


@dataclass(frozen=True)
class BQState:
    """Accumulated quadrature evidence: the kernel, nodes and values.

    The kernel embeddings of the nodes are computed where they are read.
    States are immutable; ``with_node`` returns an extended copy.
    """

    kernel: Kernel
    nodes: Tuple[float, ...] = ()
    values: Tuple[float, ...] = ()

    @classmethod
    def for_kernel(cls, kernel: Kernel) -> "BQState":
        return cls(kernel=kernel)

    def with_node(self, x: float, value: float) -> "BQState":
        return BQState(self.kernel, self.nodes + (float(x),),
                       self.values + (float(value),))

    @property
    def node_array(self) -> np.ndarray:
        return np.asarray(self.nodes, dtype=float)

    @property
    def z0(self) -> float:
        """Prior variance of the integral, the double integral of k."""
        return kernel_embeddings(self.kernel)[1]


def bq_posterior(state: BQState) -> QuadratureEstimate:
    """Posterior over the integral: mean z' K^-1 y, variance Z0 - z' K^-1 z.

    With no nodes this is the prior (mean 0, variance Z0).  Linear-spline
    nodes split the prior into Brownian bridges of rate 2 beta, of integral
    variance (beta / 6) h^3 on a gap h, and the end pieces of
    :func:`_spline_ends`; EQ solves the dense Gram.  A variance below
    -1e-8 * Z0 raises; a slightly negative one becomes 0 with ``clamped`` set.
    Values not one per node, non-finite or overflowing the mean, and NaN or
    out-of-box nodes raise ValueError; repeated spline nodes UnsortedNodes."""
    z_func, z0 = kernel_embeddings(state.kernel)
    if len(state.values) != len(state.nodes):
        raise ValueError(f"{len(state.values)} BQ values do not match {len(state.nodes)} nodes")
    if not state.nodes:
        return QuadratureEstimate(mean=0.0, variance=z0)
    values = _require_finite("BQ values", state.values)
    if state.kernel.family is KernelFamily.LINEAR_SPLINE:
        x, order, h, beta = _spline_nodes(state.kernel, state.node_array)
        y = values[order]
        w1, wn, v_ends = _spline_ends(state.kernel, beta, x[0], x[-1])
        with np.errstate(over="ignore", invalid="ignore"):
            mean = float(_trapezoid_sum(h, y) + (w1 * y[0] + wn * y[-1]))
        variance = float(beta / 6.0 * np.sum(h ** 3) + v_ends)
    else:
        nodes = state.node_array
        K = gram_matrix(state.kernel, nodes)
        L, _ = _factorize(K)
        zvec = z_func(nodes)
        with np.errstate(over="ignore", invalid="ignore"):
            mean = float(zvec @ _solve_refined(L, K, values))
        variance = float(z0 - zvec @ _solve_refined(L, K, zvec))
    if not np.isfinite(mean):
        raise ValueError(f"BQ values {state.values} overflow the posterior mean")
    clamped = False
    if variance < 0.0:
        if variance < -NEG_VAR_REL_TOL * z0:
            raise SingularGram(
                f"integral variance {variance:.3e} below clamp threshold")
        variance, clamped = 0.0, True
    return QuadratureEstimate(mean=mean, variance=variance, clamped=clamped)


def _spline_nodes(kernel: Kernel, nodes: np.ndarray):
    """The nodes sorted, their order and gaps, and beta = c b / 3 of
    k = c (1 + b) - beta |x - x'|.  Repeated nodes raise UnsortedNodes."""
    order = np.argsort(nodes)
    x = nodes[order]
    h = np.diff(x)
    if not h.all():
        raise UnsortedNodes(f"repeated abscissae {np.unique(x[1:][h == 0]).tolist()}")
    return x, order, h, kernel.scale * kernel.shape[0] / 3.0


def _spline_ends(kernel: Kernel, beta: float, x1, xn):
    """Weights (w1, wn) of y_1, y_n in the posterior mean over the end pieces
    [lo, x1] and [xn, hi], which see only those two values, and its variance,
    broadcast over x1 <= xn.  Their covariance [[a, a - beta s], [a - beta s,
    a]], a = c (1 + b), s = xn - x1, has eigenvectors (1, +-1), so with
    D = 2a - beta s, dl = x1 - lo, dr = hi - xn, q = dl^2 + dr^2 and
    g = beta q / 2D: w = (dl - g, dr - g), variance beta (2/3 (dl^3 + dr^3)
    - q g).  NaN or out-of-box ends raise ValueError, D <= 0 SingularGram."""
    ((lo, hi),) = kernel.box
    dl, dr = x1 - lo, hi - xn
    if not ((dl >= 0.0) & (dr >= 0.0)).all():
        raise ValueError(f"abscissa is NaN or outside the kernel box {kernel.box}")
    D = 2.0 * kernel.scale * (1.0 + kernel.shape[0]) - beta * (xn - x1)
    if (D <= 0.0).any():
        raise SingularGram(f"linear-spline kernel indefinite on span {np.max(xn - x1)}")
    q = dl * dl + dr * dr
    g = beta * q / (2.0 * D)
    return dl - g, dr - g, beta * (2.0 / 3.0 * (dl ** 3 + dr ** 3) - q * g)


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
    # documented smallest-abscissa tie-break is reachable; clipped to the box
    mid = 0.5 * (lo + hi)
    offsets = cand - mid
    cand = np.clip(mid + 0.5 * (offsets - offsets[::-1]), lo, hi)
    if state.nodes:
        nodes = np.concatenate(([-np.inf], np.sort(state.node_array), [np.inf]))
        i = np.searchsorted(nodes, cand)
        cand = cand[np.minimum(cand - nodes[i - 1], nodes[i] - cand) > 1e-12 * (hi - lo)]
    return cand


def select_node_active(state: BQState, candidates=None) -> float:
    """Candidate whose hypothetical addition minimizes the integral variance.

    The posterior variance does not depend on observed values, so no
    integrand evaluation is needed.  Candidates are scanned in ascending
    order and ties break toward the smallest abscissa.  The default candidate
    set is 512 equidistant points minus the existing nodes.  Linear-spline
    candidates are scored in closed form once there are nodes.
    """
    if candidates is None:
        candidates = _default_candidates(state)
    candidates = np.sort(np.asarray(candidates, dtype=float))
    if candidates.size == 0:
        raise NoCandidates("empty candidate set")
    if state.nodes and state.kernel.family is KernelFamily.LINEAR_SPLINE:
        reduction = _spline_reductions(state.kernel, state.node_array, candidates)
    else:
        z_func, _ = kernel_embeddings(state.kernel)
        z_cand = z_func(candidates)
        k_cc = kernel_eval(state.kernel, candidates, candidates)
        if not state.nodes:
            # variance reduction of a single node: z_c^2 / k(x_c, x_c)
            reduction = z_cand ** 2 / k_cc
        else:
            nodes = state.node_array
            L, _ = _factorize(gram_matrix(state.kernel, nodes))
            k_xc = kernel_eval(state.kernel, nodes[:, None], candidates[None, :])
            reduction = _variance_reductions(L, k_xc, k_cc, z_cand, z_func(nodes), 1e-300)
    return float(candidates[int(np.argmax(reduction))])


def _spline_reductions(kernel: Kernel, nodes: np.ndarray,
                       cand: np.ndarray) -> np.ndarray:
    """Drop in the linear-spline integral variance from adding each sorted
    candidate: (beta / 2) a (h - a) h at offset a in a gap h, which splits
    its bridge (h = 0 outside the nodes); plus the old end variance less
    (beta / 6) gap^3 and the end variance with the candidate as an end."""
    x, _, _, beta = _spline_nodes(kernel, nodes)
    xp = np.concatenate(([x[0]], x, [x[-1]]))
    i = np.searchsorted(x, cand, side="right")
    a, h = cand - xp[i], xp[i + 1] - xp[i]
    gap = np.maximum(np.maximum(x[0] - cand, cand - x[-1]), 0.0)
    v_new = _spline_ends(kernel, beta, np.minimum(cand, x[0]), np.maximum(cand, x[-1]))[2]
    v_old = _spline_ends(kernel, beta, x[0], x[-1])[2]
    return 0.5 * beta * a * (h - a) * h + (v_old - beta / 6.0 * gap ** 3 - v_new)


def _variance_reductions(L: np.ndarray, k_xc: np.ndarray, k_cc, e_c: np.ndarray,
                         e: np.ndarray, floor: float) -> np.ndarray:
    """Drop in the integral variance from adding each candidate: the Schur
    complement (e_c - k_c' K^-1 e)^2 / max(k_cc - k_c' K^-1 k_c, floor) of
    the node Gram K (factor ``L``) bordered by each column k_c of ``k_xc``."""
    solved = dpotrs(L, k_xc, lower=1)[0]
    post_var = np.maximum(k_cc - np.einsum("ij,ij->j", k_xc, solved), floor)
    return (e_c - k_xc.T @ dpotrs(L, e, lower=1)[0]) ** 2 / post_var


def _pair_embed(kernel: Kernel, X: np.ndarray, Y: np.ndarray, rows=None):
    """P[i, j] = int_box k(x, X_i) k(x, Y_j) dx of the exponentiated quadratic,
    a product of per-dimension erf forms; X, Y are (n, d).  With ``rows``, X
    holds axis values and row i of P is the point (X[rows[i, j], j])_j."""
    P = kernel.scale ** 4
    for j, ((lo, hi), lam) in enumerate(zip(kernel.box, kernel.shape)):
        a = X[:, j][:, None]
        b = Y[None, :, j]
        mid = 0.5 * (a + b)
        fac = (np.exp(-(a - b) ** 2 / (2.0 * lam ** 2))
               * (lam / np.sqrt(2.0)) * (SQRT_PI / 2.0)
               * (erf(np.sqrt(2.0) * (hi - mid) / lam)
                  - erf(np.sqrt(2.0) * (lo - mid) / lam)))
        P = P * (fac if rows is None else fac[rows[:, j]])
    return P


def _candidate_grid(box: np.ndarray):
    """Axis values (per_dim, d), axis rows (m, d) and points (m, d) of the
    candidate tensor grid, per_dim^d = m ~ ``DEFAULT_CANDIDATE_COUNT``."""
    d = box.shape[0]
    per_dim = max(2, int(round(DEFAULT_CANDIDATE_COUNT ** (1.0 / d))))
    axes = np.stack([np.linspace(lo, hi, per_dim) for lo, hi in box], axis=1)
    rows = np.indices((per_dim,) * d).reshape(d, -1).T
    return axes, rows, axes[rows, np.arange(d)]


def _profile_theta_fit(X: np.ndarray, g: np.ndarray, box: np.ndarray):
    """Fit an exponentiated-quadratic kernel on the box to g by profiled
    marginal likelihood.

    The lengthscales are the box widths times each of ``WARP_LENGTH_MULTS``,
    each with its closed-form theta, in one stack of unit Grams that
    :func:`_profiled_scan` factors and scores.  Returns the kernel and its
    Gram's jittered factor (theta times K1's).
    """
    widths = box[:, 1] - box[:, 0]
    S = X / widths
    D = np.sum((S[:, None, :] - S[None, :, :]) ** 2, axis=-1)
    i, _, theta2, L1 = _profiled_scan(
        np.exp(-D / WARP_LENGTH_MULTS[:, None, None] ** 2), g, 1e-16)
    kern = _make_kernel(KernelFamily.EXP_QUADRATIC, theta2,
                        WARP_LENGTH_MULTS[i] * widths, box)
    return kern, kern.scale * L1


def _warped_moments(kern: Kernel, L: np.ndarray, X: np.ndarray,
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
    w = dpotrs(L, g, lower=1)[0]
    P = _pair_embed(kern, X, X)
    volume = float(np.prod([hi - lo for lo, hi in kern.box]))
    mean = alpha_w * volume + 0.5 * float(w @ (P @ w))

    n = X.shape[0]
    theta = kern.scale
    kk = np.ones((n, n))
    kx = np.ones((n, n))
    Es, WEs, As = [], [], []
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
        WEs.append(WE)
        As.append(A)
    quad_kk = theta ** 6 * float(w @ kk @ w)
    t2 = theta ** 4 * (kx @ w)
    s = dpotrs(L, t2, lower=1)[0]
    # kk and kx are entrywise positive, so |w|' kk |w| bounds the terms
    # that cancel in w' kk w (likewise for t2 and the projection t2' s)
    aw = np.abs(w)
    bound = np.finfo(float).eps * (
        theta ** 6 * float(aw @ kk @ aw)
        + 2.0 * theta ** 4 * float(np.abs(s) @ kx @ aw))
    if bound > SEPARABLE_REL_TOL * quad_kk:
        quad_kk, t2 = _grid_terms(theta, Es, WEs, As, w)
        s = dpotrs(L, t2, lower=1)[0]
    return mean, quad_kk - float(t2 @ s), w, P


def _grid_terms(theta: float, Es, WEs, As, w: np.ndarray):
    """theta^2 v' K_GG v and K_GX' v with the mean m = K_GX w formed first.

    v = u * m is one product of the weighted axis factors W_j E_j, so the
    weights u are never built; the E_j serve only K_GX' v.  T and TW, their
    products over all but the last axis, are VAR_GRID^(d-1) x n.  K_GG is
    applied by its Kronecker factors, A_j as a stack of products: no transpose.
    """
    T = TW = np.ones((1, w.size))
    for E, WE in zip(Es[:-1], WEs[:-1]):
        T = (T[:, None, :] * E[None, :, :]).reshape(-1, w.size)
        TW = (TW[:, None, :] * WE[None, :, :]).reshape(-1, w.size)
    t = v = theta ** 2 * ((TW * w) @ WEs[-1].T)
    for j, A in enumerate(As):
        t = A @ t.reshape(VAR_GRID ** j, VAR_GRID, -1)
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
    Raises NonPositiveEvaluation as soon as f returns a value <= 0, and
    ValueError when values past about 1e103 overflow the moments.
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
    axes, rows, candidates = _candidate_grid(box)

    def near(x):
        return np.max(np.abs(candidates - x), axis=1) < 1e-9 * widths.max()

    taken = near(x0)
    record = ConvergenceRecord()
    estimate = None
    for it in range(budget):
        Xa = np.asarray(X)
        fa = np.asarray(fv)
        alpha_w = WARP_ALPHA_FACTOR * float(fa.min())
        g = np.sqrt(2.0 * (fa - alpha_w))
        kern, L = _profile_theta_fit(Xa, g, box)
        try:
            mean, variance, w, P = _warped_moments(kern, L, Xa, g, alpha_w)
        except OverflowError:   # theta ** 4 or ** 6, theta ~ sqrt(f)
            raise ValueError(f"integrand values up to {max(fv)!r} overflow the "
                             "warped moments") from None
        clamped = variance < 0.0
        variance = max(variance, 0.0)
        record.append(budget=it + 1, estimate=mean, spread=np.sqrt(variance))
        estimate = QuadratureEstimate(mean=mean, variance=variance, clamped=clamped)
        if it + 1 == budget:
            break
        # value-frozen variance reduction of each candidate
        gain = _variance_reductions(
            L, gram_matrix(kern, Xa, candidates), kern.scale ** 2,
            _pair_embed(kern, axes, Xa, rows) @ w, P @ w,
            1e-12 * kern.scale ** 2)
        i_next = int(np.argmax(np.where(taken, -np.inf, gain)))
        taken |= near(candidates[i_next])
        X.append(candidates[i_next])
        fv.append(evaluate(candidates[i_next]))
    return estimate, record
