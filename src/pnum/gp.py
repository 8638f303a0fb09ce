"""Gaussian process machinery on a box.

Kernels, Gram factorization, prior sampling and marginal-likelihood
hyperparameter fitting.  The scale multiplies the Gram (by c, or theta^2), so
its optimum given the shape is closed-form and fits search the shape alone on
this profiled likelihood.  Two covariance families are supported:

* ``linear_spline``: k(x, x') = c * (1 + b - b/3 * |x - x'|), a stationary
  relative of the Wiener process whose sample paths are continuous but rough.
  It is defined on an interval only.
* ``exp_quadratic``: k(x, x') = theta^2 * exp(-sum_j (x_j - x'_j)^2 / lambda_j^2)
  on a box of any dimension, one lengthscale per dimension; its sample paths
  are extremely smooth.  The interval is the d = 1 case.

Linear-spline prior draws cost O(n): its Gram on a sorted grid is rank-2
semiseparable, and so is the Cholesky factor the draw is taken from.  Other
draws factor the dense Gram.  Nothing is cached between calls.

All types are immutable after construction; operations are pure given their
inputs plus an explicit seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import log, pi, sqrt
from typing import Dict, Optional, Tuple

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf
from scipy.optimize import minimize_scalar

from .exceptions import SingularGram

# Jitter policy: start at 1e-10 * mean(diag), escalate x10 up to 1e-6, then
# give up.  Exact conditioning is assumed by the model; finite precision
# requires this small regularization.
JITTER_REL_START = 1e-10
JITTER_REL_MAX = 1e-6


class KernelFamily(Enum):
    LINEAR_SPLINE = "linear_spline"
    EXP_QUADRATIC = "exp_quadratic"


def _as_box(domain) -> np.ndarray:
    """(lo, hi), or a non-empty sequence of such pairs, as a (d, 2) array of
    finite bounds with lo < hi in every row."""
    box = np.atleast_2d(np.asarray(domain, dtype=float))
    if box.ndim != 2 or box.shape[1] != 2 or len(box) == 0 or not all(
            -np.inf < lo < hi < np.inf for lo, hi in box.tolist()):
        raise ValueError(
            f"domain must be a finite (lo, hi) or a sequence of such pairs, got {domain}")
    return box


@dataclass(frozen=True)
class Kernel:
    """Covariance function on a box: k = m * u(x - x') for the scale
    multiplier m (c, or theta^2) and the family's unit kernel u.

    ``scale`` is c or theta, ``shape`` holds b or one lengthscale per
    dimension, and ``box`` the (lo, hi) pair of each dimension.  The kernel,
    and any integral against it, is defined on the box; evaluation outside
    it is an error, not extrapolation.  Use the :func:`linear_spline` /
    :func:`exp_quadratic` helpers rather than constructing directly.
    """

    family: KernelFamily
    scale: float
    shape: Tuple[float, ...]
    box: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        box = tuple(map(tuple, _as_box(self.box).tolist()))
        shape = tuple(np.broadcast_to(np.asarray(self.shape, dtype=float),
                                      len(box)).tolist())
        scale = float(self.scale)
        if self.family is KernelFamily.LINEAR_SPLINE and len(box) != 1:
            raise ValueError("the linear-spline kernel is defined on an interval only")
        if not all(0.0 < v < np.inf for v in (scale,) + shape):
            raise ValueError(f"kernel scale {scale} and shape {shape} must be "
                             "finite and > 0")
        # stored normalized, so that equal kernels hash equal
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "box", box)


def linear_spline(c: float = 1.0, b: float = 1.0,
                  domain: Tuple[float, float] = (-3.0, 3.0)) -> Kernel:
    """Stationary linear-spline kernel c * (1 + b - b/3 * |x - x'|)."""
    return Kernel(KernelFamily.LINEAR_SPLINE, c, b, domain)


def exp_quadratic(theta: float = 1.0, lam=1.0, domain=(-3.0, 3.0)) -> Kernel:
    """Exponentiated-quadratic kernel theta^2 * exp(-sum_j (x_j - x'_j)^2 / lambda_j^2).

    ``domain`` is an interval or a sequence of intervals, one per dimension;
    ``lam`` is one lengthscale for every dimension or one per dimension.
    """
    return Kernel(KernelFamily.EXP_QUADRATIC, theta, lam, domain)


def _points(kernel: Kernel, x) -> np.ndarray:
    """x with the coordinates of each point on a trailing axis.  At d = 1 that
    axis is left out of the input: every entry of x is an abscissa."""
    x = np.asarray(x, dtype=float)
    d = len(kernel.box)
    if d == 1:
        return x[..., None]
    if x.shape[-1:] != (d,):
        raise ValueError(f"points of shape {x.shape} lack the {d} coordinates")
    return x


# (scale name, shape name, power of the scale in the Gram multiplier)
_PARAMS = {KernelFamily.LINEAR_SPLINE: ("c", "b", 1),
           KernelFamily.EXP_QUADRATIC: ("theta", "lam", 2)}


def _unit_kernel(family: KernelFamily, shape, diffs) -> np.ndarray:
    """k at the offsets x_j - x'_j given per dimension in ``diffs``, with the
    scale multiplier (c, or theta^2) set to 1."""
    if family is KernelFamily.LINEAR_SPLINE:
        (b,), (diff,) = shape, diffs
        return 1.0 + b - (b / 3.0) * np.abs(diff)
    return np.exp(-sum((diff / lam) ** 2 for diff, lam in zip(diffs, shape)))


def kernel_eval(kernel: Kernel, x, xp) -> np.ndarray:
    """Evaluate k(x, x') pointwise; the points broadcast together.

    Each point holds its d coordinates on the last axis, which at d = 1 is
    left out.  Symmetric in its arguments; rejects NaNs and points outside
    the box.
    """
    x, xp = _points(kernel, x), _points(kernel, xp)
    lo, hi = np.asarray(kernel.box).T
    for a in (x, xp):
        if not ((lo <= a) & (a <= hi)).all():
            raise ValueError(f"abscissa is NaN or outside the kernel box {kernel.box}")
    power = _PARAMS[kernel.family][2]
    return kernel.scale ** power * _unit_kernel(kernel.family, kernel.shape,
                                                np.moveaxis(x - xp, -1, 0))


def gram_matrix(kernel: Kernel, nodes, other=None) -> np.ndarray:
    """Covariance matrix K[i, j] = k(x_i, y_j) between the rows of ``nodes``
    and of ``other`` (default: ``nodes``), each (n, d) or, at d = 1, (n,)."""
    X = np.asarray(nodes, dtype=float)
    Y = X if other is None else np.asarray(other, dtype=float)
    if len(kernel.box) == 1:
        X, Y = X.reshape(-1), Y.reshape(-1)
    return kernel_eval(kernel, X[:, None], Y[None, :])


def _solve_refined(factor, K: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve K w = b through the jittered factor plus iterative refinement.

    One refinement sweep against the unjittered K removes most of the bias
    the jitter introduces into the weights (and hence into interpolation).
    """
    w = cho_solve(factor, b)
    return w + cho_solve(factor, b - K @ w)


def _jitters(scale: float):
    """The jitter ladder for a Gram whose mean diagonal is ``scale``."""
    jitter = JITTER_REL_START * scale
    while jitter <= JITTER_REL_MAX * scale * (1 + 1e-9):
        yield jitter
        jitter *= 10.0


def _factorize(K: np.ndarray):
    """Cholesky-factorize K + jitter*I, escalating jitter on failure.

    Returns (factor in ``cho_factor``'s form, jitter actually used).  Raises
    SingularGram for a non-finite Gram and once the jitter ceiling is passed.
    """
    scale = float(np.mean(np.diag(K)))
    if not (scale > 0 and np.isfinite(K).all()):
        raise SingularGram("Gram is not finite with a positive diagonal")
    eye = np.eye(K.shape[0])
    for jitter in _jitters(scale):
        L, info = dpotrf(K + jitter * eye, lower=1, clean=0)
        if info == 0:
            return (L, True), jitter
    raise SingularGram(
        f"Cholesky failed up to jitter {JITTER_REL_MAX * scale:.2e}")


def _profiled_likelihood(factor, y: np.ndarray, m_lo: float,
                         m_hi: float = np.inf):
    """Log evidence of y under m * K1 at its maximizer m = clip(y' K1^-1 y / n),
    given the jittered factor of the unit Gram K1: (log evidence, m).  sqrt(m)
    times that factor is the factor of m * K1.  Raises SingularGram if the
    quadratic form is not finite."""
    q = float(y @ cho_solve(factor, y, check_finite=False))
    if not np.isfinite(q):
        raise SingularGram(f"profiled quadratic form y' K1^-1 y = {q}")
    n = y.size
    m = min(max(q / n, m_lo), m_hi)
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
    ll = -0.5 * q / m - 0.5 * n * log(m) - 0.5 * logdet - 0.5 * n * log(2 * pi)
    return ll, m


def _profiled_scan(K1s: np.ndarray, y: np.ndarray, m_lo: float):
    """(index, log evidence, m, factor) of the first best unit Gram of a stack
    under :func:`_profiled_likelihood`, each factorized by :func:`_factorize`.
    A slice that raises SingularGram is skipped; raises it if every one does."""
    fits = []
    for i, K1 in enumerate(K1s):
        try:
            factor, _ = _factorize(K1)
            fits.append((i, *_profiled_likelihood(factor, y, m_lo), factor))
        except SingularGram:
            pass
    if not fits:
        raise SingularGram("no unit Gram of the stack factorized")
    return max(fits, key=lambda fit: fit[1])


def log_marginal_likelihood(kernel: Kernel, nodes, values) -> float:
    """Gaussian log evidence of (nodes, values) under the kernel prior."""
    factor, _ = _factorize(gram_matrix(kernel, nodes))
    return _profiled_likelihood(factor, np.asarray(values, dtype=float), 1.0, 1.0)[0]


@dataclass(frozen=True)
class FitResult:
    """Outcome of a hyperparameter search."""

    kernel: Kernel
    degenerate: bool = False


def _make_kernel(family: KernelFamily, mult: float, shape, domain) -> Kernel:
    """Kernel whose scale multiplier (c, or theta^2) is ``mult``."""
    if family is KernelFamily.LINEAR_SPLINE:
        return linear_spline(c=mult, b=shape, domain=domain)
    return exp_quadratic(theta=np.sqrt(mult), lam=shape, domain=domain)


def default_bounds(family: KernelFamily, nodes, values) -> Dict[str, Tuple[float, float]]:
    """Log-grid search bounds derived from data scale and node spacing."""
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    width = float(nodes.max() - nodes.min())
    spread = float(np.std(values))
    scale_ref = max(spread, 1e-8)
    if family is KernelFamily.LINEAR_SPLINE:
        # c has units of variance, b is dimensionless slope
        return {"c": (1e-2 * scale_ref ** 2, 1e2 * max(scale_ref ** 2, 1e-8)),
                "b": (1e-2, 1e2)}
    min_gap = float(np.min(np.diff(np.sort(nodes)))) if nodes.size > 1 else width
    return {"theta": (5e-2 * scale_ref, 2e1 * scale_ref),
            "lam": (max(min_gap / 2.0, 1e-8 * width), 2.0 * width)}


def fit_hyperparameters(family: KernelFamily, nodes, values,
                        bounds: Optional[Dict[str, Tuple[float, float]]] = None,
                        domain: Optional[Tuple[float, float]] = None) -> FitResult:
    """Maximize the log marginal likelihood over the kernel's scale and shape.

    Given the shape, the scale's optimum within ``bounds`` is closed-form
    (y' K1^-1 y / n for the unit-scale Gram K1), so only the shape is
    searched: a 16-point log grid, then a bounded scalar search in log-shape
    between the best grid point's neighbours.  The result is never below
    the best candidate of the 16 x 16 (scale, shape) log grid.  The
    linear-spline kernel is positive definite on a box of width W only for
    b <= 6 / (W - 6) once W > 6, so the search for b stops there; a lower
    bound above that cap raises ValueError.

    All-identical values leave the scale unidentifiable; in that case the
    scale is pinned to its lower bound and ``degenerate`` is flagged.
    """
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    if nodes.size < 3:
        raise ValueError("need at least 3 nodes to fit hyperparameters")
    if domain is None:
        domain = (float(nodes.min()), float(nodes.max()))
    if bounds is None:
        bounds = default_bounds(family, nodes, values)
    s_name, h_name, power = _PARAMS[family]
    (s_lo, s_hi), (h_lo, h_hi) = bounds[s_name], bounds[h_name]
    if min(s_lo, h_lo) <= 0:
        raise ValueError("parameter bounds must be positive")
    if family is KernelFamily.LINEAR_SPLINE and np.ptp(domain) > 6.0:
        h_hi = min(h_hi, 6.0 / (np.ptp(domain) - 6.0))
        if h_hi < h_lo:
            raise ValueError(f"b >= {h_lo} leaves the linear-spline kernel "
                             f"indefinite on the box {domain}")
    m_lo, m_hi = s_lo ** power, s_hi ** power

    if np.ptp(values) == 0.0:
        shape = float(np.sqrt(h_lo * h_hi))
        kern = _make_kernel(family, m_lo, shape, domain)
        return FitResult(kernel=kern, degenerate=True)

    diff = nodes[:, None] - nodes[None, :]
    best = (-np.inf, m_lo, h_lo)

    def neg_profiled(shape):
        nonlocal best
        try:
            factor, _ = _factorize(_unit_kernel(family, (shape,), (diff,)))
            ll, m = _profiled_likelihood(factor, values, m_lo, m_hi)
        except SingularGram:
            return np.inf
        best = max(best, (ll, m, shape))
        return -ll

    shapes = np.geomspace(h_lo, h_hi, 16)
    i = int(np.argmin([neg_profiled(h) for h in shapes]))
    minimize_scalar(lambda t: neg_profiled(float(np.exp(t))), method="bounded",
                    bounds=np.log(shapes[[max(i - 1, 0), min(i + 1, 15)]]))
    kern = _make_kernel(family, best[1], float(best[2]), domain)
    return FitResult(kernel=kern)


def _spline_cholesky(kernel: Kernel, grid: np.ndarray):
    """Generators of the Cholesky factor L of the jittered linear-spline Gram
    on a sorted grid, in O(n).

    For x_i >= x_j the Gram is k_ij = u_i + v_j, with v = (cb/3)(x - m) and
    u = c(1+b) - v, so L_ij = p_i' w_j below the diagonal, p_i = (u_i, 1).
    One pass over the running sum S = sum_{k<j} w_k w_k' gives d_j = L_jj
    and w_j.  Any shift m is exact; m at the grid's midpoint keeps draws as
    accurate as the dense factor's, where m = 0 loses up to 3e-6 relative
    near the box width at which the Gram turns singular.  The jitter
    escalates as in :func:`_factorize`, on any d_j^2 <= 0.

    Returns (d, w as a (2, n) array, u, jitter).
    """
    k_xx = kernel_eval(kernel, grid, grid)      # rejects points outside the box
    c, (b,) = kernel.scale, kernel.shape
    v = (c * b / 3.0) * (grid - 0.5 * (grid[0] + grid[-1]))
    u = k_xx - v
    pairs = list(zip(u.tolist(), v.tolist()))
    scale = float(np.mean(k_xx))
    for jitter in _jitters(scale):
        pivot = float(k_xx[0]) + jitter
        d, w0s, w1s = [], [], []
        s00 = s01 = s11 = 0.0
        for ui, vi in pairs:
            sp0 = s00 * ui + s01                # S p
            sp1 = s01 * ui + s11
            d2 = pivot - (ui * sp0 + sp1)
            if not d2 > 0.0:
                break
            dj = sqrt(d2)
            w0 = (1.0 - sp0) / dj               # (q - S p) / d_j, q = (1, v_j)
            w1 = (vi - sp1) / dj
            s00 += w0 * w0
            s01 += w0 * w1
            s11 += w1 * w1
            d.append(dj)
            w0s.append(w0)
            w1s.append(w1)
        else:
            return np.array(d), np.array((w0s, w1s)), u, jitter
    raise SingularGram(f"Cholesky failed up to jitter {JITTER_REL_MAX * scale:.2e}")


def sample_path(kernel: Kernel, grid, seed: int) -> np.ndarray:
    """One draw L z from the zero-mean prior restricted to ``grid``, for the
    Cholesky factor L of the jittered Gram and z standard normal.

    Deterministic given ``seed``.  The grid must be sorted, distinct and in
    the kernel box.  Linear-spline draws cost O(n) time and memory, from
    the generators of L's semiseparable form; other kernels factor the
    dense Gram.  Nothing is cached between calls.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("grid must be a non-empty 1-D array")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be sorted and distinct")
    z = np.random.default_rng(seed).standard_normal(grid.size)
    if kernel.family is KernelFamily.LINEAR_SPLINE:
        d, w, u, _ = _spline_cholesky(kernel, grid)
        # exclusive cumulative sums: acc[:, i] = sum_{j<i} w_j z_j
        acc = np.zeros_like(w)
        np.cumsum(w[:, :-1] * z[:-1], axis=1, out=acc[:, 1:])
        return d * z + u * acc[0] + acc[1]
    factor, _ = _factorize(gram_matrix(kernel, grid))
    return np.tril(factor[0]) @ z
