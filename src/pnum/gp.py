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

Linear-spline prior draws are exact and cost O(n): on an interval the prior
is the linear interpolation of its two end values plus an independent
Brownian bridge.  Other draws factor the jittered dense Gram.  Nothing is
cached between calls.  :func:`_factorize`, the one jittered Cholesky ladder,
serves Grams and S'Y; solves call ``dpotrs(L, b, lower=1)`` on its ``dpotrf``
factor L.  :func:`_profiled_scan` factors a stack of unit Grams in one
``np.linalg.cholesky`` call at each slice's first rung, and sends the stack
through :func:`_factorize` one slice at a time only when that fails.

All types are immutable after construction; operations are pure given their
inputs plus an explicit seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from math import log, pi, sqrt
from operator import mul
from typing import Dict, Optional, Tuple

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from .exceptions import SingularGram, _require_finite

# Jitter policy: start at 1e-10 * mean(diag), escalate x10 up to 1e-6 (five
# rungs), then give up.  Exact conditioning is assumed by the model; finite
# precision requires this small regularization.
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
            f"domain must be a finite (lo, hi) with lo < hi, or a sequence of such "
            f"pairs, got {domain}")
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


def _solve_refined(L: np.ndarray, K: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve K w = b through the jittered factor L plus iterative refinement.

    One refinement sweep against the unjittered K removes most of the bias
    the jitter introduces into the weights (and hence into interpolation).
    """
    w = dpotrs(L, b, lower=1)[0]
    return w + dpotrs(L, b - K @ w, lower=1)[0]


def _factorize(K: np.ndarray, jitters=None):
    """Cholesky-factorize K + jitter*I at the first of ``jitters`` that works.

    ``jitters`` are absolute, by default x10 from JITTER_REL_START to
    JITTER_REL_MAX times the mean diagonal.  Returns (L, jitter used), L the
    bare ``dpotrf`` factor; raises SingularGram for a non-finite K or once all fail.
    """
    n = K.shape[0]
    scale = K.trace() / n
    if not (scale > 0 and np.isfinite(K).all()):
        raise SingularGram("Gram is not finite with a positive diagonal")
    if jitters is None:   # lazily, each rung the last times 10
        jitters = accumulate([JITTER_REL_START * scale] + [10.0] * 4, mul)
    Kj, jitter = K.copy(), 0.0
    for jitter in jitters:
        Kj.flat[::n + 1] = K.diagonal() + jitter
        L, info = dpotrf(Kj, lower=1, clean=0)
        if info == 0:
            return L, jitter
    raise SingularGram(f"Cholesky failed up to jitter {jitter:.2e}")


def _profiled_likelihood(L: np.ndarray, y: np.ndarray, m_lo: float,
                         m_hi: float = np.inf):
    """Log evidence of y under m * K1 at its maximizer m = clip(y' K1^-1 y / n),
    given the jittered factor L of the unit Gram K1: (log evidence, m).
    sqrt(m) L is the factor of m * K1.  Raises SingularGram if the quadratic
    form is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        q = float(y @ dpotrs(L, y, lower=1)[0])
    if not np.isfinite(q):
        raise SingularGram(f"profiled quadratic form y' K1^-1 y = {q}")
    n = y.size
    m = min(max(q / n, m_lo), m_hi)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    ll = -0.5 * q / m - 0.5 * n * log(m) - 0.5 * logdet - 0.5 * n * log(2 * pi)
    return ll, m


def _profiled_scan(K1s: np.ndarray, y: np.ndarray, m_lo: float):
    """(index, log evidence, m, factor) of the first best unit Gram of a stack
    under :func:`_profiled_likelihood`.

    The stack is factored in one call, each slice with :func:`_factorize`'s
    first jitter; q = |L^-1 y|^2 comes from forward substitution alone, and
    the log-determinant from the diagonals.  If that call fails, or a Gram or
    a score is not finite, each slice climbs :func:`_factorize`'s ladder on
    its own, and a slice that raises SingularGram is skipped; raises it if
    every one does.
    """
    n = y.size
    if np.isfinite(K1s).all():
        with np.errstate(over="ignore", invalid="ignore"):
            jitters = JITTER_REL_START * (np.trace(K1s, axis1=1, axis2=2) / n)
            try:
                Ls = np.linalg.cholesky(K1s + jitters[:, None, None] * np.eye(n))
            except np.linalg.LinAlgError:
                pass
            else:   # L^-1 y as the transposed solve with L': no F-order copy
                z = np.array([dtrtrs(L.T, y, lower=0, trans=1)[0] for L in Ls])
                q = np.sum(z * z, axis=1)
                m = np.maximum(q / n, m_lo)
                ll = (-0.5 * q / m - 0.5 * n * np.log(m)
                      - np.sum(np.log(np.diagonal(Ls, axis1=1, axis2=2)), axis=1)
                      - 0.5 * n * log(2 * pi))
                if np.isfinite(ll).all():
                    i = int(np.argmax(ll))
                    return i, float(ll[i]), float(m[i]), Ls[i]
    fits = []
    for i, K1 in enumerate(K1s):
        try:
            L, _ = _factorize(K1)
            fits.append((i, *_profiled_likelihood(L, y, m_lo), L))
        except SingularGram:
            pass
    if not fits:
        raise SingularGram("no unit Gram of the stack factorized")
    return max(fits, key=lambda fit: fit[1])


def log_marginal_likelihood(kernel: Kernel, nodes, values) -> float:
    """Gaussian log evidence of (nodes, values) under the kernel prior."""
    L, _ = _factorize(gram_matrix(kernel, nodes))
    return _profiled_likelihood(L, _require_finite("values", values), 1.0, 1.0)[0]


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
    """Log-grid search bounds derived from data scale and node spacing.
    Non-finite nodes or values, nodes whose span overflows, or values whose
    spread overflows, raise ValueError."""
    nodes = _require_finite("nodes", nodes)
    values = _require_finite("values", values)
    with np.errstate(over="ignore", invalid="ignore"):
        width = float(nodes.max() - nodes.min())
        spread = float(np.std(values))
    if not np.isfinite(width):
        raise ValueError(f"nodes {nodes.tolist()} overflow their span")
    if not np.isfinite(spread):
        raise ValueError(f"values {values.tolist()} overflow their spread")
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
    Non-finite nodes or values, nodes whose span overflows, and values whose
    scale bound overflows its square, raise ValueError; SingularGram is
    raised when no shape yields a finite likelihood.
    """
    nodes = _require_finite("nodes to fit", nodes)
    values = _require_finite("values to fit", values)
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
    try:
        m_lo, m_hi = s_lo ** power, s_hi ** power
    except OverflowError:
        raise ValueError(f"values {values.tolist()} overflow the squared {s_name} "
                         f"bound {s_hi:g}") from None

    if np.ptp(values) == 0.0:
        shape = float(np.sqrt(h_lo * h_hi))
        kern = _make_kernel(family, m_lo, shape, domain)
        return FitResult(kernel=kern, degenerate=True)

    from scipy.optimize import minimize_scalar   # imported here: pnum loads without it

    diff = nodes[:, None] - nodes[None, :]
    best = (-np.inf, m_lo, h_lo)

    def neg_profiled(shape):
        nonlocal best
        try:
            L, _ = _factorize(_unit_kernel(family, (shape,), (diff,)))
            ll, m = _profiled_likelihood(L, values, m_lo, m_hi)
        except SingularGram:
            return np.inf
        best = max(best, (ll, m, shape))
        return -ll

    shapes = np.geomspace(h_lo, h_hi, 16)
    i = int(np.argmin([neg_profiled(h) for h in shapes]))
    minimize_scalar(lambda t: neg_profiled(float(np.exp(t))), method="bounded",
                    bounds=np.log(shapes[[max(i - 1, 0), min(i + 1, 15)]]))
    if best[0] == -np.inf:
        raise SingularGram(f"no {h_name} in [{h_lo}, {h_hi}] gave a finite likelihood")
    kern = _make_kernel(family, best[1], float(best[2]), domain)
    return FitResult(kernel=kern)


def _spline_draw(kernel: Kernel, grid: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The linear-spline prior on a sorted grid, drawn exactly from n + 1
    standard normals z.

    With alpha = c(1+b), beta = cb/3 and span s, the ends have covariance
    [[alpha, alpha - beta s], [alpha - beta s, alpha]], drawn from z[:2]
    through its Cholesky factor; in between the path is their linear
    interpolation plus sqrt(2 beta s) times a Brownian bridge in
    u = (x - grid[0]) / s, built from z[2:].  Raises SingularGram if the
    kernel is indefinite on the span (2 alpha < beta s beyond rounding).
    """
    a, r = kernel_eval(kernel, grid[0], grid[[0, -1]])     # alpha, alpha - beta s
    if a + r < -JITTER_REL_START * a:
        raise SingularGram(f"linear-spline kernel indefinite on the span "
                           f"{grid[-1] - grid[0]} of the grid")
    u = (grid - grid[0]) / ((grid[-1] - grid[0]) or 1.0)   # one node: u = 0
    w = np.concatenate(([0.0], np.cumsum(np.sqrt(np.diff(u)) * z[2:])))
    y0 = sqrt(a) * z[0]
    y1 = (r * z[0] + sqrt((a - r) * max(a + r, 0.0)) * z[1]) / sqrt(a)
    return y0 + u * (y1 - y0) + sqrt(2.0 * (a - r)) * (w - u * w[-1])


def sample_path(kernel: Kernel, grid, seed: int) -> np.ndarray:
    """One draw from the zero-mean prior restricted to ``grid``.

    Deterministic given ``seed``.  The grid must be sorted, distinct and in
    the kernel box.  Linear-spline draws are exact and cost O(n): the end
    values plus a Brownian bridge (:func:`_spline_draw`), from n + 1
    standard normals.  Other kernels draw L z for the Cholesky factor L of
    the jittered dense Gram and n standard normals z.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("grid must be a non-empty 1-D array")
    if not (np.diff(grid) > 0).all():
        raise ValueError("grid must be sorted, distinct and free of NaN")
    rng = np.random.default_rng(seed)
    if kernel.family is KernelFamily.LINEAR_SPLINE:
        return _spline_draw(kernel, grid, rng.standard_normal(grid.size + 1))
    L, _ = _factorize(gram_matrix(kernel, grid))
    return np.tril(L) @ rng.standard_normal(grid.size)
