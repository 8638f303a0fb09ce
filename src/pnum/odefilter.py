"""Probabilistic ODE initial-value solver plus classical Runge-Kutta references.

The solver runs a Gauss-Markov filter on a q-times integrated Wiener process
state (position and its first q derivatives, q in {1, 2}).  Each step
evaluates the vector field at the current position mean, conditions the
derivative block of the state on that value (the position coordinate is
deliberately left untouched by the update, which is what makes the q = 1
mean trajectory coincide with explicit Euler exactly), then extrapolates
with the closed-form transition.

Every covariance of a d-dimensional problem is P1 (x) I_d for a
(q+1) x (q+1) factor P1, and neither P1 nor the gain depends on the vector
field.  So the filter runs in two passes: a data-free covariance pass on P1
with one batched PSD check, then a mean pass, the only loop that evaluates
the field, which updates the (q+1) x d mean.  The covariance pass steps
only until its recursion turns stationary and fills in the rest; the mean
pass costs a constant per step, so total cost is linear in the steps.  A
field value passes its finiteness check in one call when y . y is finite;
only otherwise, as when a finite square overflows, is it tested entrywise.

:func:`trajectory` maps a solver name to its run: ``filter-q1`` and
``filter-q2`` filter, any other name runs :func:`rk_method` of that name.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, isfinite
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .exceptions import CovarianceBreakdown, NonFiniteField, _require_finite

PSD_SLACK_REL = 1e-8


# ---------------------------------------------------------------------------
# problems and named vector fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IVProblem:
    """Initial value problem dx/dt = f(x, t), x(t0) = x0; f(x0, t0) has x0's size."""

    f: Callable[[np.ndarray, float], np.ndarray]
    x0: np.ndarray
    t0: float
    t_end: float
    exact: Optional[Callable[[float], np.ndarray]] = None

    def __post_init__(self):
        object.__setattr__(self, "x0", np.atleast_1d(_require_finite("x0", self.x0)))
        if not self.t_end > self.t0:
            raise ValueError("t_end must exceed t0")
        if (size := np.size(self.eval_field(self.x0, self.t0))) != self.dim:
            raise ValueError(f"field value has {size} entries, x0 has {self.dim}")

    @property
    def dim(self) -> int:
        return self.x0.size

    def eval_field(self, x: np.ndarray, t: float) -> np.ndarray:
        """f(x, t), or ``NonFiniteField`` if an entry is not finite: a finite
        y . y clears it in one call, else the exact entrywise test decides."""
        y = self.f(x, t)
        if not isfinite(np.vdot(y, y)) and not np.isfinite(y).all():
            raise NonFiniteField(f"vector field returned non-finite value at t={t}")
        return y


def named_problem(name: str, **params) -> IVProblem:
    """Problems selectable by name: linear, logistic, stiff-linear, lotka-volterra.

    A parameter the problem does not read raises ValueError.
    """
    if name == "linear":
        a = float(params.pop("a", 1.0))
        x0 = float(params.pop("x0", 1.0))
        t_end = float(params.pop("t_end", 1.0))
        problem = IVProblem(f=lambda x, t: a * x, x0=np.array([x0]), t0=0.0, t_end=t_end,
                            exact=lambda t: np.array([x0 * np.exp(a * t)]))
    elif name == "logistic":
        r = float(params.pop("r", 2.0))
        k = float(params.pop("k", 1.0))
        x0 = float(params.pop("x0", 0.1))
        t_end = float(params.pop("t_end", 2.0))

        def exact(t):
            e = np.exp(r * t)
            return np.array([k * x0 * e / (k + x0 * (e - 1.0))])

        problem = IVProblem(f=lambda x, t: r * x * (1.0 - x / k), x0=np.array([x0]),
                            t0=0.0, t_end=t_end, exact=exact)
    elif name == "stiff-linear":
        lam = float(params.pop("lam", -20.0))
        if lam >= 0:
            raise ValueError("stiff-linear requires lam < 0")
        x0 = float(params.pop("x0", 1.0))
        t_end = float(params.pop("t_end", 1.0))
        problem = IVProblem(f=lambda x, t: lam * x, x0=np.array([x0]), t0=0.0, t_end=t_end,
                            exact=lambda t: np.array([x0 * np.exp(lam * t)]))
    elif name == "lotka-volterra":
        a = float(params.pop("a", 1.5))
        b = float(params.pop("b", 1.0))
        c = float(params.pop("c", 3.0))
        d = float(params.pop("d", 1.0))
        x0 = params.pop("x0", (1.0, 1.0))
        t_end = float(params.pop("t_end", 2.0))

        def f(x, t):
            return np.array([a * x[0] - b * x[0] * x[1],
                             -c * x[1] + d * x[0] * x[1]])

        problem = IVProblem(f=f, x0=np.asarray(x0, dtype=float), t0=0.0, t_end=t_end)
    else:
        raise ValueError(f"unknown problem name {name!r}")
    if params:
        raise ValueError(f"unknown {name} parameters: {sorted(params)}")
    return problem


# ---------------------------------------------------------------------------
# classical explicit Runge-Kutta references
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RKMethod:
    """Explicit Runge-Kutta tableau (stage matrix a, weights b, nodes c)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        c = np.asarray(self.c, dtype=float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        s = (b.size,)
        if (a.shape, b.shape, c.shape) != (s + s, s, s) or np.triu(a).any():
            raise ValueError("tableau not explicit: a must be s x s and zero on and "
                             "above the diagonal, b and c of length s")
        if not np.allclose(a.sum(axis=1), c, atol=1e-12):
            raise ValueError("tableau inconsistent: row sums of a must equal c")
        if not np.isclose(b.sum(), 1.0, atol=1e-12):
            raise ValueError("tableau weights must sum to 1")


def rk_method(name: str) -> RKMethod:
    name = name.lower()
    if name == "euler":
        return RKMethod(a=[[0.0]], b=[1.0], c=[0.0])
    if name == "midpoint":
        return RKMethod(a=[[0.0, 0.0], [0.5, 0.0]], b=[0.0, 1.0], c=[0.0, 0.5])
    if name == "rk4":
        return RKMethod(a=np.diag([0.5, 0.5, 1.0], -1), b=np.array([1, 2, 2, 1]) / 6.0,
                        c=[0.0, 0.5, 0.5, 1.0])
    raise ValueError(f"unknown RK method {name!r}")


def _step_count(problem: IVProblem, h: float) -> int:
    span = problem.t_end - problem.t0
    n = int(round(span / h))
    if n < 1 or abs(n * h - span) > 1e-9 * max(1.0, abs(span)):
        raise ValueError(f"step size {h} does not divide the horizon {span}")
    return n


def rk_reference(problem: IVProblem, method: RKMethod, h: float) -> Tuple[np.ndarray, np.ndarray]:
    """Classical explicit RK trajectory on the fixed step grid: (times, states),
    states of shape (n_steps + 1, dim).  A stage adds (h a_sj) k_j for each nonzero
    a_sj, which rounds like h (a_sj k_j) where a_sj is a power of two, as in the
    built-in tableaux; other tableaux move at rounding level against that form."""
    n = _step_count(problem, h)
    d = problem.dim
    ts = problem.t0 + h * np.arange(n + 1)
    xs = np.empty((n + 1, d))
    xs[0] = problem.x0
    k = np.empty((method.b.size, d))
    stages = [([(j, h * a_sj) for j, a_sj in enumerate(row[:s]) if a_sj], c_s * h)
              for s, (row, c_s) in enumerate(zip(method.a.tolist(), method.c.tolist()))]
    field, b = problem.eval_field, method.b
    for i, t in enumerate(ts[:-1].tolist()):
        x = xs[i]
        for s, (terms, dt) in enumerate(stages):
            xi = x.copy()
            for j, ha in terms:
                xi += ha * k[j]
            k[s] = field(xi, t + dt)
        xs[i + 1] = x + h * (b @ k)
    return ts, xs


# ---------------------------------------------------------------------------
# Gauss-Markov filter on the integrated Wiener process
# ---------------------------------------------------------------------------


def iwp_transition(q: int, h: float, rho2: float) -> Tuple[np.ndarray, np.ndarray]:
    """Exact discrete transition and process noise of the q-times IWP.

    State order is (x, x', ..., x^(q)); A[i, j] = h^(j-i) / (j-i)! and
    Q[i, j] = rho2 * h^(2q+1-i-j) / ((2q+1-i-j) (q-i)! (q-j)!).  A step
    whose power h^(2q+1) overflows raises ``CovarianceBreakdown``.
    """
    try:
        hp = [float(h) ** p for p in range(2 * q + 2)]
    except OverflowError:
        raise CovarianceBreakdown(
            f"step h = {h:g} overflows the q = {q} process noise: "
            f"h^{2 * q + 1} exceeds the float range") from None
    A = np.zeros((q + 1, q + 1))
    Q = np.zeros((q + 1, q + 1))
    for i in range(q + 1):
        for j in range(i, q + 1):
            A[i, j] = hp[j - i] / factorial(j - i)
    for i in range(q + 1):
        for j in range(q + 1):
            p = 2 * q + 1 - i - j
            Q[i, j] = rho2 * hp[p] / (p * factorial(q - i) * factorial(q - j))
    return A, Q


@dataclass
class FilterResult:
    """Full filtering run, as arrays over the grid times ``ts``.

    The state at ``ts[k]`` (position, then each derivative) has mean
    ``state_mean[k]`` and covariance ``cov_factor[k]`` (x) I_d, the factor
    scaled by the final ``rho2``; ``cov(k)`` expands it.

    ``psd_slack`` is the smallest min-eigenvalue / trace over every
    covariance the PSD check saw (the zero prior, each update and each
    prediction); one below -PSD_SLACK_REL or not finite raises
    ``CovarianceBreakdown``.  ``stationary_step`` is the step from which
    the covariance pass copied a cycle, or n if it never reached one.
    """

    ts: np.ndarray
    state_mean: np.ndarray    # (n_steps + 1, q + 1, dim)
    cov_factor: np.ndarray    # (n_steps + 1, q + 1, q + 1)
    mean: np.ndarray          # (n_steps + 1, dim) position means
    std: np.ndarray           # (n_steps + 1, dim) position standard deviations
    rho2: float
    psd_slack: float = 0.0
    stationary_step: int = 0

    def cov(self, k: int) -> np.ndarray:
        """Covariance of the derivative-major ``state_mean[k].ravel()``."""
        return np.kron(self.cov_factor[k], np.eye(self.state_mean.shape[2]))


def _check_psd(factors: np.ndarray, d: int) -> float:
    """Worst min-eigenvalue / trace of the covariances P1 (x) I_d.

    eig(P1 (x) I_d) = eig(P1) and tr(P1 (x) I_d) = d tr(P1), so one batched
    eigvalsh over the factors checks them all.  ``factors`` is in step order
    (the prior, then each step's update and prediction); the first that is
    not finite or below -PSD_SLACK_REL raises ``CovarianceBreakdown``.
    """
    bad = np.flatnonzero(~np.isfinite(factors).all(axis=(1, 2)))
    if bad.size:
        raise CovarianceBreakdown(
            f"covariance overflowed to a non-finite value in step {(bad[0] - 1) // 2}")
    eig = np.linalg.eigvalsh(factors)[:, 0]
    tr = np.maximum(d * np.trace(factors, axis1=1, axis2=2), 1e-300)
    slack = eig / tr
    bad = np.flatnonzero(slack < -PSD_SLACK_REL)
    if bad.size:
        j = bad[0]
        raise CovarianceBreakdown(
            f"covariance eigenvalue {eig[j]:.3e} below -{PSD_SLACK_REL} * trace "
            f"in step {(j - 1) // 2}")
    return float(slack.min())


def _covariance_pass(A1: np.ndarray, Q1: np.ndarray, n: int, d: int):
    """Data-free half of the filter, on the factor P1 of P = P1 (x) I_d.

    A1 is upper triangular and g[0] = 0, so P1[0, 0] reaches the other
    entries, the gain and s only through products with an exact zero.  The
    recursion steps until those repeat an earlier step bit for bit (at q = 2
    often as a cycle of a few steps an ulp apart); from that stationary
    step on the cycle is copied, and P1[0, 0] rises by a constant per step.

    Returns the predicted factors Ps (n + 1, q + 1, q + 1), the gain vectors
    (n, q + 1, 1), the jittered derivative variances s (0 where the gain
    guard skipped the solve), the PSD slack over every factor and the
    stationary step (n if the recursion never repeated).
    """
    q1 = A1.shape[0]
    # factors[2k] is the prediction for step k, factors[2k + 1] its update
    factors = np.zeros((2 * n + 1, q1, q1))
    gains = np.zeros((n, q1, 1))
    s = np.zeros(n)
    eye = np.eye(q1)
    seen = {}                  # entries but P1[0, 0] -> first step with them
    P, k = factors[0], 0
    while k < n and (first := seen.setdefault(P.ravel()[1:].tobytes(), k)) == k:
        g = gains[k, :, 0]
        tr = d * P[1, 1]           # trace of the derivative block P1[1, 1] I_d
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
        k += 1
    if k < n:
        # (A1 U A1' + Q1 - U)[0, 0] over the cycle's updates U; A1[0, 0] = 1
        U, a = factors[2 * first + 1:2 * k:2], A1[0]
        rise = (a[1:] @ U[:, 1:] @ a + U[:, 0, 1:] @ a[1:]).mean() + Q1[0, 0]
        with np.errstate(over="ignore"):    # _check_psd reports an inf
            p00 = factors[2 * k, 0, 0] + rise * np.arange(n + 1 - k)
        j = first + np.arange(n + 1 - k) % (k - first)   # step in the cycle
        factors[2 * k:] = factors[(2 * j[:, None] + [0, 1]).ravel()[:-1]]
        factors[2 * k:, 0, 0] = np.repeat(p00, 2)[:-1]
        gains[k:], s[k:] = gains[j[:-1]], s[j[:-1]]
    return factors[::2], gains, s, _check_psd(factors, d), k


def solve_ivp_filter(problem: IVProblem, q: int, h: float, rho2: float = 1.0,
                     calibrate_diffusion: bool = False) -> FilterResult:
    """Filter the IVP on a fixed grid with the integrated-Wiener prior.

    One vector-field evaluation per step, taken at the step start
    ``ts[k]`` at the current position mean.  The update pins the
    first-derivative block to the observed field value (Dirac likelihood)
    and conditions the higher derivative blocks through their covariance
    with it; the position block is not moved by updates, so uncertainty in
    the position only ever grows between observations.

    The covariances and gains do not depend on the field, and each is
    P1 (x) I_d.  A covariance pass therefore runs the recursion once on the
    (q+1) x (q+1) factor P1, up to its stationary step, and checks every
    factor for PSD in one batch, before the field is evaluated at all.  The
    mean pass then keeps the mean as a (q+1) x d array M; a step evaluates
    the field, forms the residual r = y - M[1] of the predicted derivative
    and sets M = A1 (M + g_k r').  The result keeps the means M and the
    factors P1 as arrays; ``FilterResult.cov(k)`` expands one covariance.

    With ``calibrate_diffusion`` rho2 is the maximum-likelihood diffusion
    scale of the observed field values.  The mean does not depend on rho2
    and every covariance is linear in it, so one rho2 = 1 pass sums the
    scaled residuals r' S^-1 r = r'r / s_k of the predicted derivatives,
    rho2 becomes their mean per observed step and dimension, and the stored
    factors P1 are rescaled by it.  If every residual is zero (a single
    step, or exact predictions) the given rho2 is kept.
    """
    if q not in (1, 2):
        raise ValueError("prior order q must be 1 or 2")
    if h <= 0:
        raise ValueError("step size must be positive")
    if not (np.isfinite(rho2) and rho2 >= 0.0):
        raise ValueError(f"rho2 must be finite and non-negative, got {rho2}")
    n = _step_count(problem, h)
    d = problem.dim
    A1, Q1 = iwp_transition(q, h, 1.0 if calibrate_diffusion else rho2)
    Ps, gains, s, psd_slack, stationary_step = _covariance_pass(A1, Q1, n, d)

    ts = problem.t0 + h * np.arange(n + 1)
    times = ts.tolist()
    Ms = np.zeros((n + 1, q + 1, d))
    Ms[0, 0] = problem.x0
    M = Ms[0]
    residual = 0.0
    for k in range(n):
        y = problem.eval_field(M[0], times[k])
        r = y - M[1]
        if calibrate_diffusion and s[k] > 0.0:
            residual += float(np.vdot(r, r)) / s[k]
        M = np.dot(A1, M + gains[k] * r, out=Ms[k + 1])

    if calibrate_diffusion:
        if residual > 0.0:
            rho2 = residual / ((n - 1) * d)
        Ps = rho2 * Ps
    std = np.sqrt(np.clip(Ps[:, :1, 0], 0.0, None)).repeat(d, axis=1)
    return FilterResult(ts=ts, state_mean=Ms, cov_factor=Ps, mean=Ms[:, 0],
                        std=std, rho2=rho2, psd_slack=psd_slack,
                        stationary_step=stationary_step)


_FILTER_ORDERS = {"filter-q1": 1, "filter-q2": 2}    # other names are RK methods


def trajectory(name: str, problem: IVProblem, h: float, rho2: float = 1.0):
    """(ts, mean, std) of the named solver on the problem at step h; the
    states of an RK method have std 0."""
    q = _FILTER_ORDERS.get(name.lower())
    if q:
        result = solve_ivp_filter(problem, q=q, h=h, rho2=rho2)
        return result.ts, result.mean, result.std
    ts, xs = rk_reference(problem, rk_method(name), h)
    return ts, xs, np.zeros_like(xs)


# ---------------------------------------------------------------------------
# empirical convergence order
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderEstimate:
    """Least-squares slope of log error against log step size; None if the
    solver was exact (zero error) on the problem."""

    slope: Optional[float]
    hs: Tuple[float, ...]
    errors: Tuple[float, ...]


def convergence_order_estimate(solver: Callable[[IVProblem, float], Tuple],
                               problem: IVProblem,
                               hs: Sequence[float]) -> OrderEstimate:
    """Global-error slope at t_end over a geometric sequence of step sizes.

    ``solver(problem, h)`` returns a trajectory (ts, states, ...), such as
    ``partial(trajectory, name)``; its last state is the estimate.  Requires
    >= 4 step sizes in geometric progression and a problem with a
    closed-form solution.  If the solver is exact on the problem the slope
    is meaningless and left as None, which is the estimate's flag.
    """
    hs = [float(h) for h in hs]
    if len(hs) < 4:
        raise ValueError("need at least 4 step sizes")
    ratios = np.array(hs[:-1]) / np.array(hs[1:])
    if not np.allclose(ratios, ratios[0], rtol=1e-9):
        raise ValueError("step sizes must form a geometric progression")
    if problem.exact is None:
        raise ValueError("problem must provide a closed-form solution")
    truth = np.atleast_1d(problem.exact(problem.t_end))
    errors = []
    for h in hs:
        est = np.atleast_1d(solver(problem, h)[1][-1])
        errors.append(float(np.linalg.norm(est - truth)))
    exact = min(errors) <= 1e-14 * max(1.0, float(np.linalg.norm(truth)))
    slope = None if exact else float(np.polyfit(np.log(hs), np.log(errors), 1)[0])
    return OrderEstimate(slope=slope, hs=tuple(hs), errors=tuple(errors))

