"""Probabilistic linear solver for symmetric positive definite systems.

A Gaussian belief over the unknown inverse H = A^-1 is conditioned on
noise-free projection observations (s_i, y_i = A s_i).  With an identity
prior mean the posterior-mean iteration reproduces conjugate gradients.  A
belief has one form, before and after a solve: its mean is I + W C W' with
a "skinny" N x k factor W and a symmetric core C, so the belief a solve ends
with is the prior of the next, related solve (warm starting / subspace
recycling).  Conditioning on M observations appends at most 2M columns to W;
``truncate_belief`` alone eigendecomposes H - I and caps the rank.  The
covariance over H is summarized by the scalar scale sigma calibrated from
quantities already produced by the run.  A dense operator is checked for
symmetry once and applied by BLAS ``dsymv`` on one triangle.

During a solve the belief is updated one observation at a time: after m
steps an iteration costs O(N m + m^2) on top of its matvec.  S'Y and Y'D
are symmetric, so each is bordered from one product per step.  The Cholesky
factor of the diagonally scaled S'Y grows by bordering in a capacity buffer
that LAPACK ``dtrtrs`` reads with lda = capacity, never above its diagonal,
so the scaled S'Y itself sits above it.
Its jitter climbs 0, 1e-14, ..., 1e-8 by ``gp._factorize``, never comes
back down, and past the last rung an eigenvalue-clipped solve takes over.
The belief a solve ends with is conditioned on its observations each time
``SolveReport.belief`` is read; a solve whose belief is never read never
pays for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg.blas import dsymv
from scipy.linalg.lapack import dtrtrs

from .exceptions import (BeliefDimensionMismatch, Breakdown, DimensionMismatch,
                         InsufficientTrace, SingularGram, _require_finite)
from .gp import _factorize

_SPD_PROBE_COUNT = 20


@dataclass(frozen=True)
class LinearOperator:
    """Symmetric positive definite operator given by a matvec.

    SPD-ness is a contract; on construction it is spot-checked with 20 seeded
    random unit vectors unless ``check=False`` (useful for large N).  A dense
    operator is checked for symmetry, max|A - A'| <= 1e-12 max|A|, whatever
    ``check`` says, and is applied by BLAS ``dsymv`` on one triangle, read
    in place for a C-ordered A.  Calling the operator on a vector of another
    shape than (dim,) raises DimensionMismatch; ``matvec`` is unchecked.
    """

    dim: int
    matvec: Callable[[np.ndarray], np.ndarray]
    dense: Optional[np.ndarray] = None

    def __call__(self, v: np.ndarray) -> np.ndarray:
        if np.shape(v) != (self.dim,):
            raise DimensionMismatch(
                f"vector of shape {np.shape(v)} does not match operator dim {self.dim}")
        return self.matvec(v)

    @classmethod
    def from_dense(cls, A, check: bool = True) -> "LinearOperator":
        A = _require_finite("dense operator", A)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
            raise ValueError(f"dense operator must be a square matrix of dim >= 1, "
                             f"got shape {A.shape}")
        scale = float(np.abs(A).max())
        asym = A - A.T
        asym = float(np.abs(asym, out=asym).max())
        if asym > 1e-12 * scale:
            raise ValueError(f"dense operator must be symmetric, got max|A - A'| = "
                             f"{asym:.3e} against max|A| = {scale:.3e}")
        # for a C-ordered A, the F-ordered A' is A's own memory: nothing is copied
        op = cls(dim=A.shape[0], matvec=partial(dsymv, 1.0, np.asfortranarray(A.T), lower=1),
                 dense=A)
        if check:
            op.spd_probe()
        return op

    def spd_probe(self) -> None:
        rng = np.random.default_rng(0)
        for _ in range(_SPD_PROBE_COUNT):
            v = rng.standard_normal(self.dim)
            v /= np.linalg.norm(v)
            if float(v @ self.matvec(v)) <= 0.0:
                raise ValueError("operator failed the SPD probe: <v, Av> <= 0")


@dataclass(frozen=True)
class MatrixBelief:
    """Gaussian belief over an SPD inverse, summarized by its mean and scale.

    The mean is H = I + W C W' with an N x k factor W and a symmetric k x k
    core C; ``w is None`` means H = I.  The same form serves as the prior of
    a solve and as its posterior.  ``rank`` is k, an upper bound on the rank
    of H - I that ``truncate_belief`` makes exact.
    """

    dim: int
    sigma: float = 1.0
    w: Optional[np.ndarray] = None
    c: Optional[np.ndarray] = None

    @property
    def rank(self) -> int:
        return 0 if self.w is None else int(self.w.shape[1])


def identity_belief(dim: int) -> MatrixBelief:
    """Fresh belief with mean I and unit scale sigma."""
    return MatrixBelief(dim=int(dim))


def _mean_apply(belief: MatrixBelief, v: np.ndarray) -> np.ndarray:
    """H v for a vector, or H V for the columns of a matrix, unchecked."""
    if belief.w is None:
        return v.copy()
    return v + belief.w @ (belief.c @ (belief.w.T @ v))


def posterior_mean_apply(belief: MatrixBelief, v) -> np.ndarray:
    """Apply the mean H of the belief to a vector in O(N * rank)."""
    v = _require_finite("v", v)
    if v.shape != (belief.dim,):
        raise DimensionMismatch(
            f"vector of shape {v.shape} does not match belief dim {belief.dim}")
    return _mean_apply(belief, v)


_JITTER_LADDER = (0.0, 1e-14, 1e-12, 1e-10, 1e-8)
_INITIAL_CAPACITY = 16


def _reserve(a: np.ndarray, index: int, axes: Tuple[int, ...]) -> np.ndarray:
    """Return ``a``, or a copy with the given axes doubled, so ``index`` fits."""
    cap = a.shape[axes[0]]
    if index < cap:
        return a
    shape = list(a.shape)
    for ax in axes:
        shape[ax] = 2 * cap
    out = np.empty(shape)
    out[tuple(slice(0, k) for k in a.shape)] = a
    return out


class _BorderedCholesky:
    """Factor of the SPD matrix N = S'Y of projection overlaps, grown by bordering.

    N is diagonally scaled to unit diagonal and factored as L L' with jitter
    from the ladder 0, 1e-14, ..., 1e-8 on the scaled diagonal.  Each new
    row and column of N costs one triangular solve, O(m^2).  The ladder only
    moves up: a leading block that needs jitter j makes every larger matrix
    need at least j.  When a bordering pivot is <= 0 the whole matrix is
    refactored by ``gp._factorize`` at the next rung that succeeds; when
    every rung fails, an eigenvalue-clipped solve is used from then on.
    """

    def __init__(self):
        self.size = 0
        self.jitter = 0.0
        self.eig_fallback = False
        self._dd = np.empty(_INITIAL_CAPACITY)
        self._nd = np.empty(_INITIAL_CAPACITY)   # the diagonal of the scaled N
        # rows of L in a C-ordered capacity buffer: _l[:m].T is the upper factor
        # LAPACK reads with lda = capacity, so above the diagonal is never read
        # and holds the strict upper triangle of the scaled N instead
        self._l = np.empty((_INITIAL_CAPACITY,) * 2)
        self._eig: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def append(self, col: np.ndarray) -> None:
        """Border N with its new last column ``col`` (length size + 1)."""
        m = self.size
        self._dd = _reserve(self._dd, m, (0,))
        self._nd = _reserve(self._nd, m, (0,))
        self._l = _reserve(self._l, m, (0, 1))
        dd = np.sqrt(max(col[m], 1e-300))
        self._dd[m] = dd
        c = col[:m] / self._dd[:m] / dd
        self._l[:m, m] = c
        self._nd[m] = col[m] / dd / dd
        self.size = m + 1
        if self.eig_fallback:
            self._eigen()
            return
        lrow = self._trsv(c, trans=1)
        pivot = self._nd[m] + self.jitter - lrow @ lrow
        if pivot > 0.0:
            self._l[m, :m] = lrow
            self._l[m, m] = np.sqrt(pivot)
        else:
            self._refactor()

    def _scaled_n(self) -> np.ndarray:
        """The scaled N, rebuilt from its strict upper triangle and diagonal."""
        m = self.size
        upper = self._l[:m, :m]
        ns = np.where(np.tri(m, k=-1, dtype=bool), upper.T, upper)
        np.fill_diagonal(ns, self._nd[:m])
        return ns

    def _refactor(self) -> None:
        try:   # dpotrf leaves the scaled N's strict upper triangle as it was
            self._l[:self.size, :self.size], self.jitter = _factorize(
                self._scaled_n(), [j for j in _JITTER_LADDER if j > self.jitter])
        except SingularGram:
            self.eig_fallback = True
            self._eigen()

    def _eigen(self) -> None:
        lam, P = np.linalg.eigh(self._scaled_n())
        self._eig = (np.where(lam > 1e-12 * lam.max(), lam, np.inf), P)

    def solve(self, v: np.ndarray) -> np.ndarray:
        """Apply N^-1 to a vector of length size."""
        dd = self._dd[:self.size]
        z = v / dd
        if self.eig_fallback:
            lam, P = self._eig
            return (P @ ((P.T @ z) / lam)) / dd
        return self._trsv(self._trsv(z, trans=1), trans=0) / dd

    def _trsv(self, v: np.ndarray, trans: int) -> np.ndarray:
        """L^-1 v (trans=1) or L^-T v (trans=0), by LAPACK on the upper factor L'."""
        x, info = dtrtrs(self._l[:v.size].T, v, lower=0, trans=trans)
        if info:
            raise np.linalg.LinAlgError(f"triangular solve failed, dtrtrs info {info}")
        return x


def condition_on_observations(belief: MatrixBelief, S, Y) -> MatrixBelief:
    """Condition the belief on projections S with observations Y = A S.

    The belief's mean H0 = I + W0 C0 W0' is the prior.  The Dirac
    likelihood (H y_i = s_i exactly) combined with the symmetric prior of
    scale sigma gives a posterior mean

        H_M = H0 + S N^-1 D' + D N^-1 S' - S N^-1 (Y' D) N^-1 S'

    with D = S - H0 Y and N = S' Y; sigma cancels, so the whole scale family
    shares this mean.  It is returned in the belief's form as it stands,
    H_M - I = [W0 S D] blockdiag(C0, C) [W0 S D]', so the rank grows by at
    most 2M and nothing is factorized but the M x M matrix N.
    """
    S = np.atleast_2d(_require_finite("S", S))
    Y = np.atleast_2d(_require_finite("Y", Y))
    if S.shape[0] != belief.dim:
        S, Y = S.T, Y.T
    if S.shape != Y.shape or S.shape[0] != belief.dim:
        raise BeliefDimensionMismatch(
            f"observations of shape {S.shape} do not match dim {belief.dim}")
    # The posterior mean is invariant under invertible recombination of the
    # observation columns (N^-1 transforms contravariantly), so work in the
    # eigenbasis of N = S'Y: normalize the pairs, rotate, and drop numerical
    # null directions.  Late solver steps lose independence in floating
    # point; conditioning on the retained combinations keeps H y = s exact
    # on the numerically identifiable span.
    norms = np.linalg.norm(S, axis=0)
    norms = np.where(norms > 0, norms, 1.0)
    S = S / norms
    Y = Y / norms
    N = S.T @ Y
    N = 0.5 * (N + N.T)
    lam_n, P_n = np.linalg.eigh(N)
    keep = lam_n > 1e-12 * max(lam_n.max(), 0.0)
    if not np.any(keep):
        return belief
    S = S @ P_n[:, keep]
    Y = Y @ P_n[:, keep]
    lam_n = lam_n[keep]
    kcount = int(lam_n.size)
    D = S - _mean_apply(belief, Y)
    inv = 1.0 / lam_n
    B = -(inv[:, None] * (Y.T @ D) * inv)
    k0 = belief.rank
    C = np.zeros((k0 + 2 * kcount,) * 2)
    if belief.w is not None:
        C[:k0, :k0] = belief.c
    r = np.arange(k0, k0 + kcount)
    C[k0:k0 + kcount, k0:k0 + kcount] = 0.5 * (B + B.T)
    C[r, r + kcount] = C[r + kcount, r] = inv
    W = np.hstack([S, D] if belief.w is None else [belief.w, S, D])
    return replace(belief, w=W, c=C)


def truncate_belief(belief: MatrixBelief, rank: int) -> MatrixBelief:
    """Keep the ``rank`` eigencomponents of H - I largest in |eigenvalue|.

    The one eigendecomposition of H - I: a QR of W and an eigensolve of
    R C R' give an orthonormal W and the diagonal C of eigenvalues, left in
    ascending order when nothing is cut.  rank 0 gives the identity belief.
    For every unit vector v, ||H v - H_r v|| is at most the sum of the
    discarded |eigenvalues|.
    """
    if rank < 0:
        raise ValueError("rank must be >= 0")
    if belief.w is None or rank == 0:
        return replace(belief, w=None, c=None)
    Q, R = np.linalg.qr(belief.w)
    T = R @ belief.c @ R.T
    lam, P = np.linalg.eigh(0.5 * (T + T.T))
    U = Q @ P
    if rank < lam.size:
        order = np.argsort(-np.abs(lam))[:rank]
        U, lam = np.ascontiguousarray(U[:, order]), lam[order]
    return replace(belief, w=U, c=np.diag(lam))


@dataclass
class SolveReport:
    """Everything a solve produced: solution, trace and final belief.

    The final belief is ``prior`` conditioned on ``observations``, the pairs
    (S, Y = A S) as two N x m arrays.  ``belief`` conditions on each read
    and keeps nothing, so a solve whose belief is never read never pays for
    it and a report never holds its posterior.
    Classic CG keeps no belief: its prior, observations and belief are
    None.  ``jitter`` is the rung of the jitter ladder the factor of S'Y
    ended on and ``eig_fallback`` whether its eigenvalue-clipped solve ran;
    classic CG keeps no such factor and reports 0.0 and False.
    """

    solution: np.ndarray
    iterations: int
    residual_norms: List[float]
    converged: bool
    prior: Optional[MatrixBelief]
    iterates: List[np.ndarray] = field(default_factory=list)
    rayleigh_quotients: List[float] = field(default_factory=list)
    matvecs: int = 0
    jitter: float = 0.0
    eig_fallback: bool = False
    observations: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def belief(self) -> Optional[MatrixBelief]:
        if self.observations is None:
            return self.prior
        return condition_on_observations(self.prior, *self.observations)

    @property
    def initial_residual(self) -> float:
        return self.residual_norms[0]

    @property
    def final_residual(self) -> float:
        return self.residual_norms[-1]


def _conjugate_directions(A: LinearOperator, b: np.ndarray, x0, tol: float,
                          maxiter: Optional[int], direction, observe) -> SolveReport:
    """The loop classic CG and the probabilistic solver share.

    Starts at x0 (at 0 for None, which costs no matvec) and takes at most
    ``maxiter`` steps (default 2N) along d = direction(r) with the exact line
    search alpha = <d, r> / <d, A d>, handing each step s = alpha d and
    y = A s to ``observe(s, y)``.  Stops and raises as ``classic_cg`` says.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    maxiter = 2 * A.dim if maxiter is None else int(maxiter)
    if x0 is None:
        x, r, matvecs = np.zeros(A.dim), b.copy(), 0
    else:
        x, r, matvecs = x0, b - A(x0), 1
    with np.errstate(over="ignore"):
        nb = float(np.linalg.norm(b))
    if not np.isfinite(nb):
        raise ValueError("rhs norm overflows")
    res = [float(np.linalg.norm(r))]
    iterates = [x.copy()]
    rayleigh: List[float] = []
    for _ in range(maxiter):
        if res[-1] <= tol * nb:
            break
        d = direction(r)
        if float(d @ d) == 0.0:
            break
        Ad = A(d)
        matvecs += 1
        dAd = float(d @ Ad)
        if dAd <= 0.0:
            raise Breakdown(f"<d, Ad> = {dAd:.3e} <= 0; operator not SPD")
        alpha = float(d @ r) / dAd
        s = alpha * d
        ss = float(s @ s)
        if ss == 0.0:
            break
        y = alpha * Ad
        x = x + s
        r = r - y
        rayleigh.append(float(s @ y) / ss)
        observe(s, y)
        res.append(float(np.linalg.norm(r)))
        iterates.append(x.copy())
    return SolveReport(solution=x, iterations=len(res) - 1, residual_norms=res,
                       converged=res[-1] <= tol * nb, prior=None,
                       iterates=iterates, rayleigh_quotients=rayleigh,
                       matvecs=matvecs)


def classic_cg(A: LinearOperator, b, tol: float = 1e-8,
               maxiter: Optional[int] = None) -> SolveReport:
    """Plain conjugate gradients with the usual two-term recurrences.

    Starts from x0 = 0.  Converged means ||r|| <= tol * ||b||.  Stops early,
    at the current iterate, once the direction or the step has vanished in
    floating point.  Raises Breakdown if a non-zero direction has
    <d, Ad> <= 0, which signals a non-SPD operator.
    """
    b = _require_finite("rhs", b)
    if b.shape != (A.dim,):
        raise DimensionMismatch("rhs does not match operator dimension")
    last = None   # ||r||^2 and the direction of the previous step

    def direction(r):
        nonlocal last
        rr = float(r @ r)
        d = r.copy() if last is None else r + (rr / last[0]) * last[1]
        last = rr, d
        return d

    return _conjugate_directions(A, b, None, tol, maxiter, direction, lambda s, y: None)


def solve_probabilistic(A: LinearOperator, b, belief: Optional[MatrixBelief] = None,
                        tol: float = 1e-8, maxiter: Optional[int] = None) -> SolveReport:
    """Solve A x = b by stepping along the posterior-mean directions.

    Each iteration moves along d_i = H_i r_i with the exact line search
    alpha = <d, r> / <d, A d>, then absorbs the pair (s_i, y_i = A s_i) into
    the belief.  With a fresh identity belief the iterate sequence matches
    classic CG; starting from a recycled belief the initial iterate is
    x0 = H0 b and the prior mean preconditions the directions.

    After m steps the direction costs O(N m + m^2): S, Y and D = S - H0 Y
    sit in column blocks whose capacity doubles when full, S'Y and Y'D gain
    one row and column per step from one product each (S'y and Y'd), and
    the Cholesky factor of the scaled S'Y grows in place by bordering (see
    ``_BorderedCholesky``).  The report records the rung of its jitter
    ladder and whether its eigenvalue-clipped solve ran.

    It stops, converges and raises Breakdown as ``classic_cg`` does.
    """
    b = _require_finite("rhs", b)
    if belief is None:
        belief = identity_belief(len(b))
    if b.shape != (belief.dim,):
        raise BeliefDimensionMismatch("rhs does not match belief dimension")
    if belief.dim != A.dim:
        raise BeliefDimensionMismatch("belief does not match operator dimension")
    # obs[:, i] = (s_i, y_i, d_i = s_i - H0 y_i) for the steps i < m taken
    obs = np.empty((3, _INITIAL_CAPACITY, A.dim))
    ytd = np.empty((_INITIAL_CAPACITY,) * 2)
    factor = _BorderedCholesky()
    m = 0

    def direction(r):
        d = _mean_apply(belief, r)
        if m:
            S, D = obs[0, :m], obs[2, :m]
            g = factor.solve(S @ r)
            d += D.T @ g + S.T @ factor.solve(D @ r - ytd[:m, :m] @ g)
        return d

    def observe(s, y):
        nonlocal obs, ytd, m
        obs = _reserve(obs, m, (1,))
        ytd = _reserve(ytd, m, (0, 1))
        obs[:, m] = s, y, s - _mean_apply(belief, y)
        S, Y, D = obs[:, :m + 1]
        factor.append(S @ y)
        ytd[:m + 1, m] = ytd[m, :m + 1] = Y @ D[m]
        m += 1

    x0 = None if belief.w is None else _mean_apply(belief, b)
    report = _conjugate_directions(A, b, x0, tol, maxiter, direction, observe)
    report.prior = belief
    report.jitter, report.eig_fallback = factor.jitter, factor.eig_fallback
    # copies, so the report does not hold the whole (3, capacity, N) buffer
    report.observations = (obs[0, :m].copy().T, obs[1, :m].copy().T) if m else None
    return report


def calibrate_scale(report: SolveReport) -> float:
    """Scale sigma of the belief covariance from the solve trace alone.

    Geometric mean of the Rayleigh quotients <s_i, y_i> / <s_i, s_i> already
    collected during the run; scales linearly with the operator.  Attach it
    to a belief with ``dataclasses.replace(belief, sigma=sigma)``.
    """
    q = np.asarray(report.rayleigh_quotients, dtype=float)
    if q.size < 2:
        raise InsufficientTrace("need at least 2 recorded iterations")
    return float(np.exp(np.mean(np.log(q))))


def warm_start_sequence(problems: Sequence[Tuple[LinearOperator, np.ndarray]],
                        rank: int, tol: float = 1e-8) -> List[SolveReport]:
    """Solve related systems in order, carrying the truncated belief forward.

    The first problem starts cold (identity prior, x0 = 0).  The belief each
    solve ends with, truncated to ``rank``, is the prior of the next one,
    which seeds x0 = H0 b.  Rank 0 disables recycling entirely, and a
    negative rank raises ValueError.
    """
    if rank < 0:
        raise ValueError("rank must be >= 0")
    reports: List[SolveReport] = []
    belief: Optional[MatrixBelief] = None
    for i, (A, b) in enumerate(problems):
        report = solve_probabilistic(A, b, belief, tol=tol)
        reports.append(report)
        if rank > 0 and i + 1 < len(problems):
            belief = truncate_belief(report.belief, rank)
    return reports


# ---------------------------------------------------------------------------
# operator loading (dense files and named synthetic generators)
# ---------------------------------------------------------------------------


def random_spd(dim: int, seed: int, cond: float = 20.0) -> np.ndarray:
    """Random SPD matrix with eigenvalues log-uniform in [1, cond]."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    lam = 10.0 ** rng.uniform(0.0, np.log10(cond), size=dim)
    return (Q * lam) @ Q.T


def load_operator(config: dict) -> LinearOperator:
    """Build an operator from a config mapping.

    Supported kinds: ``csv`` / ``npy`` (dense matrix files), ``random_spd``
    (seeded, log-uniform spectrum) and ``diagonal`` (explicit entries).  A
    key the kind does not read raises ValueError.
    """
    config = dict(config)
    kind = config.pop("kind", None)
    check = bool(config.pop("check", True))
    if kind == "csv":
        A = np.loadtxt(Path(config.pop("path")), delimiter=",")
    elif kind == "npy":
        A = np.load(Path(config.pop("path")))
    elif kind == "random_spd":
        A = random_spd(int(config.pop("dim")), int(config.pop("seed", 0)),
                       float(config.pop("cond", 20.0)))
    elif kind == "diagonal":
        A = np.diag(np.asarray(config.pop("entries"), dtype=float))
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    if config:
        raise ValueError(f"unknown {kind} operator keys: {sorted(config)}")
    return LinearOperator.from_dense(A, check=check)
