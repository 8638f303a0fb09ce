"""Synthetic deconvolution-style sequences of slowly drifting SPD systems.

Each system is the Tikhonov normal-equations form A_t = X_t' X_t + eps * I of
a 1-D convolution with a Gaussian blur kernel whose width and offset follow a
seeded random walk.  The relative Frobenius drift between consecutive
operators is kept below a configured bound by shrinking the walk step, so the
sequence is a controlled testbed for belief recycling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .linalg import LinearOperator, SolveReport, warm_start_sequence

EPS_REL = 1e-3     # regularization: eps = EPS_REL * trace(X'X) / dim


@dataclass(frozen=True)
class SequenceConfig:
    """Knobs of the synthetic problem generator."""

    dim: int = 32
    length: int = 20
    drift: float = 0.02
    noise: float = 0.0
    kernel_size: int = 9

    def __post_init__(self):
        if self.length < 2:
            raise ValueError("sequence length must be >= 2")
        if not 0.0 <= self.drift <= 0.1:
            raise ValueError("drift magnitude must lie in [0, 0.1]")


@dataclass
class ConvolutionProblem:
    """Generated sequence: operators, right-hand sides and ground truth."""

    signal: np.ndarray
    systems: List[Tuple[LinearOperator, np.ndarray]]


def _conv_matrix(kernel: np.ndarray, n: int) -> np.ndarray:
    """Dense same-size convolution matrix for a centered 1-D stencil."""
    size = kernel.size
    half = size // 2
    X = np.zeros((n, n))
    for offset in range(size):
        j = offset - half
        diag = kernel[offset] * np.ones(n - abs(j))
        X += np.diag(diag, k=j)
    return X


def _gaussian_stencil(width: float, center: float, size: int) -> np.ndarray:
    xs = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-0.5 * ((xs - center) / width) ** 2)
    return g / g.sum()


def _operator_for(width: float, center: float, cfg: SequenceConfig) -> Tuple[np.ndarray, np.ndarray]:
    X = _conv_matrix(_gaussian_stencil(width, center, cfg.kernel_size), cfg.dim)
    eps = EPS_REL * float(np.trace(X.T @ X)) / cfg.dim
    return X, X.T @ X + eps * np.eye(cfg.dim)


def generate_sequence(config: SequenceConfig, seed: int) -> ConvolutionProblem:
    """Build a drifting SPD sequence; rhs_t = A_t x_ref (+ X_t' noise).

    With zero drift all operators are identical; otherwise the per-step
    relative Frobenius drift is guaranteed <= config.drift by halving the
    random-walk step until the bound holds.  The drifts are not stored: they
    follow from consecutive ``op.dense``.
    """
    rng = np.random.default_rng(seed)
    n = config.dim
    signal = np.sin(np.linspace(0.0, 3.0 * np.pi, n)) + 0.3 * rng.standard_normal(n)
    width, center = 1.5, 0.0
    systems: List[Tuple[LinearOperator, np.ndarray]] = []
    A_prev: Optional[np.ndarray] = None
    for t in range(config.length):
        if t > 0 and config.drift > 0.0:
            step = rng.standard_normal(2) * np.array([0.1, 0.2])
            scale = 1.0
            for _ in range(60):
                w = float(np.clip(width + scale * step[0], 0.6, 3.0))
                c = float(np.clip(center + scale * step[1], -2.0, 2.0))
                X, A = _operator_for(w, c, config)
                rel = (np.linalg.norm(A - A_prev, "fro")
                       / np.linalg.norm(A_prev, "fro"))
                if rel <= config.drift:
                    width, center = w, c
                    break
                scale *= 0.5
            else:
                X, A = _operator_for(width, center, config)
        else:
            X, A = _operator_for(width, center, config)
        rhs = A @ signal
        if config.noise > 0.0:
            rhs = rhs + X.T @ (config.noise * rng.standard_normal(n))
        systems.append((LinearOperator.from_dense(A), rhs))
        A_prev = A
    return ConvolutionProblem(signal=signal, systems=systems)


@dataclass
class RecyclingReport:
    """Cold versus warm comparison over one sequence."""

    cold: List[SolveReport]
    warm: List[SolveReport]

    @property
    def cold_matvecs(self) -> int:
        return sum(r.matvecs for r in self.cold)

    @property
    def warm_matvecs(self) -> int:
        return sum(r.matvecs for r in self.warm)

    def initial_residual_ratio(self, start: int = 4) -> float:
        """Mean warm/cold initial-residual ratio from ``start`` onward."""
        cold = np.array([r.initial_residual for r in self.cold[start:]])
        warm = np.array([r.initial_residual for r in self.warm[start:]])
        return float(warm.mean() / cold.mean())

    def rows(self) -> List[dict]:
        out = []
        for variant, reports in (("cold", self.cold), ("warm", self.warm)):
            for i, r in enumerate(reports):
                out.append({"variant": variant, "problem_index": i,
                            "iterations": r.iterations,
                            "initial_residual": r.initial_residual,
                            "final_residual": r.final_residual,
                            "matvecs": r.matvecs})
        return out


def run_recycling_benchmark(problem: ConvolutionProblem, rank: int = 64,
                            tol: float = 1e-8) -> RecyclingReport:
    """Solve the same sequence cold (independent) and warm (belief carried)."""
    cold = warm_start_sequence(problem.systems, rank=0, tol=tol)
    warm = warm_start_sequence(problem.systems, rank=rank, tol=tol)
    return RecyclingReport(cold=cold, warm=warm)
