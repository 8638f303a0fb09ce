"""Property tests of the paper's linear-solver identities over random systems.

Each example draws a dimension, a condition number and a seed for a
``random_spd`` operator and a right-hand side.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from pnum import (LinearOperator, classic_cg, identity_belief,
                  posterior_mean_apply, random_spd, solve_probabilistic)

systems = st.tuples(st.integers(2, 48), st.floats(1.0, 1e4),
                    st.integers(0, 2**31 - 1))
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


@checks
@given(systems)
def test_posterior_mean_is_symmetric(system):
    n, cond, seed = system
    op, b = build(n, cond, seed)
    belief = solve_probabilistic(op, b, tol=1e-10).belief
    H = np.column_stack([posterior_mean_apply(belief, e) for e in np.eye(n)])
    assert np.abs(H - H.T).max() <= 1e-10 * np.abs(H).max()


@checks
@given(systems)
def test_posterior_mean_maps_rhs_to_solution(system):
    n, cond, seed = system
    op, b = build(n, cond, seed)
    rep = solve_probabilistic(op, b, identity_belief(n), tol=1e-10)
    assert rep.converged
    hb = posterior_mean_apply(rep.belief, b)
    assert np.linalg.norm(hb - rep.solution) <= 1e-6 * np.linalg.norm(rep.solution)
