"""Command line experiment runner.

Usage::

    pnum quad|evidence|linsolve|recycle|ode --config cfg.json --out table.csv
         [--seed K] [--reproducible]

Configs are JSON documents with a fixed, per-command schema.  Unknown keys,
values a command or the library rejects, and values of the wrong JSON type
(a ``null`` or a list where a number is due) are configuration errors.
Every run is fully determined by (config, seed): under ``--reproducible``
wall-clock columns and the sidecar timestamp are suppressed, making re-runs
byte-identical.  Each CSV gets a JSON sidecar
``<out>.config.json`` with the resolved configuration.

The ``linsolve`` table's ``cg_match`` column is ``true`` where the
probabilistic and classic CG iterates agree to ``cg_match_tol`` (relative).
Classic CG loses orthogonality in floating point and the probabilistic
solver does not, so on ill-conditioned operators a ``false`` usually marks
classic CG's drift from exact-arithmetic CG, not a fault of the
probabilistic solver.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import deconv, gp, linalg, mc, odefilter, quadrature
from .exceptions import ConfigError, PnumError

PAPER_EXAMPLE_DOMAIN = (-3.0, 3.0)
FINE_GRID_SIZE = 1801          # spline-draw grids; 1800 is divisible by N-1 for many N
ORACLE_TRAPEZOID_NODES = 1_000_001

_Table = Tuple[List[str], List[dict]]   # CSV field names and rows


def smooth_benchmark_integrand(x):
    """The bundled smooth 1-D benchmark integrand exp(-sin^2(3x) - x^2)."""
    x = np.asarray(x, dtype=float)
    return np.exp(-np.sin(3.0 * x) ** 2 - x ** 2)


def benchmark_integral_truth(domain=PAPER_EXAMPLE_DOMAIN) -> float:
    """High-resolution trapezoid value of the benchmark integrand."""
    xs = np.linspace(float(domain[0]), float(domain[1]), ORACLE_TRAPEZOID_NODES)
    return quadrature.trapezoid(xs, smooth_benchmark_integrand(xs))


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def _load_config(path: str, allowed: Dict[str, object],
                 required: tuple) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(cfg) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = [k for k in required if k not in cfg]
    if missing:
        raise ConfigError(f"missing required config keys: {missing}")
    resolved = dict(allowed)
    if cfg.get("integrand") == "spline-draw":   # no smc; each N - 1 divides 1800
        resolved.update(methods=["trapezoid", "spline-bq", "eq-bq"],
                        budgets=[5, 9, 19, 37, 73])
    resolved.update(cfg)
    return resolved


def _resolve_seeds(cfg: dict, cli_seed: Optional[int]) -> List[int]:
    if cli_seed is not None:
        return [int(cli_seed)]
    seeds = cfg.get("seeds")
    if seeds is None:
        return [0]
    return [int(s) for s in seeds]


def _write_csv(path: str, fieldnames: List[str], rows: List[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(row.get(k, "")) for k in fieldnames})


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return "" if value is None else str(value)


def _write_sidecar(out: str, command: str, cfg: dict, seeds: List[int],
                   reproducible: bool) -> None:
    side = {"command": command, "config": cfg, "seeds": seeds,
            "reproducible": reproducible}
    if not reproducible:
        side["timestamp"] = datetime.now(timezone.utc).isoformat()
    with open(out + ".config.json", "w") as fh:
        json.dump(side, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


@contextmanager
def _config_errors():
    """Turn into a ConfigError what a config value can make a command raise.

    That is a ValueError the library rejects a value with (LinAlgError, a
    ValueError, stays a numerical failure), a TypeError from a ``null`` or a
    list where a number is due, a KeyError from a missing nested key and an
    OSError from an unreadable file.
    """
    try:
        yield
    except np.linalg.LinAlgError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    except KeyError as exc:
        raise ConfigError(f"config lacks key {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read file: {exc}") from exc


# ---------------------------------------------------------------------------
# quad
# ---------------------------------------------------------------------------

_QUAD_ALLOWED = {
    "integrand": "paper-example",
    "methods": ["trapezoid", "spline-bq", "eq-bq", "smc"],
    "budgets": [4, 8, 16, 32, 64],
    "seeds": None,
    "domain": list(PAPER_EXAMPLE_DOMAIN),
    "spline_c": 1.0, "spline_b": 1.0,
    "eq_theta": 1.0, "eq_lambda": "fit",
    "custom_nodes": None, "custom_values": None,
}

_QUAD_FIELDS = ["method", "integrand", "seed", "budget", "estimate",
                "oracle", "abs_error", "spread", "wall_ms"]


def _eq_kernel_for(cfg, domain, nodes, values) -> gp.Kernel:
    lam = cfg["eq_lambda"]
    if lam == "fit":
        if len(nodes) >= 3:
            return gp.fit_hyperparameters(gp.KernelFamily.EXP_QUADRATIC, nodes,
                                          values, domain=domain).kernel
        lam = (domain[1] - domain[0]) / 6.0
    return gp.exp_quadratic(cfg["eq_theta"], float(lam), domain)


def _node_sets(cfg, domain, budgets, seeds):
    """Yield (seed, oracle, nodes, values) for each node set of the integrand;
    seed and oracle are "" where it has none.  The integrand's config errors
    are raised here, smc on fixed grid values among them."""
    integrand = cfg["integrand"]
    if integrand == "paper-example":
        oracle = benchmark_integral_truth(domain)
        for n in budgets:
            nodes = quadrature.select_nodes_grid(domain, n)
            yield "", oracle, nodes, smooth_benchmark_integrand(nodes)
    elif integrand not in ("spline-draw", "custom-grid-values"):
        raise ConfigError(f"unknown integrand {integrand!r}")
    elif "smc" in cfg["methods"]:
        raise ConfigError("smc needs a callable integrand, not fixed grid values")
    elif integrand == "spline-draw":
        kernel = gp.linear_spline(cfg["spline_c"], cfg["spline_b"], domain)
        fine = np.linspace(domain[0], domain[1], FINE_GRID_SIZE)
        for n in budgets:
            if n < 2 or (FINE_GRID_SIZE - 1) % (n - 1) != 0:
                raise ConfigError(f"budget {n}: need N >= 2 and "
                                  f"{FINE_GRID_SIZE - 1} divisible by N-1")
        for seed in seeds:
            path = gp.sample_path(kernel, fine, seed)
            oracle = quadrature.trapezoid(fine, path)
            for n in budgets:
                stride = (FINE_GRID_SIZE - 1) // (n - 1)
                yield seed, oracle, fine[::stride], path[::stride]
    else:
        if cfg["custom_nodes"] is None or cfg["custom_values"] is None:
            raise ConfigError("custom-grid-values needs custom_nodes and custom_values")
        nodes = np.asarray(cfg["custom_nodes"], dtype=float)
        values = np.asarray(cfg["custom_values"], dtype=float)
        if nodes.shape != values.shape:
            raise ConfigError(f"custom_values has shape {values.shape}, "
                              f"custom_nodes {nodes.shape}")
        yield "", "", nodes, values


def cmd_quad(cfg: dict, seeds: List[int]) -> _Table:
    lo, hi = cfg["domain"]
    domain = tuple(gp._as_box((lo, hi))[0].tolist())
    budgets = [int(n) for n in cfg["budgets"]]
    rows: List[dict] = []
    integrand = cfg["integrand"]
    for seed, oracle, nodes, values in _node_sets(cfg, domain, budgets, seeds):
        spline = gp.linear_spline(cfg["spline_c"], cfg["spline_b"], domain)
        for method in cfg["methods"]:
            if method == "smc":
                continue
            start = time.perf_counter()
            if method == "trapezoid":
                est, spread = quadrature.trapezoid(nodes, values), ""
            elif method in ("spline-bq", "eq-bq"):
                kernel = (spline if method == "spline-bq"
                          else _eq_kernel_for(cfg, domain, nodes, values))
                post = quadrature.bq_posterior(quadrature.BQState(
                    kernel, tuple(map(float, nodes)), tuple(map(float, values))))
                est, spread = post.mean, post.std
            else:
                raise ConfigError(f"unknown quad method {method!r}")
            rows.append(dict(method=method, integrand=integrand, seed=seed,
                             budget=nodes.size, estimate=est, oracle=oracle,
                             abs_error="" if oracle == "" else abs(est - oracle),
                             spread=spread, wall_ms=1000.0 * (time.perf_counter() - start)))
    # only paper-example gets here with smc, and all its node sets share one oracle
    if "smc" in cfg["methods"]:
        width = domain[1] - domain[0]
        for seed in seeds:
            fd = smooth_benchmark_integrand(np.random.default_rng(seed).uniform(
                domain[0], domain[1], size=max(budgets)))
            for n in budgets:
                start = time.perf_counter()
                est = float(fd[:n].mean()) * width
                spread = float(np.std(fd[:n] - fd[0], ddof=1) / np.sqrt(n)) * width
                rows.append(dict(method="smc", integrand=integrand, seed=seed,
                                 budget=n, estimate=est, oracle=oracle,
                                 abs_error=abs(est - oracle), spread=spread,
                                 wall_ms=1000.0 * (time.perf_counter() - start)))
    rows.sort(key=lambda r: (r["method"], str(r["seed"]), r["budget"]))
    return _QUAD_FIELDS, rows


# ---------------------------------------------------------------------------
# evidence
# ---------------------------------------------------------------------------

_EVIDENCE_ALLOWED = {
    "problem": "gaussian-2d",
    "problem_params": {},
    "methods": ["warped-bq", "smc", "ais"],
    "smc_budget": 16384,
    "bq_budget": 30,
    "ais_n_temps": [8, 64],
    "ais_n_chains": 32,
    "ais_mh_steps": 5,
    "seeds": None,
}

_EVIDENCE_FIELDS = ["method", "seed", "evaluations", "log_z", "oracle_log_z",
                    "abs_log_error", "spread", "wall_ms"]


def _record_rows(method: str, seed: int, record, oracle: float,
                 wall: float) -> List[dict]:
    """One evidence row per evaluation count of a convergence record."""
    rows = []
    for budget, est, spread in zip(record.budgets, record.estimates,
                                   record.spreads):
        lz = float(np.log(est)) if est > 0 else float("-inf")
        rows.append(dict(method=method, seed=seed, evaluations=budget,
                         log_z=lz, oracle_log_z=oracle,
                         abs_log_error=abs(lz - oracle),
                         spread=spread, wall_ms=wall))
    return rows


def cmd_evidence(cfg: dict, seeds: List[int]) -> _Table:
    problem = mc.make_evidence_problem(cfg["problem"], **cfg["problem_params"])
    oracle = problem.true_log_z
    rows: List[dict] = []
    for seed in seeds:
        if "smc" in cfg["methods"]:
            start = time.perf_counter()
            _, record = mc.smc_integrate(problem, int(cfg["smc_budget"]), seed)
            rows += _record_rows("smc", seed, record, oracle,
                                 1000.0 * (time.perf_counter() - start))
        if "warped-bq" in cfg["methods"]:
            log_prior = -np.log(problem.volume)

            def integrand(x):
                pt = np.atleast_2d(np.asarray(x, dtype=float))
                return float(np.exp(problem.log_likelihood(pt)[0] + log_prior))

            start = time.perf_counter()
            _, record = quadrature.warped_bq_integrate(
                integrand, problem.box, int(cfg["bq_budget"]), seed)
            rows += _record_rows("warped-bq", seed, record, oracle,
                                 1000.0 * (time.perf_counter() - start))
        if "ais" in cfg["methods"]:
            for n_temps in cfg["ais_n_temps"]:
                start = time.perf_counter()
                result = mc.ais_evidence(problem, int(n_temps),
                                         int(cfg["ais_n_chains"]),
                                         int(cfg["ais_mh_steps"]), seed)
                rows.append(dict(method=f"ais-T{int(n_temps)}", seed=seed,
                                 evaluations=result.n_likelihood_evals,
                                 log_z=result.log_z, oracle_log_z=oracle,
                                 abs_log_error=abs(result.log_z - oracle),
                                 spread=result.record.spreads[-1],
                                 wall_ms=1000.0 * (time.perf_counter() - start)))
    rows.sort(key=lambda r: (r["method"], r["seed"], r["evaluations"]))
    return _EVIDENCE_FIELDS, rows


# ---------------------------------------------------------------------------
# linsolve
# ---------------------------------------------------------------------------

_LINSOLVE_ALLOWED = {
    "operator": {"kind": "random_spd", "dim": 32, "seed": 0, "cond": 20.0},
    "rhs": "random",
    "tol": 1e-10,
    "maxiter": None,
    "cg_match_tol": 1e-6,
}

_LINSOLVE_FIELDS = ["iteration", "residual_classic", "residual_prob",
                    "iterate_rel_diff", "cg_match"]


def _build_operator(op_config: dict, seed: int):
    if not isinstance(op_config, dict):
        raise ConfigError(f"operator must be a JSON object, got {op_config!r}")
    if op_config.get("kind") == "convolution":
        op_config = dict(op_config)
        del op_config["kind"]
        index = int(op_config.pop("index", 0))
        if index < 0:
            raise ConfigError(f"convolution index must be >= 0, got {index}")
        cfg = deconv.SequenceConfig(dim=int(op_config.pop("dim", 32)),
                                    length=max(2, index + 2),
                                    drift=float(op_config.pop("drift", 0.02)))
        seed = int(op_config.pop("seed", seed))
        if op_config:
            raise ConfigError(f"unknown convolution operator keys: {sorted(op_config)}")
        return deconv.generate_sequence(cfg, seed).systems[index]
    return linalg.load_operator(op_config), None


def cmd_linsolve(cfg: dict, seeds: List[int]) -> _Table:
    seed = seeds[0]
    op, problem_rhs = _build_operator(cfg["operator"], seed)
    rhs_choice = cfg["rhs"]
    if isinstance(rhs_choice, list):
        b = np.asarray(rhs_choice, dtype=float)
        if b.shape != (op.dim,):
            raise ConfigError(f"rhs has shape {b.shape}, the operator "
                              f"dimension is {op.dim}")
    elif rhs_choice == "ones":
        b = np.ones(op.dim)
    elif rhs_choice == "random":
        b = np.random.default_rng(seed + 1000).standard_normal(op.dim)
    elif rhs_choice == "from_problem":
        if problem_rhs is None:
            raise ConfigError("rhs 'from_problem' requires a convolution operator")
        b = problem_rhs
    else:
        raise ConfigError(f"unknown rhs choice {rhs_choice!r}")
    tol = float(cfg["tol"])
    maxiter = cfg["maxiter"] if cfg["maxiter"] is None else int(cfg["maxiter"])
    classic = linalg.classic_cg(op, b, tol=tol, maxiter=maxiter)
    prob = linalg.solve_probabilistic(op, b, tol=tol, maxiter=maxiter)
    rows = []
    match_tol = float(cfg["cg_match_tol"])
    for i in range(max(len(classic.iterates), len(prob.iterates))):
        ic = classic.iterates[min(i, len(classic.iterates) - 1)]
        ip = prob.iterates[min(i, len(prob.iterates) - 1)]
        rel = float(np.linalg.norm(ic - ip) / (1.0 + np.linalg.norm(ic)))
        rows.append(dict(
            iteration=i,
            residual_classic=classic.residual_norms[min(i, len(classic.residual_norms) - 1)],
            residual_prob=prob.residual_norms[min(i, len(prob.residual_norms) - 1)],
            iterate_rel_diff=rel,
            cg_match=str(rel <= match_tol).lower()))
    return _LINSOLVE_FIELDS, rows


# ---------------------------------------------------------------------------
# recycle
# ---------------------------------------------------------------------------

_RECYCLE_ALLOWED = {
    "dim": 32, "length": 20, "drift": 0.02, "noise": 0.0,
    "kernel_size": 9, "rank": 64, "tol": 1e-8,
}

_RECYCLE_FIELDS = ["variant", "problem_index", "iterations",
                   "initial_residual", "final_residual", "matvecs"]


def cmd_recycle(cfg: dict, seeds: List[int]) -> _Table:
    config = deconv.SequenceConfig(dim=int(cfg["dim"]), length=int(cfg["length"]),
                                   drift=float(cfg["drift"]), noise=float(cfg["noise"]),
                                   kernel_size=int(cfg["kernel_size"]))
    problem = deconv.generate_sequence(config, seeds[0])
    report = deconv.run_recycling_benchmark(problem, rank=int(cfg["rank"]),
                                            tol=float(cfg["tol"]))
    return _RECYCLE_FIELDS, report.rows()


# ---------------------------------------------------------------------------
# ode
# ---------------------------------------------------------------------------

_ODE_ALLOWED = {
    "mode": "order-study",
    "problem": "linear",
    "problem_params": {},
    "solvers": ["euler", "midpoint", "rk4", "filter-q1", "filter-q2"],
    "h_values": [0.1, 0.05, 0.025, 0.0125],
    "solver": "filter-q1",
    "h": 0.05,
    "rho2": 1.0,
}

_ODE_ORDER_FIELDS = ["solver", "h", "abs_error", "slope", "zero_error"]


def cmd_ode(cfg: dict, seeds: List[int]) -> _Table:
    problem = odefilter.named_problem(cfg["problem"], **cfg["problem_params"])
    if cfg["mode"] == "order-study":
        rho2 = float(cfg["rho2"])
        rows = []
        for name in cfg["solvers"]:
            est = odefilter.convergence_order_estimate(
                partial(odefilter.trajectory, name, rho2=rho2), problem, cfg["h_values"])
            for h, err in zip(est.hs, est.errors):
                rows.append(dict(solver=name, h=h, abs_error=err,
                                 slope="" if est.slope is None else est.slope,
                                 zero_error=str(est.slope is None).lower()))
        return _ODE_ORDER_FIELDS, rows
    if cfg["mode"] == "trajectory":
        ts, xs, std = odefilter.trajectory(cfg["solver"], problem, float(cfg["h"]),
                                           float(cfg["rho2"]))
        d = problem.dim
        fields = (["t"] + [f"mean_{i}" for i in range(d)]
                  + [f"std_{i}" for i in range(d)])
        return fields, [dict(zip(fields, map(float, (t, *x, *s))))
                        for t, x, s in zip(ts, xs, std)]
    raise ConfigError(f"unknown ode mode {cfg['mode']!r}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "quad": (cmd_quad, _QUAD_ALLOWED, ("integrand",)),
    "evidence": (cmd_evidence, _EVIDENCE_ALLOWED, ()),
    "linsolve": (cmd_linsolve, _LINSOLVE_ALLOWED, ("operator",)),
    "recycle": (cmd_recycle, _RECYCLE_ALLOWED, ()),
    "ode": (cmd_ode, _ODE_ALLOWED, ("problem",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pnum",
                                     description="probabilistic numerics experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--reproducible", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    runner, allowed, required = _COMMANDS[args.command]
    try:
        with _config_errors():
            cfg = _load_config(args.config, allowed, required)
            seeds = _resolve_seeds(cfg, args.seed)
            fields, rows = runner(cfg, seeds)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PnumError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if args.reproducible and "wall_ms" in fields:
        rows = [dict(row, wall_ms=0.0) for row in rows]
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    _write_csv(args.out, fields, rows)
    _write_sidecar(args.out, args.command, cfg, seeds, args.reproducible)
    return 0


if __name__ == "__main__":
    sys.exit(main())
