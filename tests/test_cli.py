import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pnum
from pnum import deconv, gp, linalg, odefilter, quadrature
from pnum.cli import benchmark_integral_truth, main, smooth_benchmark_integrand


def run_cli(tmp_path, command, config, name="out.csv", extra=()):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_path = tmp_path / name
    code = main([command, "--config", str(cfg_path), "--out", str(out_path),
                 *extra])
    return code, out_path


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestQuadCommand:
    def test_paper_example_runs(self, tmp_path):
        code, out = run_cli(tmp_path, "quad", {
            "integrand": "paper-example",
            "methods": ["trapezoid", "spline-bq", "eq-bq", "smc"],
            "budgets": [8, 16],
            "seeds": [0, 1],
        })
        assert code == 0
        rows = read_rows(out)
        methods = {r["method"] for r in rows}
        assert methods == {"trapezoid", "spline-bq", "eq-bq", "smc"}
        sidecar = json.loads(Path(str(out) + ".config.json").read_text())
        assert sidecar["command"] == "quad"

    def test_spline_bq_column_matches_trapezoid(self, tmp_path):
        code, out = run_cli(tmp_path, "quad", {
            "integrand": "paper-example",
            "methods": ["trapezoid", "spline-bq"],
            "budgets": [16],
        })
        rows = read_rows(out)
        by_method = {r["method"]: float(r["estimate"]) for r in rows}
        assert by_method["spline-bq"] == pytest.approx(by_method["trapezoid"],
                                                       rel=1e-9)

    def test_abs_error_recomputable_from_row(self, tmp_path):
        # self-consistency: abs_error equals |estimate - oracle| bit for bit
        code, out = run_cli(tmp_path, "quad", {
            "integrand": "paper-example",
            "methods": ["trapezoid", "eq-bq"],
            "budgets": [8, 32],
        })
        for row in read_rows(out):
            if row["oracle"]:
                recomputed = abs(float(row["estimate"]) - float(row["oracle"]))
                assert recomputed == float(row["abs_error"])

    def test_spline_draw_integrand(self, tmp_path):
        code, out = run_cli(tmp_path, "quad", {
            "integrand": "spline-draw",
            "methods": ["spline-bq"],
            "budgets": [10],
            "seeds": [0, 1, 2],
        })
        assert code == 0
        assert len(read_rows(out)) == 3

    def test_spline_draw_defaults(self, tmp_path):
        # a spline-draw config that names only its integrand runs: its
        # default budgets have N - 1 dividing 1800 and its methods omit smc
        code, out = run_cli(tmp_path, "quad", {"integrand": "spline-draw"})
        assert code == 0
        config = json.loads(Path(str(out) + ".config.json").read_text())["config"]
        assert config["methods"] == ["trapezoid", "spline-bq", "eq-bq"]
        assert config["budgets"] == [5, 9, 19, 37, 73]
        assert sorted((r["method"], int(r["budget"])) for r in read_rows(out)) == [
            (m, n) for m in sorted(config["methods"]) for n in config["budgets"]]

    def test_custom_grid_values(self, tmp_path):
        code, out = run_cli(tmp_path, "quad", {
            "integrand": "custom-grid-values",
            "methods": ["trapezoid", "spline-bq"],
            "budgets": [4],
            "custom_nodes": [-3.0, -1.0, 1.0, 3.0],
            "custom_values": [9.0, 1.0, 1.0, 9.0],
        })
        rows = read_rows(out)
        trap = [r for r in rows if r["method"] == "trapezoid"][0]
        assert float(trap["estimate"]) == pytest.approx(22.0)

    def test_eq_bq_on_two_nodes_uses_fallback_lengthscale(self, tmp_path):
        # too few nodes to fit: lambda = width / 6 = 1 on [-3, 3], theta = 1
        code, out = run_cli(tmp_path, "quad", {
            "integrand": "custom-grid-values", "methods": ["eq-bq"],
            "custom_nodes": [-3.0, 3.0], "custom_values": [1.0, 2.0]})
        assert code == 0
        (row,) = read_rows(out)
        post = quadrature.bq_posterior(quadrature.BQState(
            gp.exp_quadratic(1.0, 1.0, (-3, 3)), (-3.0, 3.0), (1.0, 2.0)))
        assert (float(row["estimate"]), float(row["spread"])) == (post.mean, post.std)

    def test_unknown_key_rejected(self, tmp_path):
        code, _ = run_cli(tmp_path, "quad", {"integrand": "paper-example",
                                             "mystery_knob": 3})
        assert code == 2

    def test_bad_integrand_rejected(self, tmp_path, capsys):
        # the default methods include smc, whose check must not come first
        code, _ = run_cli(tmp_path, "quad", {"integrand": "paper-exmaple"})
        assert code == 2
        assert "unknown integrand 'paper-exmaple'" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        (None, "missing.json"),
        ('{"integrand": "paper-example",}', "line 1"),
        ('[1, 2]', "config must be a JSON object"),
        ('{"budgets": [4]}', "missing required config keys: ['integrand']"),
    ])
    def test_unreadable_config_exit_code(self, tmp_path, capsys, text, message):
        cfg_path = tmp_path / "missing.json"
        if text is not None:
            cfg_path.write_text(text)
        code = main(["quad", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err

    def test_reversed_domain_rejected(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "quad", {"integrand": "paper-example",
                                             "domain": [3, -3]})
        assert code == 2
        assert "lo < hi" in capsys.readouterr().err

    @pytest.mark.parametrize("config, message", [
        ({"methods": ["spline-bq"], "spline_c": -1}, "must be finite and > 0"),
        ({"methods": ["eq-bq"], "budgets": [4], "eq_lambda": -1},
         "must be finite and > 0"),
        ({"budgets": [1]}, "need at least 2 nodes"),
        ({"integrand": "spline-draw", "methods": ["trapezoid"], "budgets": [1]},
         "need N >= 2"),
        ({"integrand": "custom-grid-values", "methods": ["spline-bq"],
          "custom_nodes": [-3.0, 0.0, 3.0], "custom_values": [1.0, 2.0]},
         "custom_values has shape"),
        ({"budgets": None}, "NoneType"),
        ({"domain": [1]}, "not enough values to unpack"),
        ({"methods": ["simpson"], "budgets": [4]}, "unknown quad method 'simpson'"),
        ({"integrand": "custom-grid-values", "methods": ["trapezoid"]},
         "needs custom_nodes and custom_values"),
        ({"integrand": "custom-grid-values", "methods": ["smc"],
          "custom_nodes": [-3.0, 3.0], "custom_values": [1.0, 2.0]},
         "smc needs a callable integrand"),
        ({"integrand": "spline-draw", "methods": ["trapezoid", "smc"],
          "budgets": [10]}, "smc needs a callable integrand"),
        ({"domain": [-3, 1e400]}, "lo < hi"),
        ({"domain": [-np.inf, 3]}, "lo < hi"),
        ({"integrand": "nonexistent", "methods": ["trapezoid"]},
         "unknown integrand 'nonexistent'"),
        ({"integrand": "custom-grid-values", "methods": ["trapezoid", "spline-bq"],
          "custom_nodes": [-3.0, 0.0, 3.0], "custom_values": [1.0, np.nan, 2.0]},
         "trapezoid values"),
        ({"integrand": "custom-grid-values", "methods": ["spline-bq"],
          "custom_nodes": [-3.0, 0.0, 3.0], "custom_values": [1.0, np.nan, 2.0]},
         "BQ values must be finite"),
        ({"integrand": "custom-grid-values", "methods": ["trapezoid"],
          "custom_nodes": [-3.0, 0.0, 3.0], "custom_values": [1.0, np.nan, 2.0]},
         "trapezoid values must be finite"),
        ({"integrand": "custom-grid-values", "methods": ["trapezoid"],
          "custom_nodes": [0.0, 1.0], "custom_values": [1.7e308, 1.7e308]},
         "overflow the sum"),
    ])
    def test_rejected_config_exit_code(self, tmp_path, capsys, config, message):
        code, _ = run_cli(tmp_path, "quad", {"integrand": "paper-example",
                                             **config})
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err


SMALL_EVIDENCE = {"problem": "gaussian-2d", "methods": ["smc", "warped-bq", "ais"],
                  "smc_budget": 256, "bq_budget": 5, "ais_n_temps": [8],
                  "ais_n_chains": 8, "ais_mh_steps": 2, "seeds": [0]}


class TestEvidenceCommand:
    def test_small_race(self, tmp_path):
        code, out = run_cli(tmp_path, "evidence", SMALL_EVIDENCE)
        assert code == 0
        rows = read_rows(out)
        assert {r["method"] for r in rows} == {"smc", "warped-bq", "ais-T8"}
        for r in rows:
            assert float(r["abs_log_error"]) >= 0.0

    def test_rejected_config_exit_code(self, tmp_path, capsys):
        # an unknown problem, a budget warped BQ rejects, problem parameters
        # outside their range, means that leave the box no prior mass and an
        # unknown parameter: exit 2, no traceback
        for config, message in [
                ({"problem": "nope"}, "unknown evidence problem"),
                ({"methods": ["warped-bq"], "bq_budget": 2, "seeds": [0]},
                 "budget must be >= 3"),
                ({"methods": ["warped-bq"], "bq_budget": None, "seeds": [0]},
                 "NoneType"),
                ({"problem_params": {"sigma": 0}}, "finite sigma"),
                ({"problem_params": {"sigma": -1}}, "finite sigma"),
                ({"problem": "constant", "problem_params": {"value": -1}},
                 "value > 0"),
                ({"problem": "constant", "problem_params": {"dim": 0}},
                 "dim >= 1"),
                ({"problem_params": {"mu": 38}}, "leaves no prior mass"),
                ({"problem_params": {"mu": 1e300}}, "leaves no prior mass"),
                ({"problem_params": {"sgima": 2}},
                 "unknown gaussian-2d parameters: ['sgima']")]:
            code, _ = run_cli(tmp_path, "evidence", config)
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and message in err


class TestLinsolveCommand:
    def test_cg_match_column(self, tmp_path):
        code, out = run_cli(tmp_path, "linsolve", {
            "operator": {"kind": "random_spd", "dim": 32, "seed": 0},
            "tol": 1e-10,
        })
        assert code == 0
        rows = read_rows(out)
        assert all(r["cg_match"] == "true" for r in rows)
        assert float(rows[-1]["residual_prob"]) <= 1e-9

    @pytest.mark.parametrize("rhs", ["from_problem", "ones"])
    def test_convolution_operator(self, tmp_path, rhs):
        code, out = run_cli(tmp_path, "linsolve", {
            "operator": {"kind": "convolution", "dim": 16}, "rhs": rhs})
        assert code == 0
        rows = read_rows(out)
        problem = deconv.generate_sequence(deconv.SequenceConfig(dim=16), 0)
        b = problem.systems[0][1] if rhs == "from_problem" else np.ones(16)
        # both solvers start at x0 = 0, so the first residual is ||b||
        assert float(rows[0]["residual_prob"]) == float(np.linalg.norm(b))
        assert float(rows[-1]["residual_prob"]) <= 1e-10 * np.linalg.norm(b)

    def test_numerical_failure_exit_code(self, tmp_path):
        A = np.diag([1.0, -1.0])
        path = tmp_path / "bad.csv"
        np.savetxt(path, A, delimiter=",")
        code, _ = run_cli(tmp_path, "linsolve", {
            "operator": {"kind": "csv", "path": str(path), "check": False},
            "rhs": [0.0, 1.0],
        })
        assert code == 3

    @pytest.mark.parametrize("check", [True, False])
    def test_asymmetric_operator_exit_code(self, tmp_path, capsys, check):
        # the operator passes the SPD probe, but only a symmetric one is
        # applied from one triangle; the symmetry check ignores "check"
        path = tmp_path / "asym.csv"
        np.savetxt(path, [[2.0, 1.0], [0.0, 2.0]], delimiter=",")
        code, _ = run_cli(tmp_path, "linsolve", {
            "operator": {"kind": "csv", "path": str(path), "check": check},
            "rhs": [1.0, 1.0]})
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "dense operator must be symmetric" in err

    def test_rejected_config_exit_code(self, tmp_path, capsys):
        # an unknown operator kind, a list rhs of the wrong length, an rhs
        # the operator cannot supply, an unknown rhs, a non-object operator,
        # negative convolution indices, keys an operator kind does not read,
        # and a NaN in the rhs or in the operator
        spd = {"kind": "random_spd", "dim": 4}
        for config, message in [
                ({"operator": {"kind": "nope"}}, "unknown operator kind"),
                ({"operator": spd, "rhs": [1.0, 2.0]}, "rhs has shape"),
                ({"operator": spd, "rhs": "from_problem"},
                 "requires a convolution operator"),
                ({"operator": spd, "rhs": "zeros"}, "unknown rhs choice 'zeros'"),
                ({"operator": None}, "operator must be a JSON object"),
                ({"operator": {"kind": "convolution", "index": -1},
                  "rhs": "from_problem"}, "index must be >= 0, got -1"),
                ({"operator": {"kind": "convolution", "index": -5},
                  "rhs": "from_problem"}, "index must be >= 0, got -5"),
                ({"operator": {"kind": "random_spd", "dim": 8, "cnd": 1e6}},
                 "unknown random_spd operator keys: ['cnd']"),
                ({"operator": {"kind": "diagonal", "entries": [1, 2, 3],
                               "dim": 9}}, "unknown diagonal operator keys: ['dim']"),
                ({"operator": {"kind": "convolution", "dimm": 16}},
                 "unknown convolution operator keys: ['dimm']"),
                ({"operator": {"kind": "diagonal", "entries": [1.0, 2.0, 3.0]},
                  "rhs": [1.0, np.nan, 1.0]}, "rhs must be finite, got [nan]"),
                ({"operator": {"kind": "diagonal", "entries": [1.0, np.nan, 3.0]},
                  "rhs": "ones"}, "dense operator must be finite, got [nan]")]:
            code, _ = run_cli(tmp_path, "linsolve", config)
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and message in err

    @pytest.mark.parametrize("operator, message", [
        ({"kind": "csv", "path": "/nonexistent.csv"}, "nonexistent.csv"),
        ({"kind": "random_spd"}, "'dim'"),
        ({"kind": "random_spd", "dim": None}, "NoneType"),
    ])
    def test_unreadable_operator_exit_code(self, tmp_path, capsys, operator, message):
        code, _ = run_cli(tmp_path, "linsolve", {"operator": operator})
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err


class TestRecycleCommand:
    def test_default_table(self, tmp_path):
        code, out = run_cli(tmp_path, "recycle", {
            "dim": 16, "length": 4, "drift": 0.02, "rank": 32,
        })
        assert code == 0
        rows = read_rows(out)
        assert {r["variant"] for r in rows} == {"cold", "warm"}
        assert len(rows) == 8

    def test_noisy_sequence_runs(self, tmp_path):
        code, _ = run_cli(tmp_path, "recycle", {"dim": 16, "length": 4,
                                                "noise": 0.01})
        assert code == 0

    def test_stencil_wider_than_the_signal_runs(self, tmp_path):
        code, out = run_cli(tmp_path, "recycle", {"dim": 2, "kernel_size": 9})
        assert code == 0
        assert len(read_rows(out)) == 40

    def test_rejected_config_exit_code(self, tmp_path, capsys):
        # a negative rank, sizes and a drift the generator rejects: exit 2,
        # no traceback
        for config, message in [
                ({"dim": 16, "length": 4, "rank": -1}, "rank must be >= 0"),
                ({"dim": 16, "length": 4, "drift": 0.5}, "drift magnitude"),
                ({"dim": 0}, "dim and kernel_size must be >= 1, got 0, 9"),
                ({"kernel_size": 0}, "dim and kernel_size must be >= 1, got 32, 0"),
                ({"dim": None}, "NoneType")]:
            code, _ = run_cli(tmp_path, "recycle", config)
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and message in err


class TestOdeCommand:
    def test_order_study(self, tmp_path):
        code, out = run_cli(tmp_path, "ode", {
            "mode": "order-study",
            "problem": "linear",
            "solvers": ["euler", "filter-q1"],
            "h_values": [0.1, 0.05, 0.025, 0.0125],
        })
        assert code == 0
        rows = read_rows(out)
        slopes = {r["solver"]: float(r["slope"]) for r in rows}
        assert 0.8 <= slopes["euler"] <= 1.2
        assert abs(slopes["euler"] - slopes["filter-q1"]) <= 0.1

    def test_module_entry_point(self, tmp_path):
        # python -m pnum.cli runs main and exits with its code
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "linear", "solvers": ["euler"],
                                   "h_values": [0.1, 0.05, 0.025, 0.0125]}))
        out = tmp_path / "out.csv"
        src = str(Path(pnum.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "pnum.cli", "ode", "--config", str(cfg),
             "--out", str(out)], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        rows = read_rows(out)
        assert [(r["solver"], float(r["h"])) for r in rows] == [
            ("euler", h) for h in (0.1, 0.05, 0.025, 0.0125)]
        assert 0.8 <= float(rows[0]["slope"]) <= 1.2

    def test_trajectory_export(self, tmp_path):
        code, out = run_cli(tmp_path, "ode", {
            "mode": "trajectory",
            "problem": "logistic",
            "solver": "filter-q1",
            "h": 0.1,
        })
        assert code == 0
        rows = read_rows(out)
        assert list(rows[0].keys()) == ["t", "mean_0", "std_0"]
        assert len(rows) == 21

    def test_solver_names_are_case_insensitive(self, tmp_path):
        config = {"mode": "trajectory", "problem": "logistic", "h": 0.1}
        _, lower = run_cli(tmp_path, "ode", {**config, "solver": "filter-q1"},
                           name="a.csv")
        code, mixed = run_cli(tmp_path, "ode", {**config, "solver": "Filter-Q1"},
                              name="b.csv")
        assert code == 0
        assert mixed.read_bytes() == lower.read_bytes()

    def test_rk_trajectory_has_zero_std(self, tmp_path):
        code, out = run_cli(tmp_path, "ode", {
            "mode": "trajectory",
            "problem": "logistic",
            "solver": "rk4",
            "h": 0.1,
        })
        assert code == 0
        rows = read_rows(out)
        _, xs = odefilter.rk_reference(odefilter.named_problem("logistic"),
                                       odefilter.rk_method("rk4"), 0.1)
        assert [float(r["mean_0"]) for r in rows] == list(xs[:, 0])
        assert all(float(r["std_0"]) == 0.0 for r in rows)

    def test_overflowing_step_exit_code(self, tmp_path):
        # h^5 overflows the q = 2 process noise: a typed failure, not a traceback
        code, _ = run_cli(tmp_path, "ode", {
            "mode": "trajectory",
            "problem": "logistic",
            "problem_params": {"t_end": 4e100},
            "solver": "filter-q2",
            "h": 1e100,
        })
        assert code == 3

    def test_linalg_error_exit_code(self, tmp_path, capsys, monkeypatch):
        # LinAlgError subclasses ValueError; it is a numerical failure all the same
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(odefilter, "solve_ivp_filter", fail)
        monkeypatch.setattr(linalg, "solve_probabilistic", fail)
        monkeypatch.setattr(quadrature, "bq_posterior", fail)
        for command, config in [
                ("ode", {"mode": "trajectory", "problem": "logistic"}),
                ("linsolve", {"operator": {"kind": "random_spd", "dim": 4}}),
                ("quad", {"integrand": "paper-example", "methods": ["spline-bq"],
                          "budgets": [4]})]:
            code, _ = run_cli(tmp_path, command, config)
            assert code == 3
            assert capsys.readouterr().err.startswith("numerical failure: LinAlgError")

    @pytest.mark.parametrize("mode", [
        {"mode": "trajectory", "solver": "filter-q2", "h": 0.1},
        {"mode": "order-study", "solvers": ["filter-q1"]},
    ])
    @pytest.mark.parametrize("rho2", [-1.0, float("nan")])
    def test_invalid_rho2_exit_code(self, tmp_path, capsys, mode, rho2):
        code, _ = run_cli(tmp_path, "ode", {"problem": "logistic", "rho2": rho2,
                                            **mode})
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "rho2" in err

    @pytest.mark.parametrize("config,message", [
        ({"mode": "trajectory", "problem": "logistic", "solver": "filter-q2",
          "h": 0.3}, "does not divide the horizon"),
        ({"mode": "order-study", "problem": "linear", "solvers": ["euler"],
          "h_values": [0.1, 0.05, 0.025]}, "need at least 4 step sizes"),
        ({"mode": "trajectory", "problem": "logistic", "h": None}, "NoneType"),
        ({"mode": "phase-portrait", "problem": "logistic"},
         "unknown ode mode 'phase-portrait'"),
        ({"problem": "linear", "problem_params": {"alpha": 5}},
         "unknown linear parameters: ['alpha']"),
        # a filter solver is filter-q1 or filter-q2, not any name ending in 1 or 2
        ({"mode": "trajectory", "problem": "logistic", "solver": "filter-q12"},
         "unknown RK method 'filter-q12'"),
        ({"mode": "trajectory", "problem": "logistic", "solver": "filter-qq1"},
         "unknown RK method 'filter-qq1'"),
        ({"mode": "order-study", "problem": "linear",
          "solvers": ["filter-q1", "filter-q12"]}, "unknown RK method 'filter-q12'"),
        ({"mode": "order-study", "problem": "linear", "solvers": ["filter-qq1"]},
         "unknown RK method 'filter-qq1'"),
        ({"mode": "trajectory", "problem": "linear", "problem_params": {"x0": np.nan}},
         "x0 must be finite, got [nan]"),
    ])
    def test_rejected_step_sizes_exit_code(self, tmp_path, capsys, config,
                                           message):
        code, _ = run_cli(tmp_path, "ode", config)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err


class TestDeterminism:
    @pytest.mark.parametrize("command,config", [
        ("quad", {"integrand": "paper-example",
                  "methods": ["trapezoid", "smc"], "budgets": [8, 16],
                  "seeds": [0]}),
        ("recycle", {"dim": 16, "length": 3, "drift": 0.02, "rank": 16}),
        ("ode", {"mode": "order-study", "problem": "linear",
                 "solvers": ["euler"], "h_values": [0.1, 0.05, 0.025, 0.0125]}),
        ("evidence", SMALL_EVIDENCE),
        ("linsolve", {"operator": {"kind": "random_spd", "dim": 16, "seed": 0}}),
    ])
    def test_reproducible_runs_byte_identical(self, tmp_path, command, config):
        _, out1 = run_cli(tmp_path, command, config, name="a.csv",
                          extra=("--reproducible",))
        _, out2 = run_cli(tmp_path, command, config, name="b.csv",
                          extra=("--reproducible",))
        assert out1.read_bytes() == out2.read_bytes()
        side1 = Path(str(out1) + ".config.json").read_text()
        side2 = Path(str(out2) + ".config.json").read_text()
        assert side1.replace("a.csv", "") == side2.replace("b.csv", "")

    @pytest.mark.parametrize("command,config", [
        ("quad", {"integrand": "paper-example",
                  "methods": ["trapezoid", "spline-bq", "eq-bq", "smc"],
                  "budgets": [4, 8]}),
        ("evidence", SMALL_EVIDENCE),
    ])
    def test_reproducible_zeroes_wall_ms_and_drops_timestamp(self, tmp_path,
                                                             command, config):
        for extra, name in [((), "timed.csv"), (("--reproducible",), "rep.csv")]:
            code, out = run_cli(tmp_path, command, config, name=name, extra=extra)
            assert code == 0
            walls = [float(r["wall_ms"]) for r in read_rows(out)]
            side = json.loads(Path(str(out) + ".config.json").read_text())
            assert side["reproducible"] == bool(extra)
            if extra:
                assert walls == [0.0] * len(walls) and "timestamp" not in side
            else:
                assert min(walls) > 0.0 and "timestamp" in side

    def test_seed_flag_overrides(self, tmp_path):
        cfg = {"integrand": "spline-draw", "methods": ["spline-bq"],
               "budgets": [10], "seeds": [5]}
        _, out1 = run_cli(tmp_path, "quad", cfg, name="a.csv",
                          extra=("--seed", "3", "--reproducible"))
        _, out2 = run_cli(tmp_path, "quad", cfg, name="b.csv",
                          extra=("--seed", "4", "--reproducible"))
        assert out1.read_bytes() != out2.read_bytes()

    def test_spline_draw_reruns_are_byte_identical(self, tmp_path):
        cfg = {"integrand": "spline-draw", "methods": ["trapezoid", "spline-bq"],
               "budgets": [5, 10]}
        outs = [run_cli(tmp_path, "quad", cfg, name=name,
                        extra=("--seed", "3", "--reproducible"))[1]
                for name in ("a.csv", "b.csv")]
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert (Path(str(outs[0]) + ".config.json").read_bytes()
                == Path(str(outs[1]) + ".config.json").read_bytes())


class TestBenchmarkTruth:
    def test_benchmark_truth_repeatable_and_sane(self):
        t1 = benchmark_integral_truth()
        t2 = benchmark_integral_truth()
        assert t1 == t2
        xs = np.linspace(-3, 3, 200_001)
        coarse = np.trapezoid(smooth_benchmark_integrand(xs), xs)
        assert t1 == pytest.approx(coarse, abs=1e-9)
