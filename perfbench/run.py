"""Benchmark of pnum's public API: four workloads, each in its own process.

    python3 perfbench/run.py --workload {linsolve,recycle,quadrature,ode} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; ``pnum`` is imported from ``src/`` there.
Every input is generated from ``--seed`` (default 0); every output is
checked.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``:

* ``setup_s``: ``import pnum`` plus input generation, taken in five fresh
  processes started one at a time at even intervals over the run.  Each
  runs under ``python -X importtime``, which splits its set-up into the
  self time of every module it imports, plus the input generation; the
  metric is the sum over these pieces of each piece's fastest time;
* ``wall_s``: wall time of one pass over the workload's task list, as the
  sum over segments of about 20 ms of each segment's fastest time over the
  passes that fit in S seconds.  Segments are cut at calls of the
  benchmark's own callbacks (matvecs, vector fields, integrands,
  likelihoods), so each covers the same work in every pass.

  Both are lower envelopes.  On the shared 2-vCPU VM the benchmark was
  written on, other tenants slowed a whole pass, or a whole one-second
  set-up, by up to 1.9x, in stretches that last up to minutes.  Over two
  sets of ten seeds per workload, the spread (q3 - q1) / median of
  ``wall_s`` was 0.02-0.16, against 0.05-0.19 for the sum of each task's
  fastest whole time in the same runs, and that of ``setup_s`` 0.04-0.23,
  against 0.08-0.32 for the median of the five whole set-ups;
* ``peak_rss_mb``: peak RSS of the measuring process, which ran only this
  workload and had no tracing in it;
* ``passed_frac``: tasks whose output passed its check over tasks attempted.

``--trace 1`` runs one traced process and prints the per-layer metrics; a
metric of a module the workload does not use reads 0.  Its spans are
written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every check passed.  BLAS runs single-threaded in the worker
process, and only one worker runs at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("linsolve", "recycle", "quadrature", "ode")
RUN_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(Exception):
    pass


def stop(proc: subprocess.Popen) -> None:
    os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()


def worker(args, mode: str, timeout: float, out=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if out is not None:
        cmd += ["--out", str(out)]
    # The worker starts set-up probes of its own; its session holds them, so
    # a worker that overruns is stopped together with its probe.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        stop(proc)
        raise WorkerError(f"{mode} worker exceeded {timeout} s") from exc
    except BaseException:
        stop(proc)
        raise
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark unwinds like an interrupted one, so the worker
    # it waits on is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "pnum" / "__init__.py").is_file():
        print(f"no pnum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    try:
        if args.trace:
            out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
            res = worker(args, "trace", RUN_TIMEOUT_S, out)
            values = {m["name"]: res["layers"].get(m["name"], 0.0)
                      for m in spec["per_layer"]}
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            unknown = set(res["layers"]) - set(values)
            if unknown:
                raise WorkerError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        else:
            res = worker(args, "run", RUN_TIMEOUT_S)
            values = {
                "setup_s": res["setup_s"],
                "wall_s": res["wall_s"],
                "peak_rss_mb": res["peak_rss_mb"],
                "passed_frac": (res["attempted"] - res["failed"]) / res["attempted"],
            }
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            print(f"{args.workload}: {len(res['passes'])} passes of "
                  f"{[round(w, 4) for w in res['passes']]} s, fastest tasks "
                  f"{res['fastest_tasks_s']:.4f} s, setup_s "
                  f"{[round(s, 4) for s in res['setups']]}", file=sys.stderr)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for problem in res.get("problems", []):
        print(problem, file=sys.stderr)
    correct = res["failed"] == 0 and not res.get("problems")
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
