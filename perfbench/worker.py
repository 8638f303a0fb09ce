"""One benchmark process for one workload; ``run.py`` starts it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode {setup,run,trace} [--out TRACE.json]

``setup`` imports ``pnum``, builds the workload's inputs and reports how long
that took.  ``run`` then repeats untraced passes for about S seconds and
reports the pass time (see ``SegmentClock``), the task counts, the process's
peak RSS and the set-up time (see ``fastest_setup``) of ``SETUP_PROBES``
fresh ``setup`` processes started one at a time, spread evenly over the run.
``trace`` patches the layer modules, runs a cold traced pass, one
``tracemalloc`` pass over the workload's memory-heavy calls, then alternates
untraced and traced passes, and reports the per-layer metrics.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Fresh set-up processes per run.  Slow stretches of a shared host last
# seconds to minutes, so set-up times taken back to back all land in the same
# stretch; spread over the whole run, a slow stretch moves only some of them.
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 30
SETUP_MARK = "-- set-up starts --"
IMPORT_TIME = re.compile(r"import time:\s+(\d+) \|\s+\d+ \| +(\S+)$")
SEGMENT_S = 0.02


class SegmentClock:
    """Fastest time of each ~``SEGMENT_S`` segment of each task over the passes.

    Other tenants of a shared machine slow the program down in stretches of
    milliseconds to minutes, and that only ever adds time.  A task of a few
    seconds is seldom spared in any pass; a 20 ms piece of it is spared far
    more often, so the sum over segments of each segment's fastest time was
    the steadiest estimate of what a pass costs the program.

    Segments are cut at calls of the benchmark's own callbacks (matvecs,
    vector fields, integrands, likelihoods), which the clock marks, after
    about ``SEGMENT_S`` each in the first pass.  The cuts are then kept by
    call count, so a segment covers the same work in every pass.  A task
    without callbacks is one segment; a task whose call count changes
    between passes counts with its fastest whole time.

    ``leaf`` has the signature of ``spans.Tracer.leaf``, so the workloads
    wrap their callbacks the same way for either.
    """

    def __init__(self):
        self.marks = array("d")
        self.cuts: dict = {}
        self.best: dict = {}
        self.uneven: set = set()

    def leaf(self, name: str, fn, size=None):
        marks, clock = self.marks, time.perf_counter

        def marked(*args):
            marks.append(clock())
            return fn(*args)
        return marked

    def record(self, task: str, start: float, end: float) -> None:
        """Take the segment times of one run of ``task``, then clear the marks."""
        stamps = [start, *self.marks, end]
        del self.marks[:]
        cuts = self.cuts.get(task)
        if cuts is None:
            cuts = [0]
            for i in range(1, len(stamps) - 1):
                if stamps[i] - stamps[cuts[-1]] >= SEGMENT_S:
                    cuts.append(i)
            cuts.append(len(stamps) - 1)
            self.cuts[task] = cuts
        if cuts[-1] != len(stamps) - 1:
            self.uneven.add(task)
            return
        times = [stamps[b] - stamps[a] for a, b in zip(cuts, cuts[1:])]
        best = self.best.setdefault(task, times)
        self.best[task] = [min(x, y) for x, y in zip(best, times)]

    def pass_time(self, passes: list) -> float:
        return sum(min(p[task] for p in passes) if task in self.uneven
                   else sum(self.best[task]) for task in passes[0])


def setup_probe(args) -> tuple:
    """Set-up time of a fresh ``setup`` process, whole and in pieces.

    The probe runs under ``python -X importtime``.  Its pieces are the self
    time of each module imported during set-up, and the rest of the set-up
    time (input generation).  This process waits while the probe runs.
    """
    cmd = [sys.executable, "-X", "importtime", str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", "setup"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    lines = proc.stderr.splitlines()
    if proc.returncode != 0 or SETUP_MARK not in lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"setup probe exited with {proc.returncode}")
    total = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
    pieces = {}
    for line in lines[lines.index(SETUP_MARK) + 1:]:
        m = IMPORT_TIME.match(line)
        if m:
            pieces[m[2]] = int(m[1]) * 1e-6
        else:
            print(line, file=sys.stderr)
    pieces["(rest)"] = total - sum(pieces.values())
    return total, pieces


def fastest_setup(probes: list) -> float:
    """Sum over set-up pieces of each piece's fastest time over the probes.

    The same reasoning as for ``SegmentClock``: a whole set-up of about a
    second is often slowed down throughout, its pieces of a few ms are not.
    If the probes imported different modules, the fastest whole set-up.
    """
    names = probes[0][1].keys()
    if any(pieces.keys() != names for _, pieces in probes):
        return min(total for total, _ in probes)
    return sum(min(pieces[name] for _, pieces in probes) for name in names)


def run_pass(wl, tracer, clock=None):
    """Run every task once; a task that raises is counted as failed.

    Returns the pass's wall time, the wall time of each task, the number of
    failed tasks and the exact counts the tasks reported.
    """
    facts: dict = {}
    times: dict = {}
    failed = 0
    pass_start = time.perf_counter()
    for name, fn in wl.tasks():
        start = time.perf_counter()
        try:
            facts.update(fn() if tracer is None else tracer.run_task(name, fn))
        except Exception:
            # MemoryError, a typed PnumError or a failed check: the task
            # failed, the pass goes on.
            failed += 1
            print(f"task {name} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        end = time.perf_counter()
        times[name] = end - start
        if clock is not None:
            clock.record(name, start, end)
    return time.perf_counter() - pass_start, times, failed, facts


def fastest_pass(passes: list) -> float:
    """Sum over tasks of each task's fastest time over the given passes."""
    return sum(min(p[name] for p in passes) for name in passes[0])


def peak_memory(wl) -> tuple:
    """Peak traced allocation in MB of each memory-heavy call, untraced."""
    peaks, failed = {}, 0
    for metric, fn in wl.peak_calls().items():
        tracemalloc.start()
        try:
            fn()
            peaks[metric] = tracemalloc.get_traced_memory()[1] / 2**20
        except Exception:
            failed += 1
            print(f"memory probe {metric} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        finally:
            tracemalloc.stop()
    return peaks, len(peaks) + failed, failed


def self_sum(snap: dict) -> float:
    """Self time of every span plus every leaf: the traced time accounted for."""
    return (sum(s["self_s"] for s in snap["spans"])
            + sum(v["seconds"] for v in snap["leaves"].values()))


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0))}


def trace_mode(args, wl, tracer, workloads) -> dict:
    Summary = workloads.Summary
    setup_snap = tracer.snapshot()
    tracer.reset()
    layers = {}
    if hasattr(wl, "setup_metrics"):
        layers.update(wl.setup_metrics(Summary(setup_snap)))
    start = time.perf_counter()

    tracer.enabled = True
    wall, times, failed, facts = run_pass(wl, tracer)
    attempted = len(times)
    snaps = [tracer.snapshot()]
    walls = [wall]
    traced = [times]
    all_facts = [facts]
    tracer.reset()
    if hasattr(wl, "first_call_metrics"):
        layers.update(wl.first_call_metrics(Summary(snaps[0])))

    tracer.enabled = False
    peaks, n, f = peak_memory(wl)
    layers.update(peaks)
    attempted, failed = attempted + n, failed + f

    untraced = []
    while True:
        tracer.enabled = False
        wall, times, f, _ = run_pass(wl, tracer)
        untraced.append(times)
        tracer.enabled = True
        wall2, times2, f2, facts = run_pass(wl, tracer)
        snaps.append(tracer.snapshot())
        walls.append(wall2)
        traced.append(times2)
        all_facts.append(facts)
        tracer.reset()
        attempted += len(times) + len(times2)
        failed += f + f2
        if time.perf_counter() - start + wall + wall2 > args.seconds:
            break
    tracer.enabled = False

    problems = []
    per_pass = [wl.layer_metrics(Summary(s), fx) for s, fx in zip(snaps, all_facts)]
    # Exact counts are ints and must repeat in every traced pass.
    for name, value in per_pass[0].items():
        if isinstance(value, int) and any(p[name] != value for p in per_pass):
            problems.append(f"count {name} differs between traced passes: "
                            f"{[p[name] for p in per_pass]}")
    for name, value in per_pass[0].items():
        layers[name] = (value if isinstance(value, int)
                        else statistics.median(p[name] for p in per_pass[1:]))
    fracs = [self_sum(s) / w for s, w in zip(snaps, walls)]
    for frac in fracs:
        if not 0.98 <= frac <= 1.0 + 1e-9:
            problems.append(f"span self times cover {frac:.4f} of the traced pass")
    layers["trace.self_sum_frac"] = statistics.median(fracs[1:])
    layers["trace.overhead_frac"] = (fastest_pass(traced[1:])
                                     / fastest_pass(untraced) - 1.0)

    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "environment": environment(), "setup": setup_snap,
                       "passes": [dict(s, wall_s=w) for s, w in zip(snaps, walls)]},
                      fh)
    return {"layers": layers, "attempted": attempted, "failed": failed,
            "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    if args.mode == "setup":
        print(SETUP_MARK, file=sys.stderr, flush=True)
    t0 = time.perf_counter()
    import pnum
    if not Path(pnum.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"pnum imported from {pnum.__file__}, not from this checkout",
              file=sys.stderr)
        return 3
    from pnum import deconv, gp, linalg, mc, odefilter, quadrature

    import spans
    import workloads
    tracer = None
    clock = SegmentClock()
    if args.mode == "trace":
        tracer = spans.Tracer()
        tracer.patch_modules({"linalg": linalg, "deconv": deconv, "gp": gp,
                              "quadrature": quadrature, "mc": mc,
                              "odefilter": odefilter}, pnum)
        tracer.enabled = True
    wl = workloads.WORKLOADS[args.workload](args.seed, tracer or clock)
    setup_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.enabled = False

    if args.mode == "setup":
        result = {"setup_s": setup_s}
    elif args.mode == "run":
        walls, passes, failed = [], [], 0
        probes = [setup_probe(args)]
        while True:
            wall, times, f, _ = run_pass(wl, None, clock)
            walls.append(wall)
            passes.append(times)
            failed += f
            # Probe i runs once the passes have taken i / (SETUP_PROBES - 1)
            # of the S seconds; the time probes take is not counted.
            done = sum(walls)
            while len(probes) <= min((SETUP_PROBES - 1) * done / args.seconds,
                                     SETUP_PROBES - 2):
                probes.append(setup_probe(args))
            if done + wall > args.seconds:
                break
        while len(probes) < SETUP_PROBES:
            probes.append(setup_probe(args))
        result = {"setup_s": fastest_setup(probes),
                  "setups": [total for total, _ in probes],
                  "wall_s": clock.pass_time(passes),
                  "fastest_tasks_s": fastest_pass(passes), "passes": walls,
                  "attempted": sum(len(t) for t in passes), "failed": failed,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    else:
        try:
            result = trace_mode(args, wl, tracer, workloads)
        finally:
            tracer.restore()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
