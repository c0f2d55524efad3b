"""cfmimo benchmark: seeded CLI workloads with output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
`src/`).  Each repetition runs the workload's `cfmimo` CLI sequence in a fresh
interpreter (see child.py); the parent writes the scenario files, checks every
output and prints one JSON object as the last line of standard output.

A run with seed N measures a fixed list of deployments (see workloads.py).
It cycles through them, one repetition at a time, until every deployment
has a repetition and the next one would end after --seconds, so faster code
gets more repetitions of the same inputs, never other inputs.

--trace 0 reports the end-to-end metrics: run_s (wall time of the CLI sequence
after set-up: per deployment the median repetition, averaged over the
deployments), setup_s (median launch-to-`cfmimo.cli`-imported time over every
interpreter the run starts), peak_rss_mb (median peak resident memory of a
repetition), sua_ms (per deployment the median
`association.run_sua(deployment, config)` call, averaged over the deployments:
the CLI's own calls if they are long, else further calls after the sequence,
see child.py; the sample count is printed on the line before the result) and ok_frac
(operations that succeeded over operations attempted; an operation is a CLI
command or an output check).

run_s and sua_ms are scaled to a reference host speed (see calibrate.py): on
a shared host the same inputs ran 30-60 % slower for minutes at a time, so
each time is multiplied by calibrate.REF_S over the time of a fixed reference
computation run right before and after it on the same CPU.  The run times as
measured and their scale factors are printed on the line before the result.
setup_s is as measured.

--trace 1 repeats traced repetitions on the first deployment and reports
per-layer self times (median over the repetitions) and counters (see
tracer.py), plus trace.overhead_s, the median time the tracer's wrappers spent
on their own bookkeeping in a repetition.

Outputs go to `.perfbench_out/` under the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
from tracer import metric_units

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

PROBES = 5              # extra import-only interpreters for setup_s
DEADLINE_S = 120.0      # no repetition starts after this; each run exits < 180 s
CHILD_GRACE_S = 40.0    # a repetition still running this long after the deadline is killed
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "sua_ms": "ms",
                    "ok_frac": "fraction"}


def child_env() -> dict:
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    env.pop("PYTHONPATH", None)
    return env


def probe_setup(deadline: float) -> float:
    """Launch-to-imported time of one interpreter that only imports cfmimo.cli."""
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), SRC],
                         capture_output=True, text=True, env=child_env(), check=True,
                         timeout=max(1.0, deadline - t0))
    return float(out.stdout.strip()) - t0


class Run:
    """Repetitions of one workload under one seed, and their checks."""

    def __init__(self, workload, seed: int, tiny: bool, tamper=None):
        from workloads import ScenarioSource, commands

        self.dir = os.path.join(OUT_ROOT, f"{workload.name}-{seed}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.scenarios = ScenarioSource(workload, seed, self.dir, tiny)
        self.commands = commands(self.scenarios.params)
        self.tamper = tamper
        self.attempted = 0
        self.failures = []
        self.setup_s = []

    def repetition(self, index: int, scenario: int, trace: bool, deadline: float):
        """Run the CLI sequence once in a fresh interpreter and check its output.

        Returns the child's result, or None if it did not finish.
        """
        from checks import check_outputs

        path, sub_seed, cfg = self.scenarios.scenarios[scenario]
        rep_dir = os.path.join(self.dir, f"rep{index}")
        os.makedirs(rep_dir)
        argvs = [argv + ["--scenario", path, "--seed", str(sub_seed), "--out", rep_dir]
                 for argv in self.commands]
        plan = {"commands": argvs, "trace": trace, "scenario": path, "seed": sub_seed,
                "spans_path": os.path.join(self.dir, "spans.json")}
        plan_path = os.path.join(rep_dir, "plan.json")
        result_path = os.path.join(rep_dir, "result.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)

        before = calibrate.slices_s()
        t_launch = time.monotonic()
        try:
            subprocess.run([sys.executable, os.path.join(HERE, "child.py"), SRC, plan_path,
                            result_path], capture_output=True, env=child_env(),
                           timeout=max(1.0, deadline + CHILD_GRACE_S - t_launch))
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
        except (subprocess.TimeoutExpired, OSError, ValueError) as e:
            self.attempted += 1
            self.failures.append(f"rep{index}: no result ({type(e).__name__}: {e})")
            return None
        self.setup_s.append(result["imported"] - t_launch)
        # times of this repetition scaled to the reference host speed
        result["scale"] = calibrate.REF_S / statistics.median(before + calibrate.slices_s())

        for cmd in result["commands"]:
            self.attempted += 1
            if cmd["rc"] != 0 or cmd["error"]:
                self.failures.append(f"rep{index} {cmd['argv'][0]}: rc={cmd['rc']} "
                                     f"{(cmd['error'] or cmd['stderr']).strip()[-300:]}")
        if self.tamper is not None:
            self.tamper(rep_dir)
        for name, ok, detail in check_outputs(rep_dir, cfg, sub_seed, self.scenarios.params):
            self.attempted += 1
            if not ok:
                self.failures.append(f"rep{index} check '{name}' failed: {detail}")
        shutil.rmtree(rep_dir)
        return result


def measure(run: Run, seconds: float, trace: bool, t_start: float):
    """Repeat the workload for about `seconds`; returns the metrics dict, or
    None unless every deployment has a finished repetition."""
    deadline = t_start + DEADLINE_S
    for _ in range(PROBES):
        run.setup_s.append(probe_setup(deadline))
    # an untraced run cycles through the seed's deployments, a traced run
    # repeats the first one
    n = 1 if trace else len(run.scenarios.scenarios)
    results = [[] for _ in range(n)]
    took = []
    t_begin = time.monotonic()
    while True:
        i = len(took) % n
        t0 = time.monotonic()
        r = run.repetition(len(took), i, trace, deadline)
        if r is None:
            break
        results[i].append(r)
        took.append(time.monotonic() - t0)
        now = time.monotonic()
        if now >= deadline or (len(took) >= n and
                               now - t_begin + statistics.median(took) > seconds):
            break
    if not all(results):
        return None

    if not trace:
        sua = [[s * (calibrate.REF_S / k if k else r["scale"])
                for r in store for s, k in r["sua"]] for store in results]
        run.attempted += 1
        if not all(sua):
            run.failures.append("no association.run_sua call was timed")
        print(f"{len(took)} repetitions over {n} deployments "
              f"{[seed for _, seed, _ in run.scenarios.scenarios]}, run_s as measured "
              f"{[[round(r['run_s'], 3) for r in store] for store in results]}, scaled by "
              f"{[[round(r['scale'], 3) for r in store] for store in results]}, "
              f"{sum(map(len, sua))} run_sua samples, {len(run.setup_s)} set-up samples, "
              f"deployments skipped for coverage holes {run.scenarios.skipped}")
        return {
            "run_s": statistics.fmean(statistics.median(r["run_s"] * r["scale"] for r in store)
                                      for store in results),
            "setup_s": statistics.median(run.setup_s),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for store in results
                                             for r in store),
            "sua_ms": 1e3 * statistics.fmean(statistics.median(samples) if samples else 0.0
                                             for samples in sua),
        }

    [traced] = results
    first = traced[0]
    run.attempted += 1
    if any(r["counters"] != first["counters"] for r in traced[1:]):
        run.failures.append("counters differ between traced repetitions")
    print(f"{len(traced)} traced repetitions, {first['spans']} spans each")

    counts, gauges = first["counters"], first["gauges"]
    metrics = {}
    for name in metric_units():
        if name.endswith(".self_s"):
            metrics[name] = statistics.median(r["self_s"][name[:-7]] for r in traced)
        else:
            metrics[name] = counts.get(name, 0)
    tested = counts.get("channel.clutter_return.tested", 0)
    metrics["channel.lobe_hit_ratio"] = \
        counts.get("channel.clutter_return.in_lobe", 0) / tested if tested else 0.0
    metrics["association.psi"] = gauges.get("association.mask.psi", 0.0)
    metrics["trace.overhead_s"] = statistics.median(r["overhead_s"] for r in traced)
    return metrics


def main(argv=None, tamper=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale: small scenarios and sample counts")
    args = parser.parse_args(argv)
    t_start = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "cfmimo", "cli.py")):
        print(f"cfmimo sources not found under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    # the repetitions inherit this CPU, so the calibration kernel runs where
    # the program ran
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run = Run(WORKLOADS[args.workload], args.seed, args.tiny, tamper)
    metrics = measure(run, args.seconds, bool(args.trace), t_start)
    if metrics is None:
        for line in run.failures:
            print(line, file=sys.stderr)
        print("no repetition finished", file=sys.stderr)
        return 1
    if not args.trace:
        metrics["ok_frac"] = 1.0 - len(run.failures) / run.attempted
        units = END_TO_END_UNITS
    else:
        units = metric_units()
    for line in run.failures:
        print(line)
    doc = {"correct": not run.failures, "attempted": run.attempted,
           "failed": len(run.failures),
           "metrics": {name: {"value": metrics[name], "unit": unit}
                       for name, unit in units.items()}}
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
