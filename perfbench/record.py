"""Run the benchmark over several seeds and record the figures.

    python3 perfbench/record.py --out perfbench/baseline.json

For each workload of BENCHMARK.json: one untraced run of run_seconds per seed
1-10 (median, quartiles and quartile spread of every end-to-end metric, plus
each run's values and the deployments it measured and skipped), then one
traced run on the first seed.  The environment (interpreter, library
versions, CPU) is stored with the figures.  Prints a table as it goes; writes
JSON only with --out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(1, 11))


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    sys.path.insert(0, HERE)
    from run import SINGLE_THREAD_ENV

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu_model": cpu,
            "blas_threads": int(SINGLE_THREAD_ENV["OPENBLAS_NUM_THREADS"])}


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    doc = json.loads(lines[-1])
    doc["note"] = lines[-2] if len(lines) > 1 else ""
    return doc


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the figures here as JSON")
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {"environment": environment(), "seeds": SEEDS, "run_seconds": seconds,
              "workloads": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        t0 = time.monotonic()
        runs = []
        for seed in SEEDS:
            doc = bench(name, seed, seconds, 0)
            print(f"{name} seed {seed}: failed {doc['failed']}/{doc['attempted']}; {doc['note']}",
                  flush=True)
            runs.append(doc)
        entry = {"why": workload["why"],
                 "failed": sum(d["failed"] for d in runs),
                 "attempted": sum(d["attempted"] for d in runs),
                 "notes": {seed: d["note"] for seed, d in zip(SEEDS, runs)},
                 "end_to_end": {}}
        for metric in runs[0]["metrics"]:
            s = spread([d["metrics"][metric]["value"] for d in runs])
            entry["end_to_end"][metric] = dict(s, unit=runs[0]["metrics"][metric]["unit"])
            flag = "" if metric == "setup_s" or s["spread"] <= bounds[metric] / 3 else \
                "  <-- above a third of its bound"
            print(f"  {metric:12s} median {s['median']:.6g}  spread {s['spread']:.4f}"
                  f"  (bound {bounds[metric]}){flag}", flush=True)
        traced = bench(name, SEEDS[0], seconds, 1)
        entry["traced"] = {"seed": SEEDS[0], "failed": traced["failed"], "note": traced["note"],
                           "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        top = sorted(((v, k) for k, v in entry["traced"]["metrics"].items()
                      if k.endswith(".self_s")), reverse=True)[:4]
        print("  traced self time: " + ", ".join(f"{k} {v:.3f}s" for v, k in top), flush=True)
        print(f"  {time.monotonic() - t0:.0f} s", flush=True)
        record["workloads"][name] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
