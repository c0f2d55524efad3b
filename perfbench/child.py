"""One repetition of a workload in a fresh interpreter.

    python3 child.py SRC_DIR                 import probe: print the time
                                             `cfmimo.cli` finished importing
    python3 child.py SRC_DIR PLAN RESULT     run the plan's CLI sequence

Times are CLOCK_MONOTONIC, which every process on the host shares, so the
parent subtracts its launch time to get the set-up time.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import cfmimo.cli  # noqa: E402

IMPORTED = time.monotonic()

SUA_BUDGET_S = 0.3      # run_sua time sampled per repetition
SUA_MAX_SAMPLES = 200
SLICE_PARTS = 12        # a calibration slice between samples is 1/12 of a pass


def run_command(argv):
    import contextlib
    import io
    import traceback

    out, err = io.StringIO(), io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cfmimo.cli.main(argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 1
    except Exception:  # noqa: BLE001 - a traceback is a failed operation
        rc, error = None, traceback.format_exc()
    return {"argv": argv, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "error": error}


def peak_rss_kb() -> int:
    """Peak resident set of this process image.

    VmHWM starts afresh at exec; ru_maxrss also counts the parent's memory at
    fork, so it is only the fallback where /proc is absent.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def sample_sua(plan, cli_samples):
    """Timed association.run_sua(deployment, config) calls, as
    [seconds, kernel seconds] pairs.

    If the CLI's own calls took SUA_BUDGET_S or more they are the samples, with
    no kernel time: the parent scales them with the repetition's calibration.
    Otherwise further calls on the repetition's deployment are timed after the
    sequence, each between two calibration slices, whose mean is its kernel
    time, until SUA_BUDGET_S of samples (or SUA_MAX_SAMPLES samples) exist.
    """
    if sum(cli_samples) >= SUA_BUDGET_S:
        return [[s, None] for s in cli_samples]
    import calibrate
    from cfmimo import association
    from cfmimo.scenario import generate_deployment, load_scenario

    config = load_scenario(plan["scenario"])
    config.seed = plan["seed"]
    deployment = generate_deployment(config)
    pairs, total = [], 0.0
    before = calibrate.kernel_s(SLICE_PARTS)
    while total < SUA_BUDGET_S and len(pairs) < SUA_MAX_SAMPLES:
        t0 = time.perf_counter()
        association.run_sua(deployment, config)
        sample = time.perf_counter() - t0
        after = calibrate.kernel_s(SLICE_PARTS)
        pairs.append([sample, (before + after) / 2])
        total += sample
        before = after
    return pairs


def main():
    if len(sys.argv) == 2:
        print(repr(IMPORTED))
        return
    import json

    import tracer

    with open(sys.argv[2], encoding="utf-8") as fh:
        plan = json.load(fh)
    if plan["trace"]:
        spans = tracer.Tracer()
        spans.install()
    else:
        sua_timer = tracer.CallTimer()
        tracer.install(sua_timer.wrap, [("association", "run_sua")])

    t0 = time.perf_counter()
    commands = [run_command(argv) for argv in plan["commands"]]
    run_s = time.perf_counter() - t0
    peak_kb = peak_rss_kb()

    result = {"imported": IMPORTED, "run_s": run_s, "peak_rss_mb": peak_kb / 1024.0,
              "commands": commands}
    if plan["trace"]:
        result["self_s"] = spans.self_times()
        result["counters"] = spans.sums
        result["gauges"] = spans.gauges
        result["spans"] = len(spans.name)
        result["overhead_s"] = spans.overhead_s
        with open(plan["spans_path"], "w", encoding="utf-8") as fh:
            json.dump(spans.spans(), fh)
    else:
        result["sua"] = sample_sua(plan, sua_timer.samples)
    with open(sys.argv[3], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
