"""Command-line entry point; every experiment is a subcommand over scenario files."""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

import numpy as np

from cfmimo import association, channel, comm_perf, net_metrics, report, sense_perf
from cfmimo.scenario import (
    InfeasibleModelError,
    SystemConfig,
    ValidationError,
    generate_deployment,
    load_scenario,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3

MAX_GRID_POINTS = 10_000
# |value| of a dB grid: 10^(+-30) keeps every power ratio, SNR and noise
# variance of the Monte-Carlo stages well inside floating-point range
MAX_GRID_DB = 300.0


def parse_range(text: str) -> np.ndarray:
    """Parse 'a:step:b' (inclusive) or 'a:b' with unit step: finite bounds and
    step, step > 0, b >= a and at most MAX_GRID_POINTS points."""
    parts = text.split(":")
    try:
        if len(parts) == 2:
            a, b = float(parts[0]), float(parts[1])
            step = 1.0
        elif len(parts) == 3:
            a, step, b = (float(p) for p in parts)
        else:
            raise ValueError
    except ValueError:
        raise ValidationError(f"bad range {text!r}, expected a:step:b") from None
    if not all(map(math.isfinite, (a, step, b))):
        raise ValidationError(f"bad range {text!r}: bounds and step must be finite")
    if step <= 0 or b < a:
        raise ValidationError(f"bad range {text!r}: need step > 0 and b >= a")
    last = (b - a) / step + 1e-9  # index of the last point, before rounding down
    if not last < MAX_GRID_POINTS:
        raise ValidationError(f"bad range {text!r}: more than {MAX_GRID_POINTS} points")
    return a + step * np.arange(math.floor(last) + 1)


def parse_db_range(text: str) -> np.ndarray:
    """`parse_range` for a grid in dB, whose values lie within +-MAX_GRID_DB."""
    grid = parse_range(text)
    if np.abs(grid).max() > MAX_GRID_DB:
        raise ValidationError(f"bad range {text!r}: dB values must lie within "
                              f"+-{MAX_GRID_DB:g}")
    return grid


def positive_int(text: str) -> int:
    """argparse type for counts: an int >= 1 whose (2, count) float64 sample array numpy can size."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    if value > np.iinfo(np.intp).max // 16:
        raise argparse.ArgumentTypeError(f"too large for a sample array, got {value}")
    return value


@contextlib.contextmanager
def _atomic_file(path: str):
    """A text file written at `path` + ".tmp" and renamed to `path` when the
    block ends; if the block, the write or the rename fails, the temporary
    file is removed."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def atomic_write(path: str, text: str):
    """Write `text` to `path` through `_atomic_file`, one slice of
    `report.SLICE_CHARS` characters per write, so the file's encoder never
    holds a copy of the whole text."""
    with _atomic_file(path) as fh:
        for part in report.slices(text):
            fh.write(part)


def _write_report(out, rep):
    """Stream `rep` to <experiment>_report.json in `out`."""
    with _atomic_file(os.path.join(out, f"{rep.experiment}_report.json")) as fh:
        rep.write(fh)


def _write_outputs(out, experiment, cfg, files, tables):
    """Write each of `files` (file name -> text), then the experiment's report
    over `tables`."""
    for name, text in files.items():
        atomic_write(os.path.join(out, name), text)
    _write_report(out, report.build_report(experiment, cfg, tables))


def _load_config(args) -> SystemConfig:
    cfg = load_scenario(args.scenario) if getattr(args, "scenario", None) else SystemConfig()
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "pfa", None) is not None:
        cfg.p_fa = args.pfa
    cfg.validate()
    return cfg


def _schemes(args):
    return ("sua", "baseline") if args.scheme == "both" else (args.scheme,)


def _setup(args, schemes):
    """Config, deployment, link budget, clutter geometry and the association
    matrix of SUA and of each of `schemes`; the baseline's is all ones, so it
    skips `run_baseline`'s all-link evaluation."""
    cfg = _load_config(args)
    deployment = generate_deployment(cfg)
    budget = channel.link_budget(deployment, cfg)
    geom = channel.clutter_geometry(deployment, cfg.pathloss)
    assocs = {s: association.run_sua(deployment, cfg, budget, geom).A if s == "sua"
              else association.baseline_all_to_all(deployment.L, deployment.K)
              for s in dict.fromkeys(("sua", *schemes))}
    return cfg, deployment, budget, geom, assocs


def cmd_validate(args) -> int:
    try:
        load_scenario(args.scenario)
    except ValidationError as e:
        print(f"invalid scenario: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    print("scenario ok")
    return EXIT_OK


def cmd_associate(args) -> int:
    cfg = _load_config(args)
    deployment = generate_deployment(cfg)
    budget = channel.link_budget(deployment, cfg)
    geom = channel.clutter_geometry(deployment, cfg.pathloss)
    run = {"sua": association.run_sua, "baseline": association.run_baseline}
    results = {s: run[s](deployment, cfg, budget, geom) for s in _schemes(args)}
    del budget, geom
    files, tables = {}, {}
    for scheme, res in results.items():
        csv = association.association_csv(res.links, res.S, res.prio, res.A)
        files[f"associate_{scheme}.csv"] = tables[f"association_{scheme}"] = csv
        per_ap, per_ue, active = association.served_counts(res.A)
        psi = res.links.size / res.A.size
        # the baseline, which has no report, lists every link in row-major order
        obj = (res.report.objective if res.report
               else association.objective_value((res.S * res.prio).reshape(res.A.shape), res.A))
        repairs = (f" searches={res.report.searches} repairs={res.report.repairs}"
                   if res.report else "")
        print(f"{scheme}: psi={psi:.4f} objective={obj:.6g} active_aps={active} "
              f"max_ues_per_ap={int(per_ap.max())} max_aps_per_ue={int(per_ue.max())}{repairs}")
    _write_outputs(args.out, "associate", cfg, files, tables)
    return EXIT_OK


def cmd_ser(args) -> int:
    schemes = _schemes(args)
    grid = parse_db_range(args.snr)
    cfg, deployment, budget, geom, assocs = _setup(args, schemes)
    del geom
    pts = comm_perf.ser_monte_carlo(
        deployment, cfg, {s: assocs[s] for s in schemes}, comm_perf.CONSTELLATIONS[args.mod],
        grid, args.symbols, cfg.seed, assocs["sua"], budget, perfect_csi=args.perfect_csi)
    n, mod = len(grid), args.mod
    by_scheme = {s: pts[i * n:(i + 1) * n] for i, s in enumerate(schemes)}
    _write_outputs(args.out, "ser", cfg,
                   {f"ser_{s}.csv": comm_perf.ser_csv({s: by_scheme[s]}, mod) for s in schemes},
                   {"ser": comm_perf.ser_csv(by_scheme, mod)})
    collisions = " ".join(f"{s}={pts[i * n].pilot_collisions}" for i, s in enumerate(schemes))
    print(f"ser: {len(grid)} SNR points x {len(schemes)} scheme(s), "
          f"{args.symbols} symbols/point, pilot collisions {collisions} -> {args.out}")
    return EXIT_OK


def cmd_pd(args) -> int:
    schemes = _schemes(args)
    grid = parse_db_range(args.snr)
    cfg, deployment, budget, geom, assocs = _setup(args, schemes)
    all_points, scale = sense_perf.pd_monte_carlo(
        deployment, cfg, {s: assocs[s] for s in schemes}, assocs["sua"], grid, args.trials,
        cfg.seed, budget, geom)
    _write_outputs(args.out, "pd", cfg,
                   {f"pd_{s}.csv": sense_perf.pd_csv([p for p in all_points if p.scheme == s])
                    for s in schemes},
                   {"pd": sense_perf.pd_csv(all_points)})
    # one draw per sensing UE, read by every SCNR point and scheme
    print(f"pd: {len(grid)} SCNR points x {len(schemes)} scheme(s), "
          f"{args.trials} trials/point, {scale.shape[0] * args.trials} normal pairs drawn "
          f"-> {args.out}")
    return EXIT_OK


def cmd_sweep_x(args) -> int:
    cfg = _load_config(args)
    xs = parse_range(args.x_range)
    if np.any(xs != np.round(xs)):
        raise ValidationError(f"x range {args.x_range!r} must hold whole AP counts")
    points = net_metrics.x_sweep_gain(cfg.L, cfg.K, xs)
    knee = net_metrics.detect_knee(points)
    csv = net_metrics.gain_csv(points)
    _write_outputs(args.out, "sweep-x", cfg, {"sweep-x_sua.csv": csv}, {"gain": csv})
    print(f"sweep-x: knee at x={knee}")
    return EXIT_OK


def cmd_netmetrics(args) -> int:
    cfg, deployment, budget, geom, assocs = _setup(args, ("baseline",))
    delays, energies, clutters = {}, {}, {}
    for scheme, A in assocs.items():
        delays[scheme] = net_metrics.transmission_delay(budget, A)
        _, _, active = association.served_counts(A)
        energies[scheme] = (active, net_metrics.energy_total(A))
        clutters[scheme] = net_metrics.clutter_counts(deployment, cfg, A, geom, budget)
    tables = {
        "delay": net_metrics.delay_csv(delays),
        "energy": net_metrics.energy_csv(energies),
        "clutter": net_metrics.clutter_csv(clutters),
    }
    # wall-clock measurement: not reproducible run-to-run, kept out of the report
    rt = net_metrics.association_runtime(deployment, cfg, budget, geom, reps=args.reps)
    files = {f"netmetrics_{name}.csv": csv for name, csv in tables.items()}
    files["netmetrics_runtime.csv"] = net_metrics.runtime_csv(rt)
    _write_outputs(args.out, "netmetrics", cfg, files, tables)
    print(f"netmetrics: sua runtime {rt.sua_s * 1e3:.2f} ms vs baseline {rt.baseline_s * 1e3:.2f} ms "
          f"(speed-up {rt.baseline_s / rt.sua_s:.2f}x)")
    return EXIT_OK


def cmd_report(args) -> int:
    cfg = _load_config(args)
    reports = []
    for name in sorted(os.listdir(args.out)):
        if name.endswith("_report.json") and name != "combined_report.json":
            path = os.path.join(args.out, name)
            try:
                with open(path, encoding="utf-8") as fh:
                    reports.append(report.parse_report(fh.read()))
            except (OSError, ValueError) as e:  # unreadable, not UTF-8 or malformed
                print(f"cannot read report {path}: {e}", file=sys.stderr)
                return EXIT_VALIDATION
    if not reports:
        print("no experiment reports found", file=sys.stderr)
        return EXIT_INFEASIBLE
    try:
        combined = report.merge_reports(reports)
    except ValueError as e:
        print(f"cannot combine: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    expected = report.config_digest(cfg, cfg.seed)
    if combined.digest != expected:
        print(f"reports do not match this scenario (digest {combined.digest[:12]} "
              f"!= {expected[:12]})", file=sys.stderr)
        return EXIT_VALIDATION
    _write_report(args.out, combined)
    print(f"combined {len(reports)} report(s), digest {combined.digest[:12]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfmimo",
        description="Cell-free massive MIMO user-association experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scheme=True):
        p.add_argument("--scenario", help="scenario JSON (defaults to the built-in setting)")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--out", default=".", help="output directory")
        if scheme:
            p.add_argument("--scheme", choices=("sua", "baseline", "both"), default="both")

    p = sub.add_parser("associate", help="run the association pipeline")
    common(p)
    p.set_defaults(func=cmd_associate)

    p = sub.add_parser("ser", help="symbol error rate, theory and Monte-Carlo")
    common(p)
    p.add_argument("--snr", default="0:2:20",
                   help="SNR grid a:step:b in dB: the SNR of a link with the median "
                        "gain over SUA's serving links, for every scheme")
    p.add_argument("--mod", choices=comm_perf.CONSTELLATIONS, default="qpsk")
    p.add_argument("--symbols", type=positive_int, default=100000)
    p.add_argument("--perfect-csi", action="store_true")
    p.set_defaults(func=cmd_ser)

    p = sub.add_parser("pd", help="probability of detection, formula and Monte-Carlo")
    common(p)
    p.add_argument("--snr", default="0:2.5:15",
                   help="SCNR grid a:step:b in dB: each UE's aggregate SCNR under SUA, "
                        "for every scheme")
    p.add_argument("--trials", type=positive_int, default=100000)
    p.add_argument("--pfa", type=float, default=None)
    p.set_defaults(func=cmd_pd)

    p = sub.add_parser("sweep-x", help="processing gain vs per-UE AP budget")
    common(p, scheme=False)
    p.add_argument("--x-range", default="1:10", help="AP budget range a:b")
    p.set_defaults(func=cmd_sweep_x)

    p = sub.add_parser("netmetrics", help="delay, energy, clutter, runtime")
    common(p, scheme=False)
    p.add_argument("--reps", type=positive_int, default=20, help="runtime measurement repetitions")
    p.set_defaults(func=cmd_netmetrics)

    p = sub.add_parser("report", help="combine experiment reports in --out")
    common(p, scheme=False)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("validate", help="validate a scenario file")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_validate)
    return parser


# the options whose grids may start with a minus sign
_GRID_OPTIONS = ("--snr", "--x-range")


def _join_grid_values(argv: list[str]) -> list[str]:
    """argv with each grid of `_GRID_OPTIONS` given as its own token and
    starting with a single '-', such as `--snr -10:2:10`, joined to its option
    as `--snr=-10:2:10`; the option may be abbreviated, as argparse allows.
    argparse takes such a token for an option unless it is a plain negative
    number, so the grid would lose its value."""
    out = []
    for token in argv:
        if (out and len(out[-1]) > 2 and any(o.startswith(out[-1]) for o in _GRID_OPTIONS)
                and token[:1] == "-" and token[1:2] != "-" and ":" in token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_join_grid_values(sys.argv[1:] if argv is None else argv))
    try:
        if getattr(args, "out", None):
            os.makedirs(args.out, exist_ok=True)
        return args.func(args)
    except ValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except InfeasibleModelError as e:
        print(f"infeasible model: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as e:  # --out is a file, lies below one, or is not writable
        print(f"cannot write outputs: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as e:
        print(f"out of memory: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
