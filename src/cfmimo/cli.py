"""Command-line entry point; every experiment is a subcommand over scenario files."""

from __future__ import annotations

import argparse
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


def parse_range(text: str) -> np.ndarray:
    """Parse 'a:step:b' (inclusive) or 'a:b' with unit step."""
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
    if step <= 0 or b < a:
        raise ValidationError(f"bad range {text!r}: need step > 0 and b >= a")
    n = int(math.floor((b - a) / step + 1e-9)) + 1
    return a + step * np.arange(n)


def positive_int(text: str) -> int:
    """argparse type for sample and repetition counts: an int >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def atomic_write(path: str, text: str):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _load_config(args) -> SystemConfig:
    cfg = load_scenario(args.scenario) if getattr(args, "scenario", None) else SystemConfig()
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    cfg.validate()
    return cfg


def _schemes(args):
    return ("sua", "baseline") if args.scheme == "both" else (args.scheme,)


def _deployment_state(deployment, cfg):
    """The one link budget and clutter geometry a command builds per deployment.

    The geometry buckets the scatterers on a grid, which SUA's short links
    read. All-link work (the baseline's metrics, its Pd terms and clutter
    counts) also caches one dense (AP, scatterer) row per AP on it, up to
    four (L, S) arrays, so callers that are done with it drop it before the
    output tables are formatted.
    """
    return channel.link_budget(deployment, cfg), channel.clutter_geometry(deployment, cfg.pathloss)


def _association_matrices(deployment, cfg, schemes, budget, geom):
    """Association matrix per scheme. The baseline's is all ones whatever the
    link metrics, so it skips `run_baseline`'s all-link evaluation."""
    return {s: association.run_sua(deployment, cfg, budget, geom).A if s == "sua"
            else association.baseline_all_to_all(deployment.L, deployment.K)
            for s in schemes}


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
    budget, geom = _deployment_state(deployment, cfg)
    run = {"sua": association.run_sua, "baseline": association.run_baseline}
    results = {s: run[s](deployment, cfg, budget, geom) for s in _schemes(args)}
    del budget, geom
    tables = {}
    for scheme, res in results.items():
        csv = association.association_csv(res.S, res.prio, res.A, res.mask)
        atomic_write(os.path.join(args.out, f"associate_{scheme}.csv"), csv)
        tables[f"association_{scheme}"] = csv
        per_ap, per_ue, active = association.served_counts(res.A)
        psi = association.sparsity_psi(res.mask)
        obj = res.report.objective if res.report else float((res.S * res.prio * res.A).sum())
        print(f"{scheme}: psi={psi:.4f} objective={obj:.6g} active_aps={active} "
              f"max_ues_per_ap={int(per_ap.max())} max_aps_per_ue={int(per_ue.max())}")
    rep = report.build_report("associate", cfg, cfg.seed, tables)
    atomic_write(os.path.join(args.out, "associate_report.json"), rep.to_json())
    return EXIT_OK


def cmd_ser(args) -> int:
    cfg = _load_config(args)
    deployment = generate_deployment(cfg)
    schemes = _schemes(args)
    budget, geom = _deployment_state(deployment, cfg)
    assocs = _association_matrices(deployment, cfg, set(schemes) | {"sua"}, budget, geom)
    del geom
    sel = budget.gain_lin[np.asarray(assocs["sua"]) == 1]
    gain_ref = float(np.median(sel)) if sel.size else 1.0

    grid = parse_range(args.snr)
    constel = comm_perf.constellation(args.mod)
    by_scheme = {}
    for scheme in schemes:
        pts = comm_perf.ser_monte_carlo(
            deployment, cfg, assocs[scheme], constel, grid, args.symbols,
            cfg.seed, perfect_csi=args.perfect_csi, gain_ref=gain_ref, budget=budget)
        by_scheme[scheme] = {constel.name.lower(): pts}
    csv = comm_perf.ser_csv(by_scheme)
    for scheme in schemes:
        single = comm_perf.ser_csv({scheme: by_scheme[scheme]})
        atomic_write(os.path.join(args.out, f"ser_{scheme}.csv"), single)
    rep = report.build_report("ser", cfg, cfg.seed, {"ser": csv})
    atomic_write(os.path.join(args.out, "ser_report.json"), rep.to_json())
    print(f"ser: {len(grid)} SNR points x {len(schemes)} scheme(s), "
          f"{args.symbols} symbols/point -> {args.out}")
    return EXIT_OK


def cmd_pd(args) -> int:
    cfg = _load_config(args)
    if args.pfa is not None:
        cfg.p_fa = args.pfa
        cfg.validate()
    deployment = generate_deployment(cfg)
    schemes = _schemes(args)
    budget, geom = _deployment_state(deployment, cfg)
    assocs = _association_matrices(deployment, cfg, set(schemes) | {"sua"}, budget, geom)
    grid = parse_range(args.snr)
    # the grid is calibrated on SUA's aggregate SCNR, whichever schemes run
    scale_ref = None if schemes[0] == "sua" else sense_perf.pd_scale_ref(
        deployment, cfg, assocs["sua"], grid, budget, geom)
    all_points, _ = sense_perf.pd_monte_carlo(
        deployment, cfg, {s: assocs[s] for s in schemes}, grid, args.trials, cfg.seed,
        scale_ref=scale_ref, budget=budget, geom=geom)
    for scheme in schemes:
        atomic_write(os.path.join(args.out, f"pd_{scheme}.csv"),
                     sense_perf.pd_csv([p for p in all_points if p.scheme == scheme]))
    rep = report.build_report("pd", cfg, cfg.seed, {"pd": sense_perf.pd_csv(all_points)})
    atomic_write(os.path.join(args.out, "pd_report.json"), rep.to_json())
    print(f"pd: {len(grid)} SCNR points x {len(schemes)} scheme(s), "
          f"{args.trials} trials/point -> {args.out}")
    return EXIT_OK


def cmd_sweep_x(args) -> int:
    cfg = _load_config(args)
    deployment = generate_deployment(cfg)
    xs = [int(v) for v in parse_range(args.x_range)]
    points = net_metrics.x_sweep_gain(deployment, cfg, xs)
    knee = net_metrics.detect_knee(points)
    csv = net_metrics.gain_csv(points)
    atomic_write(os.path.join(args.out, "sweep-x_sua.csv"), csv)
    rep = report.build_report("sweep-x", cfg, cfg.seed, {"gain": csv})
    atomic_write(os.path.join(args.out, "sweep-x_report.json"), rep.to_json())
    print(f"sweep-x: knee at x={knee}")
    return EXIT_OK


def cmd_netmetrics(args) -> int:
    cfg = _load_config(args)
    deployment = generate_deployment(cfg)
    budget, geom = _deployment_state(deployment, cfg)
    assocs = _association_matrices(deployment, cfg, ("sua", "baseline"), budget, geom)
    model = net_metrics.EnergyModel()
    delays, energies, clutters = {}, {}, {}
    for scheme, A in assocs.items():
        delays[scheme] = net_metrics.transmission_delay(deployment, A)
        _, _, active = association.served_counts(A)
        energies[scheme] = (active, net_metrics.energy_total(A, model))
        clutters[scheme] = net_metrics.clutter_counts(deployment, cfg, A, geom, budget)
    tables = {
        "delay": net_metrics.delay_csv(delays),
        "energy": net_metrics.energy_csv(energies),
        "clutter": net_metrics.clutter_csv(clutters),
    }
    for name, csv in tables.items():
        atomic_write(os.path.join(args.out, f"netmetrics_{name}.csv"), csv)
    # wall-clock measurement: not reproducible run-to-run, kept out of the report
    rt = net_metrics.association_runtime(deployment, cfg, reps=args.reps,
                                         budget=budget, geom=geom)
    atomic_write(os.path.join(args.out, "netmetrics_runtime.csv"),
                 net_metrics.runtime_csv(rt))
    rep = report.build_report("netmetrics", cfg, cfg.seed, tables)
    atomic_write(os.path.join(args.out, "netmetrics_report.json"), rep.to_json())
    print(f"netmetrics: sua runtime {rt.sua_s * 1e3:.2f} ms vs baseline {rt.baseline_s * 1e3:.2f} ms "
          f"({(1 - rt.sua_s / rt.baseline_s) * 100:.1f}% faster)")
    return EXIT_OK


def cmd_report(args) -> int:
    cfg = _load_config(args)
    reports = []
    for name in sorted(os.listdir(args.out)):
        if name.endswith("_report.json") and name != "combined_report.json":
            with open(os.path.join(args.out, name), encoding="utf-8") as fh:
                reports.append(report.parse_report(fh.read()))
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
    atomic_write(os.path.join(args.out, "combined_report.json"), combined.to_json())
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
    p.add_argument("--snr", default="0:2:20", help="SNR grid a:step:b in dB")
    p.add_argument("--mod", choices=("bpsk", "qpsk"), default="qpsk")
    p.add_argument("--symbols", type=positive_int, default=100000)
    p.add_argument("--perfect-csi", action="store_true")
    p.set_defaults(func=cmd_ser)

    p = sub.add_parser("pd", help="probability of detection, formula and Monte-Carlo")
    common(p)
    p.add_argument("--snr", default="0:2.5:15", help="SCNR grid a:step:b in dB")
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
