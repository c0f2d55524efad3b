"""Acceptance gate: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion.
"""

import json
import math
import os
import time

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from cfmimo import association as assoc
from cfmimo import channel, cli, comm_perf, net_metrics, report, sense_perf
from cfmimo.scenario import SystemConfig, generate_deployment, save_scenario


def _report(name, ok, detail):
    print(f"\n[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def desk_config(**kw):
    base = dict(L=20, K=8, N=5, tau_p=5, tau_c=200, X=3, area_side_m=250.0, seed=7)
    base.update(kw)
    return SystemConfig(**base)


def test_c1_optimizer_exactness():
    """200 random small instances: flow objective equals the exhaustive optimum."""
    rng = np.random.default_rng(20250809)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        L = int(rng.integers(2, 7))
        K = int(rng.integers(1, 6))
        tau_p = int(rng.integers(1, 4))
        X = int(rng.integers(1, 3))
        M = (rng.random((L, K)) < rng.uniform(0.3, 1.0)).astype(np.int8)
        S = rng.random((L, K)) * 10 * M
        R = assoc.priorities(S)
        _, rep = assoc.optimize(S, R, M, tau_p, X)
        exact = assoc.enumeration_objective(S, R, M, tau_p, X)
        if rep.objective != exact:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 5.0
    _report("C1 optimizer-exactness", ok,
            f"{200 - mismatches}/200 exact matches, {elapsed:.2f}s < 5s")


def test_c2_integrality_feasibility():
    """1000 random instances: binary A, C1/C2/D3 in integer arithmetic."""
    rng = np.random.default_rng(99)
    bad = 0
    for _ in range(1000):
        L = int(rng.integers(2, 31))
        K = int(rng.integers(1, 16))
        tau_p = int(rng.integers(1, 11))
        X = int(rng.integers(1, 6))
        M = (rng.random((L, K)) < rng.uniform(0.2, 1.0)).astype(np.int8)
        S = rng.random((L, K)) * M
        R = assoc.priorities(S)
        A, rep = assoc.optimize(S, R, M, tau_p, X)
        # unit augmentations keep every edge flow integral by construction;
        # the returned matrix must be exactly binary and feasible
        if A.dtype.kind not in "iu" or not rep.integral:
            bad += 1
        elif not assoc.check_feasible(A, M, tau_p, X):
            bad += 1
    _report("C2 integrality-feasibility", bad == 0,
            f"{1000 - bad}/1000 instances binary and feasible, no fractional edge")


def test_c3_special_functions():
    def marcum_oracle(a, b):
        f = lambda z: z * math.exp(-(z - a) ** 2 / 2.0) * special.i0e(a * z)
        return integrate.quad(f, b, np.inf, limit=400)[0]

    grid = np.arange(0.0, 8.01, 0.25)
    worst_marcum = 0.0
    for a in grid:
        for b in grid:
            worst_marcum = max(worst_marcum,
                               abs(sense_perf.marcum_q1(float(a), float(b))
                                   - marcum_oracle(float(a), float(b))))

    mpmath.mp.dps = 30
    worst_i0 = 0.0
    for x in np.arange(0.0, 50.01, 0.5):
        ref = float(mpmath.besseli(0, float(x)))
        worst_i0 = max(worst_i0, abs(sense_perf.bessel_i0(float(x)) - ref) / ref)

    worst_pdf = 0.0
    for s2 in (0.5, 1.0, 3.0):
        val = integrate.quad(lambda z: sense_perf.rayleigh_pdf(z, s2), 0, np.inf)[0]
        worst_pdf = max(worst_pdf, abs(val - 1.0))
    for m, s2 in ((0.8, 1.0), (2.5, 0.5), (6.0, 2.0)):
        val = integrate.quad(lambda z: sense_perf.rician_pdf(z, m, s2), 0, np.inf,
                             limit=300)[0]
        worst_pdf = max(worst_pdf, abs(val - 1.0))

    ok = worst_marcum < 1e-8 and worst_i0 < 1e-12 and worst_pdf < 1e-9
    _report("C3 special-functions", ok,
            f"marcum |d|={worst_marcum:.2e} < 1e-8, I0 rel={worst_i0:.2e} < 1e-12, "
            f"pdf norm |d|={worst_pdf:.2e} < 1e-9")


def test_c4_detection_chain():
    t0 = time.perf_counter()
    fa_devs = []
    for pfa in (1e-1, 1e-2):
        rate = sense_perf.false_alarm_monte_carlo(pfa, 100000, 5)
        fa_devs.append(abs(rate - pfa) / pfa)
    fa_ok = all(d < 0.2 for d in fa_devs)

    worst_pd = 0.0
    for i, scnr_db in enumerate(np.arange(0.0, 15.1, 2.5)):
        scnr = 10 ** (scnr_db / 10)
        mc = sense_perf.pd_chain_monte_carlo(scnr, 1e-2, 100000, 5, stream_tag=i)
        worst_pd = max(worst_pd, abs(mc - sense_perf.pd_single(scnr, 1e-2)))

    identity_dev = abs(sense_perf.pd_single(0.0, 1e-2) - 1e-2)

    cfg = desk_config()
    dep = generate_deployment(cfg)
    sua = assoc.run_sua(dep, cfg)
    base = assoc.run_baseline(dep, cfg)
    grid = np.arange(0.0, 15.1, 2.5)
    pts, _ = sense_perf.pd_monte_carlo(dep, cfg, {"sua": sua.A, "baseline": base.A}, grid,
                                       100000, cfg.seed)
    mc_s = {(p.ue, p.scnr_db): p.pd_mc for p in pts if p.scheme == "sua"}
    mc_b = {(p.ue, p.scnr_db): p.pd_mc for p in pts if p.scheme == "baseline"}
    ordering = all(mc_s[key] >= mc_b[key] for key in mc_s)

    elapsed = time.perf_counter() - t0
    ok = fa_ok and worst_pd < 2e-2 and identity_dev < 1e-12 and ordering and elapsed < 300
    _report("C4 detection-chain", ok,
            f"FA rel dev max={max(fa_devs):.3f} < 0.2, |Pd_mc-formula| max={worst_pd:.4f} "
            f"< 2e-2, Pd(0)-P_FA={identity_dev:.1e} < 1e-12, SUA>=baseline pointwise="
            f"{ordering}, {elapsed:.0f}s < 300s")


def test_c5_symbol_error_rate():
    t0 = time.perf_counter()

    # (a) single-link perfect-CSI BPSK against the textbook AWGN tail
    awgn_ok = True
    for p in comm_perf.ser_awgn_mc(comm_perf.BPSK, np.arange(0, 9, 2.0), 100000, 99):
        snr = 10 ** (p.snr_db / 10)
        theory = comm_perf.q_exact(math.sqrt(2 * snr))
        se = math.sqrt(theory * (1 - theory) / p.mc_symbols)
        awgn_ok &= abs(p.ser_mc - theory) <= 3 * se

    # (b) + (c) desk scale: closed form against simulation on a noise-limited
    # grid (the noise-only closed form cannot follow the Monte-Carlo's
    # interference floor at high SNR), and the scheme ordering
    cfg = desk_config()
    dep = generate_deployment(cfg)
    sua = assoc.run_sua(dep, cfg)
    base = assoc.run_baseline(dep, cfg)
    budget = channel.link_budget(dep, cfg)
    gain_ref = float(np.median(budget.gain_lin[sua.A == 1]))
    grid = np.arange(-16.0, -5.0, 2.0)
    worst_ld = 0.0
    order_ok = True
    for constel in (comm_perf.QPSK, comm_perf.BPSK):
        pts_s = comm_perf.ser_monte_carlo(dep, cfg, sua.A, constel, grid, 50000,
                                          cfg.seed, gain_ref=gain_ref)
        pts_b = comm_perf.ser_monte_carlo(dep, cfg, base.A, constel, grid, 50000,
                                          cfg.seed, gain_ref=gain_ref)
        order_ok &= all(a.ser_mc <= b.ser_mc for a, b in zip(pts_s, pts_b))
        if constel is comm_perf.QPSK:
            for p in pts_s:
                if p.ser_mc >= 1e-3:
                    worst_ld = max(worst_ld, abs(math.log10(p.ser_theory)
                                                 - math.log10(p.ser_mc)))

    # (d) closed form orders the modulations at equal per-symbol SNR
    mod_ok = True
    alphas = comm_perf.effective_alpha(1.0, cfg.tau_p, np.array([1.0, 0.6, 0.3]),
                                       0.5, cfg.X)
    for sigma2 in (2.0, 0.5, 0.05):
        c2 = comm_perf.residual_error_power(sigma2, cfg.K, cfg.tau_p, cfg.X)
        mod_ok &= (comm_perf.ser_theory(comm_perf.BPSK, alphas, sigma2, c2, cfg.N)
                   <= comm_perf.ser_theory(comm_perf.QPSK, alphas, sigma2, c2, cfg.N))

    elapsed = time.perf_counter() - t0
    ok = awgn_ok and worst_ld <= 0.5 and order_ok and mod_ok and elapsed < 600
    _report("C5 symbol-error-rate", ok,
            f"AWGN-vs-Q={awgn_ok}, |log10 theory-mc| max={worst_ld:.3f} <= 0.5, "
            f"SUA<=baseline={order_ok}, BPSK<=QPSK={mod_ok}, {elapsed:.0f}s < 600s")


def test_c6_decision_metric_statistics():
    rng = np.random.default_rng(11)
    n_dim = 5
    h_hat = (rng.standard_normal(n_dim) + 1j * rng.standard_normal(n_dim)) / math.sqrt(2)
    covs, powers = [], []
    for k in range(3):
        Z = (rng.standard_normal((n_dim, n_dim)) + 1j * rng.standard_normal((n_dim, n_dim)))
        covs.append(0.3 * (Z @ Z.conj().T) / n_dim)
        powers.append(0.5 + 0.3 * k)
    params = comm_perf.DecisionMetricParams(h_hat=h_hat, delta=2.0, sigma2=0.8,
                                            powers=tuple(powers), error_covs=tuple(covs))
    stats = comm_perf.decision_metric_stats(1_000_000, params, np.random.default_rng(123))
    se = math.sqrt(stats.variance / stats.n_trials)
    mean_ok = abs(stats.mean) <= 4 * se
    var_rel = abs(stats.variance - stats.predicted_variance) / stats.predicted_variance
    ok = mean_ok and var_rel < 0.02
    _report("C6 decision-metric-statistics", ok,
            f"|mean|={abs(stats.mean):.5f} <= 4se={4 * se:.5f}, var rel dev="
            f"{var_rel:.4f} < 0.02 at 1e6 trials")


def test_c7_network_orderings():
    t0 = time.perf_counter()
    cfg = SystemConfig()  # the full-scale setting: L=100, K=30, X=5
    dep = generate_deployment(cfg)
    budget = channel.link_budget(dep, cfg)
    geom = channel.clutter_geometry(dep, cfg.pathloss)
    sua = assoc.run_sua(dep, cfg, budget, geom)
    base = assoc.run_baseline(dep, cfg, budget, geom)

    d_s = float(np.mean(net_metrics.transmission_delay(dep, sua.A)))
    d_b = float(np.mean(net_metrics.transmission_delay(dep, base.A)))
    model = net_metrics.EnergyModel()
    e_s = net_metrics.energy_total(sua.A, model)
    e_b = net_metrics.energy_total(base.A, model)
    c_s = net_metrics.clutter_counts(dep, cfg, sua.A, geom, budget).mean
    c_b = net_metrics.clutter_counts(dep, cfg, base.A, geom, budget).mean
    rt = net_metrics.association_runtime(dep, cfg, reps=20)

    elapsed = time.perf_counter() - t0
    ok = (d_s < d_b and e_s < e_b and c_s < c_b and rt.sua_s < rt.baseline_s
          and elapsed < 120)
    _report("C7 network-orderings", ok,
            f"delay {d_s * 1e9:.0f}/{d_b * 1e9:.0f} ns, energy {e_s:.3f}/{e_b:.3f} J, "
            f"clutter {c_s:.1f}/{c_b:.1f}, runtime {rt.sua_s * 1e3:.1f}/"
            f"{rt.baseline_s * 1e3:.1f} ms (ratio {rt.sua_s / rt.baseline_s:.2f}), "
            f"{elapsed:.0f}s < 120s")


def test_c8_x_sweep_knee():
    cfg = SystemConfig()
    dep = generate_deployment(cfg)
    pts = net_metrics.x_sweep_gain(dep, cfg, range(1, 11))
    knee = net_metrics.detect_knee(pts)
    marg = [b.real_gain_db - a.real_gain_db for a, b in zip(pts, pts[1:])]
    tail = marg[knee - 1:]
    nonincreasing = all(m2 <= m1 + 1e-12 for m1, m2 in zip(tail, tail[1:]))
    ideal_exact = all(p.ideal_gain_db == pytest.approx(10 * math.log10(p.x), abs=1e-12)
                      for p in pts)
    ok = nonincreasing and 3 <= knee <= 7 and ideal_exact
    _report("C8 x-sweep-knee", ok,
            f"knee={knee} in [3,7], marginals nonincreasing beyond={nonincreasing}, "
            f"ideal=10log10(x) exact={ideal_exact}")


def test_c9_determinism(tmp_path):
    cfg = SystemConfig(L=12, K=5, N=2, tau_p=3, tau_c=40, X=2, area_side_m=150.0,
                       clutter_density_per_km2=400.0, seed=3)
    scenario = str(tmp_path / "scenario.json")
    save_scenario(cfg, scenario)

    def run(out):
        assert cli.main(["associate", "--scenario", scenario, "--out", out]) == 0
        assert cli.main(["ser", "--scenario", scenario, "--out", out,
                         "--snr", "0:5:5", "--mod", "qpsk", "--symbols", "2000"]) == 0
        assert cli.main(["pd", "--scenario", scenario, "--out", out,
                         "--snr", "0:5:10", "--trials", "2000"]) == 0
        assert cli.main(["sweep-x", "--scenario", scenario, "--out", out,
                         "--x-range", "1:6"]) == 0
        assert cli.main(["report", "--scenario", scenario, "--out", out]) == 0

    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    run(out1)
    run(out2)
    names = sorted(os.listdir(out1))
    identical = names == sorted(os.listdir(out2))
    diffs = []
    for name in names:
        with open(os.path.join(out1, name), "rb") as f1, \
             open(os.path.join(out2, name), "rb") as f2:
            if f1.read() != f2.read():
                diffs.append(name)
                identical = False
    d1, d2 = (json.loads((tmp_path / out / "combined_report.json").read_text())["digest"]
              for out in ("r1", "r2"))
    ok = identical and d1 == d2
    _report("C9 determinism", ok,
            f"{len(names)} files byte-identical across reruns"
            + (f", diffs={diffs}" if diffs else "") + f", digest match={d1 == d2}")
