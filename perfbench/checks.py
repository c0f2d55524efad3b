"""Output checks.  Each returns a list of (name, ok, detail); every entry is one
operation in the run's failure count.

The rules avoid anything an RNG-stream change may move: Monte-Carlo results
are checked against binomial tolerances or for internal consistency, never for
equality with a recorded value.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

Z95 = 1.959963984540054
PD_SIGMAS = 5.0          # Pd Monte-Carlo vs closed form, in binomial sigmas
LP_REL_TOL = 1e-9        # CLI objective vs the HiGHS LP optimum


def _rows(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:] if line]


class Association:
    """An association CSV as (L, K) arrays."""

    def __init__(self, path: str, L: int, K: int):
        header, rows = _rows(path)
        if header != ["ap_id", "ue_id", "s_lk", "r_lk", "a_lk", "masked"]:
            raise ValueError(f"unexpected header {header}")
        if len(rows) != L * K:
            raise ValueError(f"{len(rows)} rows, expected L*K={L * K}")
        self.s = np.zeros((L, K))
        self.r = np.zeros((L, K))
        self.a = np.zeros((L, K), dtype=np.int64)
        self.masked = np.zeros((L, K), dtype=np.int64)
        seen = np.zeros((L, K), dtype=bool)
        for ap, ue, s, r, a, masked in rows:
            l, k = int(ap), int(ue)
            seen[l, k] = True
            self.s[l, k], self.r[l, k] = float(s), float(r)
            self.a[l, k], self.masked[l, k] = int(a), int(masked)
        if not seen.all():
            raise ValueError("some (AP, UE) links are missing")

    @property
    def unmasked(self) -> np.ndarray:
        return (self.masked == 0).astype(np.int8)

    def weights(self) -> np.ndarray:
        w = self.s * self.r
        w[self.masked == 1] = 0.0
        return w


def _guard(name, fn):
    """Run one check; an exception or a false result is a failed operation."""
    try:
        ok, detail = fn()
    except Exception as e:  # noqa: BLE001 - a malformed output is a failed check
        return [(name, False, f"{type(e).__name__}: {e}")]
    return [(name, bool(ok), detail)]


def lp_optimum(w: np.ndarray, tau_p: int, X: int) -> float:
    """Max-weight b-matching as an LP: a bipartite incidence matrix is totally
    unimodular, so the LP optimum equals the integer optimum."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    L, K = w.shape
    ls, ks = np.nonzero(w > 0)
    n = ls.size
    if n == 0:
        return 0.0
    rows = np.concatenate([ls, L + ks])
    cols = np.concatenate([np.arange(n), np.arange(n)])
    a_ub = coo_matrix((np.ones(2 * n), (rows, cols)), shape=(L + K, n)).tocsr()
    b_ub = np.concatenate([np.full(L, tau_p), np.full(K, X)])
    res = linprog(-w[ls, ks], A_ub=a_ub, b_ub=b_ub, bounds=(0, 1), method="highs")
    if res.status != 0:
        raise RuntimeError(f"linprog failed: {res.message}")
    return -float(res.fun)


def check_associate(out: str, cfg, schemes) -> list:
    from cfmimo.association import check_feasible

    L, K = cfg.L, cfg.K
    results = []
    tables = {}

    def parse(scheme):
        tables[scheme] = Association(os.path.join(out, f"associate_{scheme}.csv"), L, K)
        return True, f"{L * K} rows"

    for scheme in schemes:
        results += _guard(f"associate_{scheme}.csv parses", lambda s=scheme: parse(s))
    if "sua" in tables:
        sua = tables["sua"]
        results += _guard("sua association feasible", lambda: (
            check_feasible(sua.a, sua.unmasked, cfg.tau_p, cfg.X),
            f"tau_p={cfg.tau_p} X={cfg.X}"))

        def exact():
            w = sua.weights()
            got = math.fsum(w[sua.a == 1])
            best = lp_optimum(w, cfg.tau_p, cfg.X)
            rel = abs(got - best) / max(abs(best), 1e-300)
            return rel <= LP_REL_TOL, f"objective {got!r} vs LP {best!r} (rel {rel:.2e})"
        results += _guard("sua objective equals LP optimum", exact)
    if "baseline" in tables:
        base = tables["baseline"]
        results += _guard("baseline serves every link", lambda: (
            bool((base.a == 1).all() and (base.masked == 0).all()), ""))
    if "sua" in tables and "baseline" in tables:
        sua, base = tables["sua"], tables["baseline"]
        results += _guard("sua unmasked s_lk equals baseline", lambda: (
            bool(np.array_equal(sua.s[sua.masked == 0], base.s[sua.masked == 0])),
            f"{int((sua.masked == 0).sum())} unmasked links"))
    return results


def wilson_halfwidth(errors: float, n: int) -> float:
    p = errors / n
    denom = 1.0 + Z95 * Z95 / n
    return Z95 * math.sqrt(p * (1.0 - p) / n + Z95 * Z95 / (4.0 * n * n)) / denom


def check_ser(out: str, params, n_eval_ues: int) -> list:
    from cfmimo.cli import parse_range

    grid = parse_range(params["ser_snr"])
    n_sym = params["ser_symbols"]
    n_tot = n_sym * n_eval_ues

    def one(scheme):
        header, rows = _rows(os.path.join(out, f"ser_{scheme}.csv"))
        col = {name: i for i, name in enumerate(header)}
        if len(rows) != len(grid):
            return False, f"{len(rows)} rows for {len(grid)} SNR points"
        for row, snr in zip(rows, grid):
            if row[col["scheme"]] != scheme or not math.isclose(float(row[col["snr_db"]]), snr):
                return False, f"row {row} out of place"
            if int(row[col["n_symbols"]]) != n_sym:
                return False, f"n_symbols {row[col['n_symbols']]} != {n_sym}"
            ser, ci = float(row[col["ser_mc"]]), float(row[col["ci95"]])
            theory = float(row[col["ser_theory"]])
            errors = ser * n_tot
            if not (0.0 <= ser <= 1.0 and 0.0 <= theory <= 1.0):
                return False, f"SER out of [0, 1] at {snr} dB"
            if abs(errors - round(errors)) > 1e-6 * n_tot:
                return False, f"ser_mc*{n_tot} = {errors} is not a count"
            want = wilson_halfwidth(round(errors), n_tot)
            if not math.isclose(ci, want, rel_tol=1e-9, abs_tol=1e-15):
                return False, f"ci95 {ci!r} != Wilson {want!r} at n={n_tot}"
        return True, f"{len(rows)} points, n={n_tot}"

    return [r for scheme in ("sua", "baseline")
            for r in _guard(f"ser_{scheme}.csv complete, ci95 consistent", lambda s=scheme: one(s))]


def check_pd(out: str, cfg, params, n_sensing_ues: int) -> list:
    from cfmimo.cli import parse_range

    grid = parse_range(params["pd_snr"])
    n = params["pd_trials"]

    def one(scheme):
        header, rows = _rows(os.path.join(out, f"pd_{scheme}.csv"))
        col = {name: i for i, name in enumerate(header)}
        if len(rows) != (n_sensing_ues + 1) * len(grid):
            return False, f"{len(rows)} rows, expected {(n_sensing_ues + 1) * len(grid)}"
        worst = 0.0
        ues = set()
        for row in rows:
            if int(row[col["n_trials"]]) != n or float(row[col["p_fa"]]) != cfg.p_fa:
                return False, f"row {row} has wrong n_trials or p_fa"
            if row[col["ue_id"]] != "aggregate":
                ues.add(row[col["ue_id"]])
            p, mc = float(row[col["pd_formula"]]), float(row[col["pd_mc"]])
            # binomial sigma of the Monte-Carlo rate, floored at one trial
            sigma = math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)
            worst = max(worst, abs(mc - p) / sigma)
        if len(ues) != n_sensing_ues:
            return False, f"{len(ues)} UEs, expected {n_sensing_ues}"
        return worst <= PD_SIGMAS, f"max |pd_mc - pd_formula| = {worst:.2f} sigma"

    return [r for scheme in ("sua", "baseline")
            for r in _guard(f"pd_{scheme}.csv within binomial tolerance", lambda s=scheme: one(s))]


def check_sweep(out: str, params) -> list:
    from cfmimo.cli import parse_range

    xs = [int(x) for x in parse_range(params["x_range"])]

    def run():
        header, rows = _rows(os.path.join(out, "sweep-x_sua.csv"))
        got = [int(r[0]) for r in rows]
        finite = all(math.isfinite(float(v)) for r in rows for v in r[1:])
        return got == xs and finite, f"x = {got}"
    return _guard("sweep-x table complete", run)


def check_netmetrics(out: str, cfg) -> list:
    def run():
        for name, min_rows in (("delay", 2 * cfg.K), ("energy", 2), ("clutter", 1), ("runtime", 2)):
            _, rows = _rows(os.path.join(out, f"netmetrics_{name}.csv"))
            if len(rows) < min_rows:
                return False, f"netmetrics_{name}.csv has {len(rows)} rows"
        _, rows = _rows(os.path.join(out, "netmetrics_clutter.csv"))
        if any(int(r[3]) < 0 for r in rows):
            return False, "negative clutter count"
        return True, ""
    return _guard("netmetrics tables present", run)


def check_report(out: str, cfg, seed: int, name: str, experiments) -> list:
    from cfmimo.report import config_digest

    def run():
        with open(os.path.join(out, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["experiment"] == "combined":
            got = {table.split(".")[0] for table in doc["tables"]}
        else:
            got = {doc["experiment"]}
        ok = doc["digest"] == config_digest(cfg, seed) and got == set(experiments)
        return ok, f"digest {doc['digest'][:12]}, experiments {sorted(got)}"
    return _guard(f"{name} digest and tables", run)


def check_outputs(out: str, cfg, seed: int, params) -> list:
    """All checks of one repetition's output directory."""
    from cfmimo.scenario import service_counts

    n_com, n_sense, n_jcas = service_counts(cfg.K, cfg.service_mix)
    seq = params["sequence"]
    results = []
    if "associate" in seq:
        schemes = ("sua", "baseline") if params["scheme"] == "both" else (params["scheme"],)
        results += check_associate(out, cfg, schemes)
        results += check_report(out, cfg, seed, "associate_report.json", ["associate"])
    if "ser" in seq:
        results += check_ser(out, params, n_com + n_jcas)
    if "pd" in seq:
        results += check_pd(out, cfg, params, n_sense + n_jcas)
    if "sweep-x" in seq:
        results += check_sweep(out, params)
    if "netmetrics" in seq:
        results += check_netmetrics(out, cfg)
    if "report" in seq:
        experiments = [c for c in seq if c != "report"]
        results += check_report(out, cfg, seed, "combined_report.json", experiments)
    return results
