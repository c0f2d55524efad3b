"""Network-level figures: delay, energy, runtime, clutter counts, X-sweep gain."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from cfmimo import association, channel, report
from cfmimo.scenario import Deployment, SystemConfig, ValidationError, median


# slot energy model: a static cost per active AP plus a cost per served UE
P_STATIC_W = 2.0
P_PER_LINK_W = 0.2
T_SLOT_S = 1e-3


def transmission_delay(budget: channel.LinkBudget, A) -> np.ndarray:
    """Mean propagation delay (s) over each UE's serving links, from the link
    budget's AP-UE distances (floored at the path-loss reference d0)."""
    ue, ap = association.serving_links(A, np.arange(budget.distance_m.shape[1]))
    return np.bincount(ue, budget.distance_m[ap, ue]) / np.bincount(ue) / channel.SPEED_OF_LIGHT


def energy_total(A) -> float:
    """Slot energy: active APs pay the static cost plus a per-served-UE cost."""
    per_ap = np.asarray(A).sum(axis=1)
    active = per_ap >= 1
    power = float(np.count_nonzero(active)) * P_STATIC_W \
        + float(per_ap[active].sum()) * P_PER_LINK_W
    return power * T_SLOT_S


@dataclass
class ClutterReport:
    ap: np.ndarray         # AP, UE and lobe scatterer count of each selected
    ue: np.ndarray         # link, APs in order and each AP's UEs in order
    count: np.ndarray
    mean: float


def clutter_counts(deployment: Deployment, config: SystemConfig, A,
                   geom: channel.ClutterGeometry, budget: channel.LinkBudget) -> ClutterReport:
    """Lobe scatterer counts for every selected link (same rule as clutter power)."""
    l_idx, k_idx = np.nonzero(np.asarray(A) == 1)
    _, counts = channel.clutter_returns(geom, deployment, config, l_idx, k_idx,
                                        budget.distance_m[l_idx, k_idx])
    return ClutterReport(l_idx, k_idx, counts, float(counts.mean()) if counts.size else 0.0)


@dataclass
class RuntimeResult:
    sua_s: float
    baseline_s: float
    reps: int


def association_runtime(deployment: Deployment, config: SystemConfig,
                        budget: channel.LinkBudget, geom: channel.ClutterGeometry,
                        reps: int) -> RuntimeResult:
    """Median wall-clock of `association.run_sua` against `association.run_baseline`.

    Both schemes share the given link budget and clutter geometry, so the
    timed region covers each scheme's per-link metric evaluation, dense
    clutter rows included, and its own logic (mask -> metrics -> priorities
    -> optimize for SUA; all-link metrics, priorities and the all-ones
    matrix for the baseline).
    """
    runs = (association.run_sua, association.run_baseline)
    samples = ([], [])
    for _ in range(reps):
        for run, times in zip(runs, samples):
            t0 = time.perf_counter()
            run(deployment, config, budget, geom)
            times.append(time.perf_counter() - t0)
    sua_s, baseline_s = (median(times) for times in samples)
    return RuntimeResult(sua_s, baseline_s, reps)


@dataclass
class GainPoint:
    x: int
    ideal_gain_db: float
    real_gain_db: float


# Residual leakage per co-scheduled UE after joint processing, relative to the
# noise floor of one combined branch.  Raw co-channel powers at these ranges sit
# 30+ dB above noise, so only a post-processing residual produces a gradual
# deviation from the ideal combining curve; 0.7 puts the knee of the default
# (L=100, K=30) setting at x=5.
RESIDUAL_LEAKAGE = 0.7


def x_sweep_gain(L: int, K: int, x_range) -> list[GainPoint]:
    """Processing gain versus the per-UE AP budget x, for L APs and K UEs.

    Ideal gain is coherent combining of x equal-quality links, 10 log10(x).
    Real gain applies the same combining to x equal-quality branches whose
    noise floors carry residual inter-link interference from co-scheduled
    associations; the expected co-scheduling load per branch is x (K-1) / L,
    so combined SINR grows like x / (1 + RESIDUAL_LEAKAGE * load(x)),
    normalized to x = 1.
    """
    xs = sorted(int(x) for x in x_range)
    if xs[0] < 1 or xs[-1] > L - 1:
        raise ValidationError(f"x range {xs[0]}:{xs[-1]} must lie within [1, L-1] = "
                              f"[1, {L - 1}]")
    load_rate = (K - 1) / L
    points = []
    base = 1.0 / (1.0 + RESIDUAL_LEAKAGE * load_rate)
    for x in xs:
        sinr = x / (1.0 + RESIDUAL_LEAKAGE * load_rate * x)
        points.append(GainPoint(x, 10.0 * math.log10(x),
                                10.0 * math.log10(sinr / base)))
    return points


def detect_knee(points: list[GainPoint]) -> int:
    """First x whose marginal real gain drops below half the ideal marginal."""
    for a, b in zip(points, points[1:]):
        ideal_marg = b.ideal_gain_db - a.ideal_gain_db
        if (b.real_gain_db - a.real_gain_db) < 0.5 * ideal_marg:
            return a.x
    return points[-1].x


# --- CSV payloads ---------------------------------------------------------------

def delay_csv(rows: dict[str, np.ndarray]) -> str:
    return report.csv_table("scheme,ue_id,mean_delay_s",
                            ((scheme, k, v) for scheme in sorted(rows)
                             for k, v in enumerate(rows[scheme])))


def energy_csv(rows: dict[str, tuple[int, float]]) -> str:
    return report.csv_table("scheme,active_aps,energy_j",
                            ((scheme, *rows[scheme]) for scheme in sorted(rows)))


def clutter_csv(reports: dict[str, ClutterReport]) -> str:
    lines = ["scheme,ap_id,ue_id,count"]
    for scheme in sorted(reports):
        rep = reports[scheme]
        lines += (f"{scheme},{l},{k},{c}"
                  for l, k, c in zip(rep.ap.tolist(), rep.ue.tolist(), rep.count.tolist()))
    return "\n".join(lines) + "\n"


def runtime_csv(result: RuntimeResult) -> str:
    return report.csv_table("scheme,median_s,reps", [("sua", result.sua_s, result.reps),
                                                     ("baseline", result.baseline_s, result.reps)])


def gain_csv(points: list[GainPoint]) -> str:
    return report.csv_table("x,ideal_gain_db,real_gain_db",
                            ((p.x, p.ideal_gain_db, p.real_gain_db) for p in points))
