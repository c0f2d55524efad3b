"""Network-level figures: delay, energy, runtime, clutter counts, X-sweep gain."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from cfmimo import association, channel
from cfmimo.scenario import Deployment, InfeasibleModelError, SystemConfig, ValidationError


@dataclass
class EnergyModel:
    p_static_w: float = 2.0     # per active AP
    p_per_link_w: float = 0.2   # per served UE at an AP
    t_slot_s: float = 1e-3

    def validate(self):
        if self.p_static_w < 0 or self.p_per_link_w < 0 or self.t_slot_s < 0:
            raise ValueError("energy model parameters must be >= 0")


def transmission_delay(deployment: Deployment, A) -> np.ndarray:
    """Mean propagation delay (s) over each UE's serving links."""
    A = np.asarray(A)
    diff = deployment.ap_pos[:, None, :] - deployment.ue_pos[None, :, :]
    d = np.linalg.norm(diff, axis=2)
    out = np.empty(deployment.K)
    for k in range(deployment.K):
        rows = np.flatnonzero(A[:, k] == 1)
        if rows.size == 0:
            raise InfeasibleModelError(f"UE {k} has an empty serving set")
        out[k] = float(np.mean(d[rows, k])) / channel.SPEED_OF_LIGHT
    return out


def energy_total(A, model: EnergyModel) -> float:
    """Slot energy: active APs pay the static cost plus a per-served-UE cost."""
    model.validate()
    A = np.asarray(A)
    per_ap = A.sum(axis=1)
    active = per_ap >= 1
    power = float(np.count_nonzero(active)) * model.p_static_w \
        + float(per_ap[active].sum()) * model.p_per_link_w
    return power * model.t_slot_s


@dataclass
class ClutterReport:
    links: list            # (ap_id, ue_id, count) over selected links
    mean: float


def clutter_counts(deployment: Deployment, config: SystemConfig, A,
                   geom: channel.ClutterGeometry | None = None,
                   budget: channel.LinkBudget | None = None) -> ClutterReport:
    """Lobe scatterer counts for every selected link (same rule as clutter power)."""
    A = np.asarray(A)
    if geom is None:
        geom = channel.clutter_geometry(deployment, config.pathloss)
    if budget is None:
        budget = channel.link_budget(deployment, config)
    l_idx, k_idx = np.nonzero(A == 1)
    _, counts = channel.clutter_returns(geom, deployment, config, l_idx, k_idx,
                                        budget.distance_m[l_idx, k_idx])
    links = list(zip(l_idx.tolist(), k_idx.tolist(), counts.tolist()))
    return ClutterReport(links, float(counts.mean()) if counts.size else 0.0)


@dataclass
class RuntimeResult:
    sua_s: float
    baseline_s: float
    reps: int


def association_runtime(deployment: Deployment, config: SystemConfig,
                        reps: int = 20, budget: channel.LinkBudget | None = None,
                        geom: channel.ClutterGeometry | None = None) -> RuntimeResult:
    """Median wall-clock of `association.run_sua` against `association.run_baseline`.

    Both schemes share one link budget and clutter geometry, built here unless
    passed, so the timed region covers each scheme's per-link metric
    evaluation and its own logic (mask -> metrics -> priorities -> optimize
    for SUA; all-link metrics, priorities and the all-ones matrix for the
    baseline). Each scheme runs once untimed first.
    """
    if budget is None:
        budget = channel.link_budget(deployment, config)
    if geom is None:
        geom = channel.clutter_geometry(deployment, config.pathloss)
    runs = (association.run_sua, association.run_baseline)
    for run in runs:
        run(deployment, config, budget, geom)
    samples = ([], [])
    for _ in range(reps):
        for run, times in zip(runs, samples):
            t0 = time.perf_counter()
            run(deployment, config, budget, geom)
            times.append(time.perf_counter() - t0)
    sua_s, baseline_s = (float(np.median(times)) for times in samples)
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


def x_sweep_gain(deployment: Deployment, config: SystemConfig, x_range) -> list[GainPoint]:
    """Processing gain versus the per-UE AP budget.

    Ideal gain is coherent combining of x equal-quality links, 10 log10(x).
    Real gain applies the same combining to x equal-quality branches whose
    noise floors carry residual inter-link interference from co-scheduled
    associations; the expected co-scheduling load per branch is x (K-1) / L,
    so combined SINR grows like x / (1 + RESIDUAL_LEAKAGE * load(x)),
    normalized to x = 1.
    """
    xs = sorted(int(x) for x in x_range)
    if xs[0] < 1 or xs[-1] > deployment.L - 1:
        raise ValidationError(f"x range {xs[0]}:{xs[-1]} must lie within [1, L-1] = "
                              f"[1, {deployment.L - 1}]")
    load_rate = (deployment.K - 1) / deployment.L
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
    lines = ["scheme,ue_id,mean_delay_s"]
    for scheme in sorted(rows):
        for k, v in enumerate(rows[scheme]):
            lines.append(f"{scheme},{k},{repr(float(v))}")
    return "\n".join(lines) + "\n"


def energy_csv(rows: dict[str, tuple[int, float]]) -> str:
    lines = ["scheme,active_aps,energy_j"]
    for scheme in sorted(rows):
        active, energy = rows[scheme]
        lines.append(f"{scheme},{active},{repr(float(energy))}")
    return "\n".join(lines) + "\n"


def clutter_csv(reports: dict[str, ClutterReport]) -> str:
    lines = ["scheme,ap_id,ue_id,count"]
    for scheme in sorted(reports):
        for l, k, c in reports[scheme].links:
            lines.append(f"{scheme},{l},{k},{c}")
    return "\n".join(lines) + "\n"


def runtime_csv(result: RuntimeResult) -> str:
    lines = ["scheme,median_s,reps"]
    lines.append(f"sua,{repr(result.sua_s)},{result.reps}")
    lines.append(f"baseline,{repr(result.baseline_s)},{result.reps}")
    return "\n".join(lines) + "\n"


def gain_csv(points: list[GainPoint]) -> str:
    lines = ["x,ideal_gain_db,real_gain_db"]
    for p in points:
        lines.append(f"{p.x},{repr(float(p.ideal_gain_db))},{repr(float(p.real_gain_db))}")
    return "\n".join(lines) + "\n"
