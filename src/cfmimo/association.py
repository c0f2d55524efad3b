"""SUA pipeline: masking, link quality, priorities, exact association optimizer."""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from cfmimo import channel
from cfmimo.scenario import Deployment, ServiceType, SystemConfig


def mask_links(p_r_dbm: np.ndarray, threshold_dbm: float) -> np.ndarray:
    """Binary mask M_lk = 1 iff received power >= threshold (inclusive)."""
    return (np.asarray(p_r_dbm, dtype=float) >= threshold_dbm).astype(np.int8)


def mask(deployment: Deployment, config: SystemConfig,
         budget: channel.LinkBudget | None = None):
    """AP masking after initial access.

    Returns the L x K mask and the RSSI matrix whose columns are the per-UE
    initial-access measurement vectors.
    """
    if budget is None:
        budget = channel.link_budget(deployment, config)
    return mask_links(budget.p_r_dbm, config.p_threshold_dbm), budget.rssi_dbm


KIND_MASKED = 0
KIND_SNR = 1
KIND_SCNR = 2
KIND_JOINT = 3


@dataclass
class LinkQuality:
    S: np.ndarray              # (L, K) linear link-quality metric, 0 where masked
    kind: np.ndarray           # (L, K) metric tag per cell
    clutter_w: np.ndarray      # (L, K) clutter power, NaN where not evaluated
    clutter_count: np.ndarray  # (L, K) lobe scatterer count, -1 where not evaluated


def link_quality(deployment: Deployment, config: SystemConfig,
                 budget: channel.LinkBudget, mask_m: np.ndarray | None,
                 geom: channel.ClutterGeometry | None = None) -> LinkQuality:
    """SNR / SCNR / weighted-joint metric per link, in linear scale.

    With a mask given, clutter is evaluated only on unmasked cells (the
    sparsity that drives the pipeline's complexity advantage); mask_m=None
    evaluates every cell, which is what the all-to-all baseline must do.
    """
    L, K = budget.p_r_dbm.shape
    evaluate = np.ones((L, K), dtype=bool) if mask_m is None else (np.asarray(mask_m) == 1)
    if geom is None:
        geom = channel.clutter_geometry(deployment, config.pathloss)

    n0 = config.noise_power_w()
    p_r_w = channel.dbm_to_watts(budget.p_r_dbm)
    snr = p_r_w / n0

    S = np.zeros((L, K))
    kind = np.full((L, K), KIND_MASKED, dtype=np.int8)
    clut_w = np.full((L, K), np.nan)
    clut_n = np.full((L, K), -1, dtype=int)

    svc = np.asarray(deployment.ue_service)[None, :]
    com = evaluate & (svc == ServiceType.COM)
    S[com] = snr[com]
    kind[com] = KIND_SNR
    l_idx, k_idx = np.nonzero(evaluate & (svc != ServiceType.COM))
    pc, cnt = channel.clutter_returns(geom, deployment, config, l_idx, k_idx,
                                      budget.distance_m[l_idx, k_idx])
    clut_w[l_idx, k_idx] = pc
    clut_n[l_idx, k_idx] = cnt
    scnr = p_r_w[l_idx, k_idx] / (pc + n0)
    sense = svc[0, k_idx] == ServiceType.SENSE
    S[l_idx, k_idx] = np.where(sense, scnr, config.w_c * snr[l_idx, k_idx] + config.w_s * scnr)
    kind[l_idx, k_idx] = np.where(sense, KIND_SCNR, KIND_JOINT)
    return LinkQuality(S=S, kind=kind, clutter_w=clut_w, clutter_count=clut_n)


def priorities(S: np.ndarray) -> np.ndarray:
    """Row-normalized priorities; all-zero rows stay all-zero."""
    S = np.asarray(S, dtype=float)
    if np.any(S < 0):
        raise ValueError("link-quality matrix must be nonnegative")
    row_sums = S.sum(axis=1, keepdims=True)
    out = np.zeros_like(S)
    np.divide(S, row_sums, out=out, where=row_sums > 0)
    return out


def sparsity_psi(mask_m: np.ndarray) -> float:
    m = np.asarray(mask_m)
    return float(m.sum()) / m.size


def baseline_all_to_all(L: int, K: int) -> np.ndarray:
    """The unscalable reference: every AP serves every UE, no capacity limits."""
    return np.ones((L, K), dtype=np.int8)


def served_counts(A: np.ndarray):
    """(UEs per AP, APs per UE, number of APs serving at least one UE)."""
    A = np.asarray(A)
    per_ap = A.sum(axis=1)
    per_ue = A.sum(axis=0)
    return per_ap, per_ue, int(np.count_nonzero(per_ap >= 1))


@dataclass
class OptimizerReport:
    objective: float
    psi: float
    solve_time_s: float
    method: str
    integral: bool


def objective_value(weights: np.ndarray, A: np.ndarray) -> float:
    """Canonical objective sum; fixed accumulation order so every solver
    producing the same support reports bit-identical objectives."""
    total = 0.0
    for k in range(A.shape[1]):
        rows = np.flatnonzero(A[:, k] == 1)
        if rows.size:
            total += float(np.sum(weights[rows, k]))
    return total


def _check_instance(S, R, M, tau_p, X):
    S = np.asarray(S, dtype=float)
    R = np.asarray(R, dtype=float)
    M = np.asarray(M)
    if S.shape != R.shape or S.shape != M.shape:
        raise ValueError(f"dimension mismatch: S{S.shape} R{R.shape} M{M.shape}")
    if tau_p < 1 or X < 1:
        raise ValueError("tau_p and X must be >= 1")
    w = S * R
    w[M == 0] = 0.0
    return w, M


def _column_top_selection(w: np.ndarray, M: np.ndarray, X: int) -> np.ndarray:
    """Per column, the (at most) X eligible rows of largest weight; equal
    weights go to the lower row."""
    eligible = (M == 1) & (w > 0)
    order = np.argsort(np.where(eligible, -w, np.inf), axis=0, kind="stable")[:X]
    A = np.zeros(w.shape, dtype=np.int8)
    A[order, np.arange(w.shape[1])] = np.take_along_axis(eligible, order, axis=0)
    return A


def _solve_flow(w: np.ndarray, M: np.ndarray, tau_p: int, X: int) -> np.ndarray:
    """Exact max-weight b-matching by successive shortest augmenting paths.

    The per-UE capacitated relaxation (drop AP capacities, keep per-UE top-X)
    upper-bounds the optimum; when it happens to satisfy the AP capacities it
    is returned directly.  Otherwise the full min-cost-flow search runs on the
    masked bipartite graph with unit capacity per link, so flows are integral
    by construction.  Ties are resolved by fixed (weight, index) orderings.
    """
    L, K = w.shape
    A = _column_top_selection(w, M, X)
    if A.sum(axis=1).max(initial=0) <= tau_p:
        return A

    A = np.zeros((L, K), dtype=np.int8)
    cols_of_row = [np.flatnonzero((M[l] == 1) & (w[l] > 0)) for l in range(L)]
    col_max = np.zeros(K)
    has_edge = np.zeros(K, dtype=bool)
    for k in range(K):
        rows = np.flatnonzero((M[:, k] == 1) & (w[:, k] > 0))
        if rows.size:
            has_edge[k] = True
            col_max[k] = w[rows, k].max()
    if not has_edge.any():
        return A

    INF = math.inf
    pi_ap = np.zeros(L)
    pi_ue = np.where(has_edge, -col_max, 0.0)
    pi_t = pi_ue[has_edge].min()
    row_used = np.zeros(L, dtype=int)
    col_used = np.zeros(K, dtype=int)
    SINK = L + K

    for _ in range(L * K + 1):
        dist_ap = np.full(L, INF)
        dist_ue = np.full(K, INF)
        dist_t = INF
        parent_ue = np.full(K, -1, dtype=int)          # AP feeding each UE
        parent_ap = np.full(L, -2, dtype=int)          # -1 = source, >=0 = UE via reverse edge
        parent_t = -1
        settled = np.zeros(L + K + 1, dtype=bool)
        heap = []
        for l in np.flatnonzero(row_used < tau_p):
            d = max(0.0, -pi_ap[l])
            dist_ap[l] = d
            parent_ap[l] = -1
            heapq.heappush(heap, (d, int(l)))

        while heap:
            d, node = heapq.heappop(heap)
            if settled[node]:
                continue
            settled[node] = True
            if node == SINK:
                break
            if node < L:
                l = node
                ks = cols_of_row[l]
                if ks.size:
                    open_ks = ks[A[l, ks] == 0]
                    if open_ks.size:
                        rc = np.maximum(0.0, -w[l, open_ks] + pi_ap[l] - pi_ue[open_ks])
                        nd = d + rc
                        better = nd < dist_ue[open_ks]
                        for k, ndk in zip(open_ks[better], nd[better]):
                            dist_ue[k] = ndk
                            parent_ue[k] = l
                            heapq.heappush(heap, (float(ndk), L + int(k)))
            else:
                k = node - L
                if col_used[k] < X:
                    nd = d + max(0.0, pi_ue[k] - pi_t)
                    if nd < dist_t:
                        dist_t = nd
                        parent_t = k
                        heapq.heappush(heap, (float(nd), SINK))
                for l in np.flatnonzero(A[:, k] == 1):
                    nd = d + max(0.0, w[l, k] + pi_ue[k] - pi_ap[l])
                    if nd < dist_ap[l]:
                        dist_ap[l] = nd
                        parent_ap[l] = k
                        heapq.heappush(heap, (float(nd), int(l)))

        if not settled[SINK] or parent_t < 0:
            break

        # Reconstruct the augmenting path and evaluate its true (unreduced) cost.
        edges = []
        k = parent_t
        true_cost = 0.0
        while True:
            l = parent_ue[k]
            edges.append((l, k, 1))
            true_cost -= w[l, k]
            if parent_ap[l] == -1:
                break
            k = parent_ap[l]
            edges.append((l, k, 0))
            true_cost += w[l, k]
        if true_cost >= 0.0:
            break
        for l, k, val in edges:
            A[l, k] = val
        row_used[edges[-1][0]] += 1
        col_used[parent_t] += 1

        bound = dist_t
        pi_ap += np.minimum(dist_ap, bound)
        pi_ue += np.minimum(dist_ue, bound)
        # pi_t += 0 relative shift (sink distance is the reference)
    return A


def optimize(S, R, M, tau_p: int, X: int):
    """Solve the association problem exactly.

    Maximizes sum S_lk R_lk a_lk over binary a, subject to at most tau_p UEs
    per AP, at most X APs per UE, and a <= M elementwise.
    """
    w, M = _check_instance(S, R, M, tau_p, X)
    t0 = time.perf_counter()
    A = _solve_flow(w, M, tau_p, X)
    dt = time.perf_counter() - t0
    report = OptimizerReport(
        objective=objective_value(w, A),
        psi=sparsity_psi(M),
        solve_time_s=dt,
        method="flow-exact",
        integral=bool(((A == 0) | (A == 1)).all()),
    )
    return A, report


def enumeration_objective(S, R, M, tau_p: int, X: int) -> float:
    """Exhaustive optimum over all feasible binary matrices.

    Dynamic program over per-UE serving subsets with the full vector of
    remaining AP capacities as state; exact, intended for small instances.
    """
    w, M = _check_instance(S, R, M, tau_p, X)
    L, K = w.shape
    base = min(tau_p, K) + 1
    n_states = base ** L
    if n_states > 2_500_000:
        raise ValueError(f"instance too large for enumeration oracle ({n_states} states)")
    states = np.arange(n_states)
    digits = [(states // base ** l) % base for l in range(L)]

    dp = np.full(n_states, -np.inf)
    dp[n_states - 1] = 0.0  # all APs at full remaining capacity
    for k in range(K):
        rows = np.flatnonzero((M[:, k] == 1) & (w[:, k] > 0))
        new = dp.copy()
        for size in range(1, min(X, rows.size) + 1):
            for sub in itertools.combinations(rows.tolist(), size):
                wsub = float(np.sum(w[list(sub), k]))
                valid = np.ones(n_states, dtype=bool)
                for l in sub:
                    valid &= digits[l] >= 1
                delta = sum(base ** l for l in sub)
                np.maximum.at(new, states[valid] - delta, dp[valid] + wsub)
        dp = new
    return float(dp.max())


def bound_prune_objective(S, R, M, tau_p: int, X: int) -> float:
    """Independent bound-and-prune search over per-UE subsets (exact)."""
    w, M = _check_instance(S, R, M, tau_p, X)
    L, K = w.shape
    if L > 16:
        raise ValueError("bound-and-prune cross-check is meant for small instances")
    options = []
    for k in range(K):
        rows = np.flatnonzero((M[:, k] == 1) & (w[:, k] > 0))
        opts = [(0.0, ())]
        for size in range(1, min(X, rows.size) + 1):
            for sub in itertools.combinations(rows.tolist(), size):
                opts.append((float(np.sum(w[list(sub), k])), sub))
        opts.sort(key=lambda t: -t[0])
        options.append(opts)
    best_single = [opts[0][0] for opts in options]
    suffix = [0.0] * (K + 1)
    for k in range(K - 1, -1, -1):
        suffix[k] = suffix[k + 1] + best_single[k]

    best = -math.inf

    def recurse(k, caps, acc):
        nonlocal best
        if acc + suffix[k] <= best:
            return
        if k == K:
            best = max(best, acc)
            return
        for wsub, sub in options[k]:
            if acc + wsub + suffix[k + 1] <= best:
                break
            if all(caps[l] >= 1 for l in sub):
                new_caps = list(caps)
                for l in sub:
                    new_caps[l] -= 1
                recurse(k + 1, tuple(new_caps), acc + wsub)

    recurse(0, tuple([tau_p] * L), 0.0)
    return best


def check_feasible(A, M, tau_p: int, X: int) -> bool:
    """Integer-arithmetic feasibility check of C1 (rows), C2 (columns), D3 (mask)."""
    A = np.asarray(A)
    M = np.asarray(M)
    if not np.isin(A, (0, 1)).all():
        return False
    if np.any(A.sum(axis=1) > tau_p) or np.any(A.sum(axis=0) > X):
        return False
    return not np.any((A == 1) & (M == 0))


def association_csv(S, R, A, M) -> str:
    """Association dump: one row per (AP, UE) link."""
    lines = ["ap_id,ue_id,s_lk,r_lk,a_lk,masked"]
    L, K = np.asarray(S).shape
    for l in range(L):
        for k in range(K):
            lines.append(
                f"{l},{k},{repr(float(S[l, k]))},{repr(float(R[l, k]))},"
                f"{int(A[l, k])},{int(M[l, k] == 0)}"
            )
    return "\n".join(lines) + "\n"


# --- end-to-end pipelines -----------------------------------------------------

@dataclass
class AssociationResult:
    scheme: str
    mask: np.ndarray
    quality: LinkQuality
    prio: np.ndarray
    A: np.ndarray
    report: OptimizerReport | None


def run_sua(deployment: Deployment, config: SystemConfig,
            budget: channel.LinkBudget | None = None,
            geom: channel.ClutterGeometry | None = None) -> AssociationResult:
    if budget is None:
        budget = channel.link_budget(deployment, config)
    if geom is None:
        geom = channel.clutter_geometry(deployment, config.pathloss)
    m, _ = mask(deployment, config, budget)
    quality = link_quality(deployment, config, budget, m, geom)
    prio = priorities(quality.S)
    A, report = optimize(quality.S, prio, m, config.tau_p, config.X)
    return AssociationResult("sua", m, quality, prio, A, report)


def run_baseline(deployment: Deployment, config: SystemConfig,
                 budget: channel.LinkBudget | None = None,
                 geom: channel.ClutterGeometry | None = None) -> AssociationResult:
    """All-to-all evaluation: metrics for every link, every AP serves every UE."""
    if budget is None:
        budget = channel.link_budget(deployment, config)
    if geom is None:
        geom = channel.clutter_geometry(deployment, config.pathloss)
    quality = link_quality(deployment, config, budget, None, geom)
    A = baseline_all_to_all(deployment.L, deployment.K)
    prio = priorities(quality.S)
    all_mask = np.ones_like(A)
    return AssociationResult("baseline", all_mask, quality, prio, A, None)
