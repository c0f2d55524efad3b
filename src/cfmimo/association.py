"""SUA pipeline: masking, link quality, priorities, exact association optimizer."""

from __future__ import annotations

import itertools
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


def link_quality(deployment: Deployment, config: SystemConfig,
                 budget: channel.LinkBudget, mask_m: np.ndarray | None,
                 geom: channel.ClutterGeometry | None = None) -> np.ndarray:
    """SNR / SCNR / weighted-joint metric per link, in linear scale: the
    (L, K) array S, 0 on every link not evaluated.

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
    svc = np.asarray(deployment.ue_service)[None, :]
    com = evaluate & (svc == ServiceType.COM)
    S[com] = snr[com]
    l_idx, k_idx = np.nonzero(evaluate & (svc != ServiceType.COM))
    pc, _ = channel.clutter_returns(geom, deployment, config, l_idx, k_idx,
                                    budget.distance_m[l_idx, k_idx])
    scnr = p_r_w[l_idx, k_idx] / (pc + n0)
    sense = svc[0, k_idx] == ServiceType.SENSE
    S[l_idx, k_idx] = np.where(sense, scnr, config.w_c * snr[l_idx, k_idx] + config.w_s * scnr)
    return S


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
    integral: bool


def objective_value(weights: np.ndarray, A: np.ndarray) -> float:
    """Canonical objective sum; fixed accumulation order so every solver
    producing the same support reports bit-identical objectives.

    Each column's selected weights, rows ascending, are summed as one
    np.sum of that length (pairwise from 8 terms on); the column sums are
    then added in column order. Columns with the same number of selected
    rows are summed together as the rows of one (columns, m) array, which
    numpy reduces row by row exactly as it reduces each 1-D column.
    """
    sel = np.asarray(A).T == 1
    n_sel = sel.sum(axis=1)
    vals = np.asarray(weights).T[sel]
    start = np.cumsum(n_sel) - n_sel
    col_sums = np.zeros(n_sel.size)
    for m in np.flatnonzero(np.bincount(n_sel)[1:]) + 1:
        cols = np.flatnonzero(n_sel == m)
        col_sums[cols] = vals[start[cols, None] + np.arange(m)].sum(axis=1)
    return float(np.add.accumulate(col_sums)[-1]) if col_sums.size else 0.0


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
    by construction.  Each augmenting path comes from a vectorized
    label-correcting search over the eligible links; ties between equal-cost
    paths are broken by index, so results are deterministic.
    """
    L, K = w.shape
    A = _column_top_selection(w, M, X)
    if A.sum(axis=1).max(initial=0) <= tau_p:
        return A

    A = np.zeros((L, K), dtype=np.int8)
    # Eligible links as a flat edge list grouped by UE, APs ascending within a
    # UE; only UEs with at least one edge take part, renumbered u = 0..U-1.
    e_k, e_l = np.nonzero(((M == 1) & (w > 0)).T)
    if e_k.size == 0:
        return A
    e_w = w[e_l, e_k]
    _, starts, e_u = np.unique(e_k, return_index=True, return_inverse=True)
    U, E = starts.size, e_k.size
    used = np.zeros(E, dtype=bool)      # edge carries flow, i.e. a_lk = 1
    row_used = np.zeros(L, dtype=int)
    col_used = np.zeros(U, dtype=int)
    pi_ap = np.zeros(L)
    pi_ue = -np.maximum.reduceat(e_w, starts)
    pi_t = pi_ue.min()

    for _ in range(L * K + 1):
        # Label-correcting shortest paths on the residual graph: source -> AP
        # with spare capacity -> open edge -> UE -> used edge back -> AP ...
        # Reduced costs are clipped at 0 against rounding.  A parent is set
        # only on a strict improvement, so zero-cost cycles cannot make the
        # parent pointers cyclic.
        rc_fwd = np.maximum(0.0, -e_w + pi_ap[e_l] - pi_ue[e_u])
        rc_fwd[used] = np.inf
        rev = np.flatnonzero(used)
        rev_l, rev_u = e_l[rev], e_u[rev]
        rc_rev = np.maximum(0.0, e_w[rev] + pi_ue[rev_u] - pi_ap[rev_l])
        dist_ap = np.where(row_used < tau_p, np.maximum(0.0, -pi_ap), np.inf)
        parent_ap = np.full(L, -1)      # edge into each AP; -1 = source
        dist_ue = np.full(U, np.inf)
        parent_ue = np.full(U, -1)      # edge into each UE
        for _ in range(L + K + 2):
            cand = dist_ap[e_l] + rc_fwd
            best = np.minimum.reduceat(cand, starts)
            gain = best < dist_ue
            if gain.any():
                hit = np.where(cand == best[e_u], np.arange(E), E)
                parent_ue[gain] = np.minimum.reduceat(hit, starts)[gain]
                dist_ue[gain] = best[gain]
            cand = dist_ue[rev_u] + rc_rev
            best = np.full(L, np.inf)
            np.minimum.at(best, rev_l, cand)
            gain = best < dist_ap
            if not gain.any():
                break
            first = np.full(L, E)
            hit = gain[rev_l] & (cand == best[rev_l])
            np.minimum.at(first, rev_l[hit], rev[hit])
            parent_ap[gain] = first[gain]
            dist_ap[gain] = best[gain]

        d_sink = np.where(col_used < X, dist_ue + np.maximum(0.0, pi_ue - pi_t), np.inf)
        u = int(np.argmin(d_sink))
        dist_t = d_sink[u]
        if dist_t == np.inf:
            break

        # The augmenting path back from the sink, and its true (unreduced) cost.
        e = parent_ue[u]
        path = [e]
        true_cost = -e_w[e]
        while parent_ap[e_l[e]] >= 0:
            e = parent_ap[e_l[e]]
            true_cost += e_w[e]
            path.append(e)
            e = parent_ue[e_u[e]]
            true_cost -= e_w[e]
            path.append(e)
        if true_cost >= 0.0:
            break
        used[path] = ~used[path]
        row_used[e_l[e]] += 1
        col_used[u] += 1
        pi_ap += np.minimum(dist_ap, dist_t)
        pi_ue += np.minimum(dist_ue, dist_t)
    A[e_l[used], e_k[used]] = 1
    return A


def optimize(S, R, M, tau_p: int, X: int):
    """Solve the association problem exactly.

    Maximizes sum S_lk R_lk a_lk over binary a, subject to at most tau_p UEs
    per AP, at most X APs per UE, and a <= M elementwise.
    """
    w, M = _check_instance(S, R, M, tau_p, X)
    A = _solve_flow(w, M, tau_p, X)
    report = OptimizerReport(
        objective=objective_value(w, A),
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
    """Association dump: one row per (AP, UE) link.

    Formatted one AP at a time from Python lists, so the temporaries stay at
    one AP's K rows and each AP's rows are kept as a single string.
    """
    S = np.asarray(S, dtype=float)
    R = np.asarray(R, dtype=float)
    A = np.asarray(A).astype(int)
    masked = (np.asarray(M) == 0).astype(int)
    L, K = S.shape
    ues = range(K)
    parts = ["ap_id,ue_id,s_lk,r_lk,a_lk,masked\n"]
    for l in range(L):
        rows = map("{},{},{},{},{},{}\n".format, itertools.repeat(l, K), ues,
                   map(repr, S[l].tolist()), map(repr, R[l].tolist()),
                   A[l].tolist(), masked[l].tolist())
        parts.append("".join(rows))
    return "".join(parts)


# --- end-to-end pipelines -----------------------------------------------------

@dataclass
class AssociationResult:
    mask: np.ndarray
    S: np.ndarray
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
    S = link_quality(deployment, config, budget, m, geom)
    prio = priorities(S)
    A, report = optimize(S, prio, m, config.tau_p, config.X)
    return AssociationResult(m, S, prio, A, report)


def run_baseline(deployment: Deployment, config: SystemConfig,
                 budget: channel.LinkBudget | None = None,
                 geom: channel.ClutterGeometry | None = None) -> AssociationResult:
    """All-to-all evaluation: metrics for every link, every AP serves every UE."""
    if budget is None:
        budget = channel.link_budget(deployment, config)
    if geom is None:
        geom = channel.clutter_geometry(deployment, config.pathloss)
    S = link_quality(deployment, config, budget, None, geom)
    A = baseline_all_to_all(deployment.L, deployment.K)
    prio = priorities(S)
    all_mask = np.ones_like(A)
    return AssociationResult(all_mask, S, prio, A, None)
