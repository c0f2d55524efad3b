"""SUA pipeline: masking, link quality, priorities, exact association optimizer."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from cfmimo import channel
from cfmimo.scenario import Deployment, InfeasibleModelError, ServiceType, SystemConfig


def mask_links(p_r_dbm: np.ndarray, threshold_dbm: float) -> np.ndarray:
    """Binary mask M_lk = 1 iff received power >= threshold (inclusive)."""
    return (np.asarray(p_r_dbm, dtype=float) >= threshold_dbm).astype(np.int8)


def mask(config: SystemConfig, budget: channel.LinkBudget):
    """AP masking after initial access.

    Returns the L x K mask and the RSSI matrix whose columns are the per-UE
    initial-access measurement vectors.
    """
    return mask_links(budget.p_r_dbm, config.p_threshold_dbm), budget.rssi_dbm


def link_quality(deployment: Deployment, config: SystemConfig,
                 budget: channel.LinkBudget, mask_m: np.ndarray | None,
                 geom: channel.ClutterGeometry) -> np.ndarray:
    """SNR / SCNR / weighted-joint metric per link, in linear scale: the
    (L, K) array S, 0 on every link not evaluated.

    With a mask given, clutter is evaluated only on unmasked cells (the
    sparsity that drives the pipeline's complexity advantage); mask_m=None
    evaluates every cell, which is what the all-to-all baseline must do.
    """
    L, K = budget.p_r_dbm.shape
    evaluate = np.ones((L, K), dtype=bool) if mask_m is None else (np.asarray(mask_m) == 1)

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


def serving_links(A, ues):
    """The serving links of the UEs `ues` in the (L, K) association A, grouped
    by UE in the order of `ues` with APs ascending: two arrays, each link's
    position in `ues` and its AP.

    Every association consumer reads a UE's serving set from here, so this is
    the one coverage check: it names the first UE of `ues` that no AP serves.
    """
    ues = np.asarray(ues)
    ue, ap = np.nonzero(np.asarray(A)[:, ues].T == 1)
    n_links = np.bincount(ue, minlength=ues.size)
    if np.any(n_links == 0):
        raise InfeasibleModelError(f"UE {ues[np.argmin(n_links)]} has an empty serving set")
    return ue, ap


@dataclass
class OptimizerReport:
    objective: float
    integral: bool
    repairs: int        # units of overload routed; 0 when the relaxation fits
    searches: int       # shortest-path searches run; 0 when the relaxation fits


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
    weights go to the lower row.

    Only the eligible cells are sorted, stably by column and then weight
    descending. They are listed rows ascending, so ties keep that order.
    """
    K = w.shape[1]
    rows, cols = np.divmod(np.flatnonzero((M == 1) & (w > 0)), K)
    order = np.lexsort((-w[rows, cols], cols))
    per_col = np.bincount(cols, minlength=K)
    top = order[np.arange(cols.size) - np.repeat(np.cumsum(per_col) - per_col, per_col) < X]
    A = np.zeros(w.shape, dtype=np.int8)
    A[rows[top], cols[top]] = 1
    return A


def _solve_flow(w: np.ndarray, M: np.ndarray, tau_p: int, X: int) -> tuple[np.ndarray, int, int]:
    """Exact max-weight b-matching: the per-UE relaxation, repaired by
    successive shortest paths.  Returns it, the number of units of overload
    routed and the number of shortest-path searches run.

    The relaxation (each UE's top X, AP capacities dropped) is returned when
    it fits.  Otherwise it is the starting pseudoflow of a min-cost flow on
    the eligible links, the source and sink merged (bypassing every link
    costs 0).  AP potentials 0, and a full UE's minus its smallest selected
    weight (else 0), give every residual arc a reduced cost >= 0.  Each path
    starts at an AP with spare capacity or at a UE holding a link (which
    drops it) and ends at an overfilled AP, moving one unit of overload; so
    exactly D = sum_l max(0, load_l - tau_p) units are routed.

    One vectorized label-correcting search gives the distances from the
    source and a shortest-path tree (a parent is set only on a strict
    improvement and equal costs go to the lower index).  The overfilled APs
    are then visited by distance, equal distances to the lower AP, and one
    unit is routed along each one's tree path whose APs and UEs no earlier
    path of this search used.  The potentials shift by min(dist, d_max), d_max
    the largest distance routed to.  For any cap, dist_j <= dist_i + rc_ij
    keeps every residual arc's reduced cost >= 0; and the arcs of each routed
    path are tight with both ends within the cap, so reversing them leaves
    reduced costs of 0.  Paths sharing no node do not change each other's
    arcs, so each is a shortest path in the graph the others leave behind
    (Ahuja, Magnanti & Orlin, Network Flows, 1993, ch. 9).  Under exact
    weight ties, which of the optimal supports is returned depends on the
    order the paths are routed in.
    """
    A = _column_top_selection(w, M, X)
    row_used = A.sum(axis=1)
    D = int(np.maximum(row_used - tau_p, 0).sum())
    if D == 0:
        return A, 0, 0

    # Eligible links as a flat edge list grouped by UE, APs ascending within a
    # UE; only UEs with at least one edge take part, renumbered u = 0..U-1.
    e_k, e_l = np.nonzero(((M == 1) & (w > 0)).T)
    e_w = w[e_l, e_k]
    used = A[e_l, e_k] == 1             # edge carries flow, i.e. a_lk = 1
    _, starts, e_u = np.unique(e_k, return_index=True, return_inverse=True)
    L, U, E = w.shape[0], starts.size, e_k.size
    col_used = np.add.reduceat(used.astype(int), starts)
    theta = np.minimum.reduceat(np.where(used, e_w, np.inf), starts)
    pi_ue = np.where(col_used == X, -theta, 0.0)
    pi_ap = np.zeros(L)
    edge_ap, edge_ue = e_l.tolist(), e_u.tolist()

    routed = searches = 0
    while routed < D:
        searches += 1
        # Label-correcting shortest paths on the residual graph from the
        # source, which reaches the APs with spare capacity and the UEs
        # holding a link, along open edges AP -> UE and used edges UE -> AP.
        # Reduced costs are clipped at 0 against rounding.  A parent is set
        # only on a strict improvement, so zero-cost cycles cannot make the
        # parent pointers cyclic.
        rc_fwd = np.maximum(0.0, -e_w + pi_ap[e_l] - pi_ue[e_u])
        rc_fwd[used] = np.inf
        rev = np.flatnonzero(used)
        rev_l, rev_u = e_l[rev], e_u[rev]
        rc_rev = np.maximum(0.0, e_w[rev] + pi_ue[rev_u] - pi_ap[rev_l])
        dist_ap = np.where(row_used < tau_p, np.maximum(0.0, -pi_ap), np.inf)
        dist_ue = np.where(col_used > 0, np.maximum(0.0, -pi_ue), np.inf)
        parent_ap = np.full(L, -1)      # edge into each AP; -1 = source
        parent_ue = np.full(U, -1)      # edge into each UE; -1 = source
        for _ in range(L + U + 2):
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

        # Every overfilled AP holds a link of a source UE, so it is reached;
        # the nearest is always routed, so every search makes progress.
        over = np.flatnonzero(row_used > tau_p)
        sinks = over[np.argsort(dist_ap[over], kind="stable")].tolist()
        par_ap, par_ue = parent_ap.tolist(), parent_ue.tolist()
        taken_ap, taken_ue = set(), set()
        d_max = 0.0
        for sink in sinks:
            # the sink's tree path back to the source: its edges, and the APs
            # and UEs they join, alternating from the sink to the root
            path, aps, ues = [], [sink], []
            e = par_ap[sink]
            while e >= 0:
                path.append(e)
                ues.append(edge_ue[e])
                e = par_ue[ues[-1]]
                if e >= 0:
                    path.append(e)
                    aps.append(edge_ap[e])
                    e = par_ap[aps[-1]]
            if not (taken_ap.isdisjoint(aps) and taken_ue.isdisjoint(ues)):
                continue
            taken_ap.update(aps)
            taken_ue.update(ues)
            if len(aps) > len(ues):
                row_used[aps[-1]] += 1  # an AP with spare capacity takes a UE
            else:
                col_used[ues[-1]] -= 1  # a UE drops a link
            used[path] = ~used[path]
            row_used[sink] -= 1
            d_max = dist_ap[sink]
            routed += 1
        pi_ap += np.minimum(dist_ap, d_max)
        pi_ue += np.minimum(dist_ue, d_max)
    A[e_l, e_k] = used                  # every link A holds is eligible
    return A, D, searches


def optimize(S, R, M, tau_p: int, X: int):
    """Solve the association problem exactly.

    Maximizes sum S_lk R_lk a_lk over binary a, subject to at most tau_p UEs
    per AP, at most X APs per UE, and a <= M elementwise.
    """
    w, M = _check_instance(S, R, M, tau_p, X)
    A, repairs, searches = _solve_flow(w, M, tau_p, X)
    report = OptimizerReport(
        objective=objective_value(w, A),
        integral=bool(((A == 0) | (A == 1)).all()),
        repairs=repairs,
        searches=searches,
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


_CSV_AP_BLOCK = 32     # APs formatted together by association_csv


def association_csv(S, R, A, M) -> str:
    """Association dump: one row `l,k,s_lk,r_lk,a_lk,masked` per (AP, UE)
    link, APs in order and each AP's UEs in order; floats as `repr`.

    The cost follows the links that were evaluated, not L*K. A row is blank
    when s_lk and r_lk are both +0.0 (on the bits, so -0.0 is not blank) and
    a_lk is 0 or 1: every masked SUA link is. Its text after the AP id is
    one of four per-UE strings `k,0.0,0.0,a,masked`, built once per call and
    picked by index. Only the other rows go through `repr`. The APs are
    formatted in blocks of _CSV_AP_BLOCK, each joined into one string, so the
    temporaries are bounded by one block's rows, not by the (L, K) table.
    """
    S = np.asarray(S, dtype=float)
    R = np.asarray(R, dtype=float)
    A, M = np.asarray(A), np.asarray(M)
    L, K = S.shape
    header = "ap_id,ue_id,s_lk,r_lk,a_lk,masked\n"
    if K == 0:
        return header
    # row 2*a + masked holds UE k's blank text in column k
    blank_text = np.array([[f"{k},0.0,0.0,{a},{m}" for k in range(K)]
                           for a in (0, 1) for m in (0, 1)], dtype=object)
    ues = np.broadcast_to(np.arange(K), (min(L, _CSV_AP_BLOCK), K))
    parts = [header]
    for l0 in range(0, L, _CSV_AP_BLOCK):
        aps = slice(l0, l0 + _CSV_AP_BLOCK)
        s, r = S[aps], R[aps]
        a, m = A[aps].astype(int), (M[aps] == 0).astype(int)
        k = ues[:len(s)]
        blank = (s.view(np.uint64) | r.view(np.uint64)) == 0
        blank &= (a == 0) | (a == 1)
        text = blank_text[np.where(blank, 2 * a + m, 0), k]
        busy = ~blank
        text[busy] = np.fromiter(
            map("{},{!r},{!r},{},{}".format, k[busy].tolist(), s[busy].tolist(),
                r[busy].tolist(), a[busy].tolist(), m[busy].tolist()),
            dtype=object, count=int(busy.sum()))
        block = []
        for l, row in enumerate(text.tolist(), start=l0):
            pre = f"{l},"
            block += (pre, ("\n" + pre).join(row), "\n")
        parts.append("".join(block))
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
    # The one function that builds the state left out: the benchmark's sua_ms
    # times run_sua(deployment, config), that build included.
    if budget is None:
        budget = channel.link_budget(deployment, config)
    if geom is None:
        geom = channel.clutter_geometry(deployment, config.pathloss)
    m, _ = mask(config, budget)
    S = link_quality(deployment, config, budget, m, geom)
    prio = priorities(S)
    A, report = optimize(S, prio, m, config.tau_p, config.X)
    return AssociationResult(m, S, prio, A, report)


def run_baseline(deployment: Deployment, config: SystemConfig, budget: channel.LinkBudget,
                 geom: channel.ClutterGeometry) -> AssociationResult:
    """All-to-all evaluation: metrics for every link, every AP serves every UE."""
    S = link_quality(deployment, config, budget, None, geom)
    A = baseline_all_to_all(deployment.L, deployment.K)
    return AssociationResult(np.ones_like(A), S, priorities(S), A, None)
