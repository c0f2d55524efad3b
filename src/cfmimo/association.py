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
                 budget: channel.LinkBudget, mask_m: np.ndarray,
                 geom: channel.ClutterGeometry):
    """SNR / SCNR / weighted-joint metric of each unmasked link (mask_m ==
    1), in linear scale: the links, each as its index l*K + k in the (L, K)
    table, ascending (AP-major), and their metrics S.

    Only the unmasked links are evaluated, clutter included: the sparsity
    that drives the pipeline's complexity advantage. The all-to-all baseline
    passes a mask of ones, so its list is every link in row-major order. The
    sensing and JCAS links are listed first, for `channel.clutter_returns`,
    and the whole list after it, so an all-link call holds no list of every
    link while the clutter rows are built. The received power is converted
    to W only on the evaluated links.
    """
    evaluate = np.asarray(mask_m) == 1
    K = evaluate.shape[1]
    n0 = config.noise_power_w()
    svc = np.asarray(deployment.ue_service)
    sensing = svc != ServiceType.COM
    sensed = np.flatnonzero(evaluate & sensing)
    l_idx, k_idx = np.divmod(sensed, K)
    pc, _ = channel.clutter_returns(geom, deployment, config, l_idx, k_idx,
                                    budget.distance_m.ravel()[sensed])
    p_r_w = channel.dbm_to_watts(budget.rssi_dbm.ravel()[sensed])
    scnr = p_r_w / (pc + n0)
    sense = svc[k_idx] == ServiceType.SENSE
    s_sensed = np.where(sense, scnr, config.w_c * (p_r_w / n0) + config.w_s * scnr)
    links = np.flatnonzero(evaluate)
    S = channel.dbm_to_watts(budget.rssi_dbm.ravel()[links])
    S /= n0
    S[sensing[links % K]] = s_sensed
    return links, S


def priorities(S, links=None, K=None) -> np.ndarray:
    """Row-normalized priorities: each link's S over the sum of S on its AP,
    0 where that sum is 0.

    S holds the links `links` of a table of K UEs, each as its index l*K + k,
    ascending; every link not listed has S = 0. An (L, K) array S, given
    alone, lists every link and gets an (L, K) array back. Each AP's sum is
    np.sum over its dense row of K values, as over the (L, K) table, so it
    adds in the same (pairwise) order: the rows are filled from the list
    into one buffer, one chunk of the APs of channel._LINKS_PER_CHUNK links
    at a time.
    """
    S = np.asarray(S, dtype=float)
    if np.any(S < 0):
        raise ValueError("link-quality matrix must be nonnegative")
    shape = S.shape
    if links is None:
        K, S = shape[1], S.ravel()
        links = np.arange(S.size)
    rows = max(1, channel._LINKS_PER_CHUNK // K)
    width = rows * K                   # the links of one chunk of APs
    buf = np.zeros(width)
    pos = links % width
    n_chunks = int(links[-1]) // width + 1 if links.size else 0
    row_sums = np.empty((n_chunks, rows))
    starts = np.searchsorted(links, range(0, n_chunks * width, width)).tolist()
    for sums, lo, hi in zip(row_sums, starts, starts[1:] + [S.size]):
        buf[pos[lo:hi]] = S[lo:hi]
        buf.reshape(rows, K).sum(axis=1, out=sums)
        buf[pos[lo:hi]] = 0.0
    den = row_sums.reshape(-1)[links // K]
    out = np.zeros(S.size)
    np.divide(S, den, out=out, where=den > 0)
    return out.reshape(shape)


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
    producing the same support reports bit-identical objectives (see
    `_objective_sum`)."""
    sel = np.asarray(A).T == 1
    return _objective_sum(sel.sum(axis=1), np.asarray(weights).T[sel])


def _objective_sum(n_sel, vals) -> float:
    """The objective of the selected cells `vals`, listed by column with rows
    ascending, `n_sel` of them in each column.

    Each column's values are summed as one np.sum of that length (pairwise
    from 8 terms on); the column sums are then added in column order.
    Columns with the same number of selected rows are summed together as the
    rows of one (columns, m) array, which numpy reduces row by row exactly as
    it reduces each 1-D column.
    """
    start = np.cumsum(n_sel) - n_sel
    col_sums = np.zeros(n_sel.size)
    for m in np.flatnonzero(np.bincount(n_sel)[1:]) + 1:
        cols = np.flatnonzero(n_sel == m)
        col_sums[cols] = vals[start[cols, None] + np.arange(m)].sum(axis=1)
    return float(np.add.accumulate(col_sums)[-1]) if col_sums.size else 0.0


def _eligible_links(S, R, M, tau_p, X):
    """The eligible links, M_lk == 1 and S_lk R_lk > 0, listed by UE with APs
    ascending: their UEs, APs and weights S_lk R_lk, and the mask. S and R
    are read only where M_lk == 1."""
    S = np.asarray(S, dtype=float)
    R = np.asarray(R, dtype=float)
    M = np.asarray(M)
    if S.shape != R.shape or S.shape != M.shape:
        raise ValueError(f"dimension mismatch: S{S.shape} R{R.shape} M{M.shape}")
    if tau_p < 1 or X < 1:
        raise ValueError("tau_p and X must be >= 1")
    links = np.flatnonzero(M == 1)
    return (*_by_ue(links, M.shape[1], S.ravel()[links] * R.ravel()[links]), M)


def _by_ue(links, K: int, w):
    """Of the links `links` of a table of K UEs (each l*K + k, ascending)
    with weights w, those of weight w > 0 listed by UE with APs ascending,
    by a stable sort on the UE: their UEs, APs and weights."""
    keep = np.flatnonzero(w > 0)
    ap, ue = np.divmod(links[keep], K)
    order = np.argsort(ue, kind="stable")
    return ue[order], ap[order], w[keep[order]]


def _check_instance(S, R, M, tau_p, X):
    """The (L, K) weights of the eligible links, 0 elsewhere, and the mask."""
    ue, ap, w_links, M = _eligible_links(S, R, M, tau_p, X)
    w = np.zeros(M.shape)
    w[ap, ue] = w_links
    return w, M


def padded_by_ue(ue, values, fill):
    """Of links listed by UE (ue the UE of each link), each UE's `values` in
    link order at the start of its row of a (UEs, most links of a UE) array,
    padded with `fill`; UE ids without a link get a row of `fill`. Returns
    the array, the links per UE and each UE's first position in the list."""
    per_ue = np.bincount(ue)
    start = np.cumsum(per_ue) - per_ue
    padded = np.full((per_ue.size, per_ue.max(initial=0)), fill)
    padded[ue, np.arange(ue.size) - np.repeat(start, per_ue)] = values
    return padded, per_ue, start


def _top_x(ue, w, X: int) -> np.ndarray:
    """Of links listed by UE with APs ascending, each UE's (at most) X of
    largest weight, equal weights to the lower AP: a boolean per link.

    Each UE's negated weights fill one row of a `padded_by_ue` array, padded
    with +inf, and each row is sorted stably, so ties keep the listed order.
    One sort of floats costs a fraction of a lexsort of the list by UE and
    weight.
    """
    neg_w, per_ue, start = padded_by_ue(ue, -w, np.inf)
    best = np.argsort(neg_w, axis=1, kind="stable")[:, :X]
    top = np.zeros(ue.size, dtype=bool)
    top[(start[:, None] + best)[best < per_ue[:, None]]] = True
    return top


def _column_top_selection(w: np.ndarray, M: np.ndarray, X: int) -> np.ndarray:
    """Per column, the (at most) X eligible rows of largest weight (see
    `_top_x`), as an (L, K) int8 array."""
    ue, ap = np.divmod(np.flatnonzero(((M == 1) & (w > 0)).T), w.shape[0])
    top = _top_x(ue, w[ap, ue], X)
    A = np.zeros(w.shape, dtype=np.int8)
    A[ap[top], ue[top]] = 1
    return A


def _solve_flow(e_k, e_l, e_w, L: int, tau_p: int, X: int) -> tuple[np.ndarray, int, int]:
    """Exact max-weight b-matching on the eligible links, listed by UE with
    APs ascending (UE e_k, AP e_l, weight e_w > 0): the per-UE relaxation,
    repaired by successive shortest paths.  Returns whether each link is
    selected, the number of units of overload routed and the number of
    shortest-path searches run.

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
    used = _top_x(e_k, e_w, X)          # edge carries flow, i.e. a_lk = 1
    D = int(np.maximum(np.bincount(e_l[used], minlength=L) - tau_p, 0).sum())
    if D == 0:
        return used, 0, 0

    # Only UEs with at least one edge take part, renumbered u = 0..U-1.
    _, starts, e_u = np.unique(e_k, return_index=True, return_inverse=True)
    U, E = starts.size, e_k.size
    theta = np.minimum.reduceat(np.where(used, e_w, np.inf), starts)
    pi_ue = np.where(np.add.reduceat(used.astype(int), starts) == X, -theta, 0.0)
    pi_ap = np.zeros(L)
    edge_ap, edge_ue = e_l.tolist(), e_u.tolist()

    searches = 0
    while True:
        row_used = np.bincount(e_l[used], minlength=L)
        col_used = np.add.reduceat(used.astype(int), starts)
        over = np.flatnonzero(row_used > tau_p)
        if over.size == 0:
            break
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
            used[path] = ~used[path]
            d_max = dist_ap[sink]
        pi_ap += np.minimum(dist_ap, d_max)
        pi_ue += np.minimum(dist_ue, d_max)
    return used, D, searches


def optimize(S, R, M, tau_p: int, X: int):
    """Solve the association problem exactly.

    Maximizes sum S_lk R_lk a_lk over binary a, subject to at most tau_p UEs
    per AP, at most X APs per UE, and a <= M elementwise.  The eligible
    links are listed once, and the solver, the objective and A all work from
    that list (see `_associate`).
    """
    ue, ap, w, M = _eligible_links(S, R, M, tau_p, X)
    return _associate(ue, ap, w, M.shape, tau_p, X)


def _associate(ue, ap, w, shape, tau_p: int, X: int):
    """The optimum on the eligible links of an (L, K) instance, listed by UE
    with APs ascending (UE ue, AP ap, weight w > 0): the (L, K) int8
    association A and its report, read from the selected links. `integral`
    holds when no link is selected twice: the selected links strictly
    increase in that order."""
    used, repairs, searches = _solve_flow(ue, ap, w, shape[0], tau_p, X)
    sel_ue, sel_ap = ue[used], ap[used]
    A = np.zeros(shape, dtype=np.int8)
    A[sel_ap, sel_ue] = 1
    key = sel_ue * shape[0] + sel_ap
    report = OptimizerReport(
        objective=_objective_sum(np.bincount(sel_ue, minlength=shape[1]), w[used]),
        integral=bool((key[1:] > key[:-1]).all()),
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


def association_csv(links, S, R, A) -> str:
    """Association dump: one row `l,k,s_lk,r_lk,a_lk,masked` per link of the
    (L, K) int8 association A (K >= 1), APs in order and each AP's UEs in
    order; floats as `repr`. The links `links`, each l*K + k and ascending,
    are the scheme's unmasked ones: link links[i] has s_lk = S[i], r_lk =
    R[i] and masked = 0. Every other link is masked, with s_lk = r_lk = 0.0
    and masked = 1.

    The cost follows the listed links, not L*K. Only the listed rows go
    through `repr`; a masked row's text after the AP id is one of two per-UE
    strings `k,0.0,0.0,a,1`, built once per call and picked by a_lk. The APs
    are formatted in the chunks of `priorities`, and each chunk is joined
    into one string, so the temporaries are bounded by one chunk's rows.
    """
    L, K = A.shape
    ues = np.arange(K)
    masked_text = np.array([[f"{k},0.0,0.0,{a},1" for k in ues] for a in (0, 1)], dtype=object)
    rows = max(1, channel._LINKS_PER_CHUNK // K)
    starts = np.searchsorted(links, range(0, L * K, rows * K)).tolist()
    parts = ["ap_id,ue_id,s_lk,r_lk,a_lk,masked\n"]
    for l0, lo, hi in zip(range(0, L, rows), starts, starts[1:] + [len(links)]):
        a = A[l0:l0 + rows]
        text = masked_text[a, ues]
        cells = links[lo:hi] - l0 * K
        text.reshape(-1)[cells] = np.fromiter(
            map("{},{!r},{!r},{},0".format, (cells % K).tolist(), S[lo:hi].tolist(),
                R[lo:hi].tolist(), a.reshape(-1)[cells].tolist()),
            dtype=object, count=cells.size)
        chunk = []
        for l, row in enumerate(text.tolist(), start=l0):
            pre = f"{l},"
            chunk += (pre, ("\n" + pre).join(row), "\n")
        parts.append("".join(chunk))
    return "".join(parts)


# --- end-to-end pipelines -----------------------------------------------------

@dataclass
class AssociationResult:
    """A scheme's association of L APs and K UEs.

    The links the scheme evaluated, its unmasked ones, are listed by their
    index l*K + k, ascending (AP-major): link links[i] joins AP links[i] // K
    and UE links[i] % K and has link quality S[i] and priority prio[i];
    every other link is masked and has S = prio = 0. The baseline masks no
    link and lists every one, so a reshape to (L, K) gives its dense S and
    prio. The association A is an (L, K) int8 array, 0 on every masked link.
    """
    links: np.ndarray
    S: np.ndarray
    prio: np.ndarray
    A: np.ndarray
    report: OptimizerReport | None


def run_sua(deployment: Deployment, config: SystemConfig,
            budget: channel.LinkBudget | None = None,
            geom: channel.ClutterGeometry | None = None) -> AssociationResult:
    """The scalable association: the mask, then link quality, priorities and
    the exact optimizer on the list of unmasked links, listed once AP-major
    and taken by the optimizer in UE order. Past the (L, K) mask, which is
    scanned to list the links and then dropped, the cost and the memory
    follow the unmasked links, not L*K; the result keeps one (L, K) array,
    the int8 A."""
    # The one function that builds the state left out: the benchmark's sua_ms
    # times run_sua(deployment, config), that build included.
    if budget is None:
        budget = channel.link_budget(deployment, config)
    if geom is None:
        geom = channel.clutter_geometry(deployment, config.pathloss)
    m, _ = mask(config, budget)
    links, S = link_quality(deployment, config, budget, m, geom)
    prio = priorities(S, links, deployment.K)
    A, report = _associate(*_by_ue(links, deployment.K, S * prio), m.shape, config.tau_p,
                           config.X)
    return AssociationResult(links, S, prio, A, report)


def run_baseline(deployment: Deployment, config: SystemConfig, budget: channel.LinkBudget,
                 geom: channel.ClutterGeometry) -> AssociationResult:
    """All-to-all evaluation: metrics for every link, every AP serves every UE.
    No link is masked, so the list holds every link and A is all ones."""
    A = baseline_all_to_all(deployment.L, deployment.K)
    links, S = link_quality(deployment, config, budget, A, geom)
    return AssociationResult(links, S, priorities(S, links, deployment.K), A, None)
