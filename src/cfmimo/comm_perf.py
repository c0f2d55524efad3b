"""Communication performance: closed-form and Monte-Carlo symbol error rates.

The Monte-Carlo SNR grid is the SNR of a link with the median gain over the
serving links of a reference association; `cfmimo ser` passes SUA's, so
every scheme is drawn on SUA's axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cfmimo import association, channel, report
from cfmimo.scenario import (
    Deployment,
    InfeasibleModelError,
    ServiceType,
    SystemConfig,
    median,
    rng_stream,
)


# a constellation is the array of its complex points, of unit average energy
BPSK = np.array([1.0 + 0j, -1.0 + 0j])
# Gray-labelled QPSK, unit symbol energy
QPSK = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / math.sqrt(2.0)

CONSTELLATIONS = {"bpsk": BPSK, "qpsk": QPSK}

# Relative near-tie band of `_ml_decisions`, and the floor of its length scale
_TIE_BAND = 2.0 ** -40
_TIE_FLOOR = 2.0 ** -480


def _decision_regions(constel: np.ndarray):
    """(a, table) for BPSK, whose points are (+-a, 0), or QPSK, whose points
    are (+-a, +-a): the point nearest to z is then the one with the signs of
    Re z (and of Im z for QPSK). table maps each sign pattern
    (Re z < 0, Im z < 0), its two bytes read as one uint16 code, to the index
    of the point with that pattern, as read from the constellation's own
    points; BPSK's ignores the sign of Im z."""
    re, im = constel.real, constel.imag
    a = abs(float(re[0]))
    quad = constel.size == 4
    assert (constel.size in (2, 4) and a > 0 and np.all(np.abs(re) == a)
            and np.all(np.abs(im) == (a if quad else 0.0))), "not BPSK or QPSK"
    patterns = np.array([[False, False], [True, False], [False, True], [True, True]])
    codes = patterns.view(np.uint16)[:, 0]
    table = np.zeros(codes.max() + 1, dtype=np.intp)
    for (neg_re, neg_im), code in zip(patterns, codes):
        point = np.flatnonzero(((re < 0) == neg_re) & (((im < 0) == neg_im) | (not quad)))
        assert point.size == 1, "one point per sign pattern"
        table[code] = point[0]
    return a, table


def _nearest_points(z, scale, constel: np.ndarray) -> np.ndarray:
    """Per entry of z, the index of the least |z - scale point|^2 over the
    points of `constel`, scale broadcast against z; equal distances go to
    the lower index."""
    return np.argmin(np.abs(z - scale * constel.reshape(-1, *[1] * z.ndim)) ** 2, axis=0)


def _ml_decisions(z, scale, constel: np.ndarray, regions) -> np.ndarray:
    """Maximum-likelihood (nearest-point) decisions: per entry of the complex
    C-contiguous z, the index of the point of scale * constel nearest to it,
    scale >= 0 broadcast against z and regions = `_decision_regions(constel)`.
    Each entry is decided as `_nearest_points` decides it.

    With p = scale a, the points' coordinates are +-p (rounding is symmetric
    in sign), and the exact squared distances of the signs' point and any
    other point differ by at least 4 p m, m = |Re z| for BPSK and
    min(|Re z|, |Im z|) for QPSK. With r >= max(|Re z|, |Im z|) + p over the
    entry's row, each distance is at most 2 r^2. `_nearest_points`' computed
    distances are each within 2^-50 relative of their exact value (a
    rounding of each coordinate difference, under one ulp in hypot and a
    rounding of the square), so together they are off by less than
    2^-48 r^2, while where m p > _TIE_BAND r^2 the exact gap exceeds
    2^-38 r^2: there the signs' point is the strict argmin with a margin of
    2^10. The floor _TIE_FLOOR added to r keeps _TIE_BAND r^2 above
    2^-1000, so the absolute rounding of distances in the subnormal range is
    far inside the margin too. The entries inside the band, among them every
    coordinate at +-0, every zero scale and every row holding a NaN, go to
    `_nearest_points`, which breaks equal computed distances towards the
    lower index."""
    a, table = regions
    f = z.view(float)
    abs_f = np.abs(f)
    p = scale * a
    r = abs_f.max(axis=-1, keepdims=True) + (p + _TIE_FLOOR)
    m = np.minimum(abs_f[..., 0::2], abs_f[..., 1::2]) if constel.size == 4 else abs_f[..., 0::2]
    near = ~(m * p > _TIE_BAND * r * r)
    # each entry's sign pattern, its two bytes (Re z < 0, Im z < 0) as one code
    det = table.take((f < 0).view(np.uint16))
    if near.any():
        near = np.nonzero(near)
        det[near] = _nearest_points(z[near], np.broadcast_to(scale, z.shape)[near], constel)
    return det


def q_exact(x):
    """Gaussian tail probability via the complementary error function."""
    xs = np.asarray(x, dtype=float)
    out = np.array([0.5 * math.erfc(v / math.sqrt(2.0)) for v in np.atleast_1d(xs)])
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def effective_alpha(p: float, tau_p: int, beta, sigma2: float, X: int):
    """Per-link effective estimate variance p tau_p beta^2 / (p tau_p beta + X sigma2)."""
    beta = np.asarray(beta, dtype=float)
    return p * tau_p * beta ** 2 / (p * tau_p * beta + X * sigma2)


def residual_error_power(sigma2: float, K: int, tau_p: int, X: int) -> float:
    """Aggregate channel-estimation-error power c^2 = sigma2 K / (tau_p X)."""
    return sigma2 * K / (tau_p * X)


def ser_theory(constel: np.ndarray, alphas, sigma2: float, c2: float, N: int):
    """Closed-form SER, clamped to [0, 1]: the union bound
    sum_{i != j} PEP(i -> j) / M over the ordered symbol pairs.

    With D = 2 (sigma2 + c2) and s_l = alpha_l |s_i - s_j|^2, PEP(i -> j) is
    the two-exponential Q approximation averaged over the fading,
    MGF(-1/(4D)) / 12 + MGF(-1/(3D)) / 4 with MGF(t) = prod_l (1 - t s_l)^-N.
    alphas holds the links on its last axis; a zero alpha multiplies the MGF
    by exactly 1, so UEs with fewer links are zero-padded into one
    (UEs, links) array and each gets its own SER. The MGF is evaluated once
    per distinct pair distance; the pair terms are then added in (i, j)
    order, one after the other. Returns a float for one UE's 1-D alphas,
    else an array over the leading axes.
    """
    i, j = np.nonzero(~np.eye(constel.size, dtype=bool))
    d2, pair = np.unique(np.abs(constel[i] - constel[j]) ** 2, return_inverse=True)
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    link_sums = alphas[None] * d2.reshape((-1,) + (1,) * alphas.ndim)
    D = 2.0 * (sigma2 + c2)
    mgf = []
    for t in (-1.0 / (4.0 * D), -1.0 / (3.0 * D)):
        terms = 1.0 - t * link_sums
        if np.any(terms <= 0.0):
            raise ValueError("MGF evaluated beyond its pole (1 - t*s <= 0)")
        mgf.append(np.prod(terms ** (-float(N)), axis=-1))
    pep = mgf[0] / 12.0 + mgf[1] / 4.0
    total = 0.0
    for d in pair:
        total = total + pep[d]
    ser = np.clip(total / constel.size, 0.0, 1.0)
    return float(ser) if alphas.ndim == 1 else ser


Z95 = 1.959963984540054


def wilson_halfwidth(errors: int, n: int) -> float:
    """Half-width of the 95% Wilson score interval."""
    if n == 0:
        return 0.0
    p = errors / n
    denom = 1.0 + Z95 * Z95 / n
    return Z95 * math.sqrt(p * (1.0 - p) / n + Z95 * Z95 / (4.0 * n * n)) / denom


def clustered_halfwidth(clusters: int, n: int, n_sq: int, e: int, e_sq: int, en: int) -> float:
    """Half-width of the 95% cluster-robust interval of an error rate,
    Z sqrt(C/(C-1) sum_c (e_c - p n_c)^2) / sum_c n_c with p = sum e_c / sum n_c,
    from integer sums over the C clusters: n = sum n_c, n_sq = sum n_c^2,
    e = sum e_c, e_sq = sum e_c^2 and en = sum e_c n_c. NaN below two clusters.
    """
    if clusters < 2:
        return math.nan
    n, n_sq, e, e_sq, en = (int(v) for v in (n, n_sq, e, e_sq, en))
    # n^2 sum_c (e_c - p n_c)^2, exact in integers
    spread = e_sq * n * n - 2 * e * n * en + e * e * n_sq
    return Z95 * math.sqrt(clusters / (clusters - 1) * spread) / (n * n)


@dataclass
class SerPoint:
    """One Monte-Carlo SER point. ci95 is the Wilson half-width of independent
    symbols, so it is conditional on the drawn channels. ci95_clustered is
    the cluster-robust half-width with one cluster per coherence block, which
    holds every data UE's symbols of one fading draw, so it also covers the
    fading. pilot_collisions counts the UE pairs that share a pilot and a
    serving AP (see `channel.assign_pilots`)."""

    snr_db: float
    ser_theory: float
    ser_mc: float
    mc_symbols: int
    ci95: float
    ci95_clustered: float
    pilot_collisions: int


def ser_csv(points_by_scheme: dict[str, list[SerPoint]], mod: str) -> str:
    """SER table of the modulation `mod`, schemes in name order."""
    return report.csv_table(
        "scheme,modulation,snr_db,ser_theory,ser_mc,ci95,ci95_clustered,n_symbols",
        ((scheme, mod, p.snr_db, p.ser_theory, p.ser_mc, p.ci95, p.ci95_clustered, p.mc_symbols)
         for scheme in sorted(points_by_scheme) for p in points_by_scheme[scheme]))


# --- link-level AWGN reference ------------------------------------------------

def ser_awgn_mc(constel: np.ndarray, snr_db_grid, n_symbols: int, seed: int):
    """Single-link, perfect-CSI, unit-channel Monte-Carlo SER (textbook AWGN).
    Every symbol is its own cluster."""
    out = []
    regions = _decision_regions(constel)
    for i, snr_db in enumerate(np.atleast_1d(snr_db_grid)):
        sigma2 = 10.0 ** (-float(snr_db) / 10.0)
        rng = rng_stream(seed, "mc", 1000 + i)
        idx = rng.integers(0, constel.size, n_symbols)
        s = constel[idx]
        noise = math.sqrt(sigma2 / 2.0) * (rng.standard_normal(n_symbols)
                                           + 1j * rng.standard_normal(n_symbols))
        y = s + noise
        det = _ml_decisions(y, 1.0, constel, regions)
        errors = int(np.count_nonzero(det != idx))
        out.append(SerPoint(float(snr_db), math.nan, errors / n_symbols, n_symbols,
                            wilson_halfwidth(errors, n_symbols),
                            clustered_halfwidth(n_symbols, n_symbols, n_symbols,
                                                errors, errors, errors), 0))
    return out


# --- scenario-level Monte-Carlo -----------------------------------------------

# Stream tag of the SER coherence blocks, apart from `ser_awgn_mc`'s 1000 + i
# and the Pd streams 9xxxx
SER_BLOCK_STREAM = 93000


@dataclass
class _SchemeLinks:
    """The per-call state of one scheme: the positions among the call's APs
    of its APs, those serving a data UE; per serving link, the position of
    its AP among the scheme's APs, its UE, its row of the stacked (data UEs
    x the scheme's APs) combiners and its row of the stacked (pilots x the
    scheme's APs) pilot observations; the pilots and the pilot collisions."""

    pos: np.ndarray
    link_at: np.ndarray
    link_ue: np.ndarray
    link_row: np.ndarray
    link_obs: np.ndarray
    pilots: np.ndarray
    collisions: int


def _unit_complex(rng: np.random.Generator, shape) -> np.ndarray:
    """Complex normals whose real and imaginary parts are standard normal,
    drawn entry by entry, real part first."""
    return rng.standard_normal((*shape, 2)).view(complex)[..., 0]


def ser_monte_carlo(deployment: Deployment, config: SystemConfig, assocs: dict,
                    constel: np.ndarray, snr_db_grid, n_symbols: int, seed: int, reference,
                    budget: channel.LinkBudget, perfect_csi: bool = False):
    """Uplink SER of communication and JCAS UEs under each association of
    `assocs`, a mapping from scheme name to association matrix.

    Estimated channels (MMSE with the scheme's pilot reuse), MR combining over
    each UE's serving set, ML detection, every UE at unit transmit power.
    snr_db is the per-symbol receive SNR of a link whose gain is the median
    `budget.gain_lin` over the serving links of the association `reference`,
    so every scheme is drawn on one axis.

    Every UE sends pilots (sensing UEs contend for sequences too); only
    communication and JCAS UEs carry uplink data. The MR outputs are drawn in
    the combined domain: with v_k the stacked estimate of data UE k, zero off
    its serving set, UE k's output is v_k^H H s + v_k^H n, and its decision
    reads only that output, whose noise is complex normal with variance
    sigma2 |v_k|^2 (Bjornson, Hoydis & Sanguinetti, "Massive MIMO Networks",
    2017, ch. 4).

    Coherence block b of tau_c - tau_p symbols draws from its own stream
    rng_stream(seed, "mc", SER_BLOCK_STREAM, b), and every scheme, SNR point
    and CSI mode reads the same draws (common random numbers). In this order
    a block draws the unit fading (L, K, N) of every link from all L APs;
    the unit pilot noise (tau_p, L, N), indexed by pilot value (see
    `channel.pilot_rx`); the symbols (K_data, symbols); the unit output noise
    (K_data, symbols). Each noise and fading entry is one complex normal,
    drawn as its real part then its imaginary part (`_unit_complex`), and
    each SNR point only scales these draws, so each block is drawn once.
    Each scheme's filters are the noise-free factors of
    `channel.mmse_estimate` on its serving links, built once: per link, a
    block rotates the pilot observation by U^H (under local scattering), and
    each SNR point scales it by 1 / (lam + sigma2) and multiplies by B.

    Returns a flat list of SerPoint: each scheme's points in grid order,
    schemes in the order of `assocs`.
    """
    if n_symbols < 1:
        raise ValueError(f"n_symbols must be >= 1, got {n_symbols}")
    K, L, N, tau_p = deployment.K, deployment.L, config.N, config.tau_p
    data_ues = deployment.ue_indices(ServiceType.COM, ServiceType.JCAS)
    if data_ues.size == 0:
        raise InfeasibleModelError("no communication or JCAS UE carries uplink data")
    ref_gains = budget.gain_lin[np.asarray(reference) == 1]
    if ref_gains.size == 0:
        raise InfeasibleModelError("the reference association serves no link to "
                                   "calibrate the SNR axis on")
    g = budget.gain_lin / median(ref_gains)
    grid = np.atleast_1d(np.asarray(snr_db_grid, dtype=float))
    sigma2s = 10.0 ** (-grid / 10.0)

    served = [np.asarray(A) == 1 for A in assocs.values()]
    links = [association.serving_links(A, data_ues) for A in served]
    # the APs of either scheme, ascending (np.unique would import numpy.ma)
    aps = np.flatnonzero(np.bincount(np.concatenate([ap for _, ap in links]), minlength=L))
    schemes = []
    for A, (ue, ap) in zip(served, links):
        s_aps, at = np.unique(ap, return_inverse=True)
        k = data_ues[ue]
        pilots, collisions = channel.assign_pilots(A, tau_p)
        schemes.append(_SchemeLinks(np.searchsorted(aps, s_aps), at, k,
                                    ue * s_aps.size + at, pilots[k] * s_aps.size + at,
                                    pilots, collisions))
    C, C_sqrt = channel.link_correlations(deployment, config, aps)
    sqrt_g = np.sqrt(g[aps] / 2.0)[..., None]
    # under local scattering C is scaled in place into the correlations g_lk C_lk
    R = g[aps] if C is None else np.multiply(C, g[aps][..., None, None], out=C)

    sym_per_block = max(1, config.tau_c - config.tau_p)
    starts = range(0, n_symbols, sym_per_block)
    n_data = data_ues.size
    factors = [None if perfect_csi
               else channel.mmse_estimate(R, tau_p, s.pilots, s.pos[s.link_at], s.link_ue)
               for s in schemes]
    regions = _decision_regions(constel)
    # per (scheme, SNR point): sum e_b, sum e_b^2 and sum n_b e_b over the
    # blocks, e_b errors out of the n_b symbols of all data UEs in block b
    tally = np.zeros((len(schemes), grid.size, 3), dtype=np.int64)
    for block, start in enumerate(starts):
        nsym = min(sym_per_block, n_symbols - start)
        rng = rng_stream(seed, "mc", SER_BLOCK_STREAM, block)
        w = _unit_complex(rng, (L, K, N))[aps]
        pilot_noise = _unit_complex(rng, (tau_p, L, N))[:, aps]
        idx = rng.integers(0, constel.size, (n_data, nsym))
        out_noise = _unit_complex(rng, (n_data, nsym))
        h = sqrt_g * (w if C_sqrt is None else (C_sqrt @ w[..., None])[..., 0])
        for si, s in enumerate(schemes):
            e = _block_errors(s, factors[si], h, pilot_noise, idx, out_noise, constel, regions,
                              sigma2s, data_ues, tau_p)
            tally[si] += np.stack([e, e * e, nsym * n_data * e], axis=1)

    sizes = np.diff([*starts, n_symbols])
    n_tot = n_symbols * n_data
    clusters = (sizes.size, n_tot, n_data * n_data * int(sizes @ sizes))
    points = []
    for si, (s, (ue, ap)) in enumerate(zip(schemes, links)):
        betas, _, _ = association.padded_by_ue(ue, g[ap, data_ues[ue]], 0.0)
        for gi, (snr_db, sigma2) in enumerate(zip(grid, sigma2s)):
            c2 = residual_error_power(sigma2, K, tau_p, config.X)
            theory = float(np.mean(ser_theory(
                constel, effective_alpha(1.0, tau_p, betas, sigma2, config.X), sigma2, c2, N)))
            errors = int(tally[si, gi, 0])
            points.append(SerPoint(float(snr_db), theory, errors / n_tot, n_symbols,
                                   wilson_halfwidth(errors, n_tot),
                                   clustered_halfwidth(*clusters, *tally[si, gi]),
                                   s.collisions))
    return points


def _block_errors(s: _SchemeLinks, factors, h, pilot_noise, idx, out_noise,
                  constel: np.ndarray, regions, sigma2s, data_ues, tau_p: int) -> np.ndarray:
    """Symbol errors of one scheme in one coherence block at each noise
    variance of `sigma2s`, from the block's draws (see `ser_monte_carlo`): h
    (APs, K, N) and pilot_noise (tau_p, APs, N) over the call's APs, idx the
    symbols. `factors` holds the `channel.mmse_estimate` factors of the
    scheme's serving links, or is None for perfect CSI, where each link's
    estimate is its channel. The link estimates are scattered into the
    stacked combiners."""
    h_s = h if s.pos.size == h.shape[0] else h[s.pos]
    H = h_s.transpose(1, 0, 2)[data_ues]
    x = constel[idx]
    V = np.zeros((H.shape[0] * H.shape[1], H.shape[2]), dtype=complex)
    if factors is None:
        V[s.link_row] = h_s[s.link_at, s.link_ue]
        Gx, v_norm2 = _combined_signal(V, H, x)
    else:
        B, lam, U_h = factors
        y_p = channel.pilot_rx(h_s, tau_p, s.pilots, pilot_noise[:, s.pos], sigma2s)
        y_p = y_p.reshape(len(sigma2s), -1, y_p.shape[-1])
    errors = np.zeros(len(sigma2s), dtype=np.int64)
    for j, sigma2 in enumerate(sigma2s):
        if factors is not None:
            # each link reads its pilot at its AP, under local scattering in
            # the eigenbasis of its Q
            y = y_p[j].take(s.link_obs, axis=0)
            if U_h is None:
                V[s.link_row] = (B / (lam + sigma2))[:, None] * y
            else:
                y = (U_h @ y[..., None])[..., 0]
                y /= lam + sigma2
                V[s.link_row] = (B @ y[..., None])[..., 0]
            Gx, v_norm2 = _combined_signal(V, H, x)
        z = Gx + np.sqrt(sigma2 / 2.0 * v_norm2)[:, None] * out_noise
        det = _ml_decisions(z, v_norm2[:, None], constel, regions)
        errors[j] = np.count_nonzero(det != idx)
    return errors


def _combined_signal(V, H, x):
    """Noise-free MR outputs G x and |v_k|^2, with G = V^H H: the rows of the
    stacked combiners V (K_data * L, N) and of the channels H (K_data, L, N)
    of the data UEs are UE-major, so UE k's rows, flattened, are v_k or h_k
    stacked over the APs."""
    V = V.reshape(H.shape[0], -1)
    G = V.conj() @ H.reshape(V.shape).T
    return G @ x, (V.real ** 2 + V.imag ** 2).sum(axis=1)


# --- decision-metric statistics -------------------------------------------------

@dataclass
class DecisionMetricParams:
    h_hat: np.ndarray          # (N,)
    delta: complex             # symbol difference
    sigma2: float
    powers: tuple = ()         # per-UE uplink powers
    error_covs: tuple = ()     # matching per-UE estimation-error covariances


@dataclass
class DecisionMetricStats:
    mean: complex
    variance: float
    predicted_variance: float
    n_trials: int


def decision_metric_stats(n_trials: int, params: DecisionMetricParams,
                          rng: np.random.Generator) -> DecisionMetricStats:
    """Empirical mean/variance of J = u^H (n + estimation-error leakage)."""
    u = np.asarray(params.h_hat, dtype=complex) * params.delta
    n_dim = u.size
    v = math.sqrt(params.sigma2 / 2.0) * (rng.standard_normal((n_trials, n_dim))
                                          + 1j * rng.standard_normal((n_trials, n_dim)))
    cov = params.sigma2 * np.eye(n_dim)
    for p_k, B_k in zip(params.powers, params.error_covs):
        B_k = np.asarray(B_k, dtype=complex)
        half = channel.correlation_sqrt(B_k)
        wk = (rng.standard_normal((n_trials, n_dim)) + 1j * rng.standard_normal((n_trials, n_dim)))
        wk /= math.sqrt(2.0)
        v += math.sqrt(p_k) * wk @ half.T
        cov = cov + p_k * B_k
    j = v @ u.conj()
    predicted = float(np.vdot(u, cov @ u).real)
    return DecisionMetricStats(complex(j.mean()), float(j.var()), predicted, n_trials)
