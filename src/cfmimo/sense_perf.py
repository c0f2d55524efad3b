"""Sensing performance: Bessel and Marcum Q functions, envelope densities, the
envelope detector's threshold, and closed-form and Monte-Carlo detection
probability.

The Monte-Carlo SCNR grid is each UE's aggregate SCNR under a reference
association; `cfmimo pd` passes SUA's, so every scheme is drawn on SUA's axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cfmimo import association, channel, report
from cfmimo.scenario import Deployment, InfeasibleModelError, ServiceType, SystemConfig, rng_stream

_SERIES_CUTOFF = 30.0


def _i0_asymptotic_scaled(x: float) -> float:
    # e^{-x} I0(x) ~ (2 pi x)^{-1/2} sum a_k / x^k. Callers pass x > _SERIES_CUTOFF,
    # where each term ratio (2k-1)^2 / (8kx) is below 0.47 for k < 30, so the
    # terms shrink throughout; truncated at 29 terms or below 1e-18
    total = 1.0
    term = 1.0
    for k in range(1, 30):
        term *= (2 * k - 1) ** 2 / (8.0 * k * x)
        total += term
        if term < 1e-18:
            break
    return total / math.sqrt(2.0 * math.pi * x)


def bessel_i0(x: float) -> float:
    """Modified Bessel function I0 (numpy's Chebyshev evaluation)."""
    return float(np.i0(x))


def bessel_i0_scaled(x: float) -> float:
    """exp(-x) I0(x): numpy's I0 up to 30, an asymptotic expansion above,
    where I0 alone would overflow for large arguments."""
    x = abs(float(x))
    if x <= _SERIES_CUTOFF:
        return bessel_i0(x) * math.exp(-x)
    return _i0_asymptotic_scaled(x)


def marcum_q1(a: float, b: float) -> float:
    """First-order Marcum Q via the Poisson-weighted gamma-tail series.

    Truncation is controlled by the Poisson tail mass (every gamma tail is at
    most 1), giving a rigorous absolute error below 1e-14.
    """
    if a < 0 or b < 0:
        raise ValueError("marcum_q1 requires a, b >= 0")
    if b == 0.0:
        return 1.0
    y = b * b / 2.0
    if a == 0.0:
        return math.exp(-y)
    # saturation shortcuts: |1 - Q1| and Q1 are bounded by exp(-(a-b)^2/2) on
    # the respective sides, below 1e-40 at a gap of 14
    if a - b >= 14.0:
        return 1.0
    if b - a >= 14.0:
        return 0.0
    lam = a * a / 2.0
    if lam > 600.0 or y > 600.0:
        return _marcum_q1_log_weights(lam, y)
    p = math.exp(-lam)       # Poisson(k; lam) weight
    e = math.exp(-y)         # Poisson(j; y) term for the gamma tail
    g = e                    # P(Gamma(k+1) > y), k = 0
    total = p * g
    cum = p
    k = 0
    while 1.0 - cum > 1e-15 or k < lam:
        k += 1
        p *= lam / k
        e *= y / k
        g += e
        total += p * g
        cum += p
        if k > 10000:
            break
    return min(total, 1.0)


def _log_poisson(k: int, mean: float) -> float:
    """log Poisson(k; mean) for k >= 30, in Stirling form: its large terms
    cancel analytically, so the error stays near 1e-14 at any mean."""
    x = (mean - k) / k
    stirling = 1.0 / (12.0 * k) - 1.0 / (360.0 * k ** 3) + 1.0 / (1260.0 * k ** 5)
    return k * (math.log1p(x) - x) - 0.5 * math.log(2.0 * math.pi * k) - stirling


def _marcum_q1_log_weights(lam: float, y: float) -> float:
    """The series of `marcum_q1` where exp(-lam) or exp(-y) would underflow.

    Q1 = sum_k Poisson(k; lam) P(Poisson(y) <= k), summed over
    k = lam -+ 12 sqrt(lam), outside which the Poisson(lam) mass is below
    1e-25. The first weight and the first gamma tail come from logarithms;
    the recursions of `marcum_q1` run on from there. Past its saturation
    shortcuts, lam or y above 600 puts both above 210, so k starts above 30.
    """
    sd = math.sqrt(lam)
    k = int(lam - 12.0 * sd)
    k_end = int(lam + 12.0 * sd) + 1
    e = math.exp(_log_poisson(k, y))  # Poisson(k; y)
    # P(Poisson(y) <= k), summed from its largest terms outward
    if k < y:
        g, term, j = e, e, k
        while j > 0 and term > g * 1e-17:
            term *= j / y
            g += term
            j -= 1
    else:
        tail, term, j = 0.0, e, k
        while term > 1e-17:
            j += 1
            term *= y / j
            tail += term
        g = 1.0 - tail
    p = math.exp(_log_poisson(k, lam))
    total = p * g
    while k < k_end:
        k += 1
        p *= lam / k
        e *= y / k
        g += e
        total += p * g
    return min(total, 1.0)


def rayleigh_pdf(z, sigma_phi2: float):
    """Envelope density under clutter+noise only: (2z/s2) exp(-z^2/s2)."""
    z = np.asarray(z, dtype=float)
    out = np.where(z >= 0, 2.0 * z / sigma_phi2 * np.exp(-z * z / sigma_phi2), 0.0)
    return float(out) if out.ndim == 0 else out


def rician_pdf(z, m: float, sigma_phi2: float):
    """Envelope density with a target of non-centrality m present."""
    zs = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.zeros_like(zs)
    for i, zv in enumerate(zs):
        if zv < 0:
            continue
        # exp(-(z^2+m^2)/s2) I0(2mz/s2) evaluated in scaled form to avoid overflow
        arg = 2.0 * m * zv / sigma_phi2
        out[i] = (2.0 * zv / sigma_phi2) * math.exp(-(zv - m) ** 2 / sigma_phi2) \
            * bessel_i0_scaled(arg)
    return float(out[0]) if np.asarray(z).ndim == 0 else out


def detection_threshold(p_fa: float, sigma_phi2: float) -> float:
    """Envelope threshold eta = sigma_phi sqrt(-ln P_FA) at clutter + noise
    power sigma_phi2."""
    if not (0.0 < p_fa < 1.0):
        raise ValueError(f"p_fa must be in (0, 1), got {p_fa}")
    if not sigma_phi2 > 0:
        raise ValueError(f"sigma_phi2 must be > 0, got {sigma_phi2}")
    return math.sqrt(sigma_phi2) * math.sqrt(-math.log(p_fa))


def pd_single(scnr: float, p_fa: float) -> float:
    """Detection probability Q1(sqrt(2 SCNR), sqrt(-2 ln P_FA))."""
    if scnr < 0:
        raise ValueError("scnr must be >= 0")
    return marcum_q1(math.sqrt(2.0 * scnr), math.sqrt(-2.0 * math.log(p_fa)))


# --- Monte-Carlo chains -------------------------------------------------------

def _detection_rate(m, sigma2, eta, noise: np.ndarray) -> np.ndarray:
    """Per (m, sigma2, eta) pair, the fraction of trials whose envelope
    |m + sqrt(sigma2/2) (nr + j ni)| exceeds eta; m, sigma2 and eta broadcast
    to the pairs' shape, and every pair reads the same draw, the unit normals
    (nr, ni) of noise, shape (2, trials).

    The target phase is not drawn: for circular Gaussian noise, |e^{j theta} m + n|
    has the law of |m + n|. With a = sqrt(sigma2/2) each pair's test reads
    (nr + m/a)^2 + ni^2 > (eta/a)^2 per trial; ni^2 is formed once for all
    pairs, so each pair's count equals that of a call for it alone.
    """
    m, sigma2, eta = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (m, sigma2, eta)))
    nr, ni = noise
    ni2 = ni * ni
    counts = np.empty(m.shape)
    for idx in np.ndindex(m.shape):
        a = math.sqrt(sigma2[idx] / 2.0)
        counts[idx] = np.count_nonzero((nr + m[idx] / a) ** 2 + ni2 > (eta[idx] / a) ** 2)
    return counts / nr.size


def false_alarm_monte_carlo(p_fa: float, n_trials: int, seed: int) -> float:
    """Empirical false-alarm rate of the envelope detector under H0, at unit
    clutter + noise power."""
    rng = rng_stream(seed, "mc", 90001)
    return float(_detection_rate(0.0, 1.0, detection_threshold(p_fa, 1.0),
                                 rng.standard_normal((2, n_trials))))


def pd_chain_monte_carlo(scnr: float, p_fa: float, n_trials: int, seed: int,
                         stream_tag: int) -> float:
    """Empirical detection rate of the matched-envelope chain at a given SCNR,
    at unit clutter + noise power.

    The target amplitude is held at the value realizing the requested SCNR
    so the run is comparable against the closed form.
    """
    rng = rng_stream(seed, "mc", 91000 + stream_tag)
    return float(_detection_rate(math.sqrt(scnr), 1.0, detection_threshold(p_fa, 1.0),
                                 rng.standard_normal((2, n_trials))))


@dataclass
class PdPoint:
    scheme: str
    ue: str                 # UE id or "aggregate"
    scnr_db: float
    pd_formula: float
    pd_mc: float
    n_trials: int
    p_fa: float


def pd_csv(points: list[PdPoint]) -> str:
    return report.csv_table("scheme,ue_id,scnr_db,pd_formula,pd_mc,n_trials,p_fa",
                            ((p.scheme, p.ue, p.scnr_db, p.pd_formula, p.pd_mc, p.n_trials, p.p_fa)
                             for p in points))


def _sensing_link_terms(deployment: Deployment, config: SystemConfig, A,
                        budget: channel.LinkBudget, geom: channel.ClutterGeometry):
    """The sensing and JCAS UEs, ascending, and per UE two sums over its
    serving APs: the echo amplitudes and the clutter+noise powers.

    A link's echo amplitude is its one-way gain, the square root of its
    two-way gain; its clutter+noise power is normalized to unit thermal
    noise, 1 + clutter/noise. The envelope detector reads only these sums.
    """
    ues = deployment.ue_indices(ServiceType.SENSE, ServiceType.JCAS)
    if ues.size == 0:
        raise InfeasibleModelError("no sensing or JCAS UE to detect")
    col, l_idx = association.serving_links(A, ues)
    k_idx = ues[col]
    pc, _ = channel.clutter_returns(geom, deployment, config, l_idx, k_idx,
                                    budget.distance_m[l_idx, k_idx])
    amp = np.bincount(col, budget.gain_lin[l_idx, k_idx], ues.size)
    sig = np.bincount(col, 1.0 + pc / config.noise_power_w(), ues.size)
    return ues, amp, sig


def pd_monte_carlo(deployment: Deployment, config: SystemConfig, assocs: dict, reference,
                   scnr_grid_db, n_trials: int, seed: int, budget: channel.LinkBudget,
                   geom: channel.ClutterGeometry):
    """Detection curves for sensing and JCAS UEs under each association of
    `assocs`, a mapping from scheme name to association matrix.

    Each serving AP contributes a matched-filter output with the link's echo
    amplitude and its own clutter+noise floor; outputs are summed unweighted
    across the serving set and the envelope is thresholded at the P_FA point.
    With amp and sig a UE's sums from `_sensing_link_terms`, its detector
    sees the amplitude sqrt(scale) amp in noise of power sig, and
    pd_formula = pd_single(scale amp^2 / sig).
    The grid is each UE's aggregate SCNR under the association `reference`:
    the echo scale of UE k at grid value g is 10^(g/10) sig_k / amp_k^2, with
    the sums taken under `reference`.
    Per UE one pair of unit normals per trial comes from the stream
    rng_stream(seed, "mc", 92000, k), all real parts then all imaginary
    parts, one (2, n_trials) draw. Every (scheme, grid point) of that UE
    reads this same draw (common random numbers), scaled to the scheme's
    serving set and the point's echo scale, so each point keeps its marginal
    law and draws stay independent across UEs. No target phase is drawn (see
    `_detection_rate`).

    Returns (points, scale); points holds each scheme's per-UE points and then
    its aggregates, schemes in the order of `assocs`; scale is the
    (UEs, grid) array of echo scales.
    """
    grid = np.atleast_1d(np.asarray(scnr_grid_db, dtype=float))
    ues, amp_ref, sig_ref = _sensing_link_terms(deployment, config, reference, budget, geom)
    scale = (sig_ref / amp_ref ** 2)[:, None] * 10.0 ** (grid / 10.0)
    # (scheme, UE) sums of each association
    amp, sig = np.array([_sensing_link_terms(deployment, config, A, budget, geom)[1:]
                         for A in assocs.values()]).transpose(1, 0, 2)
    eta = np.array([[detection_threshold(config.p_fa, s) for s in row] for row in sig])

    # (scheme, grid point, UE): each aggregate is then a mean over a contiguous row
    formula = np.empty((len(assocs), grid.size, ues.size))
    rate = np.empty_like(formula)
    for i, k in enumerate(ues):
        noise = rng_stream(seed, "mc", 92000, k).standard_normal((2, n_trials))
        rate[..., i] = _detection_rate(np.sqrt(scale[i]) * amp[:, i, None], sig[:, i, None],
                                       eta[:, i, None], noise)
        for si in range(len(assocs)):
            for gi in range(grid.size):
                formula[si, gi, i] = pd_single(scale[i, gi] * amp[si, i] ** 2 / sig[si, i],
                                               config.p_fa)

    points = []
    for si, scheme in enumerate(assocs):
        points += [PdPoint(scheme, str(k), float(g), float(formula[si, gi, i]),
                           float(rate[si, gi, i]), n_trials, config.p_fa)
                   for i, k in enumerate(ues) for gi, g in enumerate(grid)]
        points += [PdPoint(scheme, "aggregate", float(g), float(f), float(r), n_trials,
                           config.p_fa)
                   for g, f, r in zip(grid, formula[si].mean(axis=1), rate[si].mean(axis=1))]
    return points, scale
