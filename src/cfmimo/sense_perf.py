"""Sensing performance: Bessel and Marcum Q functions, envelope densities, the
envelope detector's threshold, and closed-form and Monte-Carlo detection
probability."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cfmimo import channel
from cfmimo.scenario import Deployment, InfeasibleModelError, ServiceType, SystemConfig, rng_stream

_SERIES_CUTOFF = 30.0


def _i0_series(x: float) -> float:
    # all-positive power series, numerically stable for moderate x
    term = 1.0
    total = 1.0
    q = x * x / 4.0
    k = 1
    while True:
        term *= q / (k * k)
        total += term
        if term < total * 1e-17:
            return total
        k += 1


def _i0_asymptotic_scaled(x: float) -> float:
    # e^{-x} I0(x) ~ (2 pi x)^{-1/2} sum a_k / x^k, truncated where terms stop shrinking
    total = 1.0
    term = 1.0
    for k in range(1, 30):
        factor = (2 * k - 1) ** 2 / (8.0 * k * x)
        if factor >= 1.0:
            break
        term *= factor
        total += term
        if term < 1e-18:
            break
    return total / math.sqrt(2.0 * math.pi * x)


def bessel_i0(x: float) -> float:
    """Modified Bessel function I0: power series below 30, asymptotic above."""
    x = abs(float(x))
    if x <= _SERIES_CUTOFF:
        return _i0_series(x)
    return _i0_asymptotic_scaled(x) * math.exp(x)


def bessel_i0_scaled(x: float) -> float:
    """exp(-x) I0(x), overflow-safe for large arguments."""
    x = abs(float(x))
    if x <= _SERIES_CUTOFF:
        return _i0_series(x) * math.exp(-x)
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

def false_alarm_monte_carlo(p_fa: float, n_trials: int, seed: int) -> float:
    """Empirical false-alarm rate of the envelope detector under H0, at unit
    clutter + noise power."""
    eta = detection_threshold(p_fa, 1.0)
    rng = rng_stream(seed, "mc", 90001)
    u = math.sqrt(0.5) * (rng.standard_normal(n_trials) + 1j * rng.standard_normal(n_trials))
    return float(np.count_nonzero(np.abs(u) > eta)) / n_trials


def pd_chain_monte_carlo(scnr: float, p_fa: float, n_trials: int, seed: int,
                         stream_tag: int = 0) -> float:
    """Empirical detection rate of the matched-envelope chain at a given SCNR.

    The target amplitude is held at the value realizing the requested SCNR
    (random phase per trial) so the run is comparable against the closed form.
    """
    eta = detection_threshold(p_fa, 1.0)
    rng = rng_stream(seed, "mc", 91000 + stream_tag)
    phase = np.exp(2j * math.pi * rng.random(n_trials))
    noise = math.sqrt(0.5) * (rng.standard_normal(n_trials) + 1j * rng.standard_normal(n_trials))
    u = math.sqrt(scnr) * phase + noise
    return float(np.count_nonzero(np.abs(u) > eta)) / n_trials


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
    lines = ["scheme,ue_id,scnr_db,pd_formula,pd_mc,n_trials,p_fa"]
    for p in points:
        lines.append(
            f"{p.scheme},{p.ue},{repr(float(p.scnr_db))},{repr(float(p.pd_formula))},"
            f"{repr(float(p.pd_mc))},{p.n_trials},{repr(float(p.p_fa))}"
        )
    return "\n".join(lines) + "\n"


def _sensing_link_terms(deployment: Deployment, config: SystemConfig, A,
                        budget: channel.LinkBudget | None = None,
                        geom: channel.ClutterGeometry | None = None):
    """Per sensing/JCAS UE: serving APs with echo strength and clutter level.

    Echo strength is the two-way link gain; the clutter+noise power per AP is
    normalized to unit thermal noise, so sigma_phi2 = 1 + clutter/noise.
    """
    if budget is None:
        budget = channel.link_budget(deployment, config)
    if geom is None:
        geom = channel.clutter_geometry(deployment, config.pathloss)
    ues = deployment.ue_indices(ServiceType.SENSE, ServiceType.JCAS)
    served = np.asarray(A)[:, ues].T == 1
    n_serving = served.sum(axis=1)
    if np.any(n_serving == 0):
        raise InfeasibleModelError(
            f"sensing UE {ues[np.argmin(n_serving)]} has an empty serving set")
    # links grouped by UE, each UE's serving APs in ascending order
    col, l_idx = np.nonzero(served)
    k_idx = ues[col]
    pc, _ = channel.clutter_returns(geom, deployment, config, l_idx, k_idx,
                                    budget.distance_m[l_idx, k_idx])
    echo = channel.db_to_lin(-2.0 * budget.pl_db[l_idx, k_idx])
    sig_phi2 = 1.0 + pc / config.noise_power_w()
    cuts = np.cumsum(n_serving)[:-1]
    return {int(k): (serving, e, sp2) for k, serving, e, sp2 in
            zip(ues, np.split(l_idx, cuts), np.split(echo, cuts), np.split(sig_phi2, cuts))}


def effective_scnr(echo, sigma_phi2, scale: float) -> float:
    """Aggregate SCNR of the unweighted cross-AP sum of matched outputs.

    The serving APs' per-AP amplitudes add coherently while their clutter+noise
    powers add in the denominator: (sum_l m_l)^2 / sum_l sigma_l^2.
    """
    m = np.sqrt(scale * np.asarray(echo, dtype=float))
    return float(m.sum() ** 2 / np.asarray(sigma_phi2, dtype=float).sum())


def _scale_ref(terms: dict, grid) -> dict:
    scale_ref = {}
    for k, (_, echo, sp2) in terms.items():
        unit = effective_scnr(echo, sp2, 1.0)
        scale_ref[k] = {float(s): 10.0 ** (s / 10.0) / unit for s in grid}
    return scale_ref


def pd_scale_ref(deployment: Deployment, config: SystemConfig, A, scnr_grid_db,
                 budget: channel.LinkBudget | None = None,
                 geom: channel.ClutterGeometry | None = None) -> dict:
    """Per sensing/JCAS UE and grid value, the echo scale that puts the UE's
    aggregate SCNR under association A at that value: {k: {scnr_db: scale}}."""
    return _scale_ref(_sensing_link_terms(deployment, config, A, budget, geom),
                      np.atleast_1d(np.asarray(scnr_grid_db, dtype=float)))


def pd_monte_carlo(deployment: Deployment, config: SystemConfig, assocs: dict,
                   scnr_grid_db, n_trials: int, seed: int,
                   scale_ref: dict | None = None,
                   budget: channel.LinkBudget | None = None,
                   geom: channel.ClutterGeometry | None = None):
    """Detection curves for sensing and JCAS UEs under each association of
    `assocs`, a mapping from scheme name to association matrix.

    Each serving AP contributes a matched-filter output with the link's echo
    strength and its own clutter+noise floor; outputs are summed unweighted
    across the serving set and the envelope is thresholded at the P_FA point.
    The grid is calibrated so the aggregate SCNR under the reference
    association equals the grid value: scale_ref from `pd_scale_ref`, or when
    absent from the first association of `assocs`. The deployment's link
    budget and clutter geometry are built here unless passed.
    Per (UE, grid point) the target phases and the unit noise come from one
    stream rng_stream(seed, "mc", 92000, k, gi), and every scheme's detector
    sees those same draws, scaled to its own serving set.

    Returns (points, scale_ref); points holds each scheme's per-UE points and
    then its aggregates, schemes in the order of `assocs`.
    """
    terms = {scheme: _sensing_link_terms(deployment, config, A, budget, geom)
             for scheme, A in assocs.items()}

    grid = np.atleast_1d(np.asarray(scnr_grid_db, dtype=float))
    if scale_ref is None:
        scale_ref = _scale_ref(next(iter(terms.values())), grid)

    points = {scheme: [] for scheme in terms}
    agg_rows = {scheme: {} for scheme in terms}  # gi -> [(formula, rate)] over UEs
    for k in sorted(next(iter(terms.values()))):
        for gi, scnr_db in enumerate(grid):
            scale = scale_ref[k][float(scnr_db)]
            rng = rng_stream(seed, "mc", 92000, k, gi)
            phase = np.exp(2j * math.pi * rng.random(n_trials))
            unit_noise = rng.standard_normal(n_trials) + 1j * rng.standard_normal(n_trials)
            for scheme, by_ue in terms.items():
                _, echo, sp2 = by_ue[k]
                sig_tot = float(sp2.sum())
                eta = detection_threshold(config.p_fa, sig_tot)
                m_tot = float(np.sqrt(scale * echo).sum())
                u = phase * m_tot + math.sqrt(sig_tot / 2.0) * unit_noise
                rate = float(np.count_nonzero(np.abs(u) > eta)) / n_trials
                formula = pd_single(effective_scnr(echo, sp2, scale), config.p_fa)
                points[scheme].append(PdPoint(scheme, str(k), float(scnr_db), formula, rate,
                                              n_trials, config.p_fa))
                agg_rows[scheme].setdefault(gi, []).append((formula, rate))

    out = []
    for scheme, scheme_points in points.items():
        out += scheme_points
        for gi, rows in sorted(agg_rows[scheme].items()):
            out.append(PdPoint(scheme, "aggregate", float(grid[gi]),
                               float(np.mean([r[0] for r in rows])),
                               float(np.mean([r[1] for r in rows])), n_trials, config.p_fa))
    return out, scale_ref
