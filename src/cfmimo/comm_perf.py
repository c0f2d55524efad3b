"""Communication performance: closed-form and Monte-Carlo symbol error rates."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cfmimo import channel
from cfmimo.scenario import (
    Deployment,
    InfeasibleModelError,
    ServiceType,
    SystemConfig,
    rng_stream,
)


@dataclass
class Constellation:
    name: str
    points: np.ndarray  # unit average energy

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=complex)
        energy = float(np.mean(np.abs(self.points) ** 2))
        if abs(energy - 1.0) > 1e-12:
            raise ValueError(f"constellation {self.name} mean energy {energy!r} != 1")
        diffs = [abs(a - b) for i, a in enumerate(self.points) for b in self.points[i + 1:]]
        if min(diffs) <= 0:
            raise ValueError(f"constellation {self.name} has coincident points")

    @property
    def M(self) -> int:
        return len(self.points)


BPSK = Constellation("BPSK", np.array([1.0, -1.0]))
# Gray-labelled QPSK, unit symbol energy
QPSK = Constellation("QPSK", np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / math.sqrt(2.0))

_BY_NAME = {"bpsk": BPSK, "qpsk": QPSK}


def constellation(name: str) -> Constellation:
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise ValueError(f"unknown modulation {name!r} (expected bpsk or qpsk)") from None


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


def ser_theory(constel: Constellation, alphas, sigma2: float, c2: float, N: int) -> float:
    """Closed-form SER, clamped to [0, 1]: the union bound
    sum_{i != j} PEP(i -> j) / M over the ordered symbol pairs.

    With D = 2 (sigma2 + c2) and s_l = alpha_l |s_i - s_j|^2, PEP(i -> j) is
    the two-exponential Q approximation averaged over the fading,
    MGF(-1/(4D)) / 12 + MGF(-1/(3D)) / 4 with MGF(t) = prod_l (1 - t s_l)^-N.
    All pairs and links are one array expression; the pair terms are then
    added in (i, j) order, one after the other.
    """
    pts = constel.points
    i, j = np.nonzero(~np.eye(constel.M, dtype=bool))
    d2 = np.abs(pts[i] - pts[j]) ** 2
    link_sums = np.atleast_1d(np.asarray(alphas, dtype=float))[None, :] * d2[:, None]
    D = 2.0 * (sigma2 + c2)
    mgf = []
    for t in (-1.0 / (4.0 * D), -1.0 / (3.0 * D)):
        terms = 1.0 - t * link_sums
        if np.any(terms <= 0.0):
            raise ValueError("MGF evaluated beyond its pole (1 - t*s <= 0)")
        mgf.append(np.prod(terms ** (-float(N)), axis=1))
    total = 0.0
    for pep in (mgf[0] / 12.0 + mgf[1] / 4.0).tolist():
        total += pep
    return min(max(total / constel.M, 0.0), 1.0)


def wilson_halfwidth(errors: int, n: int) -> float:
    """Half-width of the 95% Wilson score interval."""
    z = 1.959963984540054
    if n == 0:
        return 0.0
    p = errors / n
    denom = 1.0 + z * z / n
    return z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom


@dataclass
class SerPoint:
    snr_db: float
    ser_theory: float
    ser_mc: float
    mc_symbols: int
    ci95: float


def ser_csv(points_by_scheme: dict[str, dict[str, list[SerPoint]]]) -> str:
    lines = ["scheme,modulation,snr_db,ser_theory,ser_mc,ci95,n_symbols"]
    for scheme in sorted(points_by_scheme):
        for mod in sorted(points_by_scheme[scheme]):
            for p in points_by_scheme[scheme][mod]:
                lines.append(
                    f"{scheme},{mod},{repr(float(p.snr_db))},{repr(float(p.ser_theory))},"
                    f"{repr(float(p.ser_mc))},{repr(float(p.ci95))},{p.mc_symbols}"
                )
    return "\n".join(lines) + "\n"


# --- link-level AWGN reference ------------------------------------------------

def ser_awgn_mc(constel: Constellation, snr_db_grid, n_symbols: int, seed: int):
    """Single-link, perfect-CSI, unit-channel Monte-Carlo SER (textbook AWGN)."""
    out = []
    for i, snr_db in enumerate(np.atleast_1d(snr_db_grid)):
        sigma2 = 10.0 ** (-float(snr_db) / 10.0)
        rng = rng_stream(seed, "mc", 1000 + i)
        idx = rng.integers(0, constel.M, n_symbols)
        s = constel.points[idx]
        noise = math.sqrt(sigma2 / 2.0) * (rng.standard_normal(n_symbols)
                                           + 1j * rng.standard_normal(n_symbols))
        y = s + noise
        det = np.argmin(np.abs(y[:, None] - constel.points[None, :]) ** 2, axis=1)
        errors = int(np.count_nonzero(det != idx))
        out.append(SerPoint(float(snr_db), math.nan, errors / n_symbols, n_symbols,
                            wilson_halfwidth(errors, n_symbols)))
    return out


# --- scenario-level Monte-Carlo -----------------------------------------------

def ser_monte_carlo(deployment: Deployment, config: SystemConfig, A, constel: Constellation,
                    snr_db_grid, n_symbols: int, seed: int, perfect_csi: bool = False,
                    gain_ref: float | None = None, budget: channel.LinkBudget | None = None):
    """Uplink SER of communication and JCAS UEs under a given association.

    Estimated channels (MMSE with the scheme's pilot reuse), MR combining over
    each UE's serving set, ML detection.  snr_db is the per-symbol receive SNR
    of a reference link with gain `gain_ref` (default: median gain over the
    serving links of A); the same reference must be reused across schemes to
    put them on one axis.  The deployment's link budget is built here unless
    passed.

    Every UE sends pilots (sensing UEs contend for sequences too); only
    communication and JCAS UEs carry uplink data. Each coherence block of
    tau_c - tau_p symbols draws from its own stream rng_stream(seed, "mc",
    snr_index, block), in this order: the fading of every link from a serving
    AP to every UE (real parts, then imaginary parts); with estimated CSI, the
    pilot noise of each pilot group in order of first use (see
    `channel.pilot_rx`); the data symbols; the data noise (real parts, then
    imaginary parts).
    """
    A = np.asarray(A) == 1
    K, N = deployment.K, config.N
    if budget is None:
        budget = channel.link_budget(deployment, config)
    gains = budget.gain_lin
    if gain_ref is None:
        gain_ref = float(np.median(gains[A])) if A.any() else 1.0
    g = gains / gain_ref

    p_lin = channel.dbm_to_watts(deployment.ue_power_dbm)
    p_rel = p_lin / float(np.median(p_lin))

    data_ues = deployment.ue_indices(ServiceType.COM, ServiceType.JCAS)
    for k in data_ues:
        if not A[:, k].any():
            raise InfeasibleModelError(f"UE {k} has an empty serving set")
    aps = np.flatnonzero(A[:, data_ues].any(axis=1))
    pilots = channel.assign_pilots({k: np.flatnonzero(A[:, k]) for k in range(K)},
                                   K, config.tau_p)

    C, C_sqrt = channel.link_correlations(deployment, config, aps)
    sqrt_g = np.sqrt(g[aps])[..., None]
    R = None if perfect_csi else g[aps][..., None, None] * C
    del C  # only R and the square roots are used from here on
    serves = A[np.ix_(aps, data_ues)][..., None]
    amp_tx = np.sqrt(p_rel[data_ues])[:, None]
    sym_per_block = max(1, config.tau_c - config.tau_p)

    points = []
    for gi, snr_db in enumerate(np.atleast_1d(snr_db_grid)):
        sigma2 = 10.0 ** (-float(snr_db) / 10.0)
        if R is not None:
            filt = None  # release the previous point's filters before building these
            filt = channel.mmse_estimate(R, p_rel, config.tau_p, pilots, sigma2, data_ues)
            filt *= serves[..., None]
        errors = 0
        for block, done in enumerate(range(0, n_symbols, sym_per_block)):
            nsym = min(sym_per_block, n_symbols - done)
            rng = rng_stream(seed, "mc", gi, block)
            w = rng.standard_normal((aps.size, K, N)) + 1j * rng.standard_normal((aps.size, K, N))
            w /= math.sqrt(2.0)
            h = sqrt_g * (w if C_sqrt is None else (C_sqrt @ w[..., None])[..., 0])
            if R is None:
                h_hat = serves * h[:, data_ues]
            else:
                y_p = channel.pilot_rx(h, p_rel, config.tau_p, pilots, sigma2, rng)
                h_hat = (filt @ y_p[:, data_ues, :, None])[..., 0]
            idx = rng.integers(0, constel.M, (data_ues.size, nsym))
            z = channel.mr_combine(h_hat, channel.ul_data_rx(h[:, data_ues] * amp_tx,
                                                             constel.points[idx], sigma2, rng))
            gain = amp_tx * np.einsum("lkn,lkn->k", h_hat.conj(), h_hat).real[:, None]
            det = np.argmin(np.abs(z[..., None] - gain[..., None] * constel.points) ** 2, axis=-1)
            errors += int(np.count_nonzero(det != idx))

        c2 = residual_error_power(sigma2, K, config.tau_p, config.X)
        theory = float(np.mean([
            ser_theory(constel,
                       effective_alpha(p_rel[k], config.tau_p, g[A[:, k], k], sigma2, config.X),
                       sigma2, c2, N)
            for k in data_ues
        ]))
        n_tot = n_symbols * data_ues.size
        points.append(SerPoint(float(snr_db), theory, errors / n_tot, n_symbols,
                               wilson_halfwidth(errors, n_tot)))
    return points


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
