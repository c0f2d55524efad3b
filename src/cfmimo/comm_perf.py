"""Communication performance: closed-form and Monte-Carlo symbol error rates.

The Monte-Carlo SNR grid is the SNR of a link with the median gain over the
serving links of a reference association; `cfmimo ser` passes SUA's, so
every scheme is drawn on SUA's axis.
"""

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
                    snr_db_grid, n_symbols: int, seed: int, reference,
                    budget: channel.LinkBudget, perfect_csi: bool = False):
    """Uplink SER of communication and JCAS UEs under a given association.

    Estimated channels (MMSE with the scheme's pilot reuse), MR combining over
    each UE's serving set, ML detection, every UE at unit transmit power.
    snr_db is the per-symbol receive SNR of a link whose gain is the median
    `budget.gain_lin` over the serving links of the association `reference`;
    passing the same reference to every scheme puts them on one axis.

    Every UE sends pilots (sensing UEs contend for sequences too); only
    communication and JCAS UEs carry uplink data. The MR outputs are drawn in
    the combined domain: with v_k the stacked estimate of data UE k, zero off
    its serving set, UE k's output is v_k^H H s + v_k^H n, and its decision
    reads only that output, whose noise is complex normal with variance
    sigma2 |v_k|^2 (Bjornson, Hoydis & Sanguinetti, "Massive MIMO Networks",
    2017, ch. 4).

    Each coherence block of tau_c - tau_p symbols draws from its own stream
    rng_stream(seed, "mc", snr_index, block), in this order: the fading of
    every link from a serving AP to every UE (real parts, then imaginary
    parts); with estimated CSI, the pilot noise of each pilot group in order
    of first use (see `channel.pilot_rx`); the data symbols; the output
    noise, a (K_data, symbols) block of real parts, then one of imaginary
    parts, each UE's row scaled to its own variance.
    """
    A = np.asarray(A) == 1
    K, N = deployment.K, config.N
    data_ues = deployment.ue_indices(ServiceType.COM, ServiceType.JCAS)
    if data_ues.size == 0:
        raise InfeasibleModelError("no communication or JCAS UE carries uplink data")
    for k in data_ues:
        if not A[:, k].any():
            raise InfeasibleModelError(f"UE {k} has an empty serving set")
    ref_gains = budget.gain_lin[np.asarray(reference) == 1]
    if ref_gains.size == 0:
        raise InfeasibleModelError("the reference association serves no link to "
                                   "calibrate the SNR axis on")
    g = budget.gain_lin / float(np.median(ref_gains))
    aps = np.flatnonzero(A[:, data_ues].any(axis=1))
    pilots = channel.assign_pilots({k: np.flatnonzero(A[:, k]) for k in range(K)},
                                   K, config.tau_p)

    C, C_sqrt = channel.link_correlations(deployment, config, aps)
    sqrt_g = np.sqrt(g[aps])[..., None]
    R = None if perfect_csi else g[aps][..., None, None] * C
    del C  # only R and the square roots are used from here on
    serves = A[np.ix_(aps, data_ues)][..., None]
    sym_per_block = max(1, config.tau_c - config.tau_p)

    points = []
    for gi, snr_db in enumerate(np.atleast_1d(snr_db_grid)):
        sigma2 = 10.0 ** (-float(snr_db) / 10.0)
        if R is not None:
            filt = None  # release the previous point's filters before building these
            filt = channel.mmse_estimate(R, 1.0, config.tau_p, pilots, sigma2, data_ues)
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
                y_p = channel.pilot_rx(h, 1.0, config.tau_p, pilots, sigma2, rng)
                h_hat = (filt @ y_p[:, data_ues, :, None])[..., 0]
            idx = rng.integers(0, constel.M, (data_ues.size, nsym))
            # with V = [v_k]: G = V^H H, (K_data, K_data), and |v_k|^2
            V = h_hat.transpose(0, 2, 1).reshape(-1, data_ues.size)
            H = h[:, data_ues].transpose(0, 2, 1).reshape(-1, data_ues.size)
            G = V.conj().T @ H
            v_norm2 = (V.real ** 2 + V.imag ** 2).sum(axis=0)
            noise = rng.standard_normal((2, data_ues.size, nsym))
            z = G @ constel.points[idx] \
                + np.sqrt(sigma2 / 2.0 * v_norm2)[:, None] * (noise[0] + 1j * noise[1])
            det = np.argmin(np.abs(z[..., None] - v_norm2[:, None, None] * constel.points) ** 2,
                            axis=-1)
            errors += int(np.count_nonzero(det != idx))

        c2 = residual_error_power(sigma2, K, config.tau_p, config.X)
        theory = float(np.mean([
            ser_theory(constel,
                       effective_alpha(1.0, config.tau_p, g[A[:, k], k], sigma2, config.X),
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
