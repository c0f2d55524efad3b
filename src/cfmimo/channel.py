"""Propagation, spatial correlation, pilot-based MMSE estimation, uplink data and
MR combining, and the clutter returns inside each link's sensing lobe."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cfmimo.scenario import Deployment, PathLossParams, SystemConfig, rng_stream

# Sensing-lobe membership rule for clutter accounting (the spatial clutter
# model is an artifact choice): a scatterer affects link (l, k) when it lies
# within a cone of half-angle BEAM_HALF_ANGLE_FACTOR/N radians about the
# AP->UE bearing and no farther than CLUTTER_RANGE_FACTOR times the link
# distance from the AP.
BEAM_HALF_ANGLE_FACTOR = 2.0
CLUTTER_RANGE_FACTOR = 1.2

SPEED_OF_LIGHT = 299792458.0


def db_to_lin(db):
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


def dbm_to_watts(dbm):
    return 10.0 ** ((np.asarray(dbm, dtype=float) - 30.0) / 10.0)


def path_loss_db(params: PathLossParams, d_m, shadow_db=0.0):
    """Log-distance loss PL0 + 10*gamma*log10(d/d0) + shadow; d clamped at d0."""
    d = np.maximum(np.asarray(d_m, dtype=float), params.d0_m)
    return params.pl0_db + 10.0 * params.gamma_pl * np.log10(d / params.d0_m) + shadow_db


def rssi_dbm(p_t_dbm, pl_db):
    return np.asarray(p_t_dbm, dtype=float) - np.asarray(pl_db, dtype=float)


@dataclass
class LinkBudget:
    """Per-(AP, UE) large-scale state with shadowing frozen per deployment.

    The same frozen shadow realization feeds RSSI, masking, and SNR so every
    stage of the association pipeline observes one consistent channel, and the
    received power P_r equals the RSSI under this model.
    """

    distance_m: np.ndarray   # (L, K)
    shadow_db: np.ndarray    # (L, K)
    pl_db: np.ndarray        # (L, K)
    rssi_dbm: np.ndarray     # (L, K)
    gain_lin: np.ndarray     # (L, K) linear channel gain 10^(-PL/10)

    @property
    def p_r_dbm(self) -> np.ndarray:
        return self.rssi_dbm


def link_budget(deployment: Deployment, config: SystemConfig) -> LinkBudget:
    diff = deployment.ap_pos[:, None, :] - deployment.ue_pos[None, :, :]
    d = np.maximum(np.linalg.norm(diff, axis=2), config.pathloss.d0_m)
    rng = rng_stream(config.seed, "shadow")
    shadow = rng.normal(0.0, config.pathloss.shadow_sigma_db, size=d.shape)
    pl = path_loss_db(config.pathloss, d, shadow)
    rs = rssi_dbm(config.p_t_dbm, pl)
    return LinkBudget(distance_m=d, shadow_db=shadow, pl_db=pl, rssi_dbm=rs, gain_lin=db_to_lin(-pl))


# --- spatial correlation ----------------------------------------------------

def local_scattering_correlation(n_antennas: int, nominal_angle_rad,
                                 spread_deg: float) -> np.ndarray:
    """Gaussian local-scattering correlation for a half-wavelength ULA, trace N.

    nominal_angle_rad may be an array of angles; the result then has shape
    angles.shape + (N, N).
    """
    ang = np.asarray(nominal_angle_rad, dtype=float)[..., None]
    delta = np.arange(1 - n_antennas, n_antennas)
    # the matrix is Toeplitz: entry (m, n) depends only on m - n
    taps = (np.exp(1j * math.pi * delta * np.sin(ang))
            * np.exp(-0.5 * (math.radians(spread_deg) * math.pi * delta * np.cos(ang)) ** 2))
    idx = np.arange(n_antennas)
    return taps[..., idx[:, None] - idx[None, :] + n_antennas - 1]


def correlation_sqrt(R: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Hermitian square root of R, or of each matrix of a stack (..., N, N).

    Eigenvalues below -tol are rejected, tiny negatives clamped.
    """
    vals, vecs = np.linalg.eigh(R)
    if np.min(vals) < -tol:
        raise ValueError(f"correlation matrix is not PSD (min eigenvalue {np.min(vals):.3e})")
    # eigenvalue dust would leak sqrt(eps)-sized components into null directions
    vals = np.where(vals < np.max(vals, axis=-1, keepdims=True) * 1e-14, 0.0, vals)
    half = vecs * np.sqrt(vals)[..., None, :]
    np.conjugate(vecs, out=vecs)
    return half @ np.swapaxes(vecs, -1, -2)


def link_correlations(deployment: Deployment, config: SystemConfig, aps):
    """Unit-gain correlation C_lk of the links from APs `aps` to every UE, and
    its square root, each shaped (len(aps), K, N, N).

    The identity model returns one read-only identity broadcast to that shape,
    and None for the square root, which is the identity too.
    """
    N = config.N
    if config.correlation_model == "identity":
        return np.broadcast_to(np.eye(N, dtype=complex), (len(aps), deployment.K, N, N)), None
    diff = deployment.ue_pos[None, :, :] - deployment.ap_pos[aps, None, :]
    C = local_scattering_correlation(N, np.arctan2(diff[..., 1], diff[..., 0]),
                                     config.angular_spread_deg)
    return C, correlation_sqrt(C)


# --- pilots and MMSE estimation (stacked over APs and UEs) ---------------------
#
# Notation of Bjornson, Hoydis & Sanguinetti, "Massive MIMO Networks" (2017),
# ch. 3-4: UE k sends pilot sequence t(k) with power p_k over tau_p channel
# uses; AP l observes y_lt = sum_{i: t(i)=t} sqrt(tau_p p_i) h_li + n_lt and
# estimates h_lk = sqrt(p_k tau_p) R_lk Psi_lt^-1 y_lt with
# Psi_lt = tau_p sum_{i: t(i)=t} p_i R_li + sigma2 I.

def _pilot_groups(pilots) -> tuple[np.ndarray, np.ndarray]:
    """Each UE's pilot group, groups numbered in order of first use, and the
    (K, groups) membership matrix."""
    order: dict[int, int] = {}
    slot = np.array([order.setdefault(int(t), len(order)) for t in np.ravel(pilots)], dtype=int)
    return slot, slot[:, None] == np.arange(len(order))


def pilot_rx(h, p, tau_p: int, pilots, sigma2: float, rng: np.random.Generator):
    """Pilot observation y_{l,t(k)} of every AP, as seen by every UE k.

    h has shape (L, K, N), p the K pilot powers (or a scalar), pilots the K
    pilot sequences. Noise is drawn once per pilot group, groups in order of
    first use, each as the real parts of an (L, N) block then the imaginary
    parts. Returns (L, K, N); UEs sharing a pilot see the same observation.
    """
    h = np.asarray(h, dtype=complex)
    L, K, n = h.shape
    p = np.broadcast_to(np.asarray(p, dtype=float), (K,))
    if np.any(p < 0):
        raise ValueError("pilot power must be >= 0")
    slot, member = _pilot_groups(pilots)
    y = np.einsum("lkn,kt->ltn", h, np.sqrt(tau_p * p)[:, None] * member)
    noise = rng.standard_normal((member.shape[1], 2, L, n))
    y += math.sqrt(sigma2 / 2.0) * (noise[:, 0] + 1j * noise[:, 1]).transpose(1, 0, 2)
    return y[:, slot]


def mmse_estimate(R, p, tau_p: int, pilots, sigma2: float, ues=None) -> np.ndarray:
    """MMSE estimation filters sqrt(p_k tau_p) R_lk Psi_{l,t(k)}^-1 for every link,
    or only for the links to the UEs `ues`.

    R holds the channel correlations (large-scale gain included), shape
    (L, K, N, N); p the K pilot powers; pilots the K pilot sequences. Psi
    sums over all K UEs either way. The estimate of h_lk is filt[l, k] @
    y_{l,t(k)} (see `pilot_rx`); its error covariance is
    R_lk - sqrt(p_k tau_p) filt[l, k] R_lk.
    """
    R = np.asarray(R)
    K, n = R.shape[1], R.shape[-1]
    p = np.broadcast_to(np.asarray(p, dtype=float), (K,))
    slot, member = _pilot_groups(pilots)
    psi = np.einsum("lkmn,kt->ltmn", R, tau_p * p[:, None] * member)
    psi += sigma2 * np.eye(n)
    if ues is not None:
        R, p, slot = R[:, ues], p[ues], slot[ues]
    try:
        # R and Psi are Hermitian, so R Psi^-1 = (Psi^-1 R)^H
        filt = np.linalg.solve(psi[:, slot], R)
    except np.linalg.LinAlgError as e:
        raise ValueError("pilot observation covariance is singular") from e
    np.conjugate(filt, out=filt)
    filt *= np.sqrt(p * tau_p)[:, None, None]
    return np.swapaxes(filt, -1, -2)


def assign_pilots(serving_sets, K: int, tau_p: int) -> np.ndarray:
    """Round-robin pilots, avoiding collisions among UEs served by a common AP.

    serving_sets maps UE index -> iterable of serving AP indices (empty sets
    allowed). UE k, in index order, takes the first of the pilots k, k+1, ...
    (mod tau_p) that no earlier UE sharing an AP with it uses. With each AP
    serving at most tau_p UEs a collision-free choice usually exists; if
    every pilot is taken the round-robin default k mod tau_p stands.
    """
    sets = [np.asarray(list(serving_sets.get(k, ())), dtype=np.intp) for k in range(K)]
    aps = np.concatenate([np.zeros(0, dtype=np.intp), *sets])
    member = np.zeros((K, aps.max() + 1 if aps.size else 0))
    member[np.repeat(np.arange(K), [s.size for s in sets]), aps] = 1.0
    shares_ap = member @ member.T > 0
    pilots = np.full(K, -1, dtype=int)
    for k in range(K):
        used = set(pilots[:k][shares_ap[k, :k]].tolist())
        pilot = k % tau_p
        for step in range(tau_p):
            cand = (k + step) % tau_p
            if cand not in used:
                pilot = cand
                break
        pilots[k] = pilot
    return pilots


# --- uplink data and MR combining --------------------------------------------

def ul_data_rx(h_by_ap: np.ndarray, symbols: np.ndarray, sigma2: float,
               rng: np.random.Generator):
    """Received uplink data y_l = sum_k h_lk s_k + n_l for every AP.

    h_by_ap has shape (L, K, N); symbols (K,) or (K, S). Returns (L, N) or
    (L, N, S); the noise is drawn as all real parts, then all imaginary parts.
    """
    h = np.swapaxes(np.asarray(h_by_ap, dtype=complex), 1, 2)
    symbols = np.asarray(symbols, dtype=complex)
    L, n, K = h.shape
    if n > 1 and symbols.ndim == 2 and symbols.shape[1] > 1:
        # one (L N, K) @ (K, S) product on a contiguous copy in place of L small
        # ones; numpy takes a single antenna row or a single symbol column
        # through matrix-vector kernels that round differently, so those keep
        # the per-AP product
        y = (np.ascontiguousarray(h).reshape(L * n, K) @ symbols).reshape(L, n, -1)
    else:
        y = h @ symbols
    noise = np.empty(y.shape)  # one reused buffer bounds the peak memory of a large S
    for part in (y.real, y.imag):
        rng.standard_normal(out=noise)
        noise *= math.sqrt(sigma2 / 2.0)
        part += noise
    return y


def mr_combine(combiners, y_by_ap):
    """MR outputs z_k = sum_l v_lk^H y_l for every UE.

    combiners has shape (L, K, N) and is zero where AP l does not serve UE k,
    so each sum runs over the UE's serving set; y_by_ap is (L, N) or
    (L, N, S). Returns (K,) or (K, S).
    """
    return np.tensordot(np.conjugate(combiners), np.asarray(y_by_ap, dtype=complex),
                        axes=([0, 2], [0, 1]))


# --- sensing: clutter geometry and lobe returns ------------------------------

@dataclass
class ClutterGeometry:
    """Per-(AP, scatterer) geometry cached once per deployment."""

    dist: np.ndarray          # (L, S)
    cos_bearing: np.ndarray   # (L, S) cosine of the bearing AP -> scatterer
    sin_bearing: np.ndarray   # (L, S) sine of the same bearing
    two_way_gain: np.ndarray  # (L, S) linear, both hops at the config exponent


def clutter_geometry(deployment: Deployment, pathloss: PathLossParams) -> ClutterGeometry:
    diff = deployment.scatterer_pos[None, :, :] - deployment.ap_pos[:, None, :]
    d = np.maximum(np.linalg.norm(diff, axis=2), pathloss.d0_m)
    # arctan2 gives a scatterer on top of its AP the bearing 0
    ang = np.arctan2(diff[..., 1], diff[..., 0])
    g2 = db_to_lin(-2.0 * path_loss_db(pathloss, d))
    return ClutterGeometry(dist=d, cos_bearing=np.cos(ang), sin_bearing=np.sin(ang),
                           two_way_gain=g2)


# Lobe tests per block of links in `clutter_returns`; keeps each (links, S)
# temporary near 0.5 MB whatever the number of links.
_LOBE_TESTS_PER_BLOCK = 1 << 16


def clutter_returns(geom: ClutterGeometry, deployment: Deployment, config: SystemConfig,
                    l_idx, k_idx, link_dist) -> tuple[np.ndarray, np.ndarray]:
    """Clutter power (W) and scatterer count inside the sensing lobe of each
    link (l_idx[i], k_idx[i]) whose AP-UE distance is link_dist[i].

    A scatterer is in the lobe when its bearing from the AP is within the
    half-angle BEAM_HALF_ANGLE_FACTOR/N of the UE's bearing, tested as
    cos(phi_s - phi_ue) >= cos(half-angle), which is equivalent because the
    half-angle is below pi, and when its distance from the AP is at most
    CLUTTER_RANGE_FACTOR * link_dist.
    """
    l_idx = np.asarray(l_idx, dtype=np.intp)
    k_idx = np.asarray(k_idx, dtype=np.intp)
    reach = CLUTTER_RANGE_FACTOR * np.asarray(link_dist, dtype=float)
    n, n_scat = l_idx.size, geom.dist.shape[1]
    power = np.zeros(n)
    count = np.zeros(n, dtype=int)
    if n == 0 or n_scat == 0:
        return power, count
    diff = deployment.ue_pos[k_idx] - deployment.ap_pos[l_idx]
    ue_bearing = np.arctan2(diff[:, 1], diff[:, 0])
    cos_ue, sin_ue = np.cos(ue_bearing)[:, None], np.sin(ue_bearing)[:, None]
    cos_half = math.cos(BEAM_HALF_ANGLE_FACTOR / config.N)
    step = max(1, _LOBE_TESTS_PER_BLOCK // n_scat)
    for lo in range(0, n, step):
        b = slice(lo, lo + step)
        rows = l_idx[b]
        # the row gathers are fresh copies, so the arithmetic runs in place
        cos_diff = geom.cos_bearing[rows]
        cos_diff *= cos_ue[b]
        sin_term = geom.sin_bearing[rows]
        sin_term *= sin_ue[b]
        cos_diff += sin_term
        in_lobe = cos_diff >= cos_half
        in_lobe &= geom.dist[rows] <= reach[b, None]
        count[b] = np.count_nonzero(in_lobe, axis=1)
        returns = geom.two_way_gain[rows]
        returns *= in_lobe
        returns *= deployment.scatterer_refl
        power[b] = returns.sum(axis=1)
    power *= config.sigma_c2 * float(dbm_to_watts(config.p_t_dbm))
    return power, count


def clutter_return(geom: ClutterGeometry, deployment: Deployment, config: SystemConfig,
                   l: int, k: int, link_dist: float) -> tuple[float, int]:
    """Clutter power (W) and scatterer count inside the (l, k) sensing lobe."""
    power, count = clutter_returns(geom, deployment, config, [l], [k], [link_dist])
    return float(power[0]), int(count[0])
