"""Propagation, spatial correlation, pilot transmission and MMSE estimation,
and the clutter returns inside each link's sensing lobe.

Uplink data and MR combining have no per-AP form here: `comm_perf` draws the
combined outputs directly from their sufficient statistics."""

from __future__ import annotations

import functools
import math
import sys
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


def path_loss_db(params: PathLossParams, d_m, shadow_db=0.0, out=None):
    """Log-distance loss PL0 + 10*gamma*log10(d/d0) + shadow; d clamped at d0.
    Computed step by step over one array, `out` or a new one."""
    d = np.asarray(d_m, dtype=float)
    pl = np.maximum(d, params.d0_m, out=np.empty_like(d) if out is None else out)
    pl /= params.d0_m
    np.log10(pl, out=pl)
    pl *= 10.0 * params.gamma_pl
    pl += params.pl0_db
    pl += shadow_db
    return pl


def rssi_dbm(p_t_dbm, pl_db, out=None):
    return np.subtract(np.asarray(p_t_dbm, dtype=float), np.asarray(pl_db, dtype=float), out=out)


@dataclass
class LinkBudget:
    """Per-(AP, UE) large-scale state with shadowing frozen per deployment.

    The same frozen shadow realization feeds RSSI, masking, and SNR so every
    stage of the association pipeline observes one consistent channel, and the
    received power P_r equals the RSSI under this model.
    """

    distance_m: np.ndarray   # (L, K)
    pl_db: np.ndarray        # (L, K)
    rssi_dbm: np.ndarray     # (L, K)

    @property
    def p_r_dbm(self) -> np.ndarray:
        return self.rssi_dbm

    @functools.cached_property
    def gain_lin(self) -> np.ndarray:
        """(L, K) linear channel gain 10^(-PL/10), computed on first read."""
        return db_to_lin(-self.pl_db)


def link_budget(deployment: Deployment, config: SystemConfig) -> LinkBudget:
    """The (L, K) distances (floored at d0), path losses and RSSIs.

    Each is computed in place over its output array, and the outputs hold
    the AP-UE offsets and the shadowing on the way, so the call allocates
    nothing but its three outputs. The shadowing is one (L, K) draw of
    standard normals from the "shadow" stream, scaled by sigma: the values
    Generator.normal(0, sigma) draws.
    """
    ap, ue = deployment.ap_pos, deployment.ue_pos
    pathloss = config.pathloss
    budget = LinkBudget(*(np.empty((ap.shape[0], ue.shape[0])) for _ in range(3)))
    d, pl, rssi = budget.distance_m, budget.pl_db, budget.rssi_dbm
    # the squared offsets in d and pl, summed as `_distance` sums them
    np.subtract(ap[:, 0, None], ue[:, 0], out=d)
    np.subtract(ap[:, 1, None], ue[:, 1], out=pl)
    d *= d
    pl *= pl
    d += pl
    np.maximum(np.sqrt(d, out=d), pathloss.d0_m, out=d)
    shadow = rng_stream(config.seed, "shadow").standard_normal(out=rssi)
    shadow *= pathloss.shadow_sigma_db
    rssi_dbm(config.p_t_dbm, path_loss_db(pathloss, d, shadow, out=pl), out=rssi)
    return budget


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


def _dust(vals) -> np.ndarray:
    """Where PSD eigenvalues (..., N) are below 1e-14 of their matrix's largest."""
    return vals < np.max(vals, axis=-1, keepdims=True) * 1e-14


def correlation_sqrt(R: np.ndarray) -> np.ndarray:
    """Hermitian square root of R, or of each matrix of a stack (..., N, N).

    Eigenvalues below -1e-10 are rejected, tiny negatives clamped.
    """
    vals, vecs = np.linalg.eigh(R)
    if np.min(vals) < -1e-10:
        raise ValueError(f"correlation matrix is not PSD (min eigenvalue {np.min(vals):.3e})")
    # eigenvalue dust would leak sqrt(eps)-sized components into null directions
    vals[_dust(vals)] = 0.0
    half = vecs * np.sqrt(vals)[..., None, :]
    np.conjugate(vecs, out=vecs)
    return half @ np.swapaxes(vecs, -1, -2)


def link_correlations(deployment: Deployment, config: SystemConfig, aps):
    """Unit-gain correlation C_lk of the links from APs `aps` to every UE, and
    its square root, each shaped (len(aps), K, N, N).

    The identity model returns None for both: C_lk = I, so each link's
    correlation is its gain alone, and `mmse_estimate` reads the (L, K) gains.
    """
    N = config.N
    if config.correlation_model == "identity":
        return None, None
    diff = deployment.ue_pos[None, :, :] - deployment.ap_pos[aps, None, :]
    C = local_scattering_correlation(N, np.arctan2(diff[..., 1], diff[..., 0]),
                                     config.angular_spread_deg)
    return C, correlation_sqrt(C)


# --- pilots and MMSE estimation ---------------------------------------------
#
# Notation of Bjornson, Hoydis & Sanguinetti, "Massive MIMO Networks" (2017),
# ch. 3-4, at unit pilot power (a UE of power p is the channel sqrt(p) h_lk
# with correlation p R_lk): UE k sends pilot sequence t(k) over tau_p channel
# uses; AP l observes y_lt = sum_{i: t(i)=t} sqrt(tau_p) h_li + n_lt and
# estimates h_lk = sqrt(tau_p) R_lk Psi_lt^-1 y_lt with Psi_lt = Q_lt + sigma2 I,
# Q_lt = tau_p sum_{i: t(i)=t} R_li.

def _pilot_membership(tau_p: int, pilots) -> np.ndarray:
    """The (tau_p, K) 0/1 matrix whose entry (t, k) is 1 where UE k sends
    pilot t, of the K pilot indices `pilots`, each in [0, tau_p)."""
    pilots = np.asarray(pilots, dtype=np.intp)
    if np.any((pilots < 0) | (pilots >= tau_p)):
        raise ValueError(f"pilot indices must lie in [0, {tau_p})")
    return (pilots == np.arange(tau_p)[:, None]).astype(float)


def _pilot_sums(weight, x) -> np.ndarray:
    """sum_k weight[t, k] x[..., k, :] for every pilot t, shape (..., tau_p, M),
    of a complex x (..., K, M) and the real (tau_p, K) weights; the real and
    imaginary parts ride through one real product."""
    x = np.ascontiguousarray(x, dtype=complex)
    return (weight @ x.view(float)).view(complex)


def pilot_rx(h, tau_p: int, pilots, noise, sigma2s) -> np.ndarray:
    """Pilot observations y_tl = sum_{i: t(i)=t} sqrt(tau_p) h_li + n_tl of
    every pilot t at every AP l, at each noise variance of `sigma2s`.

    h has shape (L, K, N), pilots the K pilot indices in [0, tau_p). noise
    holds (tau_p, L, N) complex normals whose real and imaginary parts are
    standard normal; at variance sigma2, n_tl = sqrt(sigma2 / 2) noise[t, l].
    The signal sums are one product with the pilot-membership matrix, shared
    by every variance. Returns (len(sigma2s), tau_p, L, N); UE k reads row t(k).
    """
    h = np.asarray(h, dtype=complex)
    L, K, n = h.shape
    weight = math.sqrt(tau_p) * _pilot_membership(tau_p, pilots)
    y = _pilot_sums(weight, h.transpose(1, 0, 2).reshape(K, -1)).reshape(tau_p, L, n)
    return np.stack([y + math.sqrt(s2 / 2.0) * noise for s2 in np.ravel(sigma2s)])


def mmse_estimate(R, tau_p: int, pilots, l_idx, k_idx):
    """Noise-free factors of the MMSE estimation filters sqrt(tau_p) R_lk
    Psi_{l,t(k)}^-1 of the links (l_idx[i], k_idx[i]).

    R holds the channel correlations (large-scale gain included), shape
    (L, K, N, N); pilots the K pilot indices in [0, tau_p). Psi sums over
    all K UEs. From Q_lt = U_lt diag(lam_lt) U_lt^H, the filter of link i at
    any sigma2 is B[i] diag(1 / (lam[i] + sigma2)) U_h[i], with
    B[i] = sqrt(tau_p) R_lk U_lt, lam[i] = lam_lt and U_h[i] = U_lt^H,
    t = t(k). Eigenvalues that `_dust` flags are zeroed, and the eigenvectors
    of zero eigenvalues dropped (zero columns of U): in exact arithmetic
    R_lk u = 0 on the null space of Q_lt. Returns B, lam and U_h shaped
    (links, N, N), (links, N) and (links, N, N). The estimate of h_lk is the
    filter times y_{l,t(k)} (see `pilot_rx`); its error covariance is
    R_lk - sqrt(tau_p) filter R_lk.

    Under the identity model R_lk = g_lk I, and R is the (L, K) array of the
    gains g_lk. B and lam are then the (links,) scalars sqrt(tau_p) g_lk and
    q_{l,t(k)} = tau_p sum_{i: t(i)=t(k)} g_li, and U_h is None.

    Q is formed only at the APs of `l_idx`; when those are all L APs, R is
    read in place.
    """
    R = np.asarray(R)
    weight = tau_p * _pilot_membership(tau_p, pilots)
    l_idx, k_idx = np.asarray(l_idx, dtype=np.intp), np.asarray(k_idx, dtype=np.intp)
    slot = np.asarray(pilots, dtype=np.intp)[k_idx]
    aps, at = np.unique(l_idx, return_inverse=True)
    R_aps = R if aps.size == R.shape[0] else R[aps]
    if R.ndim == 2:
        return math.sqrt(tau_p) * R[l_idx, k_idx], (R_aps @ weight.T)[at, slot], None
    n = R.shape[-1]
    q = _pilot_sums(weight, R_aps.reshape(aps.size, R.shape[1], -1))
    lam, U = np.linalg.eigh(q.reshape(aps.size, -1, n, n))
    lam[_dust(lam)] = 0.0
    U *= lam[..., None, :] > 0
    U = U[at, slot]
    B = R[l_idx, k_idx] @ U
    B *= math.sqrt(tau_p)
    return B, lam[at, slot], np.swapaxes(U, -1, -2).conj()


def assign_pilots(A, tau_p: int) -> tuple[np.ndarray, int]:
    """Round-robin pilots, avoiding collisions among UEs served by a common AP
    in the (L, K) association A, and the number of collisions: UE pairs that
    share a pilot and a serving AP.

    UE k, in index order, takes the first of the pilots k, k+1, ... (mod
    tau_p) that no earlier UE sharing an AP with it uses; a UE with no
    serving AP shares none. With each AP serving at most tau_p UEs a
    collision-free choice usually exists; if every pilot is taken the
    round-robin default k mod tau_p stands, shared with some earlier UEs.
    """
    served = (np.asarray(A) == 1).astype(float)
    shares_ap = served.T @ served > 0
    K = shares_ap.shape[0]
    pilots = np.full(K, -1, dtype=int)
    collisions = 0
    for k in range(K):
        others = pilots[:k][shares_ap[k, :k]].tolist()
        used = set(others)
        pilot = k % tau_p
        for step in range(tau_p):
            cand = (k + step) % tau_p
            if cand not in used:
                pilot = cand
                break
        pilots[k] = pilot
        collisions += others.count(pilot)
    return pilots, collisions


# --- sensing: clutter geometry and lobe returns ------------------------------

@dataclass(frozen=True)
class ClutterGeometry:
    """The scatterers of one deployment, bucketed once on a uniform grid.

    The grid has square cells of side `cell_m` from `origin` over the
    scatterers' bounding box. The scatterers are sorted by cell in row-major
    order (y, then x), and `cell_start` holds the first sorted position of
    each cell plus a final sentinel, so the scatterers of cells x0..x1 of one
    grid row are one contiguous slice. `cell_prefix` holds the 2-D prefix sums
    of the cell occupancy, so the number of scatterers in any block of cells
    takes four lookups.

    The geometry is built once per deployment and no call changes it: the
    dense rows of `clutter_returns` are built per call (see `_dense_rows`).
    """

    pathloss: PathLossParams
    origin: np.ndarray        # (2,) lower-left corner of cell (0, 0)
    cell_m: float
    shape: tuple              # (rows, columns) of the grid
    xy: np.ndarray            # (2, S) scatterer x and y coordinates in cell order
    cell_start: np.ndarray    # (rows * columns + 1,)
    cell_prefix: np.ndarray   # (rows + 1, columns + 1)


def clutter_geometry(deployment: Deployment, pathloss: PathLossParams) -> ClutterGeometry:
    """Bucket the scatterers on a grid whose cell is half the mean AP spacing.

    The spacing is sqrt(area / L) over the bounding box of the APs and
    scatterers. The cell is widened where needed so that the grid has O(S)
    cells, and it is 1 m when every point coincides.
    """
    scat = np.asarray(deployment.scatterer_pos, dtype=float).reshape(-1, 2)
    n_scat = scat.shape[0]
    # per-column 1-D reductions: numpy reduces an (n, 2) array along n one
    # 2-element row at a time, about ten times slower
    points = np.concatenate([deployment.ap_pos, scat])
    span = [np.ptp(points[:, i]) for i in (0, 1)]
    origin = np.array([scat[:, i].min() for i in (0, 1)]) if n_scat else np.zeros(2)
    extent = np.array([np.ptp(scat[:, i]) for i in (0, 1)]) if n_scat else np.zeros(2)
    cell = max(0.5 * math.sqrt(span[0] * span[1] / deployment.L),
               math.sqrt(extent[0] * extent[1] / (4 * max(n_scat, 1))),
               float(extent.max()) / (4 * max(n_scat, 1))) or 1.0
    # the largest offset is the extent itself, so it lands in the last cell
    nx, ny = (int(v) + 1 for v in np.floor(extent / cell))
    ix, iy = np.floor((scat - origin) / cell).astype(np.intp).T
    cell_id = iy * nx + ix
    order = np.argsort(cell_id, kind="stable")
    occupancy = np.bincount(cell_id, minlength=nx * ny)
    prefix = np.zeros((ny + 1, nx + 1), dtype=np.intp)
    prefix[1:, 1:] = occupancy.reshape(ny, nx).cumsum(axis=0).cumsum(axis=1)
    return ClutterGeometry(
        pathloss=pathloss, origin=origin, cell_m=cell, shape=(ny, nx),
        xy=np.ascontiguousarray(scat[order].T),
        cell_start=np.concatenate([[0], np.cumsum(occupancy)]), cell_prefix=prefix)


# Both passes of `clutter_returns` take the distance and the bearing of an
# AP -> scatterer offset (dx, dy) from these functions, and share one lobe
# rule. The exact test is cos(phi_s) * ux + sin(phi_s) * uy >= cos(half-angle),
# with phi_s the `_bearing` of the offset and (ux, uy) the link's direction.
# Where dx^2 + dy^2 is a normal float, (dx, dy) / norm is the direction
# cosine to within a few ulp, and so is its dot product with (ux, uy): a
# product more than 1e-9 above cos(half-angle) is a hit and one more than
# 1e-9 below it a miss, as the exact test would decide. Only the offsets in
# that band run `_in_lobe`. In both passes the exact test decides an offset
# whose dx^2 + dy^2 is 0, subnormal or infinite (`_normal` is False): the
# grid pass sends it to `_in_lobe`, and a dense row holds its `_bearing`.

def _distance(dx, dy):
    sq = dx * dx
    sq += dy * dy
    return np.sqrt(sq, out=sq)


def _bearing(dx, dy):
    """Cosine and sine of the bearing; arctan2 gives a zero offset the bearing 0."""
    ang = np.arctan2(dy, dx)
    return np.cos(ang), np.sin(ang)


def _in_lobe(dx, dy, ux, uy, cos_half):
    """The exact test of offsets (dx, dy) against link directions (ux, uy)."""
    cos_diff, sin_term = _bearing(dx, dy)
    cos_diff *= ux
    sin_term *= uy
    cos_diff += sin_term
    return cos_diff >= cos_half


def _normal(norm):
    """Where the norm of an offset (dx, dy) comes from a normal dx^2 + dy^2,
    neither underflowed nor overflowed, and so is exact to a few ulp."""
    ok = norm >= math.sqrt(sys.float_info.min)
    ok &= norm <= math.sqrt(sys.float_info.max)
    return ok


def _unit_offset(dx, dy, norm):
    """(dx, dy) / norm, written over dx and dy; where `_normal` is False, the
    `_bearing` cosine and sine instead, so (1, 0) at a zero offset."""
    ok = _normal(norm)
    odd = ~ok
    bearing = _bearing(dx[odd], dy[odd])
    np.divide(dx, norm, out=dx, where=ok)
    np.divide(dy, norm, out=dy, where=ok)
    dx[odd], dy[odd] = bearing
    return dx, dy


def _two_way_gain(pathloss: PathLossParams, d, out=None):
    """Linear gain of both hops AP -> scatterer -> AP at the config exponent,
    db_to_lin(-2 * path_loss_db(pathloss, d)), written over one array (`out`,
    or a new one)."""
    g = path_loss_db(pathloss, d, out=out)
    g *= -2.0
    g /= 10.0
    return np.power(10.0, g, out=g)


def _dense_rows(deployment: Deployment, pathloss: PathLossParams, aps: list):
    """The dense rows of the APs `aps`, in AP order, one chunk of APs at a
    time: a generator that yields each chunk's rows as a dict AP -> (4, S)
    array. An AP's array holds, in the original scatterer order, the unit AP
    -> scatterer offsets ([:2], the right operand of the dense pass's per-AP
    product; see `_unit_offset`), the distances floored at d0 ([2]) and the
    two-way gains ([3]).

    A chunk holds the APs of _LINKS_PER_CHUNK links of an all-link call, at
    least one. Every chunk is written over one block allocated per call, so
    a chunk's rows are valid until the next is asked for, and a call holds
    about 1 MB at the default densities, where the rows of every AP would
    take L x 4 x S doubles (88 MB at L=1000). The rows are built in batches
    of about _LOBE_TESTS_PER_BLOCK (AP, scatterer) pairs.
    """
    scat = deployment.scatterer_pos
    per_chunk = max(1, _LINKS_PER_CHUNK // deployment.K)
    block = np.empty((min(len(aps), per_chunk), 4, scat.shape[0]))
    step = max(1, _LOBE_TESTS_PER_BLOCK // scat.shape[0])
    for start in range(0, len(aps), per_chunk):
        chunk = aps[start:start + per_chunk]
        rows = block[:len(chunk)]
        for lo in range(0, len(chunk), step):
            ap, batch = deployment.ap_pos[chunk[lo:lo + step]], rows[lo:lo + step]
            dx = scat[None, :, 0] - ap[:, 0, None]
            dy = scat[None, :, 1] - ap[:, 1, None]
            norm = _distance(dx, dy)
            batch[:, 0], batch[:, 1] = _unit_offset(dx, dy, norm)
            d = np.maximum(norm, pathloss.d0_m, out=batch[:, 2])
            _two_way_gain(pathloss, d, out=batch[:, 3])
        yield dict(zip(chunk, rows))


# Link routing and block sizes of `clutter_returns`. A link whose sector box
# holds more than _DENSE_FRACTION of the scatterers goes to the dense pass.
# Links are routed and grid-tested in chunks of _LINKS_PER_CHUNK, and the
# dense links run with the dense rows of one chunk of APs (see `_dense_rows`).
# The dense pass runs _LOBE_TESTS_PER_BLOCK lobe tests per block of links and
# the grid pass about _GRID_TESTS_PER_BLOCK, so the temporaries stay near
# 0.5 MB whatever the number of links. `association.priorities` also sums
# the rows of one chunk of APs of _LINKS_PER_CHUNK links at a time.
_DENSE_FRACTION = 0.15
_LINKS_PER_CHUNK = 1 << 12
_LOBE_TESTS_PER_BLOCK = 1 << 16
_GRID_TESTS_PER_BLOCK = 1 << 15


def _sector_cells(geom: ClutterGeometry, apex, ux, uy, reach, half_angle: float):
    """Per link, the grid cells [x0, x1] x [y0, y1] that meet the bounding box
    of its sensing sector, clipped to the grid, and the number of scatterers
    in those cells. (ux, uy) is the unit AP -> UE direction.

    The box spans the apex, the two edge endpoints of the arc, and each axis
    extreme (bearing 0, pi/2, pi, -pi/2) that lies inside the cone. It is
    padded by 1e-9 of its scale, far above the rounding of the lobe test, so
    every scatterer the test accepts lies inside it. The clipped ranges keep
    x1 >= x0 - 1 and y1 >= y0 - 1; a range with x1 = x0 - 1 is empty.
    """
    c, s = math.cos(half_angle), math.sin(half_angle)
    inside = c - 1e-12
    # row 0 works on x, row 1 on y; e1 and e2 are the components of the two
    # edge directions, the UE direction rotated by -h and +h
    u = np.stack([ux, uy])
    e1, e2 = u * c - u[::-1] * s, u * c + u[::-1] * s
    pad = 1e-9 * (1.0 + reach + np.maximum(np.abs(apex[:, 0]), np.abs(apex[:, 1])))
    low = np.where(-u >= inside, -1.0, np.minimum(np.minimum(e1, e2), 0.0)) * reach - pad
    high = np.where(u >= inside, 1.0, np.maximum(np.maximum(e1, e2), 0.0)) * reach + pad
    ny, nx = geom.shape
    n_cells = np.array([[nx], [ny]])
    low = np.floor((apex.T + low - geom.origin[:, None]) / geom.cell_m)
    high = np.floor((apex.T + high - geom.origin[:, None]) / geom.cell_m)
    (x0, y0) = np.minimum(np.maximum(low, 0), n_cells).astype(np.intp)
    (x1, y1) = np.minimum(np.maximum(high, -1), n_cells - 1).astype(np.intp)
    P, w = geom.cell_prefix.ravel(), nx + 1
    n_cand = (P[(y1 + 1) * w + x1 + 1] - P[y0 * w + x1 + 1]
              - P[(y1 + 1) * w + x0] + P[y0 * w + x0])
    return x0, x1, y0, y1, n_cand


def _grid_pass(geom, apex, ux, uy, reach, cos_half, cells):
    """Lobe test of each link against the scatterers in its sector's cells.

    The candidates of each link are one run of scatterers in cell order, so
    the link's apex, direction and reach repeat over its run. A candidate
    passes the exact range test and the band rule shared with the dense pass
    (see `_bearing`): where its norm is `_normal`, its dot product with the
    link direction is compared with cos(half-angle) * norm, with a margin of
    1e-9 * norm either side, and `_in_lobe` decides the candidates inside
    that band and those whose norm is not normal. Returns the summed two-way
    returns of the hits (in cell order) and the hit count per link.
    """
    x0, x1, y0, y1, n_cand = cells
    n, nx = apex.shape[0], geom.shape[1]
    # one range of sorted scatterers per (link, grid row) the box spans
    n_rows = y1 - y0 + 1
    link = np.repeat(np.arange(n), n_rows)
    row = np.arange(link.size) - np.repeat(np.cumsum(n_rows) - n_rows, n_rows) + y0[link]
    first = geom.cell_start[row * nx + x0[link]]
    length = geom.cell_start[row * nx + x1[link] + 1] - first
    cand = np.repeat(first - (np.cumsum(length) - length), length)
    cand += np.arange(cand.size)
    dx = geom.xy[0].take(cand)
    dx -= np.repeat(apex[:, 0], n_cand)
    dy = geom.xy[1].take(cand)
    dy -= np.repeat(apex[:, 1], n_cand)
    ux, uy = np.repeat(ux, n_cand), np.repeat(uy, n_cand)
    norm = _distance(dx, dy)
    # max(norm, d0) <= reach: a link whose reach is below d0 has no hit
    d0 = geom.pathloss.d0_m
    hit = norm <= np.repeat(np.where(reach >= d0, reach, -1.0), n_cand)
    dot = dx * ux
    dot += dy * uy
    ok = _normal(norm)
    hit &= (dot >= (cos_half - 1e-9) * norm) | ~ok
    sure = (dot > (cos_half + 1e-9) * norm) & ok
    band = np.flatnonzero(hit > sure)
    hit[band] = _in_lobe(dx[band], dy[band], ux[band], uy[band], cos_half)
    hit = np.flatnonzero(hit)
    count = np.diff(np.searchsorted(hit, np.cumsum(n_cand)), prepend=0)
    returns = _two_way_gain(geom.pathloss, norm.take(hit))
    return np.bincount(np.repeat(np.arange(n), count), returns, minlength=n), count


def _dense_pass(rows, deployment, l_idx, ux, uy, reach, cos_half):
    """Lobe test of each link against all S scatterers of its AP's dense row
    (`rows`, from `_dense_rows`), by the band rule (see `_bearing`) on the
    row's unit offsets.

    The links come sorted by AP (see `clutter_returns`). They are taken in
    blocks of _LOBE_TESTS_PER_BLOCK lobe tests. In a block, each run of one
    AP's links takes its dot products from one (links, 2) @ (2, S) product
    with the AP's unit offsets, and reads the AP's distance and return rows
    in place. The product may round differently with the run's length or the
    BLAS threads, by a few ulp, far inside the 1e-9 band, so the hits do not
    depend on the other links of the call; nor do the sums, each the sum of
    one link's masked row. Returns the full-row sum of the two-way returns
    and the hit count per link.
    """
    n = l_idx.size
    scat = deployment.scatterer_pos
    step = max(1, _LOBE_TESTS_PER_BLOCK // scat.shape[0])
    u = np.column_stack([ux, uy])
    reach = reach[:, None]
    power = np.zeros(n)
    count = np.zeros(n, dtype=int)
    for lo in range(0, n, step):
        b = slice(lo, lo + step)
        l_b, u_b, reach_b = l_idx[b], u[b], reach[b]
        # the runs of one AP's links in the block
        cut = [0, *(np.flatnonzero(l_b[1:] != l_b[:-1]) + 1).tolist(), l_b.size]
        runs = [(slice(a, z), rows[l]) for a, z, l in zip(cut, cut[1:], l_b[cut[:-1]].tolist())]
        dot = np.empty((l_b.size, scat.shape[0]))
        near = np.empty(dot.shape, dtype=bool)
        for r, row in runs:
            np.matmul(u_b[r], row[:2], out=dot[r])
            np.less_equal(row[2], reach_b[r], out=near[r])
        in_lobe = dot > cos_half + 1e-9
        maybe = dot >= cos_half - 1e-9
        if np.count_nonzero(maybe) > np.count_nonzero(in_lobe):
            i, j = np.nonzero(maybe ^ in_lobe)
            ap = deployment.ap_pos[l_b[i]]
            in_lobe[i, j] = _in_lobe(scat[j, 0] - ap[:, 0], scat[j, 1] - ap[:, 1],
                                     u_b[i, 0], u_b[i, 1], cos_half)
        in_lobe &= near
        # the dot products are spent: their memory takes the 0/1 hits, whose
        # row sums are the exact counts, and then the masked returns
        np.copyto(dot, in_lobe)
        count[b] = dot.sum(axis=1)
        for r, row in runs:
            dot[r] *= row[3]
        power[b] = dot.sum(axis=1)
    return power, count


def clutter_returns(geom: ClutterGeometry, deployment: Deployment, config: SystemConfig,
                    l_idx, k_idx, link_dist) -> tuple[np.ndarray, np.ndarray]:
    """Clutter power (W) and scatterer count inside the sensing lobe of each
    link (l_idx[i], k_idx[i]) whose AP-UE distance is link_dist[i].

    A scatterer is in the lobe when its bearing from the AP is within the
    half-angle BEAM_HALF_ANGLE_FACTOR/N of the UE's bearing, tested as
    cos(phi_s - phi_ue) >= cos(half-angle), which is equivalent because the
    half-angle is below pi, and when its distance from the AP, floored at d0,
    is at most CLUTTER_RANGE_FACTOR * link_dist.

    Each link is routed by its own sector alone: a link whose sector's
    bounding box holds at most _DENSE_FRACTION of the scatterers is tested
    against the scatterers in the grid cells that meet the box, any other
    link against its AP's dense row. So a link's result does not depend on
    which other links share the call. The two passes count the same
    scatterers, by one lobe rule (see `_bearing`); their power sums differ in
    the last digits. The links are sorted by AP once, by a stable argsort, and
    in that order routed, and their grid passes run, in chunks of
    _LINKS_PER_CHUNK, which bounds the per-link temporaries; each result is
    written at its link's own index. Then the dense links run in AP order,
    one chunk of their APs' rows at a time (see `_dense_rows`), so each AP's
    row is built once per call.
    """
    l_idx = np.asarray(l_idx, dtype=np.intp)
    k_idx = np.asarray(k_idx, dtype=np.intp)
    reach = CLUTTER_RANGE_FACTOR * np.asarray(link_dist, dtype=float)
    n, n_scat = l_idx.size, geom.xy.shape[1]
    power = np.zeros(n)
    count = np.zeros(n, dtype=int)
    if n == 0 or n_scat == 0:
        return power, count
    half_angle = BEAM_HALF_ANGLE_FACTOR / config.N
    cos_half = math.cos(half_angle)
    # the chunks and `dense` follow the links in AP order
    order = np.argsort(l_idx, kind="stable")
    dense = np.empty(n, dtype=bool)
    for lo in range(0, n, _LINKS_PER_CHUNK):
        c = order[lo:lo + _LINKS_PER_CHUNK]
        l_c, reach_c = l_idx[c], reach[c]
        apex = deployment.ap_pos[l_c]
        ux, uy = _bearing(*(deployment.ue_pos[k_idx[c]] - apex).T)
        cells = _sector_cells(geom, apex, ux, uy, reach_c, half_angle)
        to_dense = dense[lo:lo + _LINKS_PER_CHUNK] = cells[-1] > _DENSE_FRACTION * n_scat
        grid = np.flatnonzero(~to_dense)
        # blocks of about _GRID_TESTS_PER_BLOCK candidates, at least one link each
        block = np.cumsum(cells[-1][grid]) // _GRID_TESTS_PER_BLOCK
        for b in np.split(grid, np.flatnonzero(np.diff(block)) + 1):
            if b.size:
                power[c[b]], count[c[b]] = _grid_pass(geom, apex[b], ux[b], uy[b], reach_c[b],
                                                      cos_half, [x[b] for x in cells])
    # the dense links in AP order, run with one chunk of their APs' rows at a time
    links = order[np.flatnonzero(dense)]
    l_d = l_idx[links]
    lo = 0
    for rows in _dense_rows(deployment, geom.pathloss, np.flatnonzero(np.bincount(l_d)).tolist()):
        hi = np.searchsorted(l_d, max(rows), side="right")
        d = links[lo:hi]
        lo = hi
        ux, uy = _bearing(*(deployment.ue_pos[k_idx[d]] - deployment.ap_pos[l_idx[d]]).T)
        power[d], count[d] = _dense_pass(rows, deployment, l_idx[d], ux, uy, reach[d], cos_half)
    power *= config.sigma_c2 * float(dbm_to_watts(config.p_t_dbm))
    return power, count


def clutter_return(geom: ClutterGeometry, deployment: Deployment, config: SystemConfig,
                   l: int, k: int, link_dist: float) -> tuple[float, int]:
    """Clutter power (W) and scatterer count inside the (l, k) sensing lobe."""
    power, count = clutter_returns(geom, deployment, config, [l], [k], [link_dist])
    return float(power[0]), int(count[0])
