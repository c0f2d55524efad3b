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
    return LinkBudget(distance_m=d, pl_db=pl, rssi_dbm=rs, gain_lin=db_to_lin(-pl))


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


def correlation_sqrt(R: np.ndarray) -> np.ndarray:
    """Hermitian square root of R, or of each matrix of a stack (..., N, N).

    Eigenvalues below -1e-10 are rejected, tiny negatives clamped.
    """
    vals, vecs = np.linalg.eigh(R)
    if np.min(vals) < -1e-10:
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
    """The scatterers of one deployment, bucketed once on a uniform grid.

    The grid has square cells of side `cell_m` from `origin` over the
    scatterers' bounding box. The scatterers are sorted by cell in row-major
    order (y, then x), and `cell_start` holds the first sorted position of
    each cell plus a final sentinel, so the scatterers of cells x0..x1 of one
    grid row are one contiguous slice. `cell_prefix` holds the 2-D prefix sums
    of the cell occupancy, so the number of scatterers in any block of cells
    takes four lookups.

    The dense pass of `clutter_returns` works on per-(AP, scatterer) rows in
    the original scatterer order: distance, bearing cosine and sine, and the
    two-way gain times the reflectivity. `_dense_rows` builds each AP's row
    on first use and caches it in the `row_*` arrays, which are allocated at
    the first dense use.
    """

    pathloss: PathLossParams
    origin: np.ndarray        # (2,) lower-left corner of cell (0, 0)
    cell_m: float
    shape: tuple              # (rows, columns) of the grid
    xy: np.ndarray            # (2, S) scatterer x and y coordinates in cell order
    refl: np.ndarray          # (S,) reflectivities in cell order
    cell_start: np.ndarray    # (rows * columns + 1,)
    cell_prefix: np.ndarray   # (rows + 1, columns + 1)
    row_built: np.ndarray | None = None
    row_dist: np.ndarray | None = None
    row_cos: np.ndarray | None = None
    row_sin: np.ndarray | None = None
    row_return: np.ndarray | None = None


def clutter_geometry(deployment: Deployment, pathloss: PathLossParams) -> ClutterGeometry:
    """Bucket the scatterers on a grid whose cell is half the mean AP spacing.

    The spacing is sqrt(area / L) over the bounding box of the APs and
    scatterers. The cell is widened where needed so that the grid has O(S)
    cells, and it is 1 m when every point coincides.
    """
    scat = np.asarray(deployment.scatterer_pos, dtype=float).reshape(-1, 2)
    n_scat = scat.shape[0]
    span = np.ptp(np.concatenate([deployment.ap_pos, scat]), axis=0)
    origin = scat.min(axis=0) if n_scat else np.zeros(2)
    extent = np.ptp(scat, axis=0) if n_scat else np.zeros(2)
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
        refl=np.asarray(deployment.scatterer_refl, dtype=float)[order],
        cell_start=np.concatenate([[0], np.cumsum(occupancy)]), cell_prefix=prefix)


# Both passes of `clutter_returns` take the distance and the bearing of an
# AP -> scatterer offset (dx, dy) from these two functions, so a lobe test
# sees the same numbers whichever pass runs it.

def _distance(dx, dy):
    return np.sqrt(dx * dx + dy * dy)


def _bearing(dx, dy):
    """Cosine and sine of the bearing; arctan2 gives a zero offset the bearing 0."""
    ang = np.arctan2(dy, dx)
    return np.cos(ang), np.sin(ang)


def _two_way_gain(pathloss: PathLossParams, d):
    """Linear gain of both hops AP -> scatterer -> AP at the config exponent."""
    return db_to_lin(-2.0 * path_loss_db(pathloss, d))


def _dense_rows(geom: ClutterGeometry, deployment: Deployment, aps: np.ndarray):
    """Build and cache the dense rows of the APs `aps` (see ClutterGeometry)."""
    if geom.row_built is None:
        shape = (deployment.L, geom.refl.size)
        geom.row_built = np.zeros(deployment.L, dtype=bool)
        geom.row_dist, geom.row_cos, geom.row_sin, geom.row_return = (
            np.empty(shape) for _ in range(4))
    scat, ap = deployment.scatterer_pos, deployment.ap_pos[aps]
    dx = scat[None, :, 0] - ap[:, 0, None]
    dy = scat[None, :, 1] - ap[:, 1, None]
    d = np.maximum(_distance(dx, dy), geom.pathloss.d0_m)
    geom.row_dist[aps] = d
    geom.row_cos[aps], geom.row_sin[aps] = _bearing(dx, dy)
    geom.row_return[aps] = _two_way_gain(geom.pathloss, d) * deployment.scatterer_refl
    geom.row_built[aps] = True


# Link routing and block sizes of `clutter_returns`. A link whose sector box
# holds more than _DENSE_FRACTION of the scatterers goes to the dense pass.
# Links run in chunks of _LINKS_PER_CHUNK; within a chunk the dense pass runs
# _LOBE_TESTS_PER_BLOCK lobe tests per block of links and the grid pass about
# _GRID_TESTS_PER_BLOCK, so the temporaries stay near 0.5 MB whatever the
# number of links.
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
    pad = 1e-9 * (1.0 + reach + np.abs(apex).max(axis=1))
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

    A candidate first passes the exact range test and a dot-product bearing
    test with a 1e-9 margin, which rejects only scatterers that the exact
    bearing test rejects too; the trigonometric test then runs on the
    survivors. Returns the summed two-way returns of the hits (in cell order)
    and the hit count per link.
    """
    x0, x1, y0, y1, _ = cells
    n, nx = apex.shape[0], geom.shape[1]
    # one range of sorted scatterers per (link, grid row) the box spans
    n_rows = y1 - y0 + 1
    link = np.repeat(np.arange(n), n_rows)
    row = np.arange(link.size) - np.repeat(np.cumsum(n_rows) - n_rows, n_rows) + y0[link]
    first = geom.cell_start[row * nx + x0[link]]
    length = geom.cell_start[row * nx + x1[link] + 1] - first
    link = np.repeat(link, length)
    cand = np.arange(link.size) + np.repeat(first - (np.cumsum(length) - length), length)
    dx = geom.xy[0, cand] - apex[link, 0]
    dy = geom.xy[1, cand] - apex[link, 1]
    norm = _distance(dx, dy)
    d = np.maximum(norm, geom.pathloss.d0_m)
    keep = d <= reach[link]
    keep &= dx * ux[link] + dy * uy[link] >= (cos_half - 1e-9) * norm
    keep = np.flatnonzero(keep)
    cand, link, d = cand[keep], link[keep], d[keep]
    cos_diff, sin_term = _bearing(dx[keep], dy[keep])
    cos_diff *= ux[link]
    sin_term *= uy[link]
    cos_diff += sin_term
    hit = cos_diff >= cos_half
    link = link[hit]
    returns = _two_way_gain(geom.pathloss, d[hit]) * geom.refl[cand[hit]]
    return np.bincount(link, returns, minlength=n), np.bincount(link, minlength=n)


def _dense_pass(geom, deployment, l_idx, ux, uy, reach, cos_half):
    """Lobe test of each link against all S scatterers of its AP's dense row.

    Returns the full-row sum of the two-way returns and the hit count per link.
    """
    n = l_idx.size
    power = np.zeros(n)
    count = np.zeros(n, dtype=int)
    ux, uy = ux[:, None], uy[:, None]
    step = max(1, _LOBE_TESTS_PER_BLOCK // geom.refl.size)
    need = np.zeros(deployment.L, dtype=bool)
    need[l_idx] = True
    if geom.row_built is not None:
        need &= ~geom.row_built
    aps = np.flatnonzero(need)
    for lo in range(0, aps.size, step):
        _dense_rows(geom, deployment, aps[lo:lo + step])
    for lo in range(0, n, step):
        b = slice(lo, lo + step)
        rows = l_idx[b]
        # the row gathers are fresh copies, so the arithmetic runs in place
        cos_diff = geom.row_cos[rows]
        cos_diff *= ux[b]
        sin_term = geom.row_sin[rows]
        sin_term *= uy[b]
        cos_diff += sin_term
        in_lobe = cos_diff >= cos_half
        in_lobe &= geom.row_dist[rows] <= reach[b, None]
        count[b] = np.count_nonzero(in_lobe, axis=1)
        returns = geom.row_return[rows]
        returns *= in_lobe
        power[b] = returns.sum(axis=1)
    return power, count


def _route_and_test(geom, deployment, l_idx, k_idx, reach, half_angle: float):
    """Unscaled power sums and counts of one chunk of links, each routed to
    the grid or the dense pass (see `clutter_returns`)."""
    power = np.zeros(l_idx.size)
    count = np.zeros(l_idx.size, dtype=int)
    apex = deployment.ap_pos[l_idx]
    diff = deployment.ue_pos[k_idx] - apex
    ue_bearing = np.arctan2(diff[:, 1], diff[:, 0])
    ux, uy = np.cos(ue_bearing), np.sin(ue_bearing)
    cos_half = math.cos(half_angle)
    cells = _sector_cells(geom, apex, ux, uy, reach, half_angle)
    to_dense = cells[-1] > _DENSE_FRACTION * geom.refl.size
    dense = np.flatnonzero(to_dense)
    if dense.size:
        power[dense], count[dense] = _dense_pass(geom, deployment, l_idx[dense], ux[dense],
                                                 uy[dense], reach[dense], cos_half)
    grid = np.flatnonzero(~to_dense)
    # blocks of about _GRID_TESTS_PER_BLOCK candidates, at least one link each
    block = np.cumsum(cells[-1][grid]) // _GRID_TESTS_PER_BLOCK
    for b in np.split(grid, np.flatnonzero(np.diff(block)) + 1):
        if b.size:
            power[b], count[b] = _grid_pass(geom, apex[b], ux[b], uy[b], reach[b], cos_half,
                                            [c[b] for c in cells])
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
    scatterers; their power sums differ in the last digits. The links run in
    chunks of _LINKS_PER_CHUNK, which bounds the per-link temporaries.
    """
    l_idx = np.asarray(l_idx, dtype=np.intp)
    k_idx = np.asarray(k_idx, dtype=np.intp)
    reach = CLUTTER_RANGE_FACTOR * np.asarray(link_dist, dtype=float)
    n = l_idx.size
    power = np.zeros(n)
    count = np.zeros(n, dtype=int)
    if n == 0 or geom.refl.size == 0:
        return power, count
    half_angle = BEAM_HALF_ANGLE_FACTOR / config.N
    for lo in range(0, n, _LINKS_PER_CHUNK):
        c = slice(lo, lo + _LINKS_PER_CHUNK)
        power[c], count[c] = _route_and_test(geom, deployment, l_idx[c], k_idx[c], reach[c],
                                             half_angle)
    power *= config.sigma_c2 * float(dbm_to_watts(config.p_t_dbm))
    return power, count


def clutter_return(geom: ClutterGeometry, deployment: Deployment, config: SystemConfig,
                   l: int, k: int, link_dist: float) -> tuple[float, int]:
    """Clutter power (W) and scatterer count inside the (l, k) sensing lobe."""
    power, count = clutter_returns(geom, deployment, config, [l], [k], [link_dist])
    return float(power[0]), int(count[0])
