"""System configuration, deterministic deployments, and service-type mix."""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass, field, fields
from enum import IntEnum

import numpy as np


class ValidationError(ValueError):
    """A config or scenario file violates a model invariant."""


class InfeasibleModelError(RuntimeError):
    """The scenario produced an infeasible state (e.g. a UE with no serving AP)."""


class ServiceType(IntEnum):
    COM = 0
    SENSE = 1
    JCAS = 2


# Named substreams derived from the master seed.  Every randomized stage pulls
# from its own stream so that e.g. adding Monte-Carlo trials never perturbs the
# deployment.
_STREAMS = {
    "deployment": 0,
    "shadow": 1,
    "fading": 2,
    "noise": 3,
    "mc": 4,
}


def rng_stream(seed: int, name: str, *extra: int) -> np.random.Generator:
    """Deterministic per-purpose RNG derived from the master seed."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), _STREAMS[name], *map(int, extra))))


def median(values) -> float:
    """np.median of a 1-D sequence, to the bit: the middle value, or (a + b) / 2
    of the two middle ones. np.median would import numpy.ma on first use,
    about 15 ms of each fresh process."""
    v = np.sort(np.asarray(values, dtype=float))
    mid = v.size // 2
    return float(v[mid] if v.size % 2 else (v[mid - 1] + v[mid]) / 2)


def _check_types(obj, where: str = ""):
    """Integer fields must be ints (not bools), float fields finite numbers.

    Field types are read from the dataclass annotations, which this module's
    `from __future__ import annotations` keeps as strings such as "int".
    """
    for f in fields(obj):
        v = getattr(obj, f.name)
        if f.type == "int" and (isinstance(v, bool) or not isinstance(v, numbers.Integral)):
            raise ValidationError(f"{where}{f.name} must be an integer, got {v!r}")
        if f.type == "float" and (isinstance(v, bool) or not isinstance(v, numbers.Real)
                                  or not _finite(v)):
            raise ValidationError(f"{where}{f.name} must be a finite number, got {v!r}")


def _finite(v: numbers.Real) -> bool:
    """math.isfinite, False for an integer too large for a float."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


@dataclass
class PathLossParams:
    """Log-distance propagation constants (urban-microcell style defaults)."""

    pl0_db: float = 30.5          # loss at the reference distance
    d0_m: float = 1.0
    gamma_pl: float = 3.67        # path-loss exponent (not the effective-gain gamma)
    shadow_sigma_db: float = 4.0

    def validate(self):
        _check_types(self, "pathloss.")
        if not self.d0_m > 0:
            raise ValidationError(f"pathloss.d0_m must be > 0, got {self.d0_m}")
        if self.gamma_pl < 2.0:
            raise ValidationError(f"pathloss.gamma_pl must be >= 2, got {self.gamma_pl}")
        if math.copysign(1.0, self.shadow_sigma_db) < 0:  # numpy's normal refuses -0.0 too
            raise ValidationError(f"pathloss.shadow_sigma_db must be >= 0, got {self.shadow_sigma_db}")


@dataclass
class ServiceMix:
    com: float = 0.24
    sense: float = 0.40
    jcas: float = 0.36

    def as_tuple(self):
        return (self.com, self.sense, self.jcas)

    def validate(self):
        _check_types(self, "service_mix.")
        t = self.as_tuple()
        if any(f < 0 for f in t):
            raise ValidationError(f"service_mix fractions must be >= 0, got {t}")
        if abs(sum(t) - 1.0) > 1e-12:
            raise ValidationError(f"service_mix must sum to 1 within 1e-12, got sum={sum(t)!r}")


@dataclass
class SystemConfig:
    """All scalar parameters of one scenario.

    Uniform linear arrays with N antennas per AP, uplink TDD operation,
    block fading over tau_c channel uses with tau_p pilot uses.
    """

    L: int = 100                      # APs
    K: int = 30                       # UEs
    N: int = 5                        # antennas per AP
    tau_p: int = 10                   # orthogonal pilots
    tau_c: int = 200                  # coherence block length
    X: int = 5                        # max APs per UE
    bandwidth_hz: float = 20e6
    area_side_m: float = 500.0
    p_t_dbm: float = 36.0             # AP transmit power
    p_threshold_dbm: float = -65.0    # masking threshold
    w_c: float = 0.4
    w_s: float = 0.6
    service_mix: ServiceMix = field(default_factory=ServiceMix)
    pathloss: PathLossParams = field(default_factory=PathLossParams)
    noise_figure_db: float = 7.0
    clutter_density_per_km2: float = 1100.0
    sigma_c2: float = 1e8             # per-scatterer clutter power scale
    p_fa: float = 1e-2
    correlation_model: str = "identity"   # "identity" or "local_scattering"
    angular_spread_deg: float = 10.0
    seed: int = 1

    def validate(self):
        _check_types(self)
        if not (self.L > self.K > 0):
            raise ValidationError(f"require L > K > 0, got L={self.L}, K={self.K}")
        if not (0 < self.X < self.L):
            raise ValidationError(f"require 0 < X < L, got X={self.X}, L={self.L}")
        if not (0 < self.tau_p <= self.tau_c):
            raise ValidationError(f"require 0 < tau_p <= tau_c, got tau_p={self.tau_p}, tau_c={self.tau_c}")
        if self.N < 1:
            raise ValidationError(f"N must be >= 1, got {self.N}")
        # numpy sizes the (L, K) link arrays and SER's (L, K, N) complex
        # fading draw in bytes; an integer field can be too large for either
        limit = np.iinfo(np.intp).max // 16
        for names, size in (("L * K", self.L * self.K), ("L * K * N", self.L * self.K * self.N)):
            if size > limit:
                raise ValidationError(f"{names} must be at most {limit}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.w_c < 0 or self.w_s < 0 or abs(self.w_c + self.w_s - 1.0) > 1e-12:
            raise ValidationError(f"weights must be >= 0 and sum to 1, got w_c={self.w_c}, w_s={self.w_s}")
        if not self.area_side_m > 0:
            raise ValidationError(f"area_side_m must be > 0, got {self.area_side_m}")
        if not (0 < self.p_fa < 1):
            raise ValidationError(f"p_fa must be in (0, 1), got {self.p_fa}")
        if self.bandwidth_hz <= 0:
            raise ValidationError(f"bandwidth_hz must be > 0, got {self.bandwidth_hz}")
        if self.clutter_density_per_km2 < 0:
            raise ValidationError(f"clutter_density_per_km2 must be >= 0, got {self.clutter_density_per_km2}")
        try:
            scatterers = self.clutter_density_per_km2 * (self.area_side_m / 1000.0) ** 2
        except OverflowError:
            raise ValidationError(f"area_side_m {self.area_side_m} overflows the area in km^2") from None
        if scatterers > limit:  # numpy sizes (scatterers, 2) float64 positions
            raise ValidationError(f"clutter_density_per_km2 * area_side_m^2 gives {scatterers:.3g} scatterers, too many")
        try:
            noise_w = self.noise_power_w()
        except OverflowError:
            raise ValidationError(f"noise_figure_db {self.noise_figure_db} overflows the noise power") from None
        if noise_w < sys.float_info.min:  # 0 or subnormal: the SNRs would divide by it
            raise ValidationError(f"noise_figure_db {self.noise_figure_db} underflows the noise power")
        if self.sigma_c2 < 0:
            raise ValidationError(f"sigma_c2 must be >= 0, got {self.sigma_c2}")
        # `clutter_returns` scales every return by sigma_c2 * P_t in W, and an
        # infinite scale turns the SCNRs into NaN: P_t must be a normal float,
        # and so must the scale unless sigma_c2 is 0 (no clutter)
        try:
            p_t_w = 10.0 ** ((self.p_t_dbm - 30.0) / 10.0)
        except OverflowError:
            raise ValidationError(f"p_t_dbm {self.p_t_dbm} overflows the transmit power in W") from None
        if p_t_w < sys.float_info.min:
            raise ValidationError(f"p_t_dbm {self.p_t_dbm} underflows the transmit power in W")
        if not (self.sigma_c2 == 0 or sys.float_info.min <= self.sigma_c2 * p_t_w <= sys.float_info.max):
            raise ValidationError(f"sigma_c2 {self.sigma_c2} times the transmit power of {p_t_w:.3g} W "
                                  "is not a finite normal float")
        if not 0 <= self.angular_spread_deg <= 180:
            raise ValidationError(f"angular_spread_deg must be in [0, 180], got {self.angular_spread_deg}")
        if self.correlation_model not in ("identity", "local_scattering"):
            raise ValidationError(f"unknown correlation_model {self.correlation_model!r}")
        self.service_mix.validate()
        self.pathloss.validate()
        # Every level of the model lies within +-300 dB, far inside a float's
        # +-3080 dB, so the powers, the distances, their squares and their sums
        # stay finite: d0 in dB re 1 m, the link loss at d0 and at the area
        # diagonal, widened by 10 shadow sigmas (beyond any draw), then P_t/N0
        # and, with clutter, sigma_c2 P_t/N0. Each level names the fields it
        # adds to the ones before.
        pl = self.pathloss
        diagonal = pl.pl0_db + 10.0 * pl.gamma_pl * max(
            0.0, math.log10(self.area_side_m * math.sqrt(2.0)) - math.log10(pl.d0_m))
        shadow = 10.0 * pl.shadow_sigma_db
        snr_db = self.p_t_dbm - self.noise_power_dbm()
        levels = [("d0 in dB re 1 m", 10.0 * math.log10(pl.d0_m), "pathloss.d0_m"),
                  ("the link loss at d0", pl.pl0_db, "pathloss.pl0_db"),
                  ("the link loss at the area diagonal", diagonal,
                   "pathloss.gamma_pl, pathloss.d0_m and area_side_m"),
                  ("the link loss less 10 shadow sigmas", pl.pl0_db - shadow, "pathloss.shadow_sigma_db"),
                  ("the link loss plus 10 shadow sigmas", diagonal + shadow, "pathloss.shadow_sigma_db"),
                  ("P_t/N0", snr_db, "p_t_dbm, bandwidth_hz and noise_figure_db")]
        if self.sigma_c2 > 0:
            levels.append(("the clutter scale over the noise", 10.0 * math.log10(self.sigma_c2) + snr_db,
                           "sigma_c2"))
        for what, level, names in levels:
            if not -300.0 <= level <= 300.0:
                raise ValidationError(f"{what} is {level:.6g} dB, outside [-300, 300] dB: check {names}")

    def noise_power_dbm(self) -> float:
        """Thermal noise floor: -174 dBm/Hz + 10 log10(B) + noise figure."""
        return -174.0 + 10.0 * math.log10(self.bandwidth_hz) + self.noise_figure_db

    def noise_power_w(self) -> float:
        return 10.0 ** ((self.noise_power_dbm() - 30.0) / 10.0)


@dataclass
class Deployment:
    """AP/UE/scatterer positions with per-UE service labels; ids are indices."""

    ap_pos: np.ndarray         # (L, 2) meters
    ue_pos: np.ndarray         # (K, 2) meters
    ue_service: np.ndarray     # (K,) ServiceType values
    scatterer_pos: np.ndarray  # (S, 2) meters

    @property
    def L(self) -> int:
        return self.ap_pos.shape[0]

    @property
    def K(self) -> int:
        return self.ue_pos.shape[0]

    def ue_indices(self, *services: ServiceType) -> np.ndarray:
        wanted = set(int(s) for s in services)
        return np.array([k for k in range(self.K) if int(self.ue_service[k]) in wanted], dtype=int)


def service_counts(K: int, mix: ServiceMix) -> tuple[int, int, int]:
    """Largest-remainder apportionment of K UEs over (com, sense, jcas)."""
    quotas = [K * f for f in mix.as_tuple()]
    base = [math.floor(q) for q in quotas]
    short = K - sum(base)
    order = sorted(range(3), key=lambda i: (-(quotas[i] - base[i]), i))
    for i in order[:short]:
        base[i] += 1
    return tuple(base)


def generate_deployment(config: SystemConfig) -> Deployment:
    """Uniform i.i.d. positions for APs, UEs, and scatterers, seeded by config.seed."""
    config.validate()
    rng = rng_stream(config.seed, "deployment")
    side = config.area_side_m
    ap_pos = rng.uniform(0.0, side, size=(config.L, 2))
    ue_pos = rng.uniform(0.0, side, size=(config.K, 2))

    n_com, n_sense, n_jcas = service_counts(config.K, config.service_mix)
    labels = np.array(
        [ServiceType.COM] * n_com + [ServiceType.SENSE] * n_sense + [ServiceType.JCAS] * n_jcas,
        dtype=int,
    )
    labels = labels[rng.permutation(config.K)]

    area_km2 = (side / 1000.0) ** 2
    n_scatter = int(round(config.clutter_density_per_km2 * area_km2))
    scatterer_pos = rng.uniform(0.0, side, size=(n_scatter, 2))

    return Deployment(
        ap_pos=ap_pos,
        ue_pos=ue_pos,
        ue_service=labels,
        scatterer_pos=scatterer_pos,
    )


# --- scenario file I/O ------------------------------------------------------

def _dataclass_from_dict(cls, data: dict, where: str):
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValidationError(f"unknown key(s) in {where}: {sorted(unknown)}")
    return cls(**data)


def config_from_dict(data: dict) -> SystemConfig:
    data = dict(data)
    for key, cls in (("pathloss", PathLossParams), ("service_mix", ServiceMix)):
        if key in data:
            if not isinstance(data[key], dict):
                raise ValidationError(f"{key} must be an object")
            data[key] = _dataclass_from_dict(cls, data[key], key)
    cfg = _dataclass_from_dict(SystemConfig, data, "scenario")
    cfg.validate()
    return cfg


def load_scenario(path: str) -> SystemConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:  # its message names the file
        raise ValidationError(f"cannot read scenario file: {e}") from e
    except UnicodeDecodeError as e:
        raise ValidationError(f"cannot read scenario file {path!r}: {e}") from e
    except ValueError as e:  # a JSONDecodeError, or an integer of over 4300 digits
        raise ValidationError(f"scenario file is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ValidationError("scenario file must contain a JSON object")
    return config_from_dict(data)


def save_scenario(config: SystemConfig, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")
