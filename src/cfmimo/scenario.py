"""System configuration, deterministic deployments, and service-type mix."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
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


def _check_types(obj, where: str = ""):
    """Integer fields must be ints (not bools), float fields finite numbers.

    Field types are read from the dataclass annotations, which this module's
    `from __future__ import annotations` keeps as strings such as "int".
    """
    for f in fields(obj):
        v = getattr(obj, f.name)
        if f.type == "int" and (isinstance(v, bool) or not isinstance(v, numbers.Integral)):
            raise ValidationError(f"{where}{f.name} must be an integer, got {v!r}")
        if f.type.startswith("float"):
            for x in (v if f.type == "float | list" and isinstance(v, (list, tuple)) else [v]):
                if (isinstance(x, bool) or not isinstance(x, numbers.Real)
                        or not math.isfinite(x)):
                    raise ValidationError(f"{where}{f.name} must be a finite number, got {x!r}")


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
        if self.shadow_sigma_db < 0:
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
    p_k_dbm: float | list = 20.0      # UE uplink power, scalar or per-UE list
    p_threshold_dbm: float = -65.0    # masking threshold
    w_c: float = 0.4
    w_s: float = 0.6
    service_mix: ServiceMix = field(default_factory=ServiceMix)
    pathloss: PathLossParams = field(default_factory=PathLossParams)
    noise_figure_db: float = 7.0
    clutter_density_per_km2: float = 1100.0
    sigma_rcs: float = 1.0            # target RCS variance
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
        if self.sigma_rcs < 0 or self.sigma_c2 < 0:
            raise ValidationError("sigma_rcs and sigma_c2 must be >= 0")
        if self.correlation_model not in ("identity", "local_scattering"):
            raise ValidationError(f"unknown correlation_model {self.correlation_model!r}")
        if isinstance(self.p_k_dbm, (list, tuple)) and len(self.p_k_dbm) != self.K:
            raise ValidationError(f"p_k_dbm list must have length K={self.K}, got {len(self.p_k_dbm)}")
        self.service_mix.validate()
        self.pathloss.validate()

    def ue_power_dbm(self) -> np.ndarray:
        if isinstance(self.p_k_dbm, (list, tuple)):
            return np.asarray(self.p_k_dbm, dtype=float)
        return np.full(self.K, float(self.p_k_dbm))

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
    ue_power_dbm: np.ndarray   # (K,)
    scatterer_pos: np.ndarray  # (S, 2) meters
    scatterer_refl: np.ndarray # (S,) reflectivity >= 0

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
    scatterer_refl = np.ones(n_scatter)

    return Deployment(
        ap_pos=ap_pos,
        ue_pos=ue_pos,
        ue_service=labels,
        ue_power_dbm=config.ue_power_dbm(),
        scatterer_pos=scatterer_pos,
        scatterer_refl=scatterer_refl,
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
    if "pathloss" in data:
        if not isinstance(data["pathloss"], dict):
            raise ValidationError("pathloss must be an object")
        data["pathloss"] = _dataclass_from_dict(PathLossParams, data["pathloss"], "pathloss")
    if "service_mix" in data:
        if not isinstance(data["service_mix"], dict):
            raise ValidationError("service_mix must be an object")
        data["service_mix"] = _dataclass_from_dict(ServiceMix, data["service_mix"], "service_mix")
    cfg = _dataclass_from_dict(SystemConfig, data, "scenario")
    cfg.validate()
    return cfg


def config_to_dict(config: SystemConfig) -> dict:
    out = {}
    for f in fields(SystemConfig):
        v = getattr(config, f.name)
        if isinstance(v, (PathLossParams, ServiceMix)):
            v = {g.name: getattr(v, g.name) for g in fields(v)}
        out[f.name] = v
    return out


def load_scenario(path: str) -> SystemConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as e:
        raise ValidationError(f"scenario file is not valid JSON: {e}") from e
    except OSError as e:  # its message names the file
        raise ValidationError(f"cannot read scenario file: {e}") from e
    except UnicodeDecodeError as e:
        raise ValidationError(f"cannot read scenario file {path!r}: {e}") from e
    if not isinstance(data, dict):
        raise ValidationError("scenario file must contain a JSON object")
    return config_from_dict(data)


def save_scenario(config: SystemConfig, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")
