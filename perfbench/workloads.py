"""Workload definitions and the seeded scenario generator.

A workload is a scenario (SystemConfig overrides) plus a sequence of `cfmimo`
CLI commands run on it.  A run with benchmark seed `n` measures a fixed list
of DEPLOYMENTS deployments, seeded `1000 * n + j` for the first accepted
candidates `j = 0, 1, ...`; every repetition of the run uses one of them, so
the number of repetitions never changes which inputs are measured.  The
program receives only the scenario file written here with
`scenario.save_scenario` and that seed on its command line.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

SEED_STRIDE = 1000
DEPLOYMENTS = 4         # deployments measured per benchmark seed


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict                    # SystemConfig overrides at benchmark scale
    tiny_config: dict               # overrides for the smoke-test scale
    params: dict                    # sample counts and grids the commands use
    tiny_params: dict = field(default_factory=dict)
    # the SER and Pd subcommands exit 3 when a UE has no unmasked AP, so the
    # generator skips deployments with a coverage hole for those workloads
    needs_coverage: bool = False

    def settings(self, tiny: bool):
        cfg = dict(self.config, **(self.tiny_config if tiny else {}))
        params = dict(self.params, **(self.tiny_params if tiny else {}))
        return cfg, params


COMMANDS = {
    "associate": "associate --scheme {scheme}",
    "ser": "ser --scheme both --snr {ser_snr} --symbols {ser_symbols}",
    "pd": "pd --scheme both --snr {pd_snr} --trials {pd_trials}",
    "sweep-x": "sweep-x --x-range {x_range}",
    "netmetrics": "netmetrics --reps {net_reps}",
    "report": "report",
}


def commands(params: dict) -> list[list[str]]:
    """The CLI argv list of a workload, without --scenario/--seed/--out."""
    return [COMMANDS[cmd].format(**params).split() for cmd in params["sequence"]]


# Default AP density (100 APs on 500 m x 500 m) keeps L=400 at a 1000 m side.
_DENSE = {"L": 400, "K": 120, "area_side_m": 1000.0}
_DENSE_TINY = {"L": 40, "K": 12, "area_side_m": 316.0}
_FIGURES_TINY = {"L": 30, "K": 9, "area_side_m": 274.0}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="assoc-dense",
        why="L=400 K=120 associate both schemes: all-to-all clutter lobe tests and "
            "link_quality dominate; the optimizer's relaxation holds",
        config=_DENSE,
        tiny_config=_DENSE_TINY,
        params={"sequence": ["associate"], "scheme": "both"},
    ),
    Workload(
        name="assoc-binding",
        why="L=400 K=120 tau_p=2 at -80 dBm, SUA only: AP capacities bind, so the "
            "exact flow optimizer dominates and clutter is evaluated on few links",
        config=dict(_DENSE, tau_p=2, p_threshold_dbm=-80.0),
        tiny_config=_DENSE_TINY,
        params={"sequence": ["associate"], "scheme": "sua"},
    ),
    Workload(
        name="figures-l100",
        why="paper default L=100 K=30: ser, pd, sweep-x, netmetrics and report; "
            "SER then Pd Monte-Carlo dominate, association and clutter are small",
        config={},
        tiny_config=_FIGURES_TINY,
        params={"sequence": ["ser", "pd", "sweep-x", "netmetrics", "report"],
                "ser_snr": "0:5:10", "ser_symbols": 2000,
                "pd_snr": "0:5:15", "pd_trials": 20000,
                "x_range": "1:10", "net_reps": 5},
        tiny_params={"ser_symbols": 200, "pd_trials": 2000, "net_reps": 1},
        needs_coverage=True,
    ),
    Workload(
        name="ser-localscat",
        why="L=100 K=30 local-scattering correlation, ser both schemes: per-link "
            "correlation_sqrt and mmse_estimate solves replace the identity gain",
        config={"correlation_model": "local_scattering"},
        tiny_config=_FIGURES_TINY,
        params={"sequence": ["ser"], "ser_snr": "0:5:10", "ser_symbols": 570},
        tiny_params={"ser_symbols": 190},
        needs_coverage=True,
    ),
)}


def has_coverage(config) -> bool:
    """Every UE receives at least one AP at or above the masking threshold.

    The rule is the benchmark's own, applied to the deployment's received
    powers, so a change to the program's masking policy (for example one that
    keeps each UE's strongest AP) does not change which deployments a seed
    measures.
    """
    from cfmimo import channel
    from cfmimo.scenario import generate_deployment

    budget = channel.link_budget(generate_deployment(config), config)
    return bool((budget.p_r_dbm >= config.p_threshold_dbm).any(axis=0).all())


class ScenarioSource:
    """The fixed list of (scenario path, seed, config) one benchmark seed measures."""

    def __init__(self, workload: Workload, seed: int, directory: str, tiny: bool = False):
        from cfmimo.scenario import config_from_dict, save_scenario

        if seed < 0:
            raise ValueError("the benchmark seed must be >= 0")
        overrides, self.params = workload.settings(tiny)
        self.skipped = []
        self.scenarios = []
        candidate = SEED_STRIDE * seed
        while len(self.scenarios) < DEPLOYMENTS:
            cfg = config_from_dict(dict(overrides, seed=candidate))
            if workload.needs_coverage and not has_coverage(cfg):
                self.skipped.append(candidate)
            else:
                path = os.path.join(directory, f"scenario_{candidate}.json")
                save_scenario(cfg, path)
                self.scenarios.append((path, candidate, cfg))
            candidate += 1
