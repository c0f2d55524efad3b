"""Structured experiment reports with reproducibility provenance."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from cfmimo.scenario import SystemConfig, config_to_dict


def _canonical(value):
    """Floats rendered at 17 significant digits so digests are platform-stable."""
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def canonical_json(obj) -> str:
    return json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))


def config_digest(config: SystemConfig, seed: int) -> str:
    payload = canonical_json({"config": config_to_dict(config), "seed": int(seed)})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class MetricReport:
    experiment: str
    digest: str
    seed: int
    tables: dict            # name -> {"schema": str, "csv": str}

    def to_json(self) -> str:
        doc = {
            "experiment": self.experiment,
            "digest": self.digest,
            "seed": self.seed,
            "tables": self.tables,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def build_report(experiment: str, config: SystemConfig, seed: int,
                 tables: dict[str, str]) -> MetricReport:
    """Assemble one experiment's tables with provenance.

    The report holds no wall-clock time, so identical runs produce
    byte-identical files.
    """
    if not tables:
        raise ValueError("refusing to build an empty report")
    named = {}
    for name, csv_payload in tables.items():
        named[name] = {"schema": f"{name.split('_')[0]}.v1", "csv": csv_payload}
    return MetricReport(
        experiment=experiment,
        digest=config_digest(config, seed),
        seed=int(seed),
        tables=named,
    )


def parse_report(text: str) -> MetricReport:
    doc = json.loads(text)
    return MetricReport(
        experiment=doc["experiment"],
        digest=doc["digest"],
        seed=int(doc["seed"]),
        tables=doc["tables"],
    )


def merge_reports(reports: list[MetricReport]) -> MetricReport:
    """Combine per-experiment reports; inputs must share (config, seed)."""
    if not reports:
        raise ValueError("no reports to merge")
    digests = {r.digest for r in reports}
    seeds = {r.seed for r in reports}
    if len(digests) > 1 or len(seeds) > 1:
        raise ValueError(f"mixed provenance: digests={sorted(digests)} seeds={sorted(seeds)}")
    tables = {}
    for r in sorted(reports, key=lambda r: r.experiment):
        for name, payload in r.tables.items():
            tables[f"{r.experiment}.{name}"] = payload
    return MetricReport(
        experiment="combined",
        digest=reports[0].digest,
        seed=reports[0].seed,
        tables=tables,
    )
