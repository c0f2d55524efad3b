"""Structured experiment reports with reproducibility provenance."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

from cfmimo.scenario import SystemConfig

# the most characters of one string that a single `write` gets: a whole
# association table (100 MB at L=4000) written at once is copied whole by the
# JSON escape and again by the file's encoder; written in slices, it is
# copied one slice at a time
SLICE_CHARS = 64 * 1024


def slices(text: str):
    """`text` in consecutive pieces of at most SLICE_CHARS characters."""
    return (text[i:i + SLICE_CHARS] for i in range(0, len(text), SLICE_CHARS))


def csv_table(header: str, rows) -> str:
    """A CSV table: the `header` line, one comma-joined line per row, with each
    float (numpy's float64 is one) as repr(float(v)) and any other value as
    str(v), and a final newline."""
    lines = [header]
    lines += (",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
              for row in rows)
    return "\n".join(lines) + "\n"


def _canonical(value):
    """Floats rendered at 17 significant digits so digests are platform-stable."""
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in sorted(value.items())}
    return value


def canonical_json(obj) -> str:
    return json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))


def config_digest(config: SystemConfig, seed: int) -> str:
    payload = canonical_json({"config": asdict(config), "seed": int(seed)})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class MetricReport:
    experiment: str
    digest: str
    seed: int
    tables: dict            # name -> {"schema": str, "csv": str}

    def write(self, fh):
        """Write the report to the text file `fh`: the text of
        `json.dump(asdict(self), fh, sort_keys=True, indent=2)` and a final
        newline, with each string escaped and written one slice at a time
        (see `slices`), so no whole-table copy is made."""
        _write_json(fh, asdict(self), "")
        fh.write("\n")


def _write_json(fh, value, indent: str):
    """`value` as `json.dump(..., sort_keys=True, indent=2)` writes it at the
    nesting level of `indent`. JSON escapes a string character by character,
    so the escaped slices join to the escaped string. Values other than
    non-empty dicts and strings are dumped whole and re-indented (their
    strings escape every newline)."""
    if isinstance(value, dict) and value:
        inner = indent + "  "
        opening = "{"
        for key in sorted(value):
            fh.write(f"{opening}\n{inner}{json.dumps(key)}: ")
            _write_json(fh, value[key], inner)
            opening = ","
        fh.write(f"\n{indent}}}")
    elif isinstance(value, str):
        fh.write('"')
        for part in slices(value):
            fh.write(json.dumps(part)[1:-1])
        fh.write('"')
    else:
        fh.write(json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + indent))


def build_report(experiment: str, config: SystemConfig, tables: dict[str, str]) -> MetricReport:
    """Assemble one experiment's tables with provenance, seeded by config.seed.

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
        digest=config_digest(config, config.seed),
        seed=int(config.seed),
        tables=named,
    )


_REPORT_KEYS = {"experiment": str, "digest": str, "seed": int, "tables": dict}


def parse_report(text: str) -> MetricReport:
    """Read one report; a malformed one raises ValueError saying what is wrong."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    for key, kind in _REPORT_KEYS.items():
        if key not in doc:
            raise ValueError(f"missing key {key!r}")
        if not isinstance(doc[key], kind) or isinstance(doc[key], bool):
            raise ValueError(f"{key} must be a {kind.__name__}, got {doc[key]!r}")
    return MetricReport(**{key: doc[key] for key in _REPORT_KEYS})


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
