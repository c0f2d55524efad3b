import io
import json
from dataclasses import asdict

import pytest

from cfmimo import report
from cfmimo.scenario import SystemConfig


def cfg(**kw):
    base = dict(L=6, K=3, N=2, tau_p=2, X=2, seed=5)
    base.update(kw)
    return SystemConfig(**base)


def written(rep):
    """The text `MetricReport.write` streams."""
    fh = io.StringIO()
    rep.write(fh)
    return fh.getvalue()


class TestDigest:
    def test_same_inputs_same_digest(self):
        assert report.config_digest(cfg(), 5) == report.config_digest(cfg(), 5)

    def test_seed_changes_digest(self):
        assert report.config_digest(cfg(), 5) != report.config_digest(cfg(), 6)

    def test_config_changes_digest(self):
        assert report.config_digest(cfg(), 5) != report.config_digest(cfg(X=1), 5)

    def test_float_canonicalization(self):
        # a float that round-trips identically regardless of its repr form
        a = report.canonical_json({"v": 0.1})
        b = report.canonical_json({"v": 0.1000000000000000055511151231257827})
        assert a == b


class TestBuildReport:
    def test_embeds_tables_with_schema(self):
        rep = report.build_report("associate", cfg(), 5, {"association_sua": "a,b\n1,2\n"})
        assert rep.tables["association_sua"]["schema"] == "association.v1"
        assert rep.tables["association_sua"]["csv"].endswith("1,2\n")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            report.build_report("x", cfg(), 5, {})

    def test_round_trip_byte_identical(self):
        rep = report.build_report("ser", cfg(), 5, {"ser": "h\n1\n"})
        text = written(rep)
        again = written(report.parse_report(text))
        assert text == again
        # the streamed text is the one-shot dump of the same dict
        assert text == json.dumps(asdict(rep), sort_keys=True, indent=2) + "\n"

    def test_timing_excluded_from_serialization(self):
        r1 = report.build_report("ser", cfg(), 5, {"ser": "h\n"})
        r2 = report.build_report("ser", cfg(), 5, {"ser": "h\n"})
        assert written(r1) == written(r2)
        assert sorted(json.loads(written(r1))) == ["digest", "experiment", "seed", "tables"]


class TestMerge:
    def test_merges_tables(self):
        a = report.build_report("ser", cfg(), 5, {"ser": "1\n"})
        b = report.build_report("pd", cfg(), 5, {"pd": "2\n"})
        combined = report.merge_reports([a, b])
        assert set(combined.tables) == {"ser.ser", "pd.pd"}
        assert combined.digest == a.digest

    def test_mixed_seed_rejected(self):
        a = report.build_report("ser", cfg(), 5, {"ser": "1\n"})
        b = report.build_report("pd", cfg(), 6, {"pd": "2\n"})
        with pytest.raises(ValueError, match="provenance"):
            report.merge_reports([a, b])

    def test_mixed_config_rejected(self):
        a = report.build_report("ser", cfg(), 5, {"ser": "1\n"})
        b = report.build_report("pd", cfg(X=1), 5, {"pd": "2\n"})
        with pytest.raises(ValueError, match="provenance"):
            report.merge_reports([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            report.merge_reports([])
