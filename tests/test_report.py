import contextlib
import io
import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfmimo import cli, report
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
        rep = report.build_report("associate", cfg(), {"association_sua": "a,b\n1,2\n"})
        assert rep.tables["association_sua"]["schema"] == "association.v1"
        assert rep.tables["association_sua"]["csv"].endswith("1,2\n")
        # the seed and the digest come from the config
        assert (rep.seed, rep.digest) == (5, report.config_digest(cfg(), 5))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            report.build_report("x", cfg(), {})

    def test_round_trip_byte_identical(self):
        rep = report.build_report("ser", cfg(), {"ser": "h\n1\n"})
        text = written(rep)
        again = written(report.parse_report(text))
        assert text == again
        # the streamed text is the one-shot dump of the same dict
        assert text == json.dumps(asdict(rep), sort_keys=True, indent=2) + "\n"

    def test_timing_excluded_from_serialization(self):
        r1 = report.build_report("ser", cfg(), {"ser": "h\n"})
        r2 = report.build_report("ser", cfg(), {"ser": "h\n"})
        assert written(r1) == written(r2)
        assert sorted(json.loads(written(r1))) == ["digest", "experiment", "seed", "tables"]


def one_shot(rep):
    """The text of one `json.dump` of the whole report, as the writer must give."""
    return json.dumps(asdict(rep), sort_keys=True, indent=2) + "\n"


class RecordingFile:
    """A text file that keeps each `write` argument."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


# characters JSON escapes as \" and \\, as \n and \t, as \u00XX, as \uXXXX and,
# the last, as a surrogate pair, and a comma, which it keeps
SPECIALS = '"\\\n\t\x00\x1f\x7f,é\u2028\U0001F600'


class TestSlicedWrite:
    @settings(max_examples=40, deadline=None)
    @given(pieces=st.lists(st.tuples(st.text(SPECIALS, min_size=1, max_size=6), st.data()),
                           min_size=1, max_size=3),
           tail=st.integers(0, 3))
    def test_matches_one_shot_dump(self, pieces, tail):
        # the i-th piece straddles the end of the i-th slice, at a drawn offset
        filler = "17,3,0.25,1,0\n" * (report.SLICE_CHARS // 8)
        csv = ""
        for i, (piece, data) in enumerate(pieces, start=1):
            cut = data.draw(st.integers(0, len(piece)))
            gap = i * report.SLICE_CHARS - cut - len(csv)
            csv += filler[:gap] + piece
        csv += filler[:tail]
        rep = report.build_report("associate", cfg(),
                                  {"association_sua": csv, "association_baseline": csv[::-1]})
        assert written(rep) == one_shot(rep)

    def test_parsed_report_keeps_every_payload_key(self):
        doc = {"experiment": "pd", "digest": "ab", "seed": 3, "tables": {
            "pd": {"schema": "pd.v1", "csv": "h\n1\n",
                   "extra": [1, None, 0.1, {"b": [], "a": {"c": "x\ny"}}]},
            "empty": {}, "plain": "x", "none": None}}
        rep = report.parse_report(json.dumps(doc))
        text = written(rep)
        assert text == one_shot(rep)
        assert json.loads(text) == doc

    def test_no_write_exceeds_one_slice(self, tmp_path, monkeypatch):
        # 3.5 slices of text that JSON escapes to itself
        csv = "7,0.5," * (7 * report.SLICE_CHARS // 12)
        rep = report.build_report("associate", cfg(), {"association_sua": csv})
        fh = RecordingFile()
        rep.write(fh)
        assert "".join(fh.writes) == one_shot(rep)
        assert max(map(len, fh.writes)) == report.SLICE_CHARS

        files = []

        @contextlib.contextmanager
        def recording(path):
            files.append(RecordingFile())
            yield files[-1]

        monkeypatch.setattr(cli, "_atomic_file", recording)
        cli.atomic_write(str(tmp_path / "t.csv"), csv)
        assert "".join(files[0].writes) == csv
        assert max(map(len, files[0].writes)) == report.SLICE_CHARS
        assert len(files[0].writes) == 4


class TestMerge:
    def test_merges_tables(self):
        a = report.build_report("ser", cfg(), {"ser": "1\n"})
        b = report.build_report("pd", cfg(), {"pd": "2\n"})
        combined = report.merge_reports([a, b])
        assert set(combined.tables) == {"ser.ser", "pd.pd"}
        assert combined.digest == a.digest

    def test_mixed_seed_rejected(self):
        a = report.build_report("ser", cfg(), {"ser": "1\n"})
        b = report.build_report("pd", cfg(seed=6), {"pd": "2\n"})
        with pytest.raises(ValueError, match="provenance"):
            report.merge_reports([a, b])

    def test_mixed_config_rejected(self):
        a = report.build_report("ser", cfg(), {"ser": "1\n"})
        b = report.build_report("pd", cfg(X=1), {"pd": "2\n"})
        with pytest.raises(ValueError, match="provenance"):
            report.merge_reports([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            report.merge_reports([])
