import json
import os

import numpy as np
import pytest

from cfmimo import cli
from cfmimo.scenario import SystemConfig, ValidationError, config_to_dict, save_scenario


def small_scenario(tmp_path, **kw):
    base = dict(L=12, K=5, N=2, tau_p=3, tau_c=40, X=2, area_side_m=150.0,
                clutter_density_per_km2=400.0, seed=3)
    base.update(kw)
    cfg = SystemConfig(**base)
    cfg.validate()
    path = tmp_path / "scenario.json"
    save_scenario(cfg, str(path))
    return str(path)


class TestParseRange:
    def test_three_part(self):
        np.testing.assert_allclose(cli.parse_range("0:2:6"), [0, 2, 4, 6])

    def test_two_part_unit_step(self):
        np.testing.assert_allclose(cli.parse_range("1:4"), [1, 2, 3, 4])

    def test_fractional_step(self):
        np.testing.assert_allclose(cli.parse_range("0:2.5:5"), [0, 2.5, 5])

    @pytest.mark.parametrize("bad", ["abc", "5:1", "0:0:5", "1:2:3:4"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValidationError):
            cli.parse_range(bad)


class TestValidateCommand:
    def test_valid_scenario(self, tmp_path, capsys):
        path = small_scenario(tmp_path)
        assert cli.main(["validate", path]) == 0

    def test_invalid_scenario_exit_2(self, tmp_path):
        doc = config_to_dict(SystemConfig())
        doc["K"] = 500
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == 2
        # 1e400 parses as an infinite float: rejected, not an overflow traceback
        doc["K"] = 30
        path.write_text(json.dumps(doc).replace('"area_side_m": 500.0', '"area_side_m": 1e400'))
        assert cli.main(["validate", str(path)]) == 2
        assert cli.main(["associate", "--scenario", str(path), "--out", str(tmp_path)]) == 2

    def test_unknown_key_exit_2(self, tmp_path):
        doc = config_to_dict(SystemConfig())
        doc["mystery"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == 2


class TestNegativeSeed:
    @pytest.mark.parametrize("command", ["associate", "ser", "pd", "netmetrics"])
    def test_scenario_seed_exit_2(self, tmp_path, capsys, command):
        doc = config_to_dict(SystemConfig(L=12, K=5, X=2, tau_p=3))
        doc["seed"] = -3
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == 2
        assert cli.main([command, "--scenario", str(path), "--out", str(tmp_path)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_seed_option_exit_2(self, tmp_path, capsys):
        path = small_scenario(tmp_path)
        assert cli.main(["associate", "--scenario", path, "--seed", "-1",
                         "--out", str(tmp_path)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not any(name.endswith(".csv") for name in os.listdir(tmp_path))


class TestUnreadableScenario:
    @staticmethod
    def _paths(tmp_path):
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes('{"L": 100, "note": "caf\xe9"}'.encode("latin-1"))
        return {"missing": str(tmp_path / "missing.json"), "directory": str(tmp_path),
                "non-utf8": str(latin1)}

    @pytest.mark.parametrize("kind", ["missing", "directory", "non-utf8"])
    def test_validate_exit_2(self, tmp_path, capsys, kind):
        assert cli.main(["validate", self._paths(tmp_path)[kind]]) == 2
        assert "cannot read scenario file" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["missing", "directory", "non-utf8"])
    def test_associate_exit_2(self, tmp_path, capsys, kind):
        out = tmp_path / "out"
        path = self._paths(tmp_path)[kind]
        assert cli.main(["associate", "--scenario", path, "--out", str(out)]) == 2
        assert "cannot read scenario file" in capsys.readouterr().err
        assert not any(name.endswith(".csv") for name in os.listdir(out))


class TestSampleCounts:
    @pytest.mark.parametrize("command,option", [("ser", "--symbols"), ("pd", "--trials"),
                                                ("netmetrics", "--reps")])
    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_non_positive_count_exit_2(self, tmp_path, capsys, command, option, value):
        path = small_scenario(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--scenario", path, "--out", str(tmp_path), option, value])
        assert exc.value.code == 2
        assert option in capsys.readouterr().err
        assert not any(name.endswith(".csv") for name in os.listdir(tmp_path))


class TestDeploymentStateBuiltOnce:
    @pytest.mark.parametrize("argv", [
        ["associate"],
        ["ser", "--snr", "0:10:10", "--symbols", "200"],
        ["pd", "--snr", "0:10:10", "--trials", "200"],
        ["netmetrics", "--reps", "1"],
    ])
    def test_one_link_budget_and_geometry(self, tmp_path, monkeypatch, argv):
        from cfmimo import channel

        calls = {"link_budget": 0, "clutter_geometry": 0}
        for name in calls:
            def counted(*a, _fn=getattr(channel, name), _name=name, **kw):
                calls[_name] += 1
                return _fn(*a, **kw)
            monkeypatch.setattr(channel, name, counted)
        path = small_scenario(tmp_path)
        assert cli.main([*argv, "--scenario", path, "--out", str(tmp_path / "out")]) == 0
        assert calls == {"link_budget": 1, "clutter_geometry": 1}


class TestDenseClutterRows:
    """The dense (AP, scatterer) rows of the clutter geometry are built only
    for links that need them, and at most once per AP."""

    def built_rows(self, tmp_path, monkeypatch, argv, **kw):
        from cfmimo import channel

        built = []

        def counted(geom, deployment, aps, _fn=channel._dense_rows):
            built.extend(np.asarray(aps).tolist())
            return _fn(geom, deployment, aps)
        monkeypatch.setattr(channel, "_dense_rows", counted)
        path = tmp_path / "scenario.json"
        save_scenario(SystemConfig(**kw), str(path))
        assert cli.main([*argv, "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
        return built

    def test_sua_builds_no_dense_row(self, tmp_path, monkeypatch):
        built = self.built_rows(tmp_path, monkeypatch, ["associate", "--scheme", "sua"],
                                L=400, K=120, area_side_m=1000.0, seed=11)
        assert built == []

    @pytest.mark.parametrize("argv, kw", [
        (["associate", "--scheme", "both"], dict(L=400, K=120, area_side_m=1000.0, seed=11)),
        (["netmetrics", "--reps", "2"], dict(seed=1000)),
    ], ids=["associate-L400", "netmetrics-L100"])
    def test_each_row_built_at_most_once(self, tmp_path, monkeypatch, argv, kw):
        built = self.built_rows(tmp_path, monkeypatch, argv, **kw)
        assert len(built) > 0
        assert len(built) == len(set(built))


class TestAssociate:
    def test_writes_outputs(self, tmp_path):
        path = small_scenario(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["associate", "--scenario", path, "--out", str(out)]) == 0
        assert (out / "associate_sua.csv").exists()
        assert (out / "associate_baseline.csv").exists()
        rep = json.loads((out / "associate_report.json").read_text())
        assert rep["experiment"] == "associate"

    def test_single_scheme(self, tmp_path):
        path = small_scenario(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["associate", "--scenario", path, "--out", str(out),
                         "--scheme", "sua"]) == 0
        assert not (out / "associate_baseline.csv").exists()


class TestSer:
    def test_runs_and_writes(self, tmp_path):
        path = small_scenario(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["ser", "--scenario", path, "--out", str(out),
                       "--snr", "0:5:10", "--mod", "bpsk", "--symbols", "2000"])
        assert rc == 0
        text = (out / "ser_sua.csv").read_text()
        assert text.startswith("scheme,modulation,snr_db")
        assert len(text.strip().split("\n")) == 4  # header + 3 points

    def test_infeasible_exit_3(self, tmp_path):
        # a threshold above every link's power leaves every UE unserved
        path = small_scenario(tmp_path, p_threshold_dbm=50.0)
        out = tmp_path / "out"
        rc = cli.main(["ser", "--scenario", path, "--out", str(out),
                       "--snr", "0:5:10", "--symbols", "1000"])
        assert rc == 3


class TestPd:
    def test_runs_and_writes(self, tmp_path):
        path = small_scenario(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["pd", "--scenario", path, "--out", str(out),
                       "--snr", "0:5:10", "--trials", "2000"])
        assert rc == 0
        text = (out / "pd_sua.csv").read_text()
        assert text.startswith("scheme,ue_id,scnr_db")
        assert "aggregate" in text

    def test_tiny_false_alarm_rate_exit_0(self, tmp_path):
        # a threshold of sqrt(-2 ln 1e-300) = 37.2 and SCNRs near 28 dB put the
        # Marcum Q arguments past exp(-600)
        out = tmp_path / "out"
        assert cli.main(["pd", "--pfa", "1e-300", "--snr", "28:1:29", "--trials", "10",
                         "--out", str(out)]) == 0
        rows = (out / "pd_sua.csv").read_text().strip().split("\n")[1:]
        formulas = [float(row.split(",")[3]) for row in rows]
        assert formulas and all(0.0 <= f <= 1.0 for f in formulas)


class TestSchemeOutputs:
    @pytest.mark.parametrize("argv", [["ser", "--snr", "0:5:10", "--symbols", "400"],
                                      ["pd", "--snr", "0:5:10", "--trials", "500"]])
    def test_both_equals_single_scheme_runs(self, tmp_path, argv):
        path = small_scenario(tmp_path)
        for scheme in ("both", "sua", "baseline"):
            assert cli.main([*argv, "--scheme", scheme, "--scenario", path,
                             "--out", str(tmp_path / scheme)]) == 0
        for scheme in ("sua", "baseline"):
            name = f"{argv[0]}_{scheme}.csv"
            assert (tmp_path / "both" / name).read_bytes() == \
                (tmp_path / scheme / name).read_bytes(), name
            assert [p.name for p in (tmp_path / scheme).glob(f"{argv[0]}_*.csv")] == [name]


class TestSweepX:
    def test_runs_and_writes(self, tmp_path):
        path = small_scenario(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["sweep-x", "--scenario", path, "--out", str(out),
                       "--x-range", "1:8"])
        assert rc == 0
        lines = (out / "sweep-x_sua.csv").read_text().strip().split("\n")
        assert lines[0] == "x,ideal_gain_db,real_gain_db"
        assert len(lines) == 9

    @pytest.mark.parametrize("x_range", ["1:200", "0:3"])
    def test_range_outside_ap_count_exit_2(self, tmp_path, capsys, x_range):
        path = small_scenario(tmp_path)  # L = 12
        out = tmp_path / "out"
        assert cli.main(["sweep-x", "--scenario", path, "--out", str(out),
                         "--x-range", x_range]) == 2
        assert "[1, 11]" in capsys.readouterr().err
        assert not (out / "sweep-x_sua.csv").exists()


class TestNetmetrics:
    def test_runs_and_writes(self, tmp_path):
        path = small_scenario(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["netmetrics", "--scenario", path, "--out", str(out),
                       "--reps", "3"])
        assert rc == 0
        for name in ("delay", "energy", "clutter", "runtime"):
            assert (out / f"netmetrics_{name}.csv").exists()


class TestReportCommand:
    def test_combines_reports(self, tmp_path):
        path = small_scenario(tmp_path)
        out = tmp_path / "out"
        cli.main(["associate", "--scenario", path, "--out", str(out)])
        cli.main(["sweep-x", "--scenario", path, "--out", str(out), "--x-range", "1:4"])
        rc = cli.main(["report", "--scenario", path, "--out", str(out)])
        assert rc == 0
        combined = json.loads((out / "combined_report.json").read_text())
        assert combined["experiment"] == "combined"

    def test_empty_dir_exit_3(self, tmp_path):
        path = small_scenario(tmp_path)
        out = tmp_path / "empty"
        out.mkdir()
        assert cli.main(["report", "--scenario", path, "--out", str(out)]) == 3

    def test_foreign_reports_rejected(self, tmp_path):
        path = small_scenario(tmp_path)
        out = tmp_path / "out"
        cli.main(["associate", "--scenario", path, "--out", str(out)])
        other_dir = tmp_path / "o"
        other_dir.mkdir()
        other = small_scenario(other_dir, seed=99)
        assert cli.main(["report", "--scenario", other, "--out", str(out)]) == 2


class TestDeterminism:
    def _run_all(self, scenario, out):
        assert cli.main(["associate", "--scenario", scenario, "--out", out]) == 0
        assert cli.main(["ser", "--scenario", scenario, "--out", out,
                         "--snr", "0:5:5", "--mod", "qpsk", "--symbols", "1000"]) == 0
        assert cli.main(["pd", "--scenario", scenario, "--out", out,
                         "--snr", "0:5:5", "--trials", "1000"]) == 0
        assert cli.main(["sweep-x", "--scenario", scenario, "--out", out,
                         "--x-range", "1:5"]) == 0

    def test_byte_identical_reruns(self, tmp_path):
        scenario = small_scenario(tmp_path)
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        self._run_all(scenario, out1)
        self._run_all(scenario, out2)
        names = sorted(os.listdir(out1))
        assert names == sorted(os.listdir(out2))
        for name in names:
            with open(os.path.join(out1, name), "rb") as f1, \
                 open(os.path.join(out2, name), "rb") as f2:
                assert f1.read() == f2.read(), name

    def test_seed_override_changes_outputs(self, tmp_path):
        scenario = small_scenario(tmp_path)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        cli.main(["associate", "--scenario", scenario, "--out", out1])
        cli.main(["associate", "--scenario", scenario, "--out", out2, "--seed", "77"])
        a = (tmp_path / "a" / "associate_sua.csv").read_text()
        b = (tmp_path / "b" / "associate_sua.csv").read_text()
        assert a != b
