import hashlib
import json
import os

import numpy as np
import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cfmimo import association, cli
from cfmimo.scenario import (
    ServiceMix,
    ServiceType,
    SystemConfig,
    ValidationError,
    config_to_dict,
    generate_deployment,
    load_scenario,
    save_scenario,
)


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

    @pytest.mark.parametrize("bad", ["nan:1:5", "0:1:inf", "0:inf:5", "-inf:3", "0:nan:1"])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            cli.parse_range(bad)

    @pytest.mark.parametrize("bad", ["0:1e-300:1", "0:1:10000", "-1e308:1e308"])
    def test_rejects_oversized_grid(self, bad):
        with pytest.raises(ValidationError, match="10000 points"):
            cli.parse_range(bad)

    def test_largest_grid_accepted(self):
        assert cli.parse_range("1:10000").size == cli.MAX_GRID_POINTS

    @pytest.mark.parametrize("argv", [
        ["ser", "--snr", "nan:1:5"],
        ["ser", "--snr", "0:1:inf"],
        ["ser", "--snr", "0:1e-300:1"],
        ["ser", "--snr=-1e300:-1e300"],
        ["pd", "--snr", "0:inf:5"],
        ["pd", "--snr", "400:400"],
    ])
    def test_bad_grid_exit_2(self, tmp_path, capsys, argv):
        path = small_scenario(tmp_path)
        assert cli.main([*argv, "--scenario", path, "--out", str(tmp_path)]) == 2
        assert "bad range" in capsys.readouterr().err
        assert not any(name.endswith(".csv") for name in os.listdir(tmp_path))


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

    def test_removed_sigma_rcs_key_exit_2(self, tmp_path, capsys):
        # the target RCS variance was a field that nothing read; a scenario
        # that still sets it is rejected like any other unknown key
        doc = config_to_dict(SystemConfig())
        doc["sigma_rcs"] = 1.0
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == 2
        assert cli.main(["associate", "--scenario", str(path), "--out", str(tmp_path)]) == 2
        assert "sigma_rcs" in capsys.readouterr().err


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
        ["pd", "--scheme", "baseline", "--snr", "0:10:10", "--trials", "200"],
        ["ser", "--scheme", "baseline", "--snr", "0:10:10", "--symbols", "200"],
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

    def test_ser_both_schemes_one_monte_carlo_call(self, tmp_path, monkeypatch):
        # both schemes share one call, so the correlations are built once
        from cfmimo import channel, comm_perf

        calls = {"ser_monte_carlo": 0, "link_correlations": 0}
        for mod, name in ((comm_perf, "ser_monte_carlo"), (channel, "link_correlations")):
            def counted(*a, _fn=getattr(mod, name), _name=name, **kw):
                calls[_name] += 1
                return _fn(*a, **kw)
            monkeypatch.setattr(mod, name, counted)
        path = small_scenario(tmp_path)
        assert cli.main(["ser", "--scheme", "both", "--snr", "0:10:10", "--symbols", "200",
                         "--scenario", path, "--out", str(tmp_path / "out")]) == 0
        assert calls == {"ser_monte_carlo": 1, "link_correlations": 1}

    def test_local_scattering_draws_each_block_once(self, tmp_path, monkeypatch):
        # every scheme, SNR point and CSI mode reads one draw per block
        from cfmimo import comm_perf

        opened = []

        def stream(*a, _fn=comm_perf.rng_stream):
            opened.append(a)
            return _fn(*a)
        monkeypatch.setattr(comm_perf, "rng_stream", stream)
        path = tmp_path / "scenario.json"
        save_scenario(SystemConfig(correlation_model="local_scattering", seed=3000), str(path))
        assert cli.main(["ser", "--snr", "0:5:10", "--symbols", "570", "--scenario", str(path),
                         "--out", str(tmp_path / "out")]) == 0
        blocks = [a[3] for a in opened if a[1:3] == ("mc", comm_perf.SER_BLOCK_STREAM)]
        assert blocks == [0, 1, 2]

    @pytest.mark.parametrize("perfect_csi", [False, True], ids=["estimated", "perfect"])
    @pytest.mark.parametrize("model", ["identity", "local_scattering"])
    def test_factors_built_once_per_scheme(self, tmp_path, monkeypatch, model, perfect_csi):
        # each scheme's MMSE factors are built once and serve all three SNR
        # points; perfect CSI builds none
        from cfmimo import channel

        factored = []

        def factors(*a, _fn=channel.mmse_estimate):
            factored.append(a)
            return _fn(*a)
        monkeypatch.setattr(channel, "mmse_estimate", factors)
        path = tmp_path / "scenario.json"
        save_scenario(SystemConfig(correlation_model=model), str(path))
        argv = ["ser", "--scheme", "both", "--snr", "0:5:10", "--symbols", "570",
                "--scenario", str(path), "--out", str(tmp_path / "out")]
        assert cli.main(argv + ["--perfect-csi"] * perfect_csi) == 0
        assert len(factored) == (0 if perfect_csi else 2)


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

    BINDING = dict(L=400, K=120, area_side_m=1000.0, tau_p=2, p_threshold_dbm=-80.0, seed=3000)

    @pytest.mark.parametrize("scenario, argv, digests", [
        (None, [], ("417a45ffe0d96f1f1d2b2c21e4027c685eb5d4e8ccce7503a8ce15e32485f3f8",
                    "ecc3115e0cba652eca225813d9a39360eaf8323bf5018f2b48e639696662bb5b",
                    "be0933230a9612c17a00bbb1d481a248fe8a46bbfbe41f9524db4d1463423259")),
        (None, ["--seed", "1002"],
         ("b51a1d0f1026c778888d55671cbc38bb69cbaaa855fb8ad2896a646c84504407",
          "6df83cc13b61bae13b0f087a32e55f2d2ec23ba4b4b415fd8e9df359e4bdac68",
          "0e3d17bf19aaa40f4a1d3b4159fa8e0d17a08e365f58f695b20b1d6ebab34757")),
        (BINDING, [], ("663ff0d6d06bffb831522f543c1c2fc193b15f4b01b96d1e8fca7b200021760c",
                       "bb53b6fac6a06739045f95fb1f364098cb1d52214556691dd9e65d0c1e7f4f73",
                       "a501282fe13ca6f5e3de16da6bb3be3fd119590c4f571f0d688fb338c973924f")),
    ], ids=["default-1000", "default-1002", "binding-3000"])
    def test_outputs_pinned(self, tmp_path, scenario, argv, digests):
        # sha256 of the SUA table, the baseline table and the report, recorded
        # from the cell-by-cell CSV writer; the writer that formats only the
        # non-blank rows must reproduce them byte for byte
        if scenario is not None:
            path = tmp_path / "scenario.json"
            save_scenario(SystemConfig(**scenario), str(path))
            argv = argv + ["--scenario", str(path)]
        out = tmp_path / "out"
        assert cli.main(["associate", "--scheme", "both", "--out", str(out)] + argv) == 0
        names = ("associate_sua.csv", "associate_baseline.csv", "associate_report.json")
        got = tuple(hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names)
        assert got == digests


    @pytest.mark.parametrize("kw, binds", [
        (dict(seed=1000), False),
        (dict(L=40, K=12, area_side_m=316.0, tau_p=2, p_threshold_dbm=-80.0, seed=3000), True),
    ], ids=["default", "binding"])
    def test_prints_repairs(self, tmp_path, capsys, kw, binds):
        # the SUA line counts the optimizer's shortest-path searches and the
        # units of overload they route: the AP overload of the per-UE
        # relaxation, 0 where it fits; one search routes several units
        cfg = SystemConfig(**kw)
        path = tmp_path / "scenario.json"
        save_scenario(cfg, str(path))
        assert cli.main(["associate", "--scenario", str(path), "--out", str(tmp_path / "out"),
                         "--scheme", "sua"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        res = association.run_sua(generate_deployment(cfg), cfg)
        w, _ = association._check_instance(res.S, res.prio, res.mask, cfg.tau_p, cfg.X)
        load = association._column_top_selection(w, res.mask, cfg.X).sum(axis=1)
        overload = int(np.maximum(load - cfg.tau_p, 0).sum())
        assert line.startswith("sua: ") and line.endswith(f" repairs={overload}")
        assert (overload > 0) == binds
        searches = int(line.split(" searches=")[1].split()[0])
        assert (0 < searches < overload) if binds else (searches == 0)


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

    def test_rank_deficient_pilot_covariance_exit_0(self, tmp_path):
        # with no angular spread each link's correlation has rank one, so at
        # 300 dB the pilot observation covariance is singular to working
        # precision; the filters drop its null directions
        path = tmp_path / "scenario.json"
        save_scenario(SystemConfig(correlation_model="local_scattering",
                                   angular_spread_deg=0.0), str(path))
        out = tmp_path / "out"
        assert cli.main(["ser", "--scenario", str(path), "--out", str(out),
                         "--snr", "300:1:300", "--symbols", "570"]) == 0
        for scheme in ("sua", "baseline"):
            row = (out / f"ser_{scheme}.csv").read_text().splitlines()[1].split(",")
            assert 0.0 < float(row[4]) < 0.1

    @pytest.mark.parametrize("command, mix, cause", [
        ("ser", ServiceMix(0.0, 1.0, 0.0), "no communication or JCAS UE"),
        ("pd", ServiceMix(1.0, 0.0, 0.0), "no sensing or JCAS UE"),
    ])
    def test_no_ue_of_the_measured_kind_exit_3(self, tmp_path, capsys, command, mix, cause):
        path = small_scenario(tmp_path, service_mix=mix)
        out = tmp_path / "out"
        assert cli.main([command, "--scenario", path, "--out", str(out), "--snr", "0:5:10",
                         "--symbols" if command == "ser" else "--trials", "100"]) == 3
        assert cause in capsys.readouterr().err
        assert not any(name.endswith(".csv") for name in os.listdir(out))


class TestCoverage:
    # the default scenario at seed 1001 leaves COM UE 15 unserved by SUA, and
    # at seed 1013 SENSE UE 25; each command requires coverage of the UEs it
    # measures only
    ARGS = {"ser": ["--snr", "0:10:10", "--symbols", "100"],
            "pd": ["--snr", "0:10:10", "--trials", "100"],
            "netmetrics": ["--reps", "1"]}

    @pytest.mark.parametrize("command, seed, unserved", [
        ("ser", 1001, 15), ("pd", 1013, 25), ("netmetrics", 1001, 15),
        ("netmetrics", 1013, 25), ("pd", 1001, None), ("ser", 1013, None),
    ])
    def test_exit_3_names_the_unserved_ue(self, tmp_path, capsys, command, seed, unserved):
        rc = cli.main([command, "--seed", str(seed), "--out", str(tmp_path)] + self.ARGS[command])
        if unserved is None:
            assert rc == 0
        else:
            assert rc == 3
            assert capsys.readouterr().err == \
                f"infeasible model: UE {unserved} has an empty serving set\n"


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

    @pytest.mark.parametrize("scheme", ["both", "sua"])
    def test_prints_normal_pairs_drawn(self, tmp_path, capsys, scheme):
        # one (2, trials) draw per sensing or JCAS UE, whatever the grid and
        # the schemes
        path = small_scenario(tmp_path)
        ues = generate_deployment(load_scenario(path)).ue_indices(ServiceType.SENSE,
                                                                   ServiceType.JCAS)
        assert ues.size > 0
        assert cli.main(["pd", "--scenario", path, "--out", str(tmp_path / "out"),
                         "--scheme", scheme, "--snr", "0:5:15", "--trials", "300"]) == 0
        assert f", 300 trials/point, {ues.size * 300} normal pairs drawn -> " \
            in capsys.readouterr().out

    def test_tiny_false_alarm_rate_exit_0(self, tmp_path):
        # a threshold of sqrt(-2 ln 1e-300) = 37.2 and SCNRs near 28 dB put the
        # Marcum Q arguments past exp(-600)
        out = tmp_path / "out"
        assert cli.main(["pd", "--pfa", "1e-300", "--snr", "28:1:29", "--trials", "10",
                         "--out", str(out)]) == 0
        rows = (out / "pd_sua.csv").read_text().strip().split("\n")[1:]
        formulas = [float(row.split(",")[3]) for row in rows]
        assert formulas and all(0.0 <= f <= 1.0 for f in formulas)


class TestPilotCollisions:
    def test_ser_prints_collisions_per_scheme(self, tmp_path, capsys):
        # the paper-default deployment at seed 1000 with two pilots: SUA
        # leaves 6 co-pilot pairs on a shared AP, all-to-all makes every
        # co-pilot pair share one
        path = tmp_path / "scenario.json"
        save_scenario(SystemConfig(tau_p=2, seed=1000), str(path))
        assert cli.main(["ser", "--snr", "0:10:10", "--symbols", "20", "--scenario", str(path),
                         "--out", str(tmp_path / "out")]) == 0
        assert "pilot collisions sua=6 baseline=210 " in capsys.readouterr().out


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

    @pytest.mark.parametrize("x_range", ["1.5:3", "1:0.5:3", "1e300:1e300"])
    def test_non_integer_or_huge_x_exit_2(self, tmp_path, x_range):
        path = small_scenario(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["sweep-x", "--scenario", path, "--out", str(out),
                         "--x-range", x_range]) == 2
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

    @pytest.mark.parametrize("text, problem", [
        ("{not json", "not valid JSON"),
        ("[]", "JSON object"),
        ('{"experiment": "ser", "seed": 3, "tables": {}}', "'digest'"),
        ('{"experiment": "ser", "digest": "d", "seed": "3", "tables": {}}', "seed"),
    ], ids=["not-json", "list", "missing-key", "string-seed"])
    def test_malformed_report_exit_2(self, tmp_path, capsys, text, problem):
        path = small_scenario(tmp_path)
        out = tmp_path / "out"
        cli.main(["sweep-x", "--scenario", path, "--out", str(out), "--x-range", "1:4"])
        (out / "ser_report.json").write_text(text)
        capsys.readouterr()
        assert cli.main(["report", "--scenario", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "ser_report.json" in err and problem in err
        assert not (out / "combined_report.json").exists()

    def test_unreadable_report_exit_2(self, tmp_path, capsys):
        path = small_scenario(tmp_path)
        out = tmp_path / "out"
        (out / "ser_report.json").mkdir(parents=True)
        assert cli.main(["report", "--scenario", path, "--out", str(out)]) == 2
        assert "ser_report.json" in capsys.readouterr().err


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


# --- any argv: exit 0, 2 or 3, never a traceback ---------------------------------

RANGE_PARTS = ["0", "1", "3", "5", "-5", "2.5", "300", "-300", "301", "1e300", "-1e300",
               "1e-300", "nan", "inf", "-inf", "x", ""]
COUNTS = ["-3", "0", "1", "6", "two"]


def _option(name, values):
    """Either nothing or `name=value` for one of values."""
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [f"{name}={v}"]))


def _given(name, values):
    return st.sampled_from(values).map(lambda v: [f"{name}={v}"])


_RANGE = st.lists(st.sampled_from(RANGE_PARTS), min_size=1, max_size=4).map(":".join)
_SCHEME = _option("--scheme", ["sua", "baseline", "both", "all"])
# sample counts are always given: their defaults run 100000 samples
_ARGS = {
    "associate": st.tuples(_SCHEME),
    "ser": st.tuples(_SCHEME, _RANGE.map(lambda r: [f"--snr={r}"]), _given("--symbols", COUNTS),
                     _option("--mod", ["bpsk", "qpsk", "8psk"]),
                     st.sampled_from([[], ["--perfect-csi"]])),
    "pd": st.tuples(_SCHEME, _RANGE.map(lambda r: [f"--snr={r}"]), _given("--trials", COUNTS),
                    _option("--pfa", ["0", "1", "1e-300", "0.01", "nan", "-1"])),
    "sweep-x": st.tuples(_RANGE.map(lambda r: [f"--x-range={r}"])),
    "netmetrics": st.tuples(_given("--reps", COUNTS)),
    "report": st.tuples(),
}
_COMMAND = st.sampled_from(sorted(_ARGS)).flatmap(
    lambda c: st.tuples(st.just(c), _option("--seed", ["-1", "0", "3", "1000"]), _ARGS[c]))


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as e:  # argparse rejects the arguments
        return e.code


class TestAnyArgv:
    """Every subcommand on a desk-scale scenario with tiny sample counts: each
    drawn argv, malformed ranges, counts and options included, returns 0, 2
    or 3 and raises nothing else. Two commands share an output directory, so
    `report` also meets what an earlier command wrote."""

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(runs=st.lists(_COMMAND, min_size=1, max_size=2),
           service_mix=st.sampled_from([ServiceMix(), ServiceMix(0.0, 1.0, 0.0)]))
    def test_exit_code_is_0_2_or_3(self, tmp_path_factory, runs, service_mix):
        work = tmp_path_factory.mktemp("argv")
        scenario = small_scenario(work, L=10, K=4, service_mix=service_mix)
        for command, seed, args in runs:
            argv = [command, "--scenario", scenario, "--out", str(work / "out"), *seed,
                    *(a for arg in args for a in arg)]
            assert _exit_code(argv) in (0, 2, 3), argv
        assert _exit_code(["validate", scenario]) == 0
