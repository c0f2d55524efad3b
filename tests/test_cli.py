import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cfmimo import association, channel, cli, net_metrics, report
from cfmimo.scenario import (
    ServiceMix,
    ServiceType,
    SystemConfig,
    ValidationError,
    generate_deployment,
    load_scenario,
    save_scenario,
)


SMALL = dict(L=12, K=5, N=2, tau_p=3, tau_c=40, X=2, area_side_m=150.0,
             clutter_density_per_km2=400.0, seed=3)


def small_scenario(tmp_path, **kw):
    cfg = SystemConfig(**{**SMALL, **kw})
    cfg.validate()
    path = tmp_path / "scenario.json"
    save_scenario(cfg, str(path))
    return str(path)


def _with_fields(cfg, values):
    """The scenario document of `cfg` with `values` (field name -> value, a
    `pathloss.` or `service_mix.` prefix for a nested field) written in."""
    doc = asdict(cfg)
    for name, value in values.items():
        *parent, key = name.split(".")
        (doc[parent[0]] if parent else doc)[key] = value
    return doc


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
        ["ser", "--snr", "-1e300:-1e300"],
        ["ser", "--snr", "-10:x:10"],
        ["pd", "--snr", "-inf:1:5"],
        ["pd", "--snr", "0:inf:5"],
        ["pd", "--snr", "400:400"],
    ])
    def test_bad_grid_exit_2(self, tmp_path, capsys, monkeypatch, argv):
        # the grid is parsed before the link budget is built and SUA runs
        from cfmimo import channel

        def unreachable(*a, **kw):
            raise AssertionError("the association ran before the grid was parsed")
        monkeypatch.setattr(channel, "link_budget", unreachable)
        monkeypatch.setattr(association, "run_sua", unreachable)
        path = small_scenario(tmp_path)
        assert cli.main([*argv, "--scenario", path, "--out", str(tmp_path)]) == 2
        assert "bad range" in capsys.readouterr().err
        assert not any(name.endswith(".csv") for name in os.listdir(tmp_path))


class TestNegativeGridToken:
    """A grid that starts with '-' may follow its option as its own token."""

    @pytest.mark.parametrize("command,grid,extra", [
        ("ser", "-10:10:10", ["--symbols", "200"]),
        ("pd", "-5:5:5", ["--trials", "200"]),
    ])
    def test_both_forms_write_the_same_files(self, tmp_path, command, grid, extra):
        path = small_scenario(tmp_path)
        outs = [tmp_path / "joined", tmp_path / "token"]
        for out, form in zip(outs, ([f"--snr={grid}"], ["--snr", grid])):
            assert cli.main([command, *form, *extra, "--scenario", path, "--out", str(out)]) == 0
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1])) and names
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    @pytest.mark.parametrize("grid", ["-1:5", "-2:1:3", "-x:3"])
    def test_sweep_x_forms_give_one_message(self, tmp_path, capsys, grid):
        path = small_scenario(tmp_path)
        errors = []
        for form in ([f"--x-range={grid}"], ["--x-range", grid]):
            assert cli.main(["sweep-x", *form, "--scenario", path, "--out", str(tmp_path)]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and "validation error" in errors[0]

    @pytest.mark.parametrize("argv", [["--snr", "--symbols", "5"], ["--snr", "-h"]])
    def test_options_are_not_taken_for_grids(self, argv):
        assert cli._join_grid_values(argv) == argv

    def test_only_the_grid_options_join(self):
        assert cli._join_grid_values(["--seed", "-3:1", "--snr", "-3:1"]) == \
            ["--seed", "-3:1", "--snr=-3:1"]

    def test_abbreviated_options_join(self, tmp_path):
        assert cli._join_grid_values(["--sn", "-3:1", "--x-r", "-1:5", "--", "-1:2"]) == \
            ["--sn=-3:1", "--x-r=-1:5", "--", "-1:2"]
        path = small_scenario(tmp_path)
        assert cli.main(["ser", "--sn", "-10:10:10", "--symbols", "200", "--scenario", path,
                         "--out", str(tmp_path)]) == 0


class TestValidateCommand:
    def test_valid_scenario(self, tmp_path, capsys):
        path = small_scenario(tmp_path)
        assert cli.main(["validate", path]) == 0

    def test_invalid_scenario_exit_2(self, tmp_path):
        doc = asdict(SystemConfig())
        doc["K"] = 500
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == 2
        # 1e400 parses as an infinite float: rejected, not an overflow traceback
        doc["K"] = 30
        path.write_text(json.dumps(doc).replace('"area_side_m": 500.0', '"area_side_m": 1e400'))
        assert cli.main(["validate", str(path)]) == 2
        assert cli.main(["associate", "--scenario", str(path), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("field,value", [("area_side_m", 1e200),
                                             ("clutter_density_per_km2", 1e300),
                                             ("noise_figure_db", 1e308),
                                             ("p_t_dbm", 1e6),
                                             ("sigma_c2", 1e308),
                                             ("angular_spread_deg", 1e300),
                                             ("angular_spread_deg", -10.0),
                                             ("pathloss.shadow_sigma_db", 1e200),
                                             ("pathloss.shadow_sigma_db", 500.0),
                                             ("pathloss.pl0_db", -4000.0),
                                             ("pathloss.pl0_db", 1e308),
                                             ("pathloss.gamma_pl", 1e308),
                                             ("pathloss.d0_m", 5e-324),
                                             ("p_t_dbm", 3000.0)])
    def test_out_of_range_scenario_exit_2(self, tmp_path, capsys, field, value):
        # finite values whose deployment area, scatterer count, noise power,
        # transmit power in W or clutter scale sigma_c2 * P_t leaves the
        # range of a float or of an array, an angular spread outside [0, 180]
        # degrees, or a level beyond validate's +-300 dB (these gave NaN or
        # infinite table fields, a zero objective, or an exit 3 that did not
        # name the cause): rejected by name
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(_with_fields(SystemConfig(L=12, K=5, X=2, tau_p=3), {field: value})))
        assert cli.main(["validate", str(path)]) == 2
        for command in ("associate", "ser", "pd", "netmetrics"):
            assert cli.main([command, "--scenario", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count(field) == 5 and "Traceback" not in err

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_integer_beyond_float_range_exit_2(self, tmp_path, capsys, digits):
        # a JSON integer is read exactly, so it can exceed every float; past
        # 4300 digits Python refuses to read it at all
        path = tmp_path / "scenario.json"
        path.write_text('{"area_side_m": 1' + "0" * digits + "}")
        assert cli.main(["validate", str(path)]) == 2
        assert cli.main(["associate", "--scenario", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("area_side_m" if digits == 400 else "4300 digits") == 2

    @pytest.mark.parametrize("doc, names", [
        ('{"L": 1' + "0" * 400 + "}", "L * K"),
        ('{"N": 1' + "0" * 30 + "}", "L * K * N"),
    ], ids=["L", "N"])
    def test_oversized_integer_field_exit_2(self, tmp_path, capsys, doc, names):
        # L * K sizes the link arrays and L * K * N SER's fading draw
        path = tmp_path / "scenario.json"
        path.write_text(doc)
        assert cli.main(["validate", str(path)]) == 2
        assert cli.main(["associate", "--scenario", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count(f"{names} must be at most") == 2

    def test_noise_power_underflow_exit_2(self, tmp_path, capsys):
        # a noise power of 0 would give infinite SNRs and a NaN objective
        path = tmp_path / "scenario.json"
        save_scenario(SystemConfig(L=12, K=5, X=2, tau_p=3, noise_figure_db=-1e308), str(path))
        assert cli.main(["validate", str(path)]) == 2
        for command in ("associate", "ser"):
            assert cli.main([command, "--scenario", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("noise_figure_db") == 3 and "underflows" in err

    def test_unknown_key_exit_2(self, tmp_path):
        doc = asdict(SystemConfig())
        doc["mystery"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == 2

    def test_removed_sigma_rcs_key_exit_2(self, tmp_path, capsys):
        # the target RCS variance was a field that nothing read; a scenario
        # that still sets it is rejected like any other unknown key
        doc = asdict(SystemConfig())
        doc["sigma_rcs"] = 1.0
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == 2
        assert cli.main(["associate", "--scenario", str(path), "--out", str(tmp_path)]) == 2
        assert "sigma_rcs" in capsys.readouterr().err


class TestNegativeSeed:
    @pytest.mark.parametrize("command", ["associate", "ser", "pd", "netmetrics"])
    def test_scenario_seed_exit_2(self, tmp_path, capsys, command):
        doc = asdict(SystemConfig(L=12, K=5, X=2, tau_p=3))
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

    def test_count_beyond_array_size_exit_2(self, tmp_path, capsys):
        # numpy cannot size a (2, 10^19) sample array: rejected before any work
        path = small_scenario(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["pd", "--scenario", path, "--out", str(tmp_path),
                      "--trials", "10000000000000000000"])
        assert exc.value.code == 2
        assert "--trials" in capsys.readouterr().err

    def test_memory_error_exit_3(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 EiB")

        monkeypatch.setattr(cli.sense_perf, "pd_monte_carlo", no_memory)
        path = small_scenario(tmp_path)
        assert cli.main(["pd", "--scenario", path, "--out", str(tmp_path),
                         "--trials", "10"]) == 3
        assert "out of memory: Unable to allocate 8.00 EiB" in capsys.readouterr().err


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
    for links that need them, and at most once per AP in each
    `clutter_returns` call."""

    def built_rows(self, tmp_path, monkeypatch, argv, **kw):
        """The APs whose rows each `clutter_returns` call of the run built."""
        from cfmimo import channel

        calls = []

        def returns(*a, _fn=channel.clutter_returns):
            calls.append([])
            return _fn(*a)

        def counted(deployment, pathloss, aps, _fn=channel._dense_rows):
            for rows in _fn(deployment, pathloss, aps):
                calls[-1].extend(rows)
                yield rows
        monkeypatch.setattr(channel, "clutter_returns", returns)
        monkeypatch.setattr(channel, "_dense_rows", counted)
        path = tmp_path / "scenario.json"
        save_scenario(SystemConfig(**kw), str(path))
        assert cli.main([*argv, "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
        return calls

    def test_sua_builds_no_dense_row(self, tmp_path, monkeypatch):
        calls = self.built_rows(tmp_path, monkeypatch, ["associate", "--scheme", "sua"],
                                L=400, K=120, area_side_m=1000.0, seed=11)
        assert calls and not any(calls)

    @pytest.mark.parametrize("argv, kw", [
        (["associate", "--scheme", "both"], dict(L=400, K=120, area_side_m=1000.0, seed=11)),
        (["netmetrics", "--reps", "2"], dict(seed=1000)),
    ], ids=["associate-L400", "netmetrics-L100"])
    def test_each_row_built_at_most_once(self, tmp_path, monkeypatch, argv, kw):
        calls = self.built_rows(tmp_path, monkeypatch, argv, **kw)
        assert any(calls)
        assert all(len(built) == len(set(built)) for built in calls)


class TestFreshInterpreter:
    def test_commands_leave_numpy_ma_unimported(self, tmp_path):
        # np.median and the one-argument np.unique import numpy.ma on first
        # use, about 15 ms of each fresh process; the commands call neither
        path = small_scenario(tmp_path)
        out = str(tmp_path / "out")
        argvs = [["associate"], ["ser", "--symbols", "570"], ["pd", "--trials", "200"],
                 ["netmetrics", "--reps", "1"]]
        argvs = [argv + ["--scenario", path, "--out", out] for argv in argvs]
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        code = (f"import sys\nsys.path.insert(0, {src!r})\nfrom cfmimo import cli\n"
                f"for argv in {argvs!r}:\n    assert cli.main(argv) == 0, argv\n"
                "print('numpy.ma' in sys.modules)\n")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=300)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "False"


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
        # listed links' rows must reproduce them byte for byte
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
        S, R, M = np.zeros((3, cfg.L, cfg.K))
        S.reshape(-1)[res.links], R.reshape(-1)[res.links] = res.S, res.prio
        M.reshape(-1)[res.links] = 1
        w, _ = association._check_instance(S, R, M, cfg.tau_p, cfg.X)
        load = association._column_top_selection(w, M, cfg.X).sum(axis=1)
        overload = int(np.maximum(load - cfg.tau_p, 0).sum())
        assert line.startswith("sua: ") and line.endswith(f" repairs={overload}")
        assert (overload > 0) == binds
        searches = int(line.split(" searches=")[1].split()[0])
        assert (0 < searches < overload) if binds else (searches == 0)


class TestMaskingThresholdEdges:
    """A masking threshold above every RSSI leaves SUA no link, one below
    every RSSI masks none (L=16, K=6, 200 m side, seed 5): `associate`
    writes both full tables either way, and the commands that need a
    serving link exit 3 with the reason."""

    RUNS = {"associate": ["--scheme", "both"], "ser": ["--snr=0:10:10", "--symbols=40"],
            "pd": ["--snr=0:10:10", "--trials=50"], "netmetrics": ["--reps=1"]}
    EMPTY = {"associate": (0, ""),
             "ser": (3, "the reference association serves no link to calibrate the SNR axis on"),
             "pd": (3, "UE 0 has an empty serving set"),
             "netmetrics": (3, "UE 0 has an empty serving set")}

    @pytest.mark.parametrize("threshold", [1e308, -1e308], ids=["above", "below"])
    def test_exit_codes_and_tables(self, tmp_path, capsys, threshold):
        path = tmp_path / "scenario.json"
        cfg = SystemConfig(L=16, K=6, area_side_m=200.0, seed=5, p_threshold_dbm=threshold)
        save_scenario(cfg, str(path))
        for command, args in self.RUNS.items():
            out = tmp_path / command
            code = cli.main([command, "--scenario", str(path), "--out", str(out), *args])
            stdout, stderr = capsys.readouterr()
            want, reason = self.EMPTY[command] if threshold > 0 else (0, "")
            assert code == want, (command, stderr)
            assert reason in stderr
            if command == "associate":
                sua = stdout.splitlines()[0]
                assert sua.startswith("sua: psi=0.0000 objective=0 active_aps=0 " if threshold > 0
                                      else "sua: psi=1.0000 ")
                for scheme in ("sua", "baseline"):
                    text = (out / f"associate_{scheme}.csv").read_text()
                    assert text.count("\n") == cfg.L * cfg.K + 1


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

    def test_pfa_option_equals_scenario_file(self, tmp_path):
        # --pfa is applied before the one validation, so the report's digest
        # is that of a scenario file holding the same false-alarm rate
        path = tmp_path / "pfa.json"
        save_scenario(SystemConfig(p_fa=0.001, seed=1000), str(path))
        out = tmp_path / "out"
        assert cli.main(["pd", "--pfa", "0.001", "--seed", "1000", "--snr", "0:5:5",
                         "--trials", "200", "--out", str(out)]) == 0
        digest = json.loads((out / "pd_report.json").read_text())["digest"]
        assert digest == report.config_digest(load_scenario(str(path)), 1000)

    def test_pfa_out_of_range_exit_2(self, tmp_path, capsys):
        assert cli.main(["pd", "--pfa", "2", "--out", str(tmp_path / "out")]) == 2
        assert "p_fa must be in (0, 1)" in capsys.readouterr().err


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

    def test_slower_sua_printed_as_speed_up_below_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.net_metrics, "association_runtime",
                            lambda *a, **kw: net_metrics.RuntimeResult(0.73e-3, 0.26e-3, 1))
        path = small_scenario(tmp_path)
        assert cli.main(["netmetrics", "--scenario", path, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == ("netmetrics: sua runtime 0.73 ms vs baseline "
                                           "0.26 ms (speed-up 0.36x)\n")


PD_ARGV = ["pd", "--snr", "0:5:15", "--trials", "2000"]
PD_FILES = ("pd_sua.csv", "pd_baseline.csv", "pd_report.json")
NET_ARGV = ["netmetrics", "--reps", "1"]
# netmetrics_runtime.csv holds wall-clock times, so it is not pinned
NET_FILES = ("netmetrics_delay.csv", "netmetrics_energy.csv", "netmetrics_clutter.csv",
             "netmetrics_report.json")
SER_ARGV = ["ser", "--snr", "0:5:10", "--symbols", "570"]
SER_FILES = ("ser_sua.csv", "ser_baseline.csv", "ser_report.json")
SER_CSI_BPSK_ARGV = SER_ARGV + ["--perfect-csi", "--mod", "bpsk"]
# a one-scheme call: the union of APs is SUA's alone
SER_SUA_ARGV = SER_ARGV + ["--scheme", "sua"]
SER_SUA_FILES = ("ser_sua.csv", "ser_report.json")
SWEEP_ARGV = ["sweep-x"]
SWEEP_FILES = ("sweep-x_sua.csv", "sweep-x_report.json")
LOCAL_SCATTERING = dict(correlation_model="local_scattering")


class TestOutputsPinned:
    """sha256 of every reproducible file that pd, netmetrics, ser, sweep-x and
    report write on the default scenario, under the identity and the
    local-scattering model. The clutter lobes reach pd_formula and the clutter
    counts; the SER writer reaches the SER tables. The SER pins cover QPSK and
    BPSK, estimated and perfect CSI, and a one-scheme SUA call."""

    @pytest.mark.parametrize("argv, scenario, seed, files, digests", [
        (PD_ARGV, None, 1000, PD_FILES, (
            "c8b94cf0d6bffa126e8f3feddbdf04ebafc0026c9f3b2bbe14f57190b0ecad90",
            "524fd5ce85904e9471013bf14e736396af43e144bdb2dafe75ef078d3f2d2d38",
            "7863dbcd1ab9236eb97944f71186fb3da6e7ac14c3d615da7230c9f1de1a5d58")),
        (PD_ARGV, None, 1002, PD_FILES, (
            "0843019aa4dc216999be09976e9e744f34ea30a39d4a39cec6821fbb4c7c248e",
            "20d412f61b6c9b94ed1c22924b07b50fa30e645f458b40aadd99997b51617412",
            "dbc5f3f0167bdb5e9b821f55e19bb6eaae99442f23f7b9f27e8dd09c98872593")),
        (NET_ARGV, None, 1000, NET_FILES, (
            "2eecd53a9a66410c45d88f17a33d1bd62bc4cdebd130cca327064a58ca41aa51",
            "618aa80f5ff847bcec97ed46615adb6d656d5b7b2cd2e355b05aae15aeb69a59",
            "65e53c0bbae0dcfc7f999a8f50c77636d09a7433ae1296034a27645a77902e5f",
            "1252ca5623f30267c558177defbcf94224410a41dbcce014d7e386e4194d0836")),
        (NET_ARGV, None, 1002, NET_FILES, (
            "d169930151ccade912665476aadeb3a2298aa4172018cb803078ada6d833179a",
            "7874c910697583a92c7ad193b37b452aa05ef269a308cf080c2e1f335b0301fe",
            "5ce5932d7940597f53cdc14cfc5e0d99364248d277cbab0fdf1cdee19f8e4498",
            "33ef08a79ac2335ebfbc1b1da00fa7b1667f6f7dc734a508d416105a39283979")),
        (SER_ARGV, None, 1000, SER_FILES, (
            "509b3ac47df2f474c75eef94d39b81628217b1f88a7e509e159415235e103e4e",
            "e6e668079833f4b95547ace61c79f3ee2c7a42da2f4903b8c7ba6a694ecd39f2",
            "f0674b1ee5bf0f8245dafc220392aa818b75c79dec5398695418c78bc2ca1ff0")),
        (SER_ARGV, None, 1002, SER_FILES, (
            "586895db54c581bb6ae7245750c35ee496f55398889f82c40d7db05d2670e267",
            "906e602e51224d103ec5c0b10b206912e5b9dcc8cb853a4acf60ad4a254b5a5a",
            "fc908e7a0922b6f4279086c94254b98b4b90f30e9005cec924f010ead3116a4c")),
        (SER_ARGV, LOCAL_SCATTERING, 1000, SER_FILES, (
            "d55db1317c42c7d1893f21e88d8d6eacaea311cfe1a035a350475e14a78fbeac",
            "1e6bff037bc0e77bc9ce9c94da9368819bbbff66dfc376de85ffe1c32f215a10",
            "aed64e414a3f569e6a215a7e4dbc7f276a60f00ab28f8f9fa61b04d876bdb875")),
        (SER_ARGV, LOCAL_SCATTERING, 1002, SER_FILES, (
            "a8579626209091ef5d3e3b2ed5baebf7fddebecd317463b879e8b0f776886a31",
            "cd9e8f2459fcf1b87014e0e0a586d5b9a4862690b2714d4b0565728aaa4243c7",
            "df936a2e00d8cc82567ff47f205973bf0724808ea5036c33f986803f281fb7a8")),
        (SER_CSI_BPSK_ARGV, None, 1000, SER_FILES, (
            "573730d6b9124f44ee76615480783b17b85d47d33bd8a6fb019165ce5f19e8b8",
            "cccac6aebb249f65e1cfd1b2eef053360e06577621b75e1ddaaad013b16de0f5",
            "01b4ca9d99d009f8f9f49d9db20ef82b412b238277766cc02df4f63c0a02d612")),
        (SER_CSI_BPSK_ARGV, None, 1002, SER_FILES, (
            "72889f11ddd1cc60aaf51b36a1e7caa98f0f20b209065a3b0031c58ac2550151",
            "a680b3a5c8e9d8899b57ebf562c9572e5be582512d468386387e84bcfd0c38a8",
            "afe3b0726e932207e63706f8fd24af51f5e96eb93ed548320a1c9c9728b586f3")),
        (SER_ARGV + ["--perfect-csi"], LOCAL_SCATTERING, 1000, SER_FILES, (
            "d659831d2ad6a7eb57ec6a0c2891a9f6d3fe6b6dfe4fa8c4d147c878b18b8df9",
            "97850d85bdd42082870d9fb65a2c078fd629e2e6d2db076b422786cacbba4a07",
            "125756dfa8b004454a704250d108eeca27a79307919183fc0b7fcd4196e9a413")),
        (SER_SUA_ARGV, None, 1000, SER_SUA_FILES, (
            "509b3ac47df2f474c75eef94d39b81628217b1f88a7e509e159415235e103e4e",
            "7d456022904decc23e498d6c5238bf4214a7e0760aed4996d1237ff60588a63c")),
        (SER_SUA_ARGV, LOCAL_SCATTERING, 1000, SER_SUA_FILES, (
            "d55db1317c42c7d1893f21e88d8d6eacaea311cfe1a035a350475e14a78fbeac",
            "de2b4e235b14ed585ac08270f2c9f8caee99f24de64dc9f95645cbe6e810732e")),
        (SWEEP_ARGV, None, 1000, SWEEP_FILES, (
            "0f979ce692fda38a3cc96c939108706c627d46647a2a2029f3ec7c413daf01d0",
            "12d78951c64ff9943302058d13f32eb8b7f9c55e2480f2cafad0121823660db0")),
        (SWEEP_ARGV, None, 1002, SWEEP_FILES, (
            "0f979ce692fda38a3cc96c939108706c627d46647a2a2029f3ec7c413daf01d0",
            "8d346738203bf7367e8901789d3a95125345fb88e777fe40813f148c276f6466")),
    ], ids=["pd-1000", "pd-1002", "netmetrics-1000", "netmetrics-1002", "ser-1000", "ser-1002",
            "ser-localscat-1000", "ser-localscat-1002", "ser-bpsk-csi-1000", "ser-bpsk-csi-1002",
            "ser-localscat-csi-1000", "ser-sua-1000", "ser-localscat-sua-1000",
            "sweep-x-1000", "sweep-x-1002"])
    def test_outputs_pinned(self, tmp_path, argv, scenario, seed, files, digests):
        if scenario is not None:
            path = tmp_path / "scenario.json"
            save_scenario(SystemConfig(**scenario), str(path))
            argv = argv + ["--scenario", str(path)]
        out = tmp_path / "out"
        assert cli.main(argv + ["--seed", str(seed), "--out", str(out)]) == 0
        got = tuple(hashlib.sha256((out / n).read_bytes()).hexdigest() for n in files)
        assert got == digests

    @pytest.mark.parametrize("seed, digest", [
        (1000, "1b61c68e2e59dbfa10aecc795b56979f038d13752f398a95949139c6d28d92b6"),
        (1002, "788fff0d8581a0dc4f616d8f090546561f681d1cabb4bcd8d7b5d6f4292a1133"),
    ], ids=["combined-1000", "combined-1002"])
    def test_combined_report_pinned(self, tmp_path, seed, digest):
        out = tmp_path / "out"
        for argv in (PD_ARGV, SER_ARGV, SWEEP_ARGV, NET_ARGV, ["report"]):
            assert cli.main(argv + ["--seed", str(seed), "--out", str(out)]) == 0
        assert hashlib.sha256((out / "combined_report.json").read_bytes()).hexdigest() == digest


class TestUnwritableOut:
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_exit_2(self, tmp_path, capsys, below):
        # --out names an existing file, or a path below one
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / "sub" if below else blocker
        assert cli.main(["sweep-x", "--out", str(out)]) == 2
        assert "cannot write outputs: " in capsys.readouterr().err
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("name", ["associate_sua.csv", "associate_report.json"],
                             ids=["csv", "report"])
    def test_failed_rename_leaves_no_temporary(self, tmp_path, capsys, name):
        # a directory takes the name of one output file: its temporary file
        # is written, the rename fails, and the temporary file is removed
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert cli.main(["associate", "--scheme", "sua", "--out", str(out)]) == 2
        assert "cannot write outputs: " in capsys.readouterr().err
        assert list(out.glob("*.tmp")) == []


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


def _grid(name):
    """A drawn range given as `name=range` or as its own token after `name`."""
    return st.tuples(_RANGE, st.booleans()).map(
        lambda rj: [f"{name}={rj[0]}"] if rj[1] else [name, rj[0]])


_SCHEME = _option("--scheme", ["sua", "baseline", "both", "all"])
# sample counts are always given: their defaults run 100000 samples
_ARGS = {
    "associate": st.tuples(_SCHEME),
    "ser": st.tuples(_SCHEME, _grid("--snr"), _given("--symbols", COUNTS),
                     _option("--mod", ["bpsk", "qpsk", "8psk"]),
                     st.sampled_from([[], ["--perfect-csi"]])),
    "pd": st.tuples(_SCHEME, _grid("--snr"), _given("--trials", COUNTS),
                    _option("--pfa", ["0", "1", "1e-300", "0.01", "nan", "-1"])),
    "sweep-x": st.tuples(_grid("--x-range")),
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
    or 3 and raises nothing else, and one that returns 0 leaves finite CSV
    fields only (see `_finite_tables`). Two commands share an output
    directory, so `report` also meets what an earlier command wrote."""

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(runs=st.lists(_COMMAND, min_size=1, max_size=2),
           service_mix=st.sampled_from([ServiceMix(), ServiceMix(0.0, 1.0, 0.0)]))
    def test_exit_code_is_0_2_or_3(self, tmp_path_factory, runs, service_mix):
        work = tmp_path_factory.mktemp("argv")
        scenario = small_scenario(work, L=10, K=4, service_mix=service_mix)
        block = _block_symbols(load_scenario(scenario))
        for command, seed, args in runs:
            argv = [command, "--scenario", scenario, "--out", str(work / "out"), *seed,
                    *(a for arg in args for a in arg)]
            code = _exit_code(argv)
            assert code in (0, 2, 3), argv
            assert code or _finite_tables(work / "out", block), argv
        assert _exit_code(["validate", scenario]) == 0


# --- any loss or power field: exit 0, 2 or 3, finite tables, no warning ------------

MAGNITUDES = [s * m for m in (0.0, 5e-324, 1e-300, 1.0, 1e150, 1e308) for s in (1.0, -1.0)]


def _rule_edges():
    """Per fuzzed field, the values that put a level of `validate`'s +-300 dB
    rule at an edge, with every other field as in SMALL."""
    cfg = SystemConfig(**SMALL)
    pl = cfg.pathloss
    snr = cfg.p_t_dbm - cfg.noise_power_dbm()
    diagonal = cfg.area_side_m * math.sqrt(2.0)
    shadow = 10.0 * pl.shadow_sigma_db
    span = 10.0 * pl.gamma_pl * math.log10(diagonal / pl.d0_m)
    edges = {
        "p_t_dbm": [cfg.noise_power_dbm() + e for e in (-300.0, 300.0)],
        "noise_figure_db": [cfg.noise_figure_db + snr + e for e in (-300.0, 300.0)],
        "bandwidth_hz": [cfg.bandwidth_hz * 10.0 ** ((snr + e) / 10.0) for e in (-300.0, 300.0)],
        "sigma_c2": [10.0 ** ((e - snr) / 10.0) for e in (-300.0, 300.0)],
        "pathloss.pl0_db": [shadow - 300.0, 300.0 - span - shadow],
        "pathloss.gamma_pl": [(300.0 - pl.pl0_db - shadow) / (10.0 * math.log10(diagonal / pl.d0_m))],
        "pathloss.d0_m": [diagonal / 10.0 ** ((300.0 - pl.pl0_db - shadow) / (10.0 * pl.gamma_pl)),
                          1e30],
        "pathloss.shadow_sigma_db": [(pl.pl0_db + 300.0) / 10.0, (300.0 - pl.pl0_db - span) / 10.0],
    }
    return {name: st.sampled_from(MAGNITUDES + values) for name, values in edges.items()}


def _block_symbols(cfg):
    """The symbols per UE of one SER coherence block of `cfg`, as
    `comm_perf.ser_monte_carlo` splits them."""
    return max(1, cfg.tau_c - cfg.tau_p)


def _finite_tables(out, block):
    """Whether every number in the CSV files of `out` is finite, apart from a
    NaN ci95_clustered on a SER row of at most `block` symbols: a run of one
    coherence block is one cluster, and `clustered_halfwidth` needs two."""
    for name in os.listdir(out):
        if name.endswith(".csv"):
            with open(os.path.join(out, name), encoding="utf-8", newline="") as fh:
                for row in csv.DictReader(fh):
                    for column, field in row.items():
                        try:
                            value = float(field)
                        except ValueError:  # a scheme, a UE id such as "aggregate"
                            continue
                        if not (math.isfinite(value) or column == "ci95_clustered"
                                and math.isnan(value) and int(row["n_symbols"]) <= block):
                            return False
    return True


def _threshold_and_weights():
    """The masking threshold, from signed magnitudes and from the lowest,
    median and highest RSSI of SMALL's links, and the weight w_c, from signed
    magnitudes and points of [0, 1] (`_weight_pair` adds w_s = 1 - w_c)."""
    cfg = SystemConfig(**SMALL)
    rssi = channel.link_budget(generate_deployment(cfg), cfg).rssi_dbm
    levels = [float(rssi.min()), float(np.median(rssi)), float(rssi.max())]
    return {"p_threshold_dbm": st.sampled_from(MAGNITUDES + levels),
            "w_c": st.sampled_from(MAGNITUDES + [0.25, 1.0])}


def _weight_pair(fields):
    return {**fields, "w_s": 1.0 - fields["w_c"]} if "w_c" in fields else fields


def _integer_fields():
    """The integer fields, each from small values, from the edges of
    `validate`'s rules against SMALL's other fields, and from a bool and an
    integral float, capped at L <= 16, N <= 8 and tau_p, tau_c <= 64 so that
    no drawn scenario allocates more than a few MB."""
    cfg = SystemConfig(**SMALL)
    edges = {"L": [cfg.K, cfg.K + 1, cfg.X, cfg.X + 1, 16], "K": [cfg.L - 1, cfg.L],
             "N": [8], "tau_p": [cfg.tau_c, cfg.tau_c + 1, 64],
             "tau_c": [cfg.tau_p - 1, cfg.tau_p, 64], "X": [cfg.L - 1, cfg.L]}
    return {name: st.sampled_from([-1, 0, 1, 2, *values, True, 2.0])
            for name, values in edges.items()}


def _angle_and_false_alarm():
    """angular_spread_deg, from signed magnitudes and the edges of [0, 180]
    (`_local_scattering` adds the model that reads it), and p_fa, from signed
    magnitudes and the edges of (0, 1)."""
    return {"angular_spread_deg": st.sampled_from(MAGNITUDES + [180.0, math.nextafter(180.0, 181.0)]),
            "p_fa": st.sampled_from(MAGNITUDES + [0.5, math.nextafter(1.0, 0.0)])}


def _local_scattering(fields):
    return ({**fields, "correlation_model": "local_scattering"}
            if "angular_spread_deg" in fields else fields)


def _some_of(strategies, most: int):
    """Up to `most` of the fields of `strategies` (name -> values), each
    drawn from its values: few enough at once that most draws run."""
    return st.lists(st.sampled_from(sorted(strategies)), max_size=most, unique=True).flatmap(
        lambda names: st.fixed_dictionaries({name: strategies[name] for name in names}))


class TestScenarioFieldFuzz:
    """Scenario fields drawn at and beyond the edges of what `validate`
    accepts: every loss and power field, from signed magnitudes across a
    float's range and from the edges of `validate`'s +-300 dB rule; the
    fields the association's link list reads, the masking threshold and the
    weight pair; and the integer fields, the angular spread under local
    scattering and p_fa. Each command exits 0, 2 or 3 without a
    RuntimeWarning, and one that exits 0 writes finite CSV fields only (see
    `_finite_tables`)."""

    RUNS = {"associate": [], "ser": ["--snr=0:10:10", "--symbols=40"],
            "pd": ["--snr=0:10:10", "--trials=50"], "netmetrics": ["--reps=1"]}

    def run_commands(self, work, fields):
        """Runs each command of RUNS on SMALL with `fields` written in and
        checks its exit code and tables; returns what the runs that exit 2
        print to stderr."""
        scenario = work / "scenario.json"
        scenario.write_text(json.dumps(_with_fields(SystemConfig(**SMALL), fields)))
        rejections = []
        for command, args in self.RUNS.items():
            out = work / command
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(err):
                warnings.simplefilter("error", RuntimeWarning)
                code = cli.main([command, "--scenario", str(scenario), "--out", str(out), *args])
            assert code in (0, 2, 3), (command, fields)
            assert code or _finite_tables(out, _block_symbols(load_scenario(str(scenario)))), \
                (command, fields)
            if code == 2:
                rejections.append(err.getvalue())
        return rejections

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fields=st.fixed_dictionaries(
        {}, optional={**_rule_edges(), **_threshold_and_weights()}).map(_weight_pair))
    def test_exit_code_and_finite_tables(self, tmp_path_factory, fields):
        self.run_commands(tmp_path_factory.mktemp("fields"), fields)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fields=_some_of({**_integer_fields(), **_angle_and_false_alarm()}, 3).map(
        _local_scattering))
    def test_integer_angle_and_false_alarm_fields(self, tmp_path_factory, fields):
        # a rejection names one of the drawn fields
        for err in self.run_commands(tmp_path_factory.mktemp("fields"), fields):
            assert any(re.search(rf"\b{name}\b", err) for name in fields), (err, fields)
