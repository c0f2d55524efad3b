import json
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from cfmimo import channel
from cfmimo.scenario import (
    Deployment,
    PathLossParams,
    ServiceMix,
    ServiceType,
    SystemConfig,
    ValidationError,
    config_from_dict,
    generate_deployment,
    load_scenario,
    rng_stream,
    save_scenario,
    service_counts,
)


def small_config(**kw):
    base = dict(L=6, K=3, N=2, tau_p=2, tau_c=50, X=2, area_side_m=200.0,
                clutter_density_per_km2=200.0, seed=5)
    base.update(kw)
    return SystemConfig(**base)


# scenario keys: every config field name, nested ones too, or any short text
JSON_KEYS = st.sampled_from(sorted(f.name for cls in (SystemConfig, PathLossParams, ServiceMix)
                                   for f in fields(cls))) | st.text(max_size=5)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_KEYS, inner, max_size=4),
    max_leaves=8)


class TestValidation:
    def test_defaults_valid(self):
        SystemConfig().validate()

    @pytest.mark.parametrize("field,value", [
        ("K", 120),          # violates L > K
        ("X", 0),
        ("X", 100),          # X >= L
        ("tau_p", 0),
        ("tau_p", 300),      # tau_p > tau_c
        ("w_c", 0.5),        # weights no longer sum to 1
        ("area_side_m", 0.0),
        ("p_fa", 0.0),
        ("p_fa", 1.0),
        ("L", 100.5),        # integer fields take ints only
        ("N", 2.5),
        ("K", True),
        ("area_side_m", float("inf")),   # float fields must be finite
        ("p_threshold_dbm", float("nan")),
        ("p_t_dbm", -1e6),               # 0 W
        ("sigma_c2", 1e-320),            # a subnormal sigma_c2 * P_t
        ("angular_spread_deg", 180.5),
    ])
    def test_invariants_rejected(self, field, value):
        cfg = SystemConfig(**{field: value})
        with pytest.raises(ValidationError, match=field):
            cfg.validate()

    @pytest.mark.parametrize("field,value", [
        ("sigma_c2", 0.0),               # no clutter: an exact zero scale
        ("angular_spread_deg", 0.0),     # rank-one local scattering
        ("angular_spread_deg", 180.0),
    ])
    def test_range_edges_valid(self, field, value):
        SystemConfig(**{field: value}).validate()

    # validate's rule: every level lies within +-300 dB (d0 in dB re 1 m, the
    # link loss at d0 and at the area diagonal, each +-10 shadow sigmas, P_t/N0
    # and sigma_c2 P_t/N0); at bandwidth 1e7 Hz and noise figure 4 dB the
    # noise power is -100 dBm exactly
    EXACT_NOISE = dict(bandwidth_hz=1e7, noise_figure_db=4.0)

    @pytest.mark.parametrize("kw, field", [
        (dict(pathloss=PathLossParams(shadow_sigma_db=1e200)), "shadow_sigma_db"),
        (dict(pathloss=PathLossParams(shadow_sigma_db=500.0)), "shadow_sigma_db"),
        (dict(pathloss=PathLossParams(shadow_sigma_db=-0.0)), "shadow_sigma_db"),
        (dict(pathloss=PathLossParams(pl0_db=-4000.0)), "pl0_db"),
        (dict(pathloss=PathLossParams(pl0_db=1e308)), "pl0_db"),
        (dict(pathloss=PathLossParams(gamma_pl=1e308)), "gamma_pl"),
        (dict(pathloss=PathLossParams(d0_m=5e-324)), "d0_m"),
        (dict(pathloss=PathLossParams(d0_m=1e308)), "d0_m"),
        (dict(p_t_dbm=3000.0), "p_t_dbm"),
        # just past the edges accepted below
        (dict(pathloss=PathLossParams(pl0_db=300.0 + 1e-9, d0_m=1000.0, shadow_sigma_db=0.0)),
         "pl0_db"),
        (dict(pathloss=PathLossParams(pl0_db=0.0, gamma_pl=11.0, shadow_sigma_db=0.0)), "gamma_pl"),
        (dict(pathloss=PathLossParams(pl0_db=0.0, d0_m=1000.0, shadow_sigma_db=30.0 + 1e-9)),
         "shadow_sigma_db"),
        (dict(pathloss=PathLossParams(d0_m=1e30 * (1 + 1e-9))), "d0_m"),
        (dict(EXACT_NOISE, p_t_dbm=200.0 + 1e-9, sigma_c2=1.0), "p_t_dbm"),
        (dict(EXACT_NOISE, p_t_dbm=-400.0 - 1e-9, sigma_c2=1.0), "p_t_dbm"),
        (dict(EXACT_NOISE, p_t_dbm=100.0, sigma_c2=1e10 * (1 + 1e-9)), "sigma_c2"),
        (dict(EXACT_NOISE, p_t_dbm=100.0, sigma_c2=1e-50 * (1 - 1e-9)), "sigma_c2"),
    ])
    def test_level_beyond_300_db_rejected(self, kw, field):
        with pytest.raises(ValidationError, match=field):
            SystemConfig(**kw).validate()

    @pytest.mark.parametrize("kw", [
        dict(pathloss=PathLossParams(pl0_db=300.0, d0_m=1000.0, shadow_sigma_db=0.0)),
        dict(pathloss=PathLossParams(pl0_db=-300.0, d0_m=1000.0, shadow_sigma_db=0.0)),
        dict(pathloss=PathLossParams(pl0_db=0.0, d0_m=1000.0, shadow_sigma_db=30.0)),
        dict(pathloss=PathLossParams(d0_m=1e30)),
        dict(area_side_m=1e-30, pathloss=PathLossParams(d0_m=1e-30)),
        dict(EXACT_NOISE, p_t_dbm=200.0, sigma_c2=1.0),
        dict(EXACT_NOISE, p_t_dbm=-400.0, sigma_c2=1.0),
        dict(EXACT_NOISE, p_t_dbm=100.0, sigma_c2=1e10),
        dict(EXACT_NOISE, p_t_dbm=100.0, sigma_c2=1e-50),
    ], ids=["loss+300", "loss-300", "shadow-30", "d0-1e30", "d0-1e-30", "snr+300", "snr-300",
            "clutter+300", "clutter-300"])
    def test_level_at_300_db_valid(self, kw):
        SystemConfig(**kw).validate()

    def test_bad_mix_rejected(self):
        cfg = SystemConfig(service_mix=ServiceMix(0.5, 0.5, 0.5))
        with pytest.raises(ValidationError):
            cfg.validate()

    def test_noise_floor_value(self):
        # -174 dBm/Hz + 10 log10(20 MHz) + 7 dB figure
        assert SystemConfig().noise_power_dbm() == pytest.approx(-93.9897000433602, rel=1e-12)


class TestServiceCounts:
    def test_paper_mix_at_k30(self):
        assert service_counts(30, ServiceMix(0.24, 0.40, 0.36)) == (7, 12, 11)

    def test_desk_mix_at_k8(self):
        assert service_counts(8, ServiceMix(0.24, 0.40, 0.36)) == (2, 3, 3)

    @given(k=st.integers(1, 500),
           raw=st.tuples(st.floats(0.01, 1), st.floats(0.01, 1), st.floats(0.01, 1)))
    def test_counts_always_sum_to_k(self, k, raw):
        total = sum(raw)
        mix = ServiceMix(*(r / total for r in raw))
        counts = service_counts(k, mix)
        assert sum(counts) == k
        assert all(c >= 0 for c in counts)


def _link_distance(ap, ue, floor=1.0):
    # link distances are computed once, by channel.link_budget
    dep = Deployment(ap_pos=np.array([ap], dtype=float), ue_pos=np.array([ue], dtype=float),
                     ue_service=np.zeros(1, dtype=int),
                     scatterer_pos=np.zeros((0, 2)))
    cfg = small_config(L=1, K=1, pathloss=PathLossParams(d0_m=floor))
    return float(channel.link_budget(dep, cfg).distance_m[0, 0])


class TestDistance:
    def test_three_four_five(self):
        assert _link_distance((0.0, 0.0), (3.0, 4.0)) == 5.0

    def test_clamped_at_floor(self):
        assert _link_distance((1.0, 1.0), (1.0, 1.0), floor=1.0) == 1.0

    def test_diagonal(self):
        assert _link_distance((0.0, 0.0), (500.0, 500.0)) == pytest.approx(707.1067811865476, rel=1e-14)

    @given(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4),
           st.floats(-1e4, 1e4), st.floats(-1e4, 1e4))
    def test_symmetry(self, ax, ay, bx, by):
        assert _link_distance((ax, ay), (bx, by)) == _link_distance((bx, by), (ax, ay))


class TestDeployment:
    def test_deterministic_regeneration(self):
        cfg = small_config()
        a, b = generate_deployment(cfg), generate_deployment(cfg)
        np.testing.assert_array_equal(a.ap_pos, b.ap_pos)
        np.testing.assert_array_equal(a.ue_pos, b.ue_pos)
        np.testing.assert_array_equal(a.ue_service, b.ue_service)
        np.testing.assert_array_equal(a.scatterer_pos, b.scatterer_pos)

    def test_seed_changes_positions(self):
        a = generate_deployment(small_config(seed=1))
        b = generate_deployment(small_config(seed=2))
        assert not np.array_equal(a.ap_pos, b.ap_pos)

    def test_shapes_and_bounds(self):
        cfg = small_config()
        dep = generate_deployment(cfg)
        assert dep.ap_pos.shape == (cfg.L, 2)
        assert dep.ue_pos.shape == (cfg.K, 2)
        assert np.all(dep.ap_pos >= 0) and np.all(dep.ap_pos <= cfg.area_side_m)
        assert np.all(dep.ue_pos >= 0) and np.all(dep.ue_pos <= cfg.area_side_m)

    def test_scatterer_count_from_density(self):
        cfg = small_config(area_side_m=500.0, clutter_density_per_km2=1100.0)
        dep = generate_deployment(cfg)
        assert dep.scatterer_pos.shape[0] == round(1100.0 * 0.25)

    def test_zero_clutter_density(self):
        dep = generate_deployment(small_config(clutter_density_per_km2=0.0))
        assert dep.scatterer_pos.shape[0] == 0

    def test_service_labels_match_mix(self):
        cfg = SystemConfig(seed=9)
        dep = generate_deployment(cfg)
        labels = list(dep.ue_service)
        assert labels.count(ServiceType.COM) == 7
        assert labels.count(ServiceType.SENSE) == 12
        assert labels.count(ServiceType.JCAS) == 11

    def test_positions_uniform_per_axis(self):
        # pooled over many deployments the coordinates must look uniform
        xs = []
        for seed in range(10000):
            cfg = SystemConfig(L=3, K=1, X=1, tau_p=2,
                               clutter_density_per_km2=0.0, seed=seed)
            xs.append(generate_deployment(cfg).ap_pos[:, 0])
        pooled = np.concatenate(xs) / 500.0
        assert stats.kstest(pooled, "uniform").pvalue > 0.01


class TestScenarioFile:
    def test_round_trip(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "scenario.json"
        save_scenario(cfg, str(path))
        loaded = load_scenario(str(path))
        assert asdict(loaded) == asdict(cfg)

    def test_unknown_key_rejected(self, tmp_path):
        doc = asdict(small_config())
        doc["bogus_knob"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="bogus_knob"):
            load_scenario(str(path))

    def test_unknown_nested_key_rejected(self):
        doc = asdict(small_config())
        doc["pathloss"]["exponent"] = 4.0
        with pytest.raises(ValidationError, match="exponent"):
            config_from_dict(doc)

    def test_invalid_values_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        # K > L; then an area, a scatterer count and a noise power beyond the
        # range of a float or of an array, each named in the message
        for key, value in (("K", 99), ("area_side_m", 1e200), ("clutter_density_per_km2", 1e300),
                           ("noise_figure_db", 1e308)):
            doc = asdict(small_config())
            doc[key] = value
            path.write_text(json.dumps(doc))
            with pytest.raises(ValidationError, match=key):
                load_scenario(str(path))

    @given(st.dictionaries(JSON_KEYS, JSON_VALUES, max_size=6))
    @example({"seed": -1})
    @settings(max_examples=200, deadline=None)
    def test_any_json_object_loads_or_is_rejected(self, data):
        try:
            cfg = config_from_dict(data)
        except ValidationError:
            return
        rng_stream(cfg.seed, "deployment")

    def test_non_json_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all {")
        with pytest.raises(ValidationError):
            load_scenario(str(path))
