import json
from dataclasses import fields

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
    config_to_dict,
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
        ("p_k_dbm", [20.0] * 29 + [float("nan")]),
    ])
    def test_invariants_rejected(self, field, value):
        cfg = SystemConfig(**{field: value})
        with pytest.raises(ValidationError):
            cfg.validate()

    def test_bad_mix_rejected(self):
        cfg = SystemConfig(service_mix=ServiceMix(0.5, 0.5, 0.5))
        with pytest.raises(ValidationError):
            cfg.validate()

    def test_per_ue_power_length(self):
        cfg = small_config(p_k_dbm=[20.0, 20.0])
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
                     ue_service=np.zeros(1, dtype=int), ue_power_dbm=np.zeros(1),
                     scatterer_pos=np.zeros((0, 2)), scatterer_refl=np.zeros(0))
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
        assert config_to_dict(loaded) == config_to_dict(cfg)

    def test_unknown_key_rejected(self, tmp_path):
        doc = config_to_dict(small_config())
        doc["bogus_knob"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="bogus_knob"):
            load_scenario(str(path))

    def test_unknown_nested_key_rejected(self):
        doc = config_to_dict(small_config())
        doc["pathloss"]["exponent"] = 4.0
        with pytest.raises(ValidationError, match="exponent"):
            config_from_dict(doc)

    def test_invalid_values_rejected(self, tmp_path):
        doc = config_to_dict(small_config())
        doc["K"] = 99  # K > L
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
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
