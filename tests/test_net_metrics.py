import math

import numpy as np
import pytest

from cfmimo import association, channel, net_metrics
from cfmimo.scenario import InfeasibleModelError, SystemConfig, ValidationError, generate_deployment


def desk_config(**kw):
    base = dict(L=20, K=8, N=5, tau_p=5, tau_c=200, X=3, area_side_m=250.0, seed=7)
    base.update(kw)
    return SystemConfig(**base)


@pytest.fixture(scope="module")
def desk():
    cfg = desk_config()
    dep = generate_deployment(cfg)
    budget = channel.link_budget(dep, cfg)
    geom = channel.clutter_geometry(dep, cfg.pathloss)
    sua = association.run_sua(dep, cfg, budget, geom)
    base = association.run_baseline(dep, cfg, budget, geom)
    return cfg, dep, budget, geom, sua, base


class TestDelay:
    def test_single_link_delay(self):
        cfg = desk_config()
        dep = generate_deployment(cfg)
        dep.ap_pos = np.array([[0.0, 0.0]] + [[10.0, 10.0]] * (cfg.L - 1))
        dep.ue_pos[0] = [300.0, 0.0]
        A = np.zeros((cfg.L, cfg.K), dtype=int)
        A[0, :] = 1
        delays = net_metrics.transmission_delay(channel.link_budget(dep, cfg), A)
        assert delays[0] == pytest.approx(1.000692285594456e-06, rel=1e-12)

    def test_matches_per_ue_loop(self, desk):
        # UE 0 moved to 0.3 m from AP 0, which serves it: that link's distance
        # is the path-loss reference d0, so with AP 0 alone its delay reads d0/c
        cfg, *_, sua, _ = desk
        dep = generate_deployment(cfg)
        dep.ue_pos[0] = dep.ap_pos[0] + [0.3, 0.0]
        budget = channel.link_budget(dep, cfg)
        A = sua.A.copy()
        A[:, 0] = 0
        A[[0, 5], 0] = 1
        want = [np.mean(budget.distance_m[np.flatnonzero(A[:, k]), k]) / channel.SPEED_OF_LIGHT
                for k in range(cfg.K)]
        delays = net_metrics.transmission_delay(budget, A)
        np.testing.assert_allclose(delays, want, rtol=1e-15)
        A[5, 0] = 0
        assert net_metrics.transmission_delay(budget, A)[0] == \
            cfg.pathloss.d0_m / channel.SPEED_OF_LIGHT

    def test_adding_nearer_ap_reduces_mean(self, desk):
        cfg, dep, budget, _, sua, _ = desk
        k = 0
        serving = np.flatnonzero(sua.A[:, k] == 1)
        dists = budget.distance_m[:, k]
        nearer = [l for l in np.argsort(dists) if l not in serving][0]
        if dists[nearer] < dists[serving].min():
            A2 = sua.A.copy()
            A2[nearer, k] = 1
            before = net_metrics.transmission_delay(budget, sua.A)[k]
            after = net_metrics.transmission_delay(budget, A2)[k]
            assert after < before

    def test_empty_serving_rejected(self, desk):
        cfg, _, budget, *_ = desk
        with pytest.raises(InfeasibleModelError, match="^UE 0 has an empty serving set$"):
            net_metrics.transmission_delay(budget, np.zeros((cfg.L, cfg.K), dtype=int))

    def test_sua_beats_baseline_per_ue(self, desk):
        cfg, _, budget, _, sua, base = desk
        d_s = net_metrics.transmission_delay(budget, sua.A)
        d_b = net_metrics.transmission_delay(budget, base.A)
        assert np.all(d_s < d_b)


class TestEnergy:
    def test_all_zero_association(self):
        assert net_metrics.energy_total(np.zeros((4, 3), dtype=int)) == 0.0

    def test_static_component_linearity(self):
        # three active APs, each serving one UE
        assert net_metrics.energy_total(np.eye(3, dtype=int)) == (3 * 2.0 + 3 * 0.2) * 1e-3

    def test_sua_cheaper_than_baseline(self, desk):
        cfg, dep, _, _, sua, base = desk
        assert net_metrics.energy_total(sua.A) <= net_metrics.energy_total(base.A)

    def test_more_ues_cost_more(self):
        cfg30 = SystemConfig(seed=1)
        cfg50 = SystemConfig(K=50, seed=1)
        e30 = net_metrics.energy_total(association.run_sua(generate_deployment(cfg30), cfg30).A)
        e50 = net_metrics.energy_total(association.run_sua(generate_deployment(cfg50), cfg50).A)
        assert e50 > e30


class TestClutterCounts:
    def test_no_scatterers_all_zero(self):
        cfg = desk_config(clutter_density_per_km2=0.0)
        dep = generate_deployment(cfg)
        A = np.ones((cfg.L, cfg.K), dtype=int)
        rep = net_metrics.clutter_counts(dep, cfg, A, channel.clutter_geometry(dep, cfg.pathloss),
                                         channel.link_budget(dep, cfg))
        assert rep.mean == 0.0 and set(rep.count.tolist()) == {0}

    def test_counts_nonnegative_integers(self, desk):
        cfg, dep, budget, geom, sua, _ = desk
        rep = net_metrics.clutter_counts(dep, cfg, sua.A, geom, budget)
        assert rep.count.dtype.kind == "i" and (rep.count >= 0).all()

    def test_sua_cleaner_than_baseline(self, desk):
        cfg, dep, budget, geom, sua, base = desk
        r_s = net_metrics.clutter_counts(dep, cfg, sua.A, geom, budget)
        r_b = net_metrics.clutter_counts(dep, cfg, base.A, geom, budget)
        assert r_s.mean < r_b.mean

    def test_deterministic(self, desk):
        cfg, dep, budget, geom, sua, _ = desk
        a = net_metrics.clutter_counts(dep, cfg, sua.A, geom, budget)
        b = net_metrics.clutter_counts(dep, cfg, sua.A, geom, budget)
        for got, want in ((a.ap, b.ap), (a.ue, b.ue), (a.count, b.count)):
            np.testing.assert_array_equal(got, want)


class TestRuntime:
    def test_sua_evaluates_fewer_links_at_desk_scale(self, desk):
        # at L=20, K=8 both pipelines take well under a millisecond, and the
        # optimizer's fixed per-call work outweighs the links SUA skips; the
        # scalability shows in the link count (S > 0 on the evaluated links)
        *_, sua, base = desk
        n_sua = np.count_nonzero(sua.S)
        n_base = np.count_nonzero(base.S)
        assert 0 < n_sua < n_base

    def test_sua_faster_at_default_scale(self):
        cfg = SystemConfig(seed=1)  # L=100, K=30
        dep = generate_deployment(cfg)
        rt = net_metrics.association_runtime(dep, cfg, channel.link_budget(dep, cfg),
                                             channel.clutter_geometry(dep, cfg.pathloss), reps=10)
        assert rt.sua_s < rt.baseline_s

    def test_tiny_scenario_quick(self):
        cfg = SystemConfig(L=2, K=1, N=2, tau_p=1, X=1, area_side_m=100.0,
                           clutter_density_per_km2=100.0, seed=2)
        dep = generate_deployment(cfg)
        rt = net_metrics.association_runtime(dep, cfg, channel.link_budget(dep, cfg),
                                             channel.clutter_geometry(dep, cfg.pathloss), reps=5)
        assert rt.sua_s < 0.01 and rt.baseline_s < 0.01

    def test_baseline_builds_its_dense_rows_in_each_timed_run(self, monkeypatch):
        # at L=100 the rows of every AP fit in one chunk, and still each
        # timed run_baseline builds them itself, as it must at L=1000: no
        # untimed run and no earlier call leaves rows for it to read
        cfg = SystemConfig(seed=1000)
        dep = generate_deployment(cfg)
        budget = channel.link_budget(dep, cfg)
        geom = channel.clutter_geometry(dep, cfg.pathloss)
        association.run_sua(dep, cfg, budget, geom)
        inside, built = [], []

        def baseline(*a, _fn=association.run_baseline):
            inside.append([])
            try:
                return _fn(*a)
            finally:
                built.append(inside.pop())

        def counted(*a, _fn=channel._dense_rows):
            if inside:
                inside[-1].extend(a[-1])  # the APs whose rows to build
            return _fn(*a)
        monkeypatch.setattr(association, "run_baseline", baseline)
        monkeypatch.setattr(channel, "_dense_rows", counted)
        net_metrics.association_runtime(dep, cfg, budget, geom, reps=3)
        assert len(built) == 3 and built[0]
        assert built == [built[0]] * 3

    def test_measurement_stability(self, desk):
        # the reported median shrugs off a preempted sample: three
        # measurements agree within a factor of 4 (on a shared 2-CPU host,
        # 1600 repetitions of this body gave at most 3.1)
        cfg, dep, budget, geom, *_ = desk
        medians = [net_metrics.association_runtime(dep, cfg, budget, geom, reps=20).sua_s
                   for _ in range(3)]
        assert max(medians) < 4.0 * min(medians)


class TestXSweep:
    def test_normalization_at_one(self, desk):
        cfg, *_ = desk
        pts = net_metrics.x_sweep_gain(cfg.L, cfg.K, [1, 2, 3])
        assert pts[0].ideal_gain_db == 0.0
        assert pts[0].real_gain_db == 0.0

    def test_ideal_is_log10(self, desk):
        cfg, *_ = desk
        pts = net_metrics.x_sweep_gain(cfg.L, cfg.K, range(1, 11))
        for p in pts:
            assert p.ideal_gain_db == pytest.approx(10.0 * math.log10(p.x), rel=1e-14)

    def test_real_never_exceeds_ideal(self, desk):
        cfg, *_ = desk
        pts = net_metrics.x_sweep_gain(cfg.L, cfg.K, range(1, 11))
        for p in pts:
            assert p.real_gain_db <= p.ideal_gain_db + 1e-12

    def test_knee_at_paper_scale(self):
        cfg = SystemConfig(seed=1)
        pts = net_metrics.x_sweep_gain(cfg.L, cfg.K, range(1, 11))
        knee = net_metrics.detect_knee(pts)
        assert knee == 5

    def test_marginals_nonincreasing_beyond_knee(self):
        cfg = SystemConfig(seed=1)
        pts = net_metrics.x_sweep_gain(cfg.L, cfg.K, range(1, 11))
        knee = net_metrics.detect_knee(pts)
        marg = [b.real_gain_db - a.real_gain_db for a, b in zip(pts, pts[1:])]
        tail = marg[knee - 1:]
        assert all(m2 <= m1 + 1e-12 for m1, m2 in zip(tail, tail[1:]))

    def test_range_validation(self, desk):
        cfg, *_ = desk
        with pytest.raises(ValidationError):
            net_metrics.x_sweep_gain(cfg.L, cfg.K, [0, 1])
        with pytest.raises(ValidationError):
            net_metrics.x_sweep_gain(cfg.L, cfg.K, [cfg.L])


class TestCsvWriters:
    def test_delay_csv(self):
        text = net_metrics.delay_csv({"sua": np.array([1e-7, 2e-7])})
        assert text.startswith("scheme,ue_id,mean_delay_s\n")
        assert "sua,0,1e-07" in text

    def test_runtime_csv(self):
        rt = net_metrics.RuntimeResult(0.001, 0.002, 5)
        text = net_metrics.runtime_csv(rt)
        assert "sua,0.001,5" in text and "baseline,0.002,5" in text

    def test_gain_csv(self):
        pts = [net_metrics.GainPoint(1, 0.0, 0.0)]
        assert net_metrics.gain_csv(pts).strip().split("\n")[1] == "1,0.0,0.0"
