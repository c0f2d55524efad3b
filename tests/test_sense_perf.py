import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from cfmimo import channel, sense_perf
from cfmimo.scenario import ServiceType, SystemConfig, generate_deployment, rng_stream


def i0_series_20_terms(x):
    total = 0.0
    for k in range(20):
        total += (x * x / 4.0) ** k / math.factorial(k) ** 2
    return total


def marcum_quadrature(a, b):
    """Independent oracle: integrate the Rician tail directly."""
    from scipy import special

    def integrand(z):
        return z * math.exp(-(z - a) ** 2 / 2.0) * special.i0e(a * z)

    val, err = integrate.quad(integrand, b, np.inf, limit=400)
    return val, err


class TestBesselI0:
    def test_at_zero(self):
        assert sense_perf.bessel_i0(0.0) == 1.0

    def test_at_one_vs_truncated_series(self):
        assert sense_perf.bessel_i0(1.0) == pytest.approx(i0_series_20_terms(1.0), rel=1e-14)
        assert sense_perf.bessel_i0(1.0) == pytest.approx(1.2660658777520084, rel=1e-13)

    def test_high_precision_over_working_range(self):
        mpmath.mp.dps = 30
        for x in np.arange(0.0, 50.01, 0.5):
            ref = float(mpmath.besseli(0, float(x)))
            assert abs(sense_perf.bessel_i0(float(x)) - ref) / ref < 1e-12

    def test_strictly_increasing(self):
        xs = np.arange(0.0, 40.0, 0.25)
        vals = [sense_perf.bessel_i0(float(x)) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_scaled_variant(self):
        for x in (0.5, 5.0, 40.0, 200.0):
            if x <= 50:
                ref = sense_perf.bessel_i0(x) * math.exp(-x)
                assert sense_perf.bessel_i0_scaled(x) == pytest.approx(ref, rel=1e-12)
            assert np.isfinite(sense_perf.bessel_i0_scaled(x))


class TestMarcumQ1:
    def test_b_zero_full_mass(self):
        for a in (0.0, 0.7, 5.0):
            assert sense_perf.marcum_q1(a, 0.0) == 1.0

    def test_a_zero_closed_form(self):
        assert sense_perf.marcum_q1(0.0, 2.0) == pytest.approx(0.1353352832366127, rel=1e-13)

    def test_against_quadrature_spot_values(self):
        for a, b in ((1.0, 1.0), (2.0, 1.0), (0.5, 3.0), (4.0, 4.0), (7.5, 2.0)):
            oracle, err = marcum_quadrature(a, b)
            assert err < 1e-7
            assert abs(sense_perf.marcum_q1(a, b) - oracle) < 1e-8

    def test_monotone_in_both_arguments(self):
        grid = np.arange(0.0, 8.01, 0.25)
        for b in (0.5, 2.0, 5.0):
            vals = [sense_perf.marcum_q1(float(a), b) for a in grid]
            assert all(x <= y + 1e-15 for x, y in zip(vals, vals[1:]))
        for a in (0.5, 2.0, 5.0):
            vals = [sense_perf.marcum_q1(a, float(b)) for b in grid]
            assert all(x >= y - 1e-15 for x, y in zip(vals, vals[1:]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sense_perf.marcum_q1(-1.0, 1.0)

    # lam = a^2/2 or y = b^2/2 above 600, where exp(-lam) and exp(-y) leave
    # the plain series' range and the log-domain weights take over
    @pytest.mark.parametrize("a,b", [(36.0, 36.0), (35.5, 37.2), (37.2, 35.5), (34.0, 36.0),
                                     (40.0, 45.0), (60.0, 55.0), (25.0, 38.0)])
    def test_large_arguments_match_references(self, a, b):
        q = sense_perf.marcum_q1(a, b)
        assert abs(q - stats.ncx2.sf(b * b, 2, a * a)) < 1e-10
        assert abs(q - marcum_quadrature(a, b)[0]) < 1e-10

    def test_large_arguments_reference_value(self):
        assert abs(sense_perf.marcum_q1(36.0, 36.0) - 0.5055413996575663) < 1e-10

    def test_branches_agree_at_the_switch(self):
        a0 = math.sqrt(1200.0)  # lam = 600
        for b in (a0, 30.0, 40.0):
            below = sense_perf.marcum_q1(math.nextafter(a0, 0.0), b)
            above = sense_perf.marcum_q1(math.nextafter(a0, 99.0), b)
            assert abs(below - above) < 1e-12


class TestEnvelopePdfs:
    def test_rayleigh_normalized(self):
        val, err = integrate.quad(lambda z: sense_perf.rayleigh_pdf(z, 2.0), 0, np.inf)
        assert abs(val - 1.0) < 1e-9

    def test_rician_normalized(self):
        for m, s2 in ((1.5, 0.8), (0.0, 1.0), (30.0, 1.0)):
            val, err = integrate.quad(lambda z: sense_perf.rician_pdf(z, m, s2),
                                      0, np.inf, limit=300)
            assert abs(val - 1.0) < 1e-9

    def test_rician_reduces_to_rayleigh(self):
        zs = np.linspace(0, 5, 30)
        np.testing.assert_allclose(sense_perf.rician_pdf(zs, 0.0, 1.3),
                                   sense_perf.rayleigh_pdf(zs, 1.3), rtol=1e-12)

    def test_negative_support_zero(self):
        assert sense_perf.rayleigh_pdf(-1.0, 1.0) == 0.0
        assert sense_perf.rician_pdf(-1.0, 1.0, 1.0) == 0.0


class TestThreshold:
    def test_inverse_identity(self):
        assert sense_perf.detection_threshold(math.exp(-1.0), 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_known_value(self):
        assert sense_perf.detection_threshold(0.01, 1.0) == pytest.approx(2.145966026289347,
                                                                       rel=1e-13)

    def test_scales_linearly_in_sigma(self):
        base = sense_perf.detection_threshold(0.05, 1.0)
        scaled = sense_perf.detection_threshold(0.05, 9.0)
        assert scaled == pytest.approx(3.0 * base, rel=1e-14)

    def test_round_trip_recovers_pfa(self):
        for pfa in (0.3, 0.01, 1e-4):
            for s2 in (0.5, 1.0, 4.0):
                eta = sense_perf.detection_threshold(pfa, s2)
                assert abs(math.exp(-eta * eta / s2) - pfa) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            sense_perf.detection_threshold(0.0, 1.0)
        with pytest.raises(ValueError):
            sense_perf.detection_threshold(0.1, 0.0)

    def test_false_alarm_rate_matches_target(self):
        for pfa in (0.1, 0.01):
            rate = sense_perf.false_alarm_monte_carlo(pfa, 100000, 5)
            assert abs(rate - pfa) / pfa < 0.2


class TestDetectionKernel:
    def test_equals_envelope_test_at_zero_phase(self):
        rng = np.random.default_rng(12)
        noise = rng.standard_normal((2, 50000))
        pairs = ((0.0, 1.0, 1.2), (1.5, 2.0, 2.1), (4.0, 0.7, 3.5))
        rates = sense_perf._detection_rate(*zip(*pairs), noise)
        for (m, s2, eta), rate in zip(pairs, rates):
            u = m + math.sqrt(s2 / 2.0) * (noise[0] + 1j * noise[1])
            expect = float(np.count_nonzero(np.abs(u) > eta)) / noise.shape[1]
            assert rate == expect

    def test_phase_free_rate_matches_random_phase_rate(self):
        # |e^{j theta} m + n| and |m + n| have one law for circular n
        rng = np.random.default_rng(13)
        n = 200000
        for m, s2, eta in ((1.0, 1.0, 1.5), (2.5, 1.5, 2.8)):
            phase = np.exp(2j * math.pi * rng.random(n))
            u = phase * m + math.sqrt(s2 / 2.0) * (rng.standard_normal(n)
                                                  + 1j * rng.standard_normal(n))
            with_phase = np.count_nonzero(np.abs(u) > eta) / n
            free = sense_perf._detection_rate(m, s2, eta, rng.standard_normal((2, n)))
            p = 0.5 * (with_phase + free)
            assert abs(with_phase - free) <= 4.0 * math.sqrt(2.0 * p * (1.0 - p) / n)


class TestPdFormulas:
    def test_zero_scnr_equals_pfa(self):
        for pfa in (0.1, 0.01, 1e-3):
            assert abs(sense_perf.pd_single(0.0, pfa) - pfa) < 1e-12

    def test_saturates_at_high_scnr(self):
        assert sense_perf.pd_single(1e4, 0.01) == 1.0
        assert sense_perf.pd_single(60.0, 0.01) > 1 - 1e-9

    def test_oversized_close_arguments_evaluated(self):
        # lam = 1250 and y = 1200.5: exp(-lam) and exp(-y) are below 1e-500
        assert abs(sense_perf.marcum_q1(50.0, 49.0)
                   - stats.ncx2.sf(49.0 ** 2, 2, 50.0 ** 2)) < 1e-10

    def test_matches_rician_monte_carlo(self):
        scnr = 10.0  # 10 dB
        mc = sense_perf.pd_chain_monte_carlo(scnr, 1e-2, 1_000_000, 5, stream_tag=0)
        assert abs(mc - sense_perf.pd_single(scnr, 1e-2)) < 2e-3

    def test_aggregate_reduces_to_single(self):
        # one serving AP per UE: the sums are that link's echo amplitude, the
        # square root of its two-way gain, and its clutter+noise power
        # 1 + clutter/noise
        cfg = SystemConfig(L=10, K=4, N=4, tau_p=3, X=2, area_side_m=200.0, seed=7)
        dep = generate_deployment(cfg)
        budget = channel.link_budget(dep, cfg)
        geom = channel.clutter_geometry(dep, cfg.pathloss)
        A = np.zeros((cfg.L, cfg.K), dtype=np.int8)
        best = np.argmax(budget.gain_lin, axis=0)
        A[best, np.arange(cfg.K)] = 1
        ues, amp, sig = sense_perf._sensing_link_terms(dep, cfg, A, budget, geom)
        assert ues.size > 0
        for k, a, s in zip(ues, amp, sig):
            l = best[k]
            two_way = channel.db_to_lin(-2.0 * budget.pl_db[l, k])
            pc, _ = channel.clutter_returns(geom, dep, cfg, [l], [k], [budget.distance_m[l, k]])
            assert a == pytest.approx(math.sqrt(two_way), rel=1e-14)
            assert s == pytest.approx(1.0 + pc[0] / cfg.noise_power_w(), rel=1e-14)


class TestPdMonteCarlo:
    def _scenario(self):
        """The configuration, deployment, SUA's association and the
        deployment's (link budget, clutter geometry)."""
        cfg = SystemConfig(L=10, K=4, N=4, tau_p=3, X=2, area_side_m=200.0, seed=7)
        dep = generate_deployment(cfg)
        from cfmimo import association
        state = channel.link_budget(dep, cfg), channel.clutter_geometry(dep, cfg.pathloss)
        return cfg, dep, association.run_sua(dep, cfg, *state).A, state

    def test_saturation_at_high_scnr(self):
        cfg, dep, A, state = self._scenario()
        pts, _ = sense_perf.pd_monte_carlo(dep, cfg, {"sua": A}, A, [25.0], 100000, cfg.seed,
                                           *state)
        agg = [p for p in pts if p.ue == "aggregate"][0]
        assert agg.pd_mc > 0.99

    def test_formula_tracks_mc(self):
        cfg, dep, A, state = self._scenario()
        pts, _ = sense_perf.pd_monte_carlo(dep, cfg, {"sua": A}, A, np.arange(0, 15.1, 5.0),
                                           100000, cfg.seed, *state)
        for p in pts:
            assert abs(p.pd_mc - p.pd_formula) < 2e-2

    def test_formula_at_own_reference_is_grid_value(self):
        # calibrated on its own association, every UE's aggregate SCNR is the
        # grid value, so its formula is the single-link Pd there
        from cfmimo import association
        cfg, dep, A, state = self._scenario()
        grid = [-5.0, 0.0, 7.5, 15.0]
        for B in (A, association.baseline_all_to_all(dep.L, dep.K)):
            pts, _ = sense_perf.pd_monte_carlo(dep, cfg, {"s": B}, B, grid, 10, cfg.seed, *state)
            ue_pts = [p for p in pts if p.ue != "aggregate"]
            assert len(ue_pts) == 3 * len(grid)
            for p in ue_pts:
                want = sense_perf.pd_single(10.0 ** (p.scnr_db / 10.0), cfg.p_fa)
                assert p.pd_formula == pytest.approx(want, rel=1e-12, abs=1e-12)

    # detections out of 2000 trials per (UE, SCNR) at 0, 5 and 10 dB, stream
    # seed 9, UEs 0, 1, 3 in turn; one draw of one pair of normals per trial
    # per UE, read by every SCNR point and scheme, no phase draw
    PINNED_DETECTIONS = {
        "sua": [183, 759, 1910, 162, 734, 1875, 179, 745, 1889],
        "baseline": [18, 18, 19, 173, 786, 1910, 159, 645, 1825],
    }

    def test_pinned_detection_counts(self):
        from cfmimo import association
        cfg, dep, A, state = self._scenario()
        assocs = {"sua": A, "baseline": association.baseline_all_to_all(dep.L, dep.K)}
        pts, _ = sense_perf.pd_monte_carlo(dep, cfg, assocs, A, [0.0, 5.0, 10.0], 2000, 9,
                                           *state)
        assert [p.scheme for p in pts] == ["sua"] * 12 + ["baseline"] * 12
        for scheme in assocs:
            got = [p.pd_mc for p in pts if p.scheme == scheme and p.ue != "aggregate"]
            assert got == [c / 2000 for c in self.PINNED_DETECTIONS[scheme]], scheme

    def test_shared_draws_equal_one_scheme_calls(self):
        from cfmimo import association
        cfg, dep, A, state = self._scenario()
        B = association.baseline_all_to_all(dep.L, dep.K)
        grid = [0.0, 7.5]
        both, scale = sense_perf.pd_monte_carlo(dep, cfg, {"sua": A, "baseline": B}, A, grid,
                                                1000, 4, *state)
        sua, sua_scale = sense_perf.pd_monte_carlo(dep, cfg, {"sua": A}, A, grid, 1000, 4,
                                                   *state)
        base, base_scale = sense_perf.pd_monte_carlo(dep, cfg, {"baseline": B}, A, grid,
                                                     1000, 4, *state)
        np.testing.assert_array_equal(scale, sua_scale)
        np.testing.assert_array_equal(scale, base_scale)
        assert both == sua + base

    def test_shared_draws_equal_one_point_calls(self):
        from cfmimo import association
        cfg, dep, A, state = self._scenario()
        assocs = {"sua": A, "baseline": association.baseline_all_to_all(dep.L, dep.K)}
        grid = [-2.5, 0.0, 7.5, 12.0]
        full, scale = sense_perf.pd_monte_carlo(dep, cfg, assocs, A, grid, 1000, 4, *state)
        for gi, g in enumerate(grid):
            one, one_scale = sense_perf.pd_monte_carlo(dep, cfg, assocs, A, [g], 1000, 4,
                                                       *state)
            np.testing.assert_array_equal(one_scale[:, 0], scale[:, gi])
            assert one == [p for p in full if p.scnr_db == g]

    def test_one_stream_per_sensing_ue(self, monkeypatch):
        from cfmimo import association
        cfg, dep, A, state = self._scenario()
        opened = []

        def counting_stream(*key):
            opened.append(key)
            return rng_stream(*key)

        monkeypatch.setattr(sense_perf, "rng_stream", counting_stream)
        assocs = {"sua": A, "baseline": association.baseline_all_to_all(dep.L, dep.K)}
        pts, scale = sense_perf.pd_monte_carlo(dep, cfg, assocs, A, [0.0, 5.0, 10.0], 200, 9,
                                               *state)
        ues = dep.ue_indices(ServiceType.SENSE, ServiceType.JCAS)
        assert opened == [(9, "mc", 92000, k) for k in ues]
        assert scale.shape == (ues.size, 3)

    def test_deterministic(self):
        cfg, dep, A, state = self._scenario()
        a, _ = sense_perf.pd_monte_carlo(dep, cfg, {"sua": A}, A, [5.0], 5000, cfg.seed, *state)
        b, _ = sense_perf.pd_monte_carlo(dep, cfg, {"sua": A}, A, [5.0], 5000, cfg.seed, *state)
        assert [p.pd_mc for p in a] == [p.pd_mc for p in b]

    def test_csv_format(self):
        pts = [sense_perf.PdPoint("sua", "3", 5.0, 0.5, 0.49, 1000, 0.01)]
        lines = sense_perf.pd_csv(pts).strip().split("\n")
        assert lines[0] == "scheme,ue_id,scnr_db,pd_formula,pd_mc,n_trials,p_fa"
        assert lines[1].startswith("sua,3,5.0,")
