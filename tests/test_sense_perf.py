import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from cfmimo import sense_perf
from cfmimo.scenario import SystemConfig, generate_deployment


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
        mc = sense_perf.pd_chain_monte_carlo(scnr, 1e-2, 1_000_000, 5)
        assert abs(mc - sense_perf.pd_single(scnr, 1e-2)) < 2e-3

    def test_aggregate_reduces_to_single(self):
        # one serving AP: the aggregate SCNR is that link's scale * echo / sigma_phi2
        assert sense_perf.effective_scnr([3.0], [1.5], 2.0) == pytest.approx(4.0, rel=1e-15)

    def test_aggregate_zero_contribution_no_change(self):
        # an AP with no echo and no clutter+noise leaves the aggregate unchanged
        assert sense_perf.effective_scnr([3.0, 0.0], [1.5, 0.0], 2.0) == pytest.approx(
            sense_perf.effective_scnr([3.0], [1.5], 2.0), rel=1e-14)

    def test_aggregate_monotone(self):
        # a stronger echo at one serving AP never lowers the aggregate Pd
        vals = [sense_perf.pd_single(sense_perf.effective_scnr([1.0, s], [1.0, 1.0], 1.0), 0.01)
                for s in np.arange(0, 8, 0.5)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


class TestPdMonteCarlo:
    def _scenario(self):
        cfg = SystemConfig(L=10, K=4, N=4, tau_p=3, X=2, area_side_m=200.0, seed=7)
        dep = generate_deployment(cfg)
        from cfmimo import association
        res = association.run_sua(dep, cfg)
        return cfg, dep, res.A

    def test_saturation_at_high_scnr(self):
        cfg, dep, A = self._scenario()
        pts, _ = sense_perf.pd_monte_carlo(dep, cfg, {"sua": A}, [25.0], 100000, cfg.seed)
        agg = [p for p in pts if p.ue == "aggregate"][0]
        assert agg.pd_mc > 0.99

    def test_formula_tracks_mc(self):
        cfg, dep, A = self._scenario()
        pts, _ = sense_perf.pd_monte_carlo(dep, cfg, {"sua": A}, np.arange(0, 15.1, 5.0),
                                           100000, cfg.seed)
        for p in pts:
            assert abs(p.pd_mc - p.pd_formula) < 2e-2

    # detections out of 2000 trials per (UE, SCNR) at 0, 5 and 10 dB, stream
    # seed 9, UEs 0, 1, 3 in turn; recorded when each scheme drew its own trials
    PINNED_DETECTIONS = {
        "sua": [167, 731, 1888, 179, 766, 1880, 156, 752, 1864],
        "baseline": [18, 12, 18, 189, 821, 1910, 137, 643, 1779],
    }

    def test_pinned_detection_counts(self):
        from cfmimo import association
        cfg, dep, A = self._scenario()
        assocs = {"sua": A, "baseline": association.baseline_all_to_all(dep.L, dep.K)}
        pts, _ = sense_perf.pd_monte_carlo(dep, cfg, assocs, [0.0, 5.0, 10.0], 2000, 9)
        assert [p.scheme for p in pts] == ["sua"] * 12 + ["baseline"] * 12
        for scheme in assocs:
            got = [p.pd_mc for p in pts if p.scheme == scheme and p.ue != "aggregate"]
            assert got == [c / 2000 for c in self.PINNED_DETECTIONS[scheme]], scheme

    def test_shared_draws_equal_one_scheme_calls(self):
        from cfmimo import association
        cfg, dep, A = self._scenario()
        B = association.baseline_all_to_all(dep.L, dep.K)
        grid = [0.0, 7.5]
        both, ref = sense_perf.pd_monte_carlo(dep, cfg, {"sua": A, "baseline": B}, grid,
                                              1000, 4)
        sua, sua_ref = sense_perf.pd_monte_carlo(dep, cfg, {"sua": A}, grid, 1000, 4)
        base, _ = sense_perf.pd_monte_carlo(dep, cfg, {"baseline": B}, grid, 1000, 4,
                                            scale_ref=ref)
        assert ref == sua_ref == sense_perf.pd_scale_ref(dep, cfg, A, grid)
        assert both == sua + base

    def test_deterministic(self):
        cfg, dep, A = self._scenario()
        a, _ = sense_perf.pd_monte_carlo(dep, cfg, {"sua": A}, [5.0], 5000, cfg.seed)
        b, _ = sense_perf.pd_monte_carlo(dep, cfg, {"sua": A}, [5.0], 5000, cfg.seed)
        assert [p.pd_mc for p in a] == [p.pd_mc for p in b]

    def test_csv_format(self):
        pts = [sense_perf.PdPoint("sua", "3", 5.0, 0.5, 0.49, 1000, 0.01)]
        lines = sense_perf.pd_csv(pts).strip().split("\n")
        assert lines[0] == "scheme,ue_id,scnr_db,pd_formula,pd_mc,n_trials,p_fa"
        assert lines[1].startswith("sua,3,5.0,")
