import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cfmimo import association as assoc
from cfmimo import channel, comm_perf
from cfmimo.comm_perf import BPSK, QPSK
from cfmimo.scenario import (
    InfeasibleModelError,
    ServiceType,
    SystemConfig,
    generate_deployment,
    rng_stream,
)


class TestQFunctions:
    def test_q_exact_at_zero(self):
        assert comm_perf.q_exact(0.0) == 0.5

    def test_q_exact_known_value(self):
        assert comm_perf.q_exact(1.0) == pytest.approx(0.15865525393145707, rel=1e-12)

    @given(st.floats(-8, 8))
    def test_q_exact_symmetry(self, x):
        assert comm_perf.q_exact(-x) == pytest.approx(1.0 - comm_perf.q_exact(x), abs=1e-14)


class TestConstellations:
    @pytest.mark.parametrize("constel", [BPSK, QPSK])
    def test_unit_energy(self, constel):
        assert float(np.mean(np.abs(constel) ** 2)) == pytest.approx(1.0, abs=1e-12)

    def test_sizes(self):
        assert BPSK.size == 2 and QPSK.size == 4

    @pytest.mark.parametrize("constel", [BPSK, QPSK])
    def test_distinct_points(self, constel):
        assert np.abs(constel[:, None] - constel[None, :])[~np.eye(constel.size, dtype=bool)].min() > 0

    def test_lookup(self):
        assert comm_perf.CONSTELLATIONS["bpsk"] is BPSK and comm_perf.CONSTELLATIONS["qpsk"] is QPSK


def _mgf_gamma(t, alphas, delta, N):
    """MGF of the effective signal strength, prod_l (1 - t alpha_l |delta|^2)^-N,
    for one symbol difference delta."""
    link_sums = np.atleast_1d(np.asarray(alphas, dtype=float)) * np.abs(complex(delta)) ** 2
    return float(np.prod((1.0 - t * link_sums) ** (-float(N))))


def _pep_average(alphas, delta, sigma2, c2, N):
    """Fading-averaged pairwise error probability of one symbol difference
    delta: the two-exponential Q approximation through the MGF."""
    D = 2.0 * (sigma2 + c2)
    return (_mgf_gamma(-1.0 / (4.0 * D), alphas, delta, N) / 12.0
            + _mgf_gamma(-1.0 / (3.0 * D), alphas, delta, N) / 4.0)


class TestMgf:
    def test_at_origin(self):
        assert _mgf_gamma(0.0, [0.5, 0.2], 2.0, 3) == 1.0

    def test_single_link_arithmetic(self):
        # BPSK, one link, N = 1: |delta|^2 = 4 and the two MGF points
        # t = -1/(4D), -1/(3D) give (1 + alpha/D)^-1 / 12 + (1 + 4 alpha/(3D))^-1 / 4
        alpha, sigma2, c2 = 0.5, 0.25, 0.25
        D = 2.0 * (sigma2 + c2)
        expected = 1.0 / (1.0 + alpha / D) / 12.0 + 1.0 / (1.0 + 4.0 * alpha / (3.0 * D)) / 4.0
        assert comm_perf.ser_theory(BPSK, [alpha], sigma2, c2, 1) == pytest.approx(expected, rel=1e-14)

    def test_pole_rejected(self):
        # a negative residual-error power pushes both MGF points past the pole
        with pytest.raises(ValueError, match="pole"):
            comm_perf.ser_theory(BPSK, np.array([1.0]), 0.25, -0.5, 1)

    def test_matches_simulated_expectation(self):
        # BPSK has one pair distance, |delta|^2 = 4, so ser_theory is the
        # fading average E[exp(-g/(4D))/12 + exp(-g/(3D))/4] with g the sum
        # over (link, antenna) of |CN(0, 4 alpha_l)|^2
        rng = rng_stream(22, "mc", 2)
        alphas = np.array([0.8, 0.3])
        big_n, sigma2, c2 = 2, 0.5, 0.2
        D = 2.0 * (sigma2 + c2)
        n = 1_000_000
        g = np.zeros(n)
        for s_l in 4.0 * alphas:
            draws = (rng.standard_normal((n, big_n)) + 1j * rng.standard_normal((n, big_n)))
            g += s_l / 2.0 * (np.abs(draws) ** 2).sum(axis=1)
        emp = float(np.mean(np.exp(-g / (4.0 * D)) / 12.0 + np.exp(-g / (3.0 * D)) / 4.0))
        assert abs(emp - comm_perf.ser_theory(BPSK, alphas, sigma2, c2, big_n)) / emp < 0.01


class TestPepAverage:
    def test_no_signal_degeneracy(self):
        # every pair term is 1/12 + 1/4 without signal
        assert comm_perf.ser_theory(BPSK, np.zeros(3), 1.0, 0.5, 4) == pytest.approx(1.0 / 3.0)

    def test_monotone_decreasing_in_alpha(self):
        base = np.array([0.5, 0.5])
        lo = comm_perf.ser_theory(BPSK, base, 1.0, 0.2, 2)
        hi = comm_perf.ser_theory(BPSK, base + [0.3, 0.0], 1.0, 0.2, 2)
        assert hi < lo

    def test_matches_quadrature_of_density(self):
        # for N = 1 and two distinct link sums, gamma is hypoexponential and
        # the fading average can be integrated directly; BPSK's one pair
        # distance |delta|^2 = 4 makes ser_theory that average
        from scipy import integrate
        alphas = np.array([0.45, 0.125])
        sigma2, c2 = 0.4, 0.15
        s1, s2 = alphas * 4.0
        D = 2.0 * (sigma2 + c2)

        def density(g):
            return (math.exp(-g / s1) - math.exp(-g / s2)) / (s1 - s2)

        def kernel(g):
            return (math.exp(-g / (4 * D)) / 12.0 + math.exp(-g / (3 * D)) / 4.0) * density(g)

        oracle, err = integrate.quad(kernel, 0, np.inf, limit=200)
        assert err < 1e-8
        assert comm_perf.ser_theory(BPSK, alphas, sigma2, c2, 1) == pytest.approx(oracle, abs=1e-8)


class TestSerTheory:
    ALPHAS = np.array([1.0, 0.6, 0.3])

    def test_vanishes_at_high_snr(self):
        sigma2 = 1e-9
        c2 = comm_perf.residual_error_power(sigma2, 8, 5, 3)
        assert comm_perf.ser_theory(BPSK, self.ALPHAS, sigma2, c2, 5) < 1e-12

    def test_bpsk_at_most_qpsk(self):
        for sigma2 in (1.0, 0.1, 0.01):
            c2 = comm_perf.residual_error_power(sigma2, 8, 5, 3)
            b = comm_perf.ser_theory(BPSK, self.ALPHAS, sigma2, c2, 5)
            q = comm_perf.ser_theory(QPSK, self.ALPHAS, sigma2, c2, 5)
            assert b <= q

    def test_monotone_in_snr(self):
        vals = []
        for snr_db in np.arange(-10, 21, 2.0):
            sigma2 = 10 ** (-snr_db / 10)
            c2 = comm_perf.residual_error_power(sigma2, 8, 5, 3)
            vals.append(comm_perf.ser_theory(QPSK, self.ALPHAS, sigma2, c2, 5))
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_link_permutation_invariance(self):
        sigma2, c2 = 0.3, 0.1
        a = comm_perf.ser_theory(QPSK, self.ALPHAS, sigma2, c2, 3)
        b = comm_perf.ser_theory(QPSK, self.ALPHAS[::-1].copy(), sigma2, c2, 3)
        assert a == pytest.approx(b, rel=1e-14)

    def test_clamped_and_raw(self):
        # 3 wrong symbols of 1/3 each at the degenerate point: the raw sum is
        # exactly 1 and the clamp leaves it there
        assert comm_perf.ser_theory(QPSK, np.zeros(1), 1.0, 0.0, 1) == 1.0

    @staticmethod
    def _ser_theory_pair_loop(constel, alphas, sigma2, c2, N):
        total = 0.0
        for i in range(constel.size):
            for j in range(constel.size):
                if i != j:
                    total += _pep_average(alphas, constel[i] - constel[j], sigma2, c2, N)
        return min(max(total / constel.size, 0.0), 1.0)

    def test_equals_pair_loop(self):
        rng = np.random.default_rng(17)
        for trial in range(400):
            alphas = rng.random(int(rng.integers(1, 12))) * 10 ** rng.uniform(-3, 3)
            sigma2, c2 = 10 ** rng.uniform(-4, 2), 10 ** rng.uniform(-5, 1) * (trial % 4 > 0)
            constel, N = (BPSK, QPSK)[trial % 2], int(rng.integers(1, 9))
            assert (comm_perf.ser_theory(constel, alphas, sigma2, c2, N)
                    == self._ser_theory_pair_loop(constel, alphas, sigma2, c2, N))

    def test_pole_rejected(self):
        with pytest.raises(ValueError, match="pole"):
            comm_perf.ser_theory(QPSK, np.array([100.0]), -2.0, 0.0, 1)

    def test_zero_padded_rows_equal_per_ue_calls(self):
        # a zero alpha multiplies the MGF by exactly 1, so each zero-padded
        # row reads as the UE's own links alone
        rng = np.random.default_rng(29)
        for trial in range(60):
            n = rng.integers(1, 9, int(rng.integers(1, 7)))
            rows = [rng.random(k) * 10 ** rng.uniform(-3, 3) for k in n]
            padded = np.zeros((n.size, n.max()))
            for row, alphas in zip(padded, rows):
                row[:alphas.size] = alphas
            sigma2, c2 = 10 ** rng.uniform(-4, 2), 10 ** rng.uniform(-5, 1)
            constel, N = (BPSK, QPSK)[trial % 2], int(rng.integers(1, 9))
            got = comm_perf.ser_theory(constel, padded, sigma2, c2, N)
            assert got.shape == (n.size,)
            for value, alphas in zip(got, rows):
                assert value == pytest.approx(
                    self._ser_theory_pair_loop(constel, alphas, sigma2, c2, N), rel=1e-12)

    def test_residual_error_modes(self):
        # one mode remains: c^2 = sigma2 K / (tau_p X)
        assert comm_perf.residual_error_power(0.5, 30, 10, 5) == pytest.approx(0.5 * 30 / 50)

class TestSerMonteCarlo:
    def test_awgn_bpsk_matches_q_function(self):
        pts = comm_perf.ser_awgn_mc(BPSK, [0.0, 4.0, 8.0], 100000, 99)
        for p in pts:
            snr = 10 ** (p.snr_db / 10)
            theory = comm_perf.q_exact(math.sqrt(2 * snr))
            se = math.sqrt(theory * (1 - theory) / p.mc_symbols)
            assert abs(p.ser_mc - theory) <= 3 * se

    def test_ci_shrinks_with_symbol_count(self):
        lo = comm_perf.ser_awgn_mc(BPSK, [2.0], 10000, 5)[0]
        hi = comm_perf.ser_awgn_mc(BPSK, [2.0], 100000, 5)[0]
        ratio = lo.ci95 / hi.ci95
        assert ratio == pytest.approx(math.sqrt(10.0), rel=0.2)
        assert hi.ci95 < lo.ci95

    def test_noise_free_perfect_csi_zero_errors(self):
        cfg = SystemConfig(L=3, K=2, N=2, tau_p=2, tau_c=40, X=1,
                           area_side_m=150.0, clutter_density_per_km2=0.0, seed=2)
        dep = generate_deployment(cfg)
        A = np.zeros((3, 2), dtype=np.int8)
        budget = channel.link_budget(dep, cfg)
        for k in range(2):
            A[np.argmax(budget.gain_lin[:, k]), k] = 1
        pts = comm_perf.ser_monte_carlo(dep, cfg, {"sua": A}, QPSK, [300.0], 2000, cfg.seed, A,
                                        budget, perfect_csi=True)
        assert pts[0].ser_mc == 0.0

    def test_empty_serving_set_raises(self):
        cfg = SystemConfig(L=3, K=2, N=2, tau_p=2, tau_c=40, X=1,
                           area_side_m=150.0, clutter_density_per_km2=0.0, seed=2)
        dep = generate_deployment(cfg)
        A = np.zeros((3, 2), dtype=np.int8)
        with pytest.raises(InfeasibleModelError):
            comm_perf.ser_monte_carlo(dep, cfg, {"sua": A}, QPSK, [10.0], 1000, cfg.seed, A,
                                      channel.link_budget(dep, cfg))

    def test_deterministic_given_seed(self):
        cfg = SystemConfig(L=4, K=2, N=2, tau_p=2, tau_c=40, X=2,
                           area_side_m=150.0, seed=3)
        dep = generate_deployment(cfg)
        A = np.ones((4, 2), dtype=np.int8)
        budget = channel.link_budget(dep, cfg)
        a = comm_perf.ser_monte_carlo(dep, cfg, {"sua": A}, BPSK, [0.0], 2000, 11, A, budget)
        b = comm_perf.ser_monte_carlo(dep, cfg, {"sua": A}, BPSK, [0.0], 2000, 11, A, budget)
        assert a[0].ser_mc == b[0].ser_mc


    @staticmethod
    def _pinned_scenario(**kw):
        cfg = SystemConfig(**dict(dict(L=12, K=5, N=2, tau_p=3, tau_c=40, X=2,
                                       area_side_m=150.0, clutter_density_per_km2=400.0,
                                       seed=3), **kw))
        dep = generate_deployment(cfg)
        return cfg, dep, {"sua": assoc.run_sua(dep, cfg).A,
                          "baseline": assoc.baseline_all_to_all(dep.L, dep.K)}

    def test_local_scattering_at_one_antenna_equals_identity(self):
        # a single antenna has no spatial correlation to model
        ser = {}
        for model in ("identity", "local_scattering"):
            cfg, dep, assocs = self._pinned_scenario(N=1, correlation_model=model)
            for scheme, A in assocs.items():
                ser[model, scheme] = [p.ser_mc for p in comm_perf.ser_monte_carlo(
                    dep, cfg, {scheme: A}, QPSK, [0.0, 10.0], 2000, 21, A,
                    channel.link_budget(dep, cfg))]
        for scheme in ("sua", "baseline"):
            assert ser["identity", scheme] == ser["local_scattering", scheme]

    # QPSK symbol errors over 2000 symbols x 3 communication/JCAS UEs at 0 and
    # 10 dB, stream seed 21; they depend on the per-block draw layout
    PINNED_ERRORS = {
        ("identity", "sua", False): [666, 71],
        ("identity", "sua", True): [363, 31],
        ("identity", "baseline", False): [155, 147],
        ("identity", "baseline", True): [103, 89],
        ("local_scattering", "sua", False): [763, 159],
        ("local_scattering", "sua", True): [547, 130],
        ("local_scattering", "baseline", False): [275, 272],
        ("local_scattering", "baseline", True): [174, 173],
    }

    @pytest.mark.parametrize("model", ["identity", "local_scattering"])
    def test_pinned_error_counts(self, model):
        cfg, dep, assocs = self._pinned_scenario(correlation_model=model)
        for scheme, A in assocs.items():
            for perfect in (False, True):
                # each scheme's axis is calibrated on its own serving links
                pts = comm_perf.ser_monte_carlo(dep, cfg, {scheme: A}, QPSK, [0.0, 10.0], 2000,
                                                21, A, channel.link_budget(dep, cfg),
                                                perfect_csi=perfect)
                expect = self.PINNED_ERRORS[model, scheme, perfect]
                assert [p.ser_mc for p in pts] == [e / 6000 for e in expect], (scheme, perfect)

    @pytest.mark.parametrize("model", ["identity", "local_scattering"])
    @pytest.mark.parametrize("perfect", [False, True])
    def test_mapping_call_equals_single_scheme_calls(self, model, perfect):
        # every scheme reads the same block draws, so a scheme's points do not
        # depend on which other schemes share the call
        cfg, dep, assocs = self._pinned_scenario(correlation_model=model)
        budget = channel.link_budget(dep, cfg)

        def run(a):
            return comm_perf.ser_monte_carlo(dep, cfg, a, QPSK, [0.0, 10.0], 600, 21,
                                             assocs["sua"], budget, perfect_csi=perfect)
        both = run(assocs)
        assert both == run({"sua": assocs["sua"]}) + run({"baseline": assocs["baseline"]})
        assert [p.snr_db for p in both] == [0.0, 10.0, 0.0, 10.0]

    @pytest.mark.parametrize("model", ["identity", "local_scattering"])
    def test_factor_stack_has_one_row_per_serving_link(self, model, monkeypatch):
        # each scheme's MMSE factors cover exactly its serving links, in the
        # order of `association.serving_links`
        cfg, dep, assocs = self._pinned_scenario(correlation_model=model)
        data_ues = dep.ue_indices(ServiceType.COM, ServiceType.JCAS)
        built = []

        def factors(R, tau_p, pilots, l_idx, k_idx, _fn=channel.mmse_estimate):
            built.append((k_idx, _fn(R, tau_p, pilots, l_idx, k_idx)))
            return built[-1][1]
        monkeypatch.setattr(channel, "mmse_estimate", factors)
        comm_perf.ser_monte_carlo(dep, cfg, assocs, QPSK, [0.0], 60, 21, assocs["sua"],
                                  channel.link_budget(dep, cfg))
        assert len(built) == 2
        for A, (k_idx, (B, lam, U_h)) in zip(assocs.values(), built):
            ue, _ = assoc.serving_links(A, data_ues)
            np.testing.assert_array_equal(k_idx, data_ues[ue])
            assert B.shape[0] == lam.shape[0] == ue.size
            assert (U_h is None) == (model == "identity")
        assert built[0][0].size < built[1][0].size  # SUA serves fewer links

    @pytest.mark.parametrize("constel", [BPSK, QPSK], ids=["bpsk", "qpsk"])
    @pytest.mark.parametrize("paper_default", [False, True], ids=["pinned", "default"])
    def test_theory_column_equals_per_ue_scalar_form(self, constel, paper_default):
        # the column is the mean over data UEs of the closed form on each
        # UE's own serving links, the SNR axis set by SUA's median link gain
        if paper_default:
            cfg = SystemConfig(seed=1000)
            dep = generate_deployment(cfg)
            assocs = {"sua": assoc.run_sua(dep, cfg).A,
                      "baseline": assoc.baseline_all_to_all(dep.L, dep.K)}
        else:
            cfg, dep, assocs = self._pinned_scenario()
        budget = channel.link_budget(dep, cfg)
        grid = [-5.0, 0.0, 10.0]
        pts = comm_perf.ser_monte_carlo(dep, cfg, assocs, constel, grid, 5, 21,
                                        assocs["sua"], budget)
        g = budget.gain_lin / np.median(budget.gain_lin[assocs["sua"] == 1])
        data_ues = dep.ue_indices(ServiceType.COM, ServiceType.JCAS)
        want = []
        for A in assocs.values():
            for snr_db in grid:
                sigma2 = 10.0 ** (-snr_db / 10.0)
                c2 = comm_perf.residual_error_power(sigma2, cfg.K, cfg.tau_p, cfg.X)
                want.append(np.mean([TestSerTheory._ser_theory_pair_loop(
                    constel, comm_perf.effective_alpha(1.0, cfg.tau_p, g[A[:, k] == 1, k],
                                                       sigma2, cfg.X), sigma2, c2, cfg.N)
                    for k in data_ues]))
        assert [p.ser_theory for p in pts] == pytest.approx(want, rel=1e-12)

    def test_clustered_interval_covers_the_seed_spread(self):
        # desk scenario, 40 Monte-Carlo seeds of 2000 symbols (11 coherence
        # blocks): 1.96 sd of ser_mc over the seeds against the median
        # clustered half-width; the Wilson width of independent symbols
        # misses the fading
        cfg = SystemConfig(L=20, K=8, N=5, tau_p=5, tau_c=200, X=3, area_side_m=250.0, seed=7)
        dep = generate_deployment(cfg)
        budget = channel.link_budget(dep, cfg)
        sua = assoc.run_sua(dep, cfg, budget).A
        assocs = {"sua": sua, "baseline": assoc.baseline_all_to_all(dep.L, dep.K)}
        runs = np.array([[(p.ser_mc, p.ci95, p.ci95_clustered)
                          for p in comm_perf.ser_monte_carlo(dep, cfg, assocs, QPSK,
                                                             [-12.0, -8.0, -4.0], 2000, seed,
                                                             sua, budget)]
                         for seed in range(40)])
        spread = 1.96 * runs[..., 0].std(axis=0, ddof=1)
        ratio = spread / np.median(runs[..., 2], axis=0)
        assert np.all((0.5 <= ratio) & (ratio <= 2.0)), ratio
        assert np.max(spread / np.median(runs[..., 1], axis=0)) > 2.0

    def test_clustered_halfwidth_equals_per_cluster_sum(self):
        rng = np.random.default_rng(4)
        n = rng.integers(1, 50, 12)
        e = rng.binomial(n, 0.3)
        p = e.sum() / n.sum()
        want = comm_perf.Z95 * math.sqrt(12 / 11 * np.sum((e - p * n) ** 2)) / n.sum()
        got = comm_perf.clustered_halfwidth(12, n.sum(), n @ n, e.sum(), e @ e, e @ n)
        assert got == pytest.approx(want, rel=1e-12)
        assert comm_perf.clustered_halfwidth(12, 120, 1200, 0, 0, 0) == 0.0
        assert math.isnan(comm_perf.clustered_halfwidth(1, 10, 100, 3, 9, 30))


class TestDecisionMetric:
    def test_noise_only_variance(self):
        h = np.array([0.4 + 0.3j, -0.7, 0.1j])
        params = comm_perf.DecisionMetricParams(h_hat=h, delta=-2.0, sigma2=0.9)
        stats = comm_perf.decision_metric_stats(1_000_000, params,
                                                np.random.default_rng(5))
        u = h * -2.0
        expect = 0.9 * float(np.vdot(u, u).real)
        assert stats.predicted_variance == pytest.approx(expect, rel=1e-12)
        assert abs(stats.variance - expect) / expect < 0.02

    def test_zero_mean_within_standard_errors(self):
        h = np.array([1.0, 0.5j])
        params = comm_perf.DecisionMetricParams(h_hat=h, delta=1.0 + 1j, sigma2=0.5)
        stats = comm_perf.decision_metric_stats(500_000, params,
                                                np.random.default_rng(6))
        se = math.sqrt(stats.variance / stats.n_trials)
        assert abs(stats.mean) < 4 * se

    def test_full_error_covariance(self):
        rng = np.random.default_rng(7)
        h = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / math.sqrt(2)
        covs, powers = [], []
        for k in range(2):
            Z = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            covs.append(0.2 * (Z @ Z.conj().T) / 3)
            powers.append(0.6 + 0.2 * k)
        params = comm_perf.DecisionMetricParams(h_hat=h, delta=1.2, sigma2=0.4,
                                                powers=tuple(powers),
                                                error_covs=tuple(covs))
        stats = comm_perf.decision_metric_stats(1_000_000, params,
                                                np.random.default_rng(8))
        assert abs(stats.variance - stats.predicted_variance) / stats.predicted_variance < 0.02


class TestCsvAndWilson:
    def test_wilson_basics(self):
        assert comm_perf.wilson_halfwidth(0, 0) == 0.0
        assert comm_perf.wilson_halfwidth(50, 1000) > 0

    def test_ser_csv_shape(self):
        pts = [comm_perf.SerPoint(0.0, 0.1, 0.09, 1000, 0.01, 0.03, 0)]
        text = comm_perf.ser_csv({"sua": pts}, "qpsk")
        lines = text.strip().split("\n")
        assert lines[0] == ("scheme,modulation,snr_db,ser_theory,ser_mc,ci95,ci95_clustered,"
                            "n_symbols")
        assert lines[1].startswith("sua,qpsk,0.0,")
