import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfmimo import channel
from cfmimo.scenario import (
    Deployment,
    PathLossParams,
    SystemConfig,
    generate_deployment,
    rng_stream,
)

PL = PathLossParams(pl0_db=30.0, d0_m=1.0, gamma_pl=3.67, shadow_sigma_db=4.0)


class TestPathLoss:
    def test_reference_point(self):
        assert channel.path_loss_db(PL, 1.0) == 30.0

    def test_known_value(self):
        assert channel.path_loss_db(PL, 100.0) == pytest.approx(103.4, rel=1e-12)

    def test_shadow_additivity(self):
        base = channel.path_loss_db(PL, 57.0)
        assert channel.path_loss_db(PL, 57.0, shadow_db=4.0) == pytest.approx(base + 4.0)

    def test_clamped_below_reference(self):
        assert channel.path_loss_db(PL, 0.0) == 30.0

    @given(st.floats(1.0, 1e4), st.floats(1.0, 1e4))
    def test_monotone_in_distance(self, d1, d2):
        lo, hi = sorted((d1, d2))
        assert channel.path_loss_db(PL, lo) <= channel.path_loss_db(PL, hi)


class TestRssi:
    def test_known_value(self):
        assert channel.rssi_dbm(30.0, 103.4) == pytest.approx(-73.4)

    def test_zero_loss_identity(self):
        assert channel.rssi_dbm(30.0, 0.0) == 30.0

    @given(st.floats(0, 150), st.floats(0, 150))
    def test_monotone_in_loss(self, pl1, pl2):
        lo, hi = sorted((pl1, pl2))
        if hi - lo > 1e-9:
            assert channel.rssi_dbm(20.0, hi) < channel.rssi_dbm(20.0, lo)


class TestLinkBudget:
    def test_shadow_frozen(self):
        cfg = SystemConfig(L=5, K=2, X=2, tau_p=2, seed=3)
        dep = generate_deployment(cfg)
        a = channel.link_budget(dep, cfg)
        b = channel.link_budget(dep, cfg)
        np.testing.assert_array_equal(a.pl_db, b.pl_db)
        np.testing.assert_array_equal(a.rssi_dbm, b.rssi_dbm)

    def test_received_power_equals_rssi(self):
        cfg = SystemConfig(L=5, K=2, X=2, tau_p=2, seed=3)
        dep = generate_deployment(cfg)
        budget = channel.link_budget(dep, cfg)
        np.testing.assert_array_equal(budget.p_r_dbm, budget.rssi_dbm)

    def test_plain_arithmetic(self):
        # P_t 30 dBm over a 90 dB loss
        assert channel.rssi_dbm(30.0, 90.0) == -60.0


def colored_draws(R, beta, rng, n):
    """n draws sqrt(beta) R^(1/2) w, w ~ CN(0, I): the fading rule of the SER
    Monte-Carlo, with the square root from `channel.correlation_sqrt`."""
    w = rng.standard_normal((n, R.shape[0])) + 1j * rng.standard_normal((n, R.shape[0]))
    return math.sqrt(beta) * (w / math.sqrt(2.0)) @ channel.correlation_sqrt(R).T


class TestFading:
    R = channel.local_scattering_correlation(4, 0.7, 15.0)

    def test_sample_covariance_matches_r(self):
        h = colored_draws(self.R, 1.0, rng_stream(42, "fading"), 100000)
        emp = (h.T @ h.conj()) / h.shape[0]
        assert np.linalg.norm(emp - self.R) / np.linalg.norm(self.R) < 0.02

    def test_mean_energy_is_beta_n(self):
        h = colored_draws(self.R, 2.0, rng_stream(7, "fading"), 100000)
        energy = float((np.abs(h) ** 2).sum(axis=1).mean())
        assert abs(energy - 8.0) / 8.0 < 0.02

    def test_zero_beta_gives_zero(self):
        h = colored_draws(np.eye(3), 0.0, rng_stream(1, "fading"), 1)
        assert np.all(h == 0)
        assert np.all(channel.correlation_sqrt(np.zeros((3, 3))) == 0)

    def test_rank_one_correlation_confines_draws(self):
        # the eigenvalue-dust clamp keeps draws exactly in the span of v
        v = np.array([1.0, 1j, -1.0]) / math.sqrt(3)
        h = colored_draws(np.outer(v, v.conj()), 1.0, rng_stream(3, "fading"), 100)
        residual = h - np.outer(h @ v.conj(), v)
        assert np.abs(residual).max() < 1e-10

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError, match="PSD"):
            channel.correlation_sqrt(np.diag([1.0, -0.5]))

    def test_stacked_correlation_and_square_root(self):
        angles = np.array([[0.4, -1.1], [2.0, 0.0]])
        R = channel.local_scattering_correlation(4, angles, 10.0)
        assert R.shape == (2, 2, 4, 4)
        np.testing.assert_allclose(R[1, 0], channel.local_scattering_correlation(4, 2.0, 10.0))
        half = channel.correlation_sqrt(R)
        np.testing.assert_allclose(half @ half, R, atol=1e-12)
        np.testing.assert_allclose(half[0, 1], channel.correlation_sqrt(R[0, 1]), atol=1e-12)

    def test_local_scattering_valid_correlation(self):
        R = channel.local_scattering_correlation(6, 0.4, 10.0)
        assert np.allclose(R, R.conj().T, atol=1e-12)
        assert np.trace(R).real == pytest.approx(6.0, abs=1e-12)
        assert np.linalg.eigvalsh(R).min() > -1e-10


def _stack(*hs):
    """Channels of UEs at one AP as the (1, K, N) stack the primitives take."""
    return np.array(hs, dtype=complex)[None]


class TestPilotsAndEstimation:
    def test_single_ue_noise_free(self):
        h = np.array([1.0 + 1j, 2.0, -1j])
        y = channel.pilot_rx(_stack(h), 2.0, 4, [0], 0.0, rng_stream(1, "noise"))
        np.testing.assert_allclose(y[0, 0], math.sqrt(8.0) * h, atol=1e-14)

    def test_zero_power_pure_noise(self):
        y = channel.pilot_rx(_stack(np.ones(3)), 0.0, 4, [0], 1.0, rng_stream(2, "noise"))
        assert np.all(np.isfinite(y)) and np.any(y != 0)

    def test_copilot_linearity(self):
        h1 = np.array([1.0, 2.0 + 1j])
        h2 = np.array([-1j, 0.5])
        h3 = np.array([4.0, 4.0j])
        y = channel.pilot_rx(_stack(h1, h2, h3), 1.0, 9, [1, 1, 0], 0.0,
                             rng_stream(3, "noise"))
        np.testing.assert_allclose(y[0, 0], 3.0 * (h1 + h2), atol=1e-14)
        np.testing.assert_allclose(y[0, 1], y[0, 0])
        np.testing.assert_allclose(y[0, 2], 3.0 * h3, atol=1e-14)  # other pilot: no mixing

    def test_noise_drawn_per_group_in_order_of_first_use(self):
        y = channel.pilot_rx(np.zeros((2, 3, 2)), 1.0, 4, [5, 2, 5], 2.0, rng_stream(8, "noise"))
        rng = rng_stream(8, "noise")
        for k in (0, 1):  # pilot 5 is used first, then pilot 2
            re, im = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
            np.testing.assert_array_equal(y[:, k], re + 1j * im)
        np.testing.assert_array_equal(y[:, 2], y[:, 0])

    def test_perfect_estimation_limit(self):
        h = np.array([0.3 - 0.2j, 1.1j])
        y = channel.pilot_rx(_stack(h), 1.0, 16, [0], 0.0, rng_stream(4, "noise"))
        filt = channel.mmse_estimate(np.eye(2)[None, None], 1.0, 16, [0], 1e-14)
        np.testing.assert_allclose(filt[0, 0] @ y[0, 0], h, atol=1e-5)

    def test_no_information_limit(self):
        filt = channel.mmse_estimate(np.eye(2)[None, None], 0.0, 8, [0], 1.0)
        np.testing.assert_allclose(filt[0, 0] @ np.ones(2), 0.0)

    def test_matches_generic_lmmse_oracle(self):
        # independent route: h_hat = C_hy C_yy^-1 y with the observation model,
        # including a contaminating co-pilot UE and one on another pilot
        rng = rng_stream(5, "fading")
        R = np.stack([0.8 * channel.local_scattering_correlation(3, a, 15.0)
                      for a in (0.3, -0.9, 1.2)])
        p, tau, s2 = np.array([0.7, 1.3, 0.4]), 6, 0.4
        y = (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        filt = channel.mmse_estimate(R[None], p, tau, [2, 2, 0], s2)
        c_yy = tau * (p[0] * R[0] + p[1] * R[1]) + s2 * np.eye(3)
        for k in (0, 1):
            oracle = math.sqrt(p[k] * tau) * R[k] @ np.linalg.solve(c_yy, y)
            np.testing.assert_allclose(filt[0, k] @ y, oracle, atol=1e-10)
        alone = math.sqrt(p[2] * tau) * R[2] @ np.linalg.solve(tau * p[2] * R[2] + s2 * np.eye(3), y)
        np.testing.assert_allclose(filt[0, 2] @ y, alone, atol=1e-10)

    def test_mmse_orthogonality_empirical(self):
        # the estimate the pipeline forms is uncorrelated with its error, and
        # the error power is the MMSE g - p tau g^2 / (p tau g + s2)
        rng = rng_stream(9, "fading")
        g, p, tau, s2, n = 1.0, 1.0, 4, 0.5, 100000
        h = math.sqrt(g / 2.0) * (rng.standard_normal((n, 1, 1))
                                  + 1j * rng.standard_normal((n, 1, 1)))
        y = channel.pilot_rx(h, p, tau, [0], s2, rng)
        filt = channel.mmse_estimate(np.full((n, 1, 1, 1), g), p, tau, [0], s2)
        est = (filt @ y[..., None])[:, 0, 0, 0]
        err = h[:, 0, 0] - est
        corr = abs(np.mean(est.conj() * err)) / math.sqrt(
            np.mean(np.abs(est) ** 2) * np.mean(np.abs(err) ** 2))
        assert corr < 1e-2
        mmse = g - p * tau * g ** 2 / (p * tau * g + s2)
        assert np.mean(np.abs(err) ** 2) == pytest.approx(mmse, rel=0.03)

    def test_pilot_assignment_round_robin_and_collision_free(self):
        serving = {0: [0], 1: [0], 2: [0], 3: [1]}
        pilots = channel.assign_pilots(serving, 4, 3)
        assert len(set(pilots[:3])) == 3  # UEs sharing AP 0 get distinct pilots
        assert pilots[3] == 0  # round-robin default

    @staticmethod
    def _assign_pilots_per_ap_loops(serving_sets, K, tau_p):
        # the rule written as per-AP member lists: UE k avoids the pilots of
        # the earlier UEs at each of its APs
        pilots = np.full(K, -1, dtype=int)
        ap_members = {}
        for k in range(K):
            used = set()
            for l in serving_sets.get(k, ()):
                for other in ap_members.get(l, ()):
                    used.add(int(pilots[other]))
            pilot = k % tau_p
            for step in range(tau_p):
                cand = (k + step) % tau_p
                if cand not in used:
                    pilot = cand
                    break
            pilots[k] = pilot
            for l in serving_sets.get(k, ()):
                ap_members.setdefault(l, []).append(k)
        return pilots

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 12).flatmap(lambda K: st.tuples(
        st.just(K),
        st.dictionaries(st.integers(0, max(K - 1, 0)),
                        st.lists(st.integers(0, 7), max_size=5), max_size=K),
        st.integers(1, 5))))
    def test_pilot_assignment_equals_per_ap_loops(self, case):
        K, serving, tau_p = case
        np.testing.assert_array_equal(channel.assign_pilots(serving, K, tau_p),
                                      self._assign_pilots_per_ap_loops(serving, K, tau_p))

    def test_pilot_assignment_edge_cases(self):
        assert channel.assign_pilots({}, 0, 3).shape == (0,)
        np.testing.assert_array_equal(channel.assign_pilots({}, 4, 3), [0, 1, 2, 0])
        np.testing.assert_array_equal(channel.assign_pilots({0: [1], 1: [1]}, 2, 1), [0, 0])

    def test_filters_for_selected_ues_equal_full_solve(self):
        R = np.stack([np.stack([g * channel.local_scattering_correlation(3, a, 12.0)
                                for g, a in ((0.8, 0.3), (1.5, -0.9), (0.4, 1.2), (1.1, 2.0))])
                      for _ in range(2)])
        p, pilots = np.array([0.7, 1.3, 0.4, 0.9]), [1, 0, 1, 2]
        full = channel.mmse_estimate(R, p, 4, pilots, 0.3)
        ues = np.array([1, 3])
        np.testing.assert_array_equal(channel.mmse_estimate(R, p, 4, pilots, 0.3, ues),
                                      full[:, ues])


class TestUplinkData:
    @pytest.mark.parametrize("n,shape", [(1, (7,)), (1, (7, 9)), (2, (7,)), (3, (7, 9)),
                                         (5, (7, 1))])
    def test_product_equals_per_ap_product(self, n, shape):
        rng = np.random.default_rng(n)
        h = rng.standard_normal((6, 7, n)) + 1j * rng.standard_normal((6, 7, n))
        s = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        y = channel.ul_data_rx(h, s, 0.0, rng_stream(1, "noise"))
        np.testing.assert_array_equal(y, np.swapaxes(h, 1, 2) @ s)

    def test_single_ue_perfect_csi_no_noise(self):
        h = np.zeros((2, 1, 3), dtype=complex)
        h[0, 0] = np.array([1.0, 1j, 2.0])
        h[1, 0] = np.array([0.5, -1.0, 1j])
        y = channel.ul_data_rx(h, np.array([[0.7 + 0.1j]]), 0.0, rng_stream(1, "noise"))
        out = channel.mr_combine(h, y)
        expect = float(np.vdot(h, h).real) * (0.7 + 0.1j)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(expect)

    def test_zero_channel_only_noise(self):
        h = np.zeros((1, 1, 2), dtype=complex)
        out = channel.ul_data_rx(h, np.array([1.0]), 1.0, rng_stream(2, "noise"))
        assert np.all(np.isfinite(out))

    def test_orthogonal_channels_no_cross_interference(self):
        h = np.zeros((1, 2, 2), dtype=complex)
        h[0, 0] = np.array([1.0, 0.0])
        h[0, 1] = np.array([0.0, 1.0])
        y = channel.ul_data_rx(h, np.array([1.0, 1.0]), 0.0, rng_stream(3, "noise"))
        z = channel.mr_combine(h, y)
        np.testing.assert_allclose(z, [1.0, 1.0], atol=1e-12)  # no leakage between UEs

    def test_combining_runs_over_the_serving_set(self):
        # a zero combiner row drops that AP from the UE's sum
        y = np.array([[1.0, 2.0], [10.0, 20.0]], dtype=complex)
        v = np.array([[[1.0, 0.0]], [[0.0, 0.0]]], dtype=complex)
        np.testing.assert_allclose(channel.mr_combine(v, y), [1.0])


class TestClutterGeometry:
    def test_counts_and_powers(self):
        cfg = SystemConfig(L=3, K=2, X=2, tau_p=2, seed=4)
        dep = generate_deployment(cfg)
        geom = channel.clutter_geometry(dep, cfg.pathloss)
        p, c = channel.clutter_return(geom, dep, cfg, 0, 0,
                                      float(np.linalg.norm(dep.ap_pos[0] - dep.ue_pos[0])))
        assert p >= 0.0 and c >= 0

    def test_no_scatterers(self):
        cfg = SystemConfig(L=3, K=2, X=2, tau_p=2, clutter_density_per_km2=0.0, seed=4)
        dep = generate_deployment(cfg)
        geom = channel.clutter_geometry(dep, cfg.pathloss)
        p, c = channel.clutter_return(geom, dep, cfg, 0, 0, 100.0)
        assert p == 0.0 and c == 0


def lobe_oracle(dep, cfg, l, k, link_dist):
    """The per-link lobe rule the batched kernel replaced: the bearing
    difference wrapped to (-pi, pi] lies within the half-angle, and the
    scatterer is within range. Distance (floored at d0) and two-way gain are
    computed here from the positions."""
    diff = dep.scatterer_pos - dep.ap_pos[l]
    dist = np.maximum(np.hypot(diff[:, 0], diff[:, 1]), cfg.pathloss.d0_m)
    gain = channel.db_to_lin(-2.0 * channel.path_loss_db(cfg.pathloss, dist))
    ang = np.arctan2(diff[:, 1], diff[:, 0])
    to_ue = dep.ue_pos[k] - dep.ap_pos[l]
    dphi = np.angle(np.exp(1j * (ang - np.arctan2(to_ue[1], to_ue[0]))))
    in_lobe = ((np.abs(dphi) <= channel.BEAM_HALF_ANGLE_FACTOR / cfg.N)
               & (dist <= channel.CLUTTER_RANGE_FACTOR * link_dist))
    power = cfg.sigma_c2 * float(channel.dbm_to_watts(cfg.p_t_dbm)) * float(
        np.sum(dep.scatterer_refl[in_lobe] * gain[in_lobe]))
    return power, int(np.count_nonzero(in_lobe))


# _DENSE_FRACTION values that send every link through one pass of
# `clutter_returns`: no sector box holds more than twice the scatterers, and
# every box holds more than -1 times them.
ALL_GRID, ALL_DENSE = 2.0, -1.0


def routed_returns(route, dep, cfg, *links):
    """`clutter_returns` on a fresh geometry with the routing fraction `route`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(channel, "_DENSE_FRACTION", route)
        return channel.clutter_returns(channel.clutter_geometry(dep, cfg.pathloss), dep, cfg,
                                       *links)


def make_deployment(ap, ue, scat, refl=None):
    ap, ue = np.asarray(ap, dtype=float), np.asarray(ue, dtype=float)
    scat = np.asarray(scat, dtype=float).reshape(-1, 2)
    return Deployment(ap_pos=ap, ue_pos=ue, ue_service=np.zeros(len(ue), dtype=int),
                      ue_power_dbm=np.zeros(len(ue)), scatterer_pos=scat,
                      scatterer_refl=np.ones(len(scat)) if refl is None else np.asarray(refl))


def link_distance(dep, cfg, l, k):
    return max(float(np.linalg.norm(dep.ap_pos[l] - dep.ue_pos[k])), cfg.pathloss.d0_m)


coord = st.tuples(st.floats(0.0, 300.0), st.floats(0.0, 300.0))


class TestClutterReturnsOracle:
    @settings(max_examples=150, deadline=None)
    @given(ap=st.lists(coord, min_size=1, max_size=4),
           ue=st.lists(coord, min_size=1, max_size=3),
           scat=st.lists(st.tuples(coord, st.floats(0.0, 5.0)), max_size=15),
           n_antennas=st.integers(1, 8),
           reach=st.floats(0.3, 3.0),
           order_seed=st.integers(0, 2 ** 16),
           route=st.sampled_from([channel._DENSE_FRACTION, ALL_GRID, ALL_DENSE]))
    def test_matches_per_link_rule(self, ap, ue, scat, n_antennas, reach, order_seed, route):
        dep = make_deployment(ap, ue, [p for p, _ in scat], [r for _, r in scat])
        cfg = SystemConfig(N=n_antennas)
        l_idx, k_idx = np.nonzero(np.ones((dep.L, dep.K), dtype=bool))
        perm = np.random.default_rng(order_seed).permutation(l_idx.size)
        l_idx, k_idx = l_idx[perm], k_idx[perm]
        dist = np.array([reach * link_distance(dep, cfg, l, k) for l, k in zip(l_idx, k_idx)])
        power, count = routed_returns(route, dep, cfg, l_idx, k_idx, dist)
        geom = channel.clutter_geometry(dep, cfg.pathloss)
        for i, (l, k) in enumerate(zip(l_idx, k_idx)):
            p_ref, c_ref = lobe_oracle(dep, cfg, l, k, dist[i])
            assert count[i] == c_ref
            assert power[i] == pytest.approx(p_ref, rel=1e-12, abs=0.0)
            if route == channel._DENSE_FRACTION:
                assert channel.clutter_return(geom, dep, cfg, l, k, dist[i]) == (power[i], count[i])

    def check_counts(self, dep, cfg, links, expected):
        """Counts equal `expected` and the oracle's through the default
        routing, the grid pass alone and the dense pass alone."""
        l_idx, k_idx, dist = (np.array(v) for v in zip(*links))
        for route in (channel._DENSE_FRACTION, ALL_GRID, ALL_DENSE):
            power, count = routed_returns(route, dep, cfg, l_idx, k_idx, dist)
            np.testing.assert_array_equal(count, expected)
            for i, (l, k, d) in enumerate(links):
                p_ref, c_ref = lobe_oracle(dep, cfg, l, k, d)
                assert count[i] == c_ref
                assert power[i] == pytest.approx(p_ref, rel=1e-12, abs=0.0)
                assert (power[i] > 0) == (count[i] > 0)

    def test_scatterer_on_ap(self):
        # a scatterer on top of its AP has bearing 0, at the clamped distance d0
        dep = make_deployment([[0.0, 0.0]], [[10.0, 0.0], [0.0, 10.0], [-10.0, 0.0]],
                              [[0.0, 0.0]])
        cfg = SystemConfig(N=4)  # half-angle 0.5 rad
        self.check_counts(dep, cfg, [(0, 0, 10.0), (0, 1, 10.0), (0, 2, 10.0)], [1, 0, 0])
        cfg = SystemConfig(N=1)  # half-angle 2 rad
        self.check_counts(dep, cfg, [(0, 0, 10.0), (0, 1, 10.0), (0, 2, 10.0)], [1, 1, 0])

    def test_ue_on_ap(self):
        # a UE on top of its AP has bearing 0 and the link distance d0
        dep = make_deployment([[5.0, 5.0]], [[5.0, 5.0]],
                              [[5.5, 5.0], [5.0, 5.5], [4.5, 5.0], [7.0, 5.0]])
        cfg = SystemConfig(N=4)
        self.check_counts(dep, cfg, [(0, 0, cfg.pathloss.d0_m)], [1])

    def test_range_boundary_inclusive(self):
        assert channel.CLUTTER_RANGE_FACTOR * 10.0 == 12.0
        dep = make_deployment([[0.0, 0.0]], [[10.0, 0.0]],
                              [[12.0, 0.0], [np.nextafter(12.0, 13.0), 0.0]])
        cfg = SystemConfig(N=4)
        assert float(np.hypot(*(dep.scatterer_pos[0] - dep.ap_pos[0]))) == 12.0
        self.check_counts(dep, cfg, [(0, 0, 10.0)], [1])

    def test_one_antenna_half_angle_two_radians(self):
        angles = np.array([1.9, -1.9, 2.1, -2.1, math.pi])
        scat = 5.0 * np.column_stack([np.cos(angles), np.sin(angles)])
        dep = make_deployment([[0.0, 0.0]], [[10.0, 0.0]], scat)
        self.check_counts(dep, SystemConfig(N=1), [(0, 0, 10.0)], [2])

    def test_zero_scatterers(self):
        dep = make_deployment([[0.0, 0.0], [50.0, 0.0]], [[10.0, 0.0]], np.zeros((0, 2)))
        cfg = SystemConfig(N=4)
        geom = channel.clutter_geometry(dep, cfg.pathloss)
        power, count = channel.clutter_returns(geom, dep, cfg, [0, 1], [0, 0], [10.0, 40.0])
        np.testing.assert_array_equal(power, [0.0, 0.0])
        np.testing.assert_array_equal(count, [0, 0])

    def test_empty_link_set(self):
        dep = make_deployment([[0.0, 0.0]], [[10.0, 0.0]], [[5.0, 0.0]])
        cfg = SystemConfig(N=4)
        geom = channel.clutter_geometry(dep, cfg.pathloss)
        power, count = channel.clutter_returns(geom, dep, cfg, [], [], [])
        assert power.shape == (0,) and count.shape == (0,)
        assert count.dtype.kind == "i"

    def test_block_size_does_not_change_results(self, monkeypatch):
        cfg = SystemConfig(L=20, K=8, N=5, tau_p=5, tau_c=200, X=3, area_side_m=250.0, seed=7)
        dep = generate_deployment(cfg)
        budget = channel.link_budget(dep, cfg)
        l_idx, k_idx = np.nonzero(np.ones((cfg.L, cfg.K), dtype=bool))
        args = (dep, cfg, l_idx, k_idx, budget.distance_m[l_idx, k_idx])
        whole = routed_returns(channel._DENSE_FRACTION, *args)
        assert whole[1].sum() > 0
        n_scat = dep.scatterer_pos.shape[0]
        for block in (1, 7, 3 * n_scat + 1):
            monkeypatch.setattr(channel, "_LOBE_TESTS_PER_BLOCK", block)
            monkeypatch.setattr(channel, "_GRID_TESTS_PER_BLOCK", block)
            monkeypatch.setattr(channel, "_LINKS_PER_CHUNK", block)
            for got, want in zip(routed_returns(channel._DENSE_FRACTION, *args), whole):
                np.testing.assert_array_equal(got, want)

    def test_link_result_independent_of_the_other_links(self):
        # each link is routed by its own sector, so a shuffled subset of the
        # links gets bit-identical results to the all-link call
        cfg = SystemConfig(L=60, K=20, area_side_m=400.0, seed=5)
        dep = generate_deployment(cfg)
        budget = channel.link_budget(dep, cfg)
        geom = channel.clutter_geometry(dep, cfg.pathloss)
        l_idx, k_idx = np.nonzero(np.ones((cfg.L, cfg.K), dtype=bool))
        dist = budget.distance_m[l_idx, k_idx]
        power, count = channel.clutter_returns(geom, dep, cfg, l_idx, k_idx, dist)
        n_cand = channel._sector_cells(
            geom, dep.ap_pos[l_idx], *channel._bearing(*(dep.ue_pos[k_idx] - dep.ap_pos[l_idx]).T),
            channel.CLUTTER_RANGE_FACTOR * dist, channel.BEAM_HALF_ANGLE_FACTOR / cfg.N)[-1]
        routed_dense = n_cand > channel._DENSE_FRACTION * dep.scatterer_pos.shape[0]
        assert routed_dense.any() and not routed_dense.all()
        sub = np.random.default_rng(0).permutation(l_idx.size)[:l_idx.size // 3]
        fresh = channel.clutter_geometry(dep, cfg.pathloss)
        p_sub, c_sub = channel.clutter_returns(fresh, dep, cfg, l_idx[sub], k_idx[sub], dist[sub])
        np.testing.assert_array_equal(p_sub, power[sub])
        np.testing.assert_array_equal(c_sub, count[sub])

    def test_scatterer_on_cell_border_sector_edge_and_range_edge(self):
        # APs on an 80 m square give a 20 m cell from (0, 0); the scatterers
        # sit on cell borders, one on the lobe's range edge and one on the
        # corner where the sector edge meets the range edge
        half = channel.BEAM_HALF_ANGLE_FACTOR / 4
        corner = 24.0 * np.array([math.cos(half), math.sin(half)])
        scat = [[0.0, 0.0], [20.0, 0.0], [24.0, 0.0], [20.0, 20.0], corner, [80.0, 80.0]]
        dep = make_deployment([[0.0, 0.0], [80.0, 0.0], [0.0, 80.0], [80.0, 80.0]],
                              [[20.0, 0.0], [40.0, 40.0]], scat)
        cfg = SystemConfig(N=4)
        geom = channel.clutter_geometry(dep, cfg.pathloss)
        assert geom.cell_m == 20.0 and list(geom.origin) == [0.0, 0.0]
        expected = [lobe_oracle(dep, cfg, 0, 0, 20.0)[1], lobe_oracle(dep, cfg, 3, 1, 56.6)[1]]
        assert expected[0] >= 3  # the AP's own, the border and the range-edge scatterer
        self.check_counts(dep, cfg, [(0, 0, 20.0), (3, 1, 56.6)], expected)

    def test_sector_box_larger_than_the_area(self):
        rng = np.random.default_rng(4)
        dep = make_deployment([[50.0, 50.0], [0.0, 0.0]], [[60.0, 55.0], [-1.0, 0.5]],
                              rng.uniform(0.0, 100.0, (40, 2)))
        cfg = SystemConfig(N=1)
        links = [(0, 0, 1e4), (1, 0, 1e3), (1, 1, 5e3), (0, 1, 2e6)]
        self.check_counts(dep, cfg, links, [lobe_oracle(dep, cfg, *link)[1] for link in links])

    def test_single_cell(self):
        dep = make_deployment([[0.0, 0.0], [1000.0, 1000.0]], [[500.0, 500.0]],
                              [[500.0, 500.0], [500.5, 500.2], [499.8, 500.9]])
        cfg = SystemConfig(N=1)
        assert channel.clutter_geometry(dep, cfg.pathloss).shape == (1, 1)
        self.check_counts(dep, cfg, [(0, 0, 710.0), (1, 0, 710.0), (0, 0, 10.0)], [3, 3, 0])

    @pytest.mark.parametrize("ue", [[0.0, 10.0], [0.0, -10.0], [10.0, 0.0], [-10.0, 0.0]])
    def test_one_antenna_ue_on_an_axis(self, ue):
        # half-angle 2 rad: the cone holds the two axis directions beside the
        # UE's, not the one opposite it
        angles = np.linspace(-math.pi, math.pi, 24, endpoint=False)
        scat = np.concatenate([r * np.column_stack([np.cos(angles), np.sin(angles)])
                               for r in (5.0, 11.9, 12.1)])
        dep = make_deployment([[0.0, 0.0]], [ue], scat)
        cfg = SystemConfig(N=1)
        expected = lobe_oracle(dep, cfg, 0, 0, 10.0)[1]
        assert expected == 2 * 15  # 15 of 24 bearings lie within 2 rad, at two radii
        self.check_counts(dep, cfg, [(0, 0, 10.0)], [expected])
