import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cfmimo import association, channel, comm_perf
from cfmimo.comm_perf import QPSK
from cfmimo.scenario import (
    Deployment,
    PathLossParams,
    ServiceType,
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

    def test_two_way_gain_is_the_doubled_loss(self):
        # the clutter passes' two-way gain, bit for bit, and written over `out`
        d = np.array([0.0, PL.d0_m / 2, PL.d0_m, 1e3, 1e150])
        expected = channel.db_to_lin(-2 * channel.path_loss_db(PL, d))
        assert channel._two_way_gain(PL, d).tobytes() == expected.tobytes()
        out = np.empty_like(d)
        assert channel._two_way_gain(PL, d, out=out) is out
        assert out.tobytes() == expected.tobytes() and d[-1] == 1e150

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
        # the alias kept for perfbench/workloads.py and perfbench/tracer.py
        cfg = SystemConfig(L=5, K=2, X=2, tau_p=2, seed=3)
        dep = generate_deployment(cfg)
        budget = channel.link_budget(dep, cfg)
        np.testing.assert_array_equal(budget.p_r_dbm, budget.rssi_dbm)

    def test_plain_arithmetic(self):
        # P_t 30 dBm over a 90 dB loss
        assert channel.rssi_dbm(30.0, 90.0) == -60.0

    @pytest.mark.parametrize("n_aps", [1, 2, 37, 200])
    @pytest.mark.parametrize("sigma", [4.0, 0.0])
    def test_in_place_matches_one_call_formula(self, n_aps, sigma):
        # the budget is computed in place over its outputs, with the shadowing
        # drawn as scaled standard normals; it equals the one-call formula
        # bit for bit, with no shadowing too (where 0 * z is -0.0 for z < 0)
        cfg = SystemConfig(L=200, K=120, area_side_m=1000.0, seed=21,
                           pathloss=PathLossParams(shadow_sigma_db=sigma))
        full = generate_deployment(cfg)
        dep = Deployment(full.ap_pos[:n_aps], full.ue_pos, full.ue_service, full.scatterer_pos)
        budget = channel.link_budget(dep, cfg)
        pl = cfg.pathloss
        dx = dep.ap_pos[:, None, 0] - dep.ue_pos[None, :, 0]
        dy = dep.ap_pos[:, None, 1] - dep.ue_pos[None, :, 1]
        d = np.maximum(np.sqrt(dx * dx + dy * dy), pl.d0_m)
        shadow = rng_stream(cfg.seed, "shadow").normal(0.0, pl.shadow_sigma_db, size=d.shape)
        loss = np.log10(d / pl.d0_m) * (10.0 * pl.gamma_pl) + pl.pl0_db + shadow
        for got, want in ((budget.distance_m, d), (budget.pl_db, loss),
                          (budget.rssi_dbm, cfg.p_t_dbm - loss)):
            assert got.shape == want.shape == (dep.L, dep.K)
            assert got.tobytes() == want.tobytes()


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


def _unit_noise(tau_p, L, n, seed=1):
    """(tau_p, L, n) complex normals with standard normal parts, as `pilot_rx` takes."""
    re, im = rng_stream(seed, "noise").standard_normal((2, tau_p, L, n))
    return re + 1j * im


def _filters(factors, sigma2):
    """The filters B diag(1 / (lam + sigma2)) U^H of the factors that
    `mmse_estimate` returns, one per link; the identity model's scalars
    B / (lam + sigma2)."""
    B, lam, U_h = factors
    if U_h is None:
        return B / (lam + sigma2)
    return B / (lam + sigma2)[..., None, :] @ U_h


class TestPilotsAndEstimation:
    def test_single_ue_noise_free(self):
        # pilot power 2: the channel sqrt(2) h
        h = np.array([1.0 + 1j, 2.0, -1j])
        y = channel.pilot_rx(_stack(math.sqrt(2.0) * h), 4, [0], _unit_noise(4, 1, 3), [0.0])
        assert y.shape == (1, 4, 1, 3)
        np.testing.assert_allclose(y[0, 0, 0], math.sqrt(8.0) * h, atol=1e-14)
        np.testing.assert_array_equal(y[0, 1:], 0.0)  # unused pilots hold no signal

    def test_zero_power_pure_noise(self):
        y = channel.pilot_rx(_stack(np.zeros(3)), 4, [0], _unit_noise(4, 1, 3, 2), [1.0])
        assert np.all(np.isfinite(y)) and np.all(y != 0)

    def test_copilot_linearity(self):
        h1 = np.array([1.0, 2.0 + 1j])
        h2 = np.array([-1j, 0.5])
        h3 = np.array([4.0, 4.0j])
        y = channel.pilot_rx(_stack(h1, h2, h3), 9, [1, 1, 0], _unit_noise(9, 1, 2, 3),
                             [0.0])[0]
        np.testing.assert_allclose(y[1, 0], 3.0 * (h1 + h2), atol=1e-14)
        np.testing.assert_allclose(y[0, 0], 3.0 * h3, atol=1e-14)  # other pilot: no mixing

    def test_noise_indexed_by_pilot_value(self):
        # pilot t at AP l reads noise[t, l] whatever the UE order, scaled to
        # each variance
        noise = _unit_noise(6, 2, 2, 8)
        y = channel.pilot_rx(np.zeros((2, 3, 2)), 6, [5, 2, 5], noise, [2.0, 0.5])
        np.testing.assert_array_equal(y[0], noise)
        np.testing.assert_array_equal(y[1], 0.5 * noise)
        with pytest.raises(ValueError, match="pilot indices"):
            channel.pilot_rx(np.zeros((2, 3, 2)), 5, [5, 2, 5], noise, [1.0])

    @pytest.mark.parametrize("pilots", [[0, -1], [0, 2]])
    def test_estimator_rejects_pilot_out_of_range(self, pilots):
        # pilot -1 would otherwise leave its UE out of Q and read the last
        # pilot's eigenvectors
        R = np.ones((1, 2, 1, 1)) * channel.local_scattering_correlation(3, 0.4, 10.0)
        with pytest.raises(ValueError, match=r"pilot indices must lie in \[0, 2\)"):
            channel.mmse_estimate(R, 2, pilots, [0, 0], [0, 1])

    @pytest.mark.parametrize("tau_p,n", [(1, 1), (1, 4), (3, 1), (4, 5), (10, 5)])
    def test_group_sums_equal_membership_einsum(self, tau_p, n):
        # the per-pilot sums with the 0/1 pilot-membership matrix, to 1e-14 of
        # the summed magnitudes (the sums may run in another order); UE k's
        # pilot power p_k is its channel sqrt(p_k) h_k
        rng = np.random.default_rng(tau_p * 10 + n)
        h = rng.standard_normal((7, 12, n)) + 1j * rng.standard_normal((7, 12, n))
        p, pilots = rng.random(12) + 0.1, rng.integers(0, tau_p, 12)
        y = channel.pilot_rx(np.sqrt(p)[:, None] * h, tau_p, pilots, _unit_noise(tau_p, 7, n),
                             [0.0])[0]
        weights = np.sqrt(tau_p * p)[:, None] * (pilots[:, None] == np.arange(tau_p))
        ref = np.einsum("lkn,kt->tln", h, weights)
        scale = np.einsum("lkn,kt->tln", np.abs(h), weights)
        assert np.all(np.abs(y - ref) <= 1e-14 * scale)

    def test_perfect_estimation_limit(self):
        h = np.array([0.3 - 0.2j, 1.1j])
        y = channel.pilot_rx(_stack(h), 16, [0], _unit_noise(16, 1, 2, 4), [0.0])[0]
        filt = _filters(channel.mmse_estimate(np.eye(2)[None, None], 16, [0], [0], [0]), 1e-14)
        np.testing.assert_allclose(filt[0] @ y[0, 0], h, atol=1e-5)

    def test_no_information_limit(self):
        # pilot power 0: the correlation 0 R
        filt = _filters(channel.mmse_estimate(0.0 * np.eye(2)[None, None], 8, [0], [0], [0]),
                        1.0)
        np.testing.assert_allclose(filt[0] @ np.ones(2), 0.0)

    def test_matches_generic_lmmse_oracle(self):
        # independent route: h_hat = C_hy C_yy^-1 y with the observation model,
        # including a contaminating co-pilot UE and one on another pilot, whose
        # pilot powers p are folded into the correlations p R. One
        # factorization serves every noise variance, applied both as the
        # composed filter and as the SER Monte-Carlo applies it: y rotated by
        # U^H, scaled, times B
        rng = rng_stream(5, "fading")
        p, tau, pilots = np.array([0.7, 1.3, 0.4]), 6, np.array([2, 2, 0])
        R = np.stack([pk * 0.8 * channel.local_scattering_correlation(3, a, 15.0)
                      for pk, a in zip(p, (0.3, -0.9, 1.2))])
        y = (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        factors = channel.mmse_estimate(R[None], tau, pilots, [0, 0, 0], [0, 1, 2])
        B, lam, U_h = factors
        for s2 in (1e-3, 0.3, 10.0):
            filt = _filters(factors, s2)
            for k in range(3):
                co = pilots == pilots[k]
                c_yy = tau * np.tensordot(co, R, 1) + s2 * np.eye(3)
                oracle = math.sqrt(tau) * R[k] @ np.linalg.solve(c_yy, y)
                factored = B[k] @ (U_h[k] @ y / (lam[k] + s2))
                np.testing.assert_allclose(filt[k] @ y, oracle, atol=1e-10)
                np.testing.assert_allclose(factored, oracle, atol=1e-10)

    def test_rank_one_correlation_at_vanishing_noise(self):
        # R = p g a a^H: Q has one nonzero eigenvalue tau p g |a|^2 and three
        # of rounding dust, whose directions the filter drops; what remains is
        # the closed form sqrt(tau) R / (tau p g |a|^2 + sigma2)
        a = np.exp(1j * math.pi * np.arange(4) * math.sin(0.7))
        g, p, tau, s2 = 0.37, 1.3, 5, 1e-30
        R = p * g * np.outer(a, a.conj())
        filt = _filters(channel.mmse_estimate(R[None, None], tau, [3], [0], [0]), s2)[0]
        assert np.all(np.isfinite(filt))
        closed = math.sqrt(tau) * R / (tau * p * g * np.vdot(a, a).real + s2)
        np.testing.assert_allclose(filt, closed, rtol=0, atol=1e-13 * np.abs(closed).max())

    def test_mmse_orthogonality_empirical(self):
        # the estimate the pipeline forms is uncorrelated with its error, and
        # the error power is the MMSE g - tau g^2 / (tau g + s2)
        rng = rng_stream(9, "fading")
        g, tau, s2, n = 1.0, 4, 0.5, 100000
        h = math.sqrt(g / 2.0) * (rng.standard_normal((n, 1, 1))
                                  + 1j * rng.standard_normal((n, 1, 1)))
        noise = rng.standard_normal((tau, n, 1)) + 1j * rng.standard_normal((tau, n, 1))
        y = channel.pilot_rx(h, tau, [0], noise, [s2])[0]
        filt = _filters(channel.mmse_estimate(np.full((n, 1, 1, 1), g), tau, [0], np.arange(n),
                                              np.zeros(n, dtype=int)), s2)
        est = (filt @ y[0, :, :, None])[:, 0, 0]
        err = h[:, 0, 0] - est
        corr = abs(np.mean(est.conj() * err)) / math.sqrt(
            np.mean(np.abs(est) ** 2) * np.mean(np.abs(err) ** 2))
        assert corr < 1e-2
        mmse = g - tau * g ** 2 / (tau * g + s2)
        assert np.mean(np.abs(err) ** 2) == pytest.approx(mmse, rel=0.03)

    def test_pilot_assignment_round_robin_and_collision_free(self):
        A = np.array([[1, 1, 1, 0], [0, 0, 0, 1]])
        pilots, _ = channel.assign_pilots(A, 3)
        assert len(set(pilots[:3])) == 3  # UEs sharing AP 0 get distinct pilots
        assert pilots[3] == 0  # round-robin default

    @staticmethod
    def _assign_pilots_per_ap_loops(serving_sets, K, tau_p):
        # the rule written as per-AP member lists: UE k avoids the pilots of
        # the earlier UEs at each of its APs. Also returns the number of UE
        # pairs that share an AP and a pilot, a pair sharing two APs once.
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
        pairs = {(i, j) for members in ap_members.values() for i in members for j in members
                 if i < j and pilots[i] == pilots[j]}
        return pilots, len(pairs)

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.int8, st.tuples(st.integers(0, 8), st.integers(0, 12)),
                  elements=st.integers(0, 1)),
           st.integers(1, 5))
    def test_pilot_assignment_equals_per_ap_loops(self, A, tau_p):
        K = A.shape[1]
        serving = {k: np.flatnonzero(A[:, k]) for k in range(K)}
        pilots, pairs = self._assign_pilots_per_ap_loops(serving, K, tau_p)
        got, collisions = channel.assign_pilots(A, tau_p)
        np.testing.assert_array_equal(got, pilots)
        assert collisions == pairs

    def test_pilot_assignment_edge_cases(self):
        assert channel.assign_pilots(np.zeros((3, 0)), 3)[0].shape == (0,)  # K = 0
        np.testing.assert_array_equal(channel.assign_pilots(np.zeros((0, 4)), 3)[0],  # L = 0
                                      [0, 1, 2, 0])
        np.testing.assert_array_equal(channel.assign_pilots([[0, 0], [1, 1]], 1)[0], [0, 0])

    def test_pilot_fallback_keeps_round_robin(self):
        # three UEs at one AP and two pilots: UE 2 finds both taken and keeps
        # 2 mod 2; UE 3, alone at AP 1, is free to take its own 3 mod 2
        A = np.array([[1, 1, 1, 0], [0, 0, 0, 1]])
        pilots, collisions = channel.assign_pilots(A, 2)
        np.testing.assert_array_equal(pilots, [0, 1, 0, 1])
        assert collisions == 1  # only (0, 2) share an AP
        # five UEs at one AP and three pilots: UEs 3 and 4 fall back to 0 and 1
        pilots, collisions = channel.assign_pilots(np.ones((1, 5)), 3)
        np.testing.assert_array_equal(pilots, [0, 1, 2, 0, 1])
        assert collisions == 2

    def test_pilot_collisions_count_pairs_once(self):
        # one pilot: UEs 0 and 1 share two APs, one pair; UE 2 shares AP 1
        # with both
        assert channel.assign_pilots([[1, 1], [1, 1]], 1)[1] == 1
        assert channel.assign_pilots([[1, 1, 0], [1, 1, 1]], 1)[1] == 3
        # two pilots: UE 2 finds both taken at AP 1 and keeps 2 mod 2, UE 0's
        assert channel.assign_pilots([[1, 1, 0], [1, 1, 1]], 2)[1] == 1
        assert channel.assign_pilots(np.eye(3), 1)[1] == 0  # no shared AP

    def test_identity_scalars_equal_solve_with_identity(self):
        # the UEs' pilot powers folded into the gains
        rng = np.random.default_rng(12)
        g = 10.0 ** rng.uniform(-3, 2, (6, 7))
        p, pilots, ues = rng.uniform(0.2, 2.0, 7), [0, 2, 0, 1, 2, 0, 3], [1, 2, 4, 6]
        g = g * p
        l_idx, k_idx = np.repeat(np.arange(6), 4), np.tile(ues, 6)
        factors = channel.mmse_estimate(g, 4, pilots, l_idx, k_idx)
        scalar = _filters(factors, 0.3)
        full = _filters(channel.mmse_estimate(g[..., None, None] * np.eye(3), 4, pilots, l_idx,
                                              k_idx), 0.3)
        assert scalar.shape == (24,) and factors[2] is None
        np.testing.assert_allclose(full, scalar[..., None, None] * np.eye(3), rtol=1e-15,
                                   atol=0.0)

    def test_filters_for_selected_ues_equal_full_solve(self):
        # each link's factors do not depend on which other links share the
        # call, also when the call reads the correlations of one AP only;
        # the pilot powers p are folded into the correlations
        p, pilots = np.array([0.7, 1.3, 0.4, 0.9]), [1, 0, 1, 2]
        R = np.stack([np.stack([pk * g * channel.local_scattering_correlation(3, a, 12.0)
                                for pk, (g, a) in zip(p, ((0.8, 0.3), (1.5, -0.9), (0.4, 1.2),
                                                          (1.1, 2.0)))])
                      for _ in range(2)])
        l_all, k_all = np.repeat(np.arange(2), 4), np.tile(np.arange(4), 2)
        full = channel.mmse_estimate(R, 4, pilots, l_all, k_all)
        for links in ([5, 7], [3, 5, 0]):
            part = channel.mmse_estimate(R, 4, pilots, l_all[links], k_all[links])
            for a, b in zip(part, full):
                np.testing.assert_array_equal(a, b[links])


# The per-AP uplink data path, each AP's received data with per-antenna noise
# then MR combining: the oracle of `comm_perf.ser_monte_carlo`, which draws
# the combined outputs directly.

def _ul_data_rx(h_by_ap, symbols, sigma2, rng):
    """Received uplink data y_l = sum_k h_lk s_k + n_l for every AP.

    h_by_ap has shape (L, K, N); symbols (K,) or (K, S). Returns (L, N) or
    (L, N, S); the noise is drawn as all real parts, then all imaginary parts.
    """
    h = np.swapaxes(np.asarray(h_by_ap, dtype=complex), 1, 2)
    symbols = np.asarray(symbols, dtype=complex)
    L, n, K = h.shape
    if n > 1 and symbols.ndim == 2 and symbols.shape[1] > 1:
        # numpy takes a single antenna row or a single symbol column through
        # matrix-vector kernels that round differently, so those keep the
        # per-AP product
        y = (np.ascontiguousarray(h).reshape(L * n, K) @ symbols).reshape(L, n, -1)
    else:
        y = h @ symbols
    y.real += math.sqrt(sigma2 / 2.0) * rng.standard_normal(y.shape)
    y.imag += math.sqrt(sigma2 / 2.0) * rng.standard_normal(y.shape)
    return y


def _mr_combine(combiners, y_by_ap):
    """MR outputs z_k = sum_l v_lk^H y_l over the APs where combiners is nonzero."""
    return np.tensordot(np.conjugate(combiners), np.asarray(y_by_ap, dtype=complex),
                        axes=([0, 2], [0, 1]))


class TestUplinkData:
    @pytest.mark.parametrize("n,shape", [(1, (7,)), (1, (7, 9)), (2, (7,)), (3, (7, 9)),
                                         (5, (7, 1))])
    def test_product_equals_per_ap_product(self, n, shape):
        rng = np.random.default_rng(n)
        h = rng.standard_normal((6, 7, n)) + 1j * rng.standard_normal((6, 7, n))
        s = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        y = _ul_data_rx(h, s, 0.0, rng_stream(1, "noise"))
        np.testing.assert_array_equal(y, np.swapaxes(h, 1, 2) @ s)

    def test_single_ue_perfect_csi_no_noise(self):
        h = np.zeros((2, 1, 3), dtype=complex)
        h[0, 0] = np.array([1.0, 1j, 2.0])
        h[1, 0] = np.array([0.5, -1.0, 1j])
        y = _ul_data_rx(h, np.array([[0.7 + 0.1j]]), 0.0, rng_stream(1, "noise"))
        out = _mr_combine(h, y)
        expect = float(np.vdot(h, h).real) * (0.7 + 0.1j)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(expect)

    def test_zero_channel_only_noise(self):
        h = np.zeros((1, 1, 2), dtype=complex)
        out = _ul_data_rx(h, np.array([1.0]), 1.0, rng_stream(2, "noise"))
        assert np.all(np.isfinite(out))

    def test_orthogonal_channels_no_cross_interference(self):
        h = np.zeros((1, 2, 2), dtype=complex)
        h[0, 0] = np.array([1.0, 0.0])
        h[0, 1] = np.array([0.0, 1.0])
        y = _ul_data_rx(h, np.array([1.0, 1.0]), 0.0, rng_stream(3, "noise"))
        z = _mr_combine(h, y)
        np.testing.assert_allclose(z, [1.0, 1.0], atol=1e-12)  # no leakage between UEs

    def test_combining_runs_over_the_serving_set(self):
        # a zero combiner row drops that AP from the UE's sum
        y = np.array([[1.0, 2.0], [10.0, 20.0]], dtype=complex)
        v = np.array([[[1.0, 0.0]], [[0.0, 0.0]]], dtype=complex)
        np.testing.assert_allclose(_mr_combine(v, y), [1.0])


def _ser_errors_per_ap(dep, cfg, A, constel, snr_db_grid, n_symbols, seed, reference,
                       perfect_csi):
    """Symbol errors per SNR point of the per-AP data path: each AP's received
    data, its noise drawn per antenna, MR-combined over the serving sets.

    Fading, pilot noise and symbols are drawn from the block streams of
    `comm_perf.ser_monte_carlo`, at unit UE power and on the SNR axis of the
    median gain over the serving links of `reference`, so only the data
    noise differs between the two paths.
    """
    A = np.asarray(A) == 1
    K, L, N = dep.K, dep.L, cfg.N
    gain = channel.link_budget(dep, cfg).gain_lin
    g = gain / float(np.median(gain[np.asarray(reference) == 1]))
    data_ues = dep.ue_indices(ServiceType.COM, ServiceType.JCAS)
    aps = np.flatnonzero(A[:, data_ues].any(axis=1))
    pilots, _ = channel.assign_pilots(A, cfg.tau_p)
    C, C_sqrt = channel.link_correlations(dep, cfg, aps)
    serves = A[np.ix_(aps, data_ues)][..., None]
    sym_per_block = max(1, cfg.tau_c - cfg.tau_p)
    if not perfect_csi:
        R = g[aps] if C is None else g[aps][..., None, None] * C
        l_idx, k_idx = np.repeat(np.arange(aps.size), data_ues.size), np.tile(data_ues, aps.size)
        factors = channel.mmse_estimate(R, cfg.tau_p, pilots, l_idx, k_idx)
    counts = []
    for snr_db in snr_db_grid:
        sigma2 = 10.0 ** (-snr_db / 10.0)
        if not perfect_csi:
            filt = _filters(factors, sigma2)
            if C is None:
                filt = filt[..., None, None] * np.eye(N)
            filt = filt.reshape(aps.size, data_ues.size, N, N) * serves[..., None]
        errors = 0
        for block, done in enumerate(range(0, n_symbols, sym_per_block)):
            nsym = min(sym_per_block, n_symbols - done)
            rng = rng_stream(seed, "mc", comm_perf.SER_BLOCK_STREAM, block)
            # each entry a complex normal drawn real part first
            w = rng.standard_normal((L, K, N, 2)) @ [1.0, 1j]
            h = np.sqrt(g[aps] / 2.0)[..., None] * (
                w[aps] if C_sqrt is None else (C_sqrt @ w[aps][..., None])[..., 0])
            pilot_noise = (rng.standard_normal((cfg.tau_p, L, N, 2)) @ [1.0, 1j])[:, aps]
            idx = rng.integers(0, constel.size, (data_ues.size, nsym))
            if perfect_csi:
                h_hat = serves * h[:, data_ues]
            else:
                y_p = channel.pilot_rx(h, cfg.tau_p, pilots, pilot_noise, [sigma2])[0]
                h_hat = (filt @ y_p[pilots[data_ues]].transpose(1, 0, 2)[..., None])[..., 0]
            z = _mr_combine(h_hat, _ul_data_rx(h[:, data_ues], constel[idx], sigma2, rng))
            v_norm2 = np.einsum("lkn,lkn->k", h_hat.conj(), h_hat).real
            det = np.argmin(np.abs(z[..., None] - v_norm2[:, None, None] * constel) ** 2,
                            axis=-1)
            errors += int(np.count_nonzero(det != idx))
        counts.append(errors)
    return counts


class TestCombinedDomainSer:
    """`comm_perf.ser_monte_carlo` draws the MR outputs' noise in the combined
    domain; on the same fading, pilot and symbol draws its error counts agree
    with the per-AP path's within binomial bounds."""

    GRID = [-5.0, 0.0, 5.0, 10.0]
    N_SYMBOLS = 1500

    @staticmethod
    def _cases(model):
        for seed in (3, 4, 5):
            cfg = SystemConfig(L=12, K=5, N=2, tau_p=3, tau_c=40, X=2, area_side_m=150.0,
                               clutter_density_per_km2=400.0, seed=seed,
                               correlation_model=model)
            dep = generate_deployment(cfg)
            budget = channel.link_budget(dep, cfg)
            sua = association.run_sua(dep, cfg, budget).A
            for A in (sua, association.baseline_all_to_all(dep.L, dep.K)):
                yield cfg, dep, A, sua, budget

    @pytest.mark.parametrize("model", ["identity", "local_scattering"])
    @pytest.mark.parametrize("perfect_csi", [False, True])
    def test_error_counts_agree_with_per_ap_path(self, model, perfect_csi):
        diff_sum, var_sum = 0.0, 0.0
        for cfg, dep, A, sua, budget in self._cases(model):
            n_tot = self.N_SYMBOLS * dep.ue_indices(ServiceType.COM, ServiceType.JCAS).size
            pts = comm_perf.ser_monte_carlo(dep, cfg, {"scheme": A}, QPSK, self.GRID,
                                            self.N_SYMBOLS, cfg.seed, sua, budget,
                                            perfect_csi=perfect_csi)
            new = [round(p.ser_mc * n_tot) for p in pts]
            old = _ser_errors_per_ap(dep, cfg, A, QPSK, self.GRID, self.N_SYMBOLS, cfg.seed,
                                     sua, perfect_csi)
            for a, b in zip(new, old):
                # both counts are sums of the same per-symbol error
                # probabilities given the draws, with independent noise
                p_bar = (a + b) / (2.0 * n_tot)
                var = 2.0 * n_tot * p_bar * (1.0 - p_bar)
                assert abs(a - b) <= 4.5 * math.sqrt(var) + 1, (cfg.seed, a, b)
                diff_sum += a - b
                var_sum += var
        # no bias over all points, as a noise power off by a factor would give
        assert abs(diff_sum) <= 4.0 * math.sqrt(var_sum)

    @pytest.mark.parametrize("model", ["identity", "local_scattering"])
    def test_same_draws_give_same_noise_free_errors(self, model):
        # at 300 dB the noise moves no decision, so equal counts show that
        # both paths decode the same fading, pilot and symbol draws; pilot
        # contamination and inter-UE leakage leave errors to count
        total = 0
        for cfg, dep, A, sua, budget in self._cases(model):
            n_tot = self.N_SYMBOLS * dep.ue_indices(ServiceType.COM, ServiceType.JCAS).size
            for perfect_csi in (False, True):
                pts = comm_perf.ser_monte_carlo(dep, cfg, {"scheme": A}, QPSK, [300.0],
                                                self.N_SYMBOLS, cfg.seed, sua, budget,
                                                perfect_csi=perfect_csi)
                old = _ser_errors_per_ap(dep, cfg, A, QPSK, [300.0], self.N_SYMBOLS,
                                         cfg.seed, sua, perfect_csi)
                assert round(pts[0].ser_mc * n_tot) == old[0]
                total += old[0]
        assert total > 0


class TestClutterGeometry:
    def test_counts_and_powers(self):
        # the one-link form kept for perfbench/tracer.py, which wraps it by
        # name and reads its `deployment` parameter and the count r[1]: a
        # float and an int, equal to clutter_returns on that link alone
        cfg = SystemConfig(L=20, K=8, N=5, tau_p=5, X=3, area_side_m=250.0, seed=7)
        dep = generate_deployment(cfg)
        budget = channel.link_budget(dep, cfg)
        geom = channel.clutter_geometry(dep, cfg.pathloss)
        l_idx, k_idx = np.nonzero(np.ones((cfg.L, cfg.K), dtype=bool))
        power, count = channel.clutter_returns(geom, dep, cfg, l_idx, k_idx,
                                               budget.distance_m[l_idx, k_idx])
        assert count.sum() > 0
        for i, (l, k) in enumerate(zip(l_idx, k_idx)):
            p, c = channel.clutter_return(geom, dep, cfg, l, k, budget.distance_m[l, k])
            assert type(p) is float and type(c) is int
            assert (p, c) == (power[i], count[i])

    def test_no_scatterers(self):
        cfg = SystemConfig(L=3, K=2, X=2, tau_p=2, clutter_density_per_km2=0.0, seed=4)
        dep = generate_deployment(cfg)
        geom = channel.clutter_geometry(dep, cfg.pathloss)
        p, c = channel.clutter_returns(geom, dep, cfg, [0], [0], [100.0])
        assert p.tolist() == [0.0] and c.tolist() == [0]

    @pytest.mark.parametrize("flip, origin, shape", [(False, [100.0, 0.5], (1, 21)),
                                                     (True, [0.5, 100.0], (21, 1))])
    def test_unequal_axes_pinned(self, flip, origin, shape):
        # x and y extents four decades apart, and their mirror image: origin,
        # cell and grid shape as reductions along the point axis of the (S, 2)
        # positions give them, so a swapped column fails; both passes still
        # count what the per-link rule counts
        ap = np.array([[0.0, 0.0], [20000.0, 3.0]])
        ue = np.array([[6000.0, 1.0], [14000.0, 2.0]])
        scat = np.array([[100.0, 0.5], [15000.0, 2.5], [5000.0, 1.0], [9000.0, 2.0],
                         [12000.0, 0.75]])
        if flip:
            ap, ue, scat = ap[:, ::-1], ue[:, ::-1], scat[:, ::-1]
        dep = make_deployment(ap, ue, scat)
        cfg = SystemConfig(N=2)
        geom = channel.clutter_geometry(dep, cfg.pathloss)
        assert (geom.origin.tolist(), geom.cell_m, geom.shape) == (origin, 745.0, shape)
        l_idx, k_idx = np.nonzero(np.ones((dep.L, dep.K), dtype=bool))
        dist = np.array([link_distance(dep, cfg, l, k) for l, k in zip(l_idx, k_idx)])
        expected = [lobe_oracle(dep, cfg, l, k, d)[1] for l, k, d in zip(l_idx, k_idx, dist)]
        assert sum(expected) > 0
        for route in (ALL_GRID, ALL_DENSE):
            _, count = routed_returns(route, dep, cfg, l_idx, k_idx, dist)
            assert count.tolist() == expected

    def test_one_scatterer(self):
        # no extent: the scatterer is the origin and the cell comes from the
        # AP spacing alone, 0.5 * sqrt(20000 * 3 / 2)
        dep = make_deployment([[0.0, 0.0], [20000.0, 3.0]], [[6000.0, 1.0]], [[7000.0, 1.5]])
        geom = channel.clutter_geometry(dep, SystemConfig().pathloss)
        assert (geom.origin.tolist(), geom.cell_m, geom.shape) == ([7000.0, 1.5],
                                                                    86.60254037844386, (1, 1))


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
    power = cfg.sigma_c2 * float(channel.dbm_to_watts(cfg.p_t_dbm)) * float(np.sum(gain[in_lobe]))
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


def make_deployment(ap, ue, scat):
    ap, ue = np.asarray(ap, dtype=float), np.asarray(ue, dtype=float)
    return Deployment(ap_pos=ap, ue_pos=ue, ue_service=np.zeros(len(ue), dtype=int),
                      scatterer_pos=np.asarray(scat, dtype=float).reshape(-1, 2))


def link_distance(dep, cfg, l, k):
    return max(float(np.linalg.norm(dep.ap_pos[l] - dep.ue_pos[k])), cfg.pathloss.d0_m)


coord = st.tuples(st.floats(0.0, 300.0), st.floats(0.0, 300.0))


class TestClutterReturnsOracle:
    @settings(max_examples=150, deadline=None)
    @given(ap=st.lists(coord, min_size=1, max_size=4),
           ue=st.lists(coord, min_size=1, max_size=3),
           scat=st.lists(coord, max_size=15),
           n_antennas=st.integers(1, 8),
           reach=st.floats(0.3, 3.0),
           order_seed=st.integers(0, 2 ** 16),
           route=st.sampled_from([channel._DENSE_FRACTION, ALL_GRID, ALL_DENSE]))
    # an offset whose square underflows, inside the 2 rad lobe of N=1
    @example(ap=[(2.6e-275, 2.0e-178)], ue=[(1.0, 0.0)], scat=[(0.0, 0.0)], n_antennas=1,
             reach=1.0, order_seed=0, route=ALL_GRID)
    def test_matches_per_link_rule(self, ap, ue, scat, n_antennas, reach, order_seed, route):
        dep = make_deployment(ap, ue, scat)
        cfg = SystemConfig(N=n_antennas)
        l_idx, k_idx = np.nonzero(np.ones((dep.L, dep.K), dtype=bool))
        perm = np.random.default_rng(order_seed).permutation(l_idx.size)
        l_idx, k_idx = l_idx[perm], k_idx[perm]
        dist = np.array([reach * link_distance(dep, cfg, l, k) for l, k in zip(l_idx, k_idx)])
        power, count = routed_returns(route, dep, cfg, l_idx, k_idx, dist)
        for i, (l, k) in enumerate(zip(l_idx, k_idx)):
            p_ref, c_ref = lobe_oracle(dep, cfg, l, k, dist[i])
            assert count[i] == c_ref
            assert power[i] == pytest.approx(p_ref, rel=1e-12, abs=0.0)

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

    def test_dense_pass_gets_links_in_ap_order(self, monkeypatch):
        # a UE-major call in chunks of 100 links: the dense pass gets the
        # links in AP order across all chunks, and every link the bits of the
        # AP-major call
        cfg = SystemConfig(L=60, K=20, area_side_m=400.0, seed=5)
        dep = generate_deployment(cfg)
        budget = channel.link_budget(dep, cfg)
        monkeypatch.setattr(channel, "_LINKS_PER_CHUNK", 100)
        calls = []

        def spied(rows, deployment, l_idx, *args, _fn=channel._dense_pass):
            calls.append(l_idx.copy())
            return _fn(rows, deployment, l_idx, *args)
        monkeypatch.setattr(channel, "_dense_pass", spied)

        def run(l_idx, k_idx):
            calls.clear()
            power, count = channel.clutter_returns(channel.clutter_geometry(dep, cfg.pathloss),
                                                   dep, cfg, l_idx, k_idx,
                                                   budget.distance_m[l_idx, k_idx])
            return {(l, k): pc for l, k, *pc in zip(l_idx.tolist(), k_idx.tolist(),
                                                    power.tolist(), count.tolist())}
        ap_major = run(*np.nonzero(np.ones((cfg.L, cfg.K), dtype=bool)))
        ue_major = run(*np.nonzero(np.ones((cfg.K, cfg.L), dtype=bool))[::-1])
        assert len(calls) > 2
        assert np.all(np.diff(np.concatenate(calls)) >= 0)
        assert ue_major == ap_major
        assert sum(c for _, c in ap_major.values()) > 0

    @pytest.mark.parametrize("route, chunk", [
        (channel._DENSE_FRACTION, None), (ALL_DENSE, None),
        (channel._DENSE_FRACTION, 100), (ALL_DENSE, 100),
    ], ids=["default", "all-dense", "default-streamed", "all-dense-streamed"])
    def test_rows_built_per_call_match_one_chunk(self, monkeypatch, route, chunk):
        # the first call builds the dense rows of some even-numbered APs; the
        # second, over every link on the same geometry, builds every AP's row
        # once, with the bits of the rows that a fresh geometry's call builds
        # in one chunk, and gets that call's results. With chunks of 100
        # links the second call builds its rows five APs per chunk over one
        # block
        cfg = SystemConfig(L=60, K=20, area_side_m=400.0, seed=5)
        dep = generate_deployment(cfg)
        budget = channel.link_budget(dep, cfg)
        l_idx, k_idx = np.nonzero(np.ones((cfg.L, cfg.K), dtype=bool))
        dist = budget.distance_m[l_idx, k_idx]
        monkeypatch.setattr(channel, "_DENSE_FRACTION", route)
        chunks = []

        def copied(deployment, pathloss, aps, _fn=channel._dense_rows):
            for rows in _fn(deployment, pathloss, aps):
                chunks.append({l: row.copy() for l, row in rows.items()})
                yield rows
        monkeypatch.setattr(channel, "_dense_rows", copied)
        p_fresh, c_fresh = routed_returns(route, dep, cfg, l_idx, k_idx, dist)
        [one] = chunks
        geom = channel.clutter_geometry(dep, cfg.pathloss)
        even = l_idx % 2 == 0
        chunks.clear()
        channel.clutter_returns(geom, dep, cfg, l_idx[even], k_idx[even], dist[even])
        first = {l for rows in chunks for l in rows}
        assert first and not any(l % 2 for l in first)
        assert len(set(one) - first) > 100 // cfg.K
        chunks.clear()
        if chunk:
            monkeypatch.setattr(channel, "_LINKS_PER_CHUNK", chunk)
        power, count = channel.clutter_returns(geom, dep, cfg, l_idx, k_idx, dist)
        if chunk:
            assert len(chunks) > 1 and max(map(len, chunks)) == chunk // cfg.K
        else:
            assert len(chunks) == 1
        assert [l for rows in chunks for l in rows] == list(one)
        for rows in chunks:
            for l, row in rows.items():
                np.testing.assert_array_equal(row, one[l])
        assert count.sum() > 0
        np.testing.assert_array_equal(power, p_fresh)
        np.testing.assert_array_equal(count, c_fresh)

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


def trig_rule_returns(dep, cfg, geom, links, dense):
    """Power and count of each link (l, k, link_dist) under the trigonometric
    lobe rule cos(arctan2)*ux + sin(arctan2)*uy >= cos(half-angle) and
    d <= reach, summed in the order of one pass of `clutter_returns`: the
    cell order of `geom` through np.bincount for the grid pass, the full row
    in scatterer order for the dense pass."""
    cos_half = math.cos(channel.BEAM_HALF_ANGLE_FACTOR / cfg.N)
    scat = dep.scatterer_pos if dense else geom.xy.T
    power, count = [], []
    for l, k, link_dist in links:
        ap = dep.ap_pos[l]
        to_ue = np.arctan2(*(dep.ue_pos[k] - ap)[::-1])
        ux, uy = np.cos(to_ue), np.sin(to_ue)
        dx = np.ascontiguousarray(scat[:, 0] - ap[0])
        dy = np.ascontiguousarray(scat[:, 1] - ap[1])
        ang = np.arctan2(dy, dx)
        d = np.maximum(np.sqrt(dx * dx + dy * dy), cfg.pathloss.d0_m)
        hit = (np.cos(ang) * ux + np.sin(ang) * uy >= cos_half)
        hit &= d <= channel.CLUTTER_RANGE_FACTOR * link_dist
        if dense:
            returns = channel.db_to_lin(-2.0 * channel.path_loss_db(cfg.pathloss, d))
            total = (returns * hit).sum()
        else:
            returns = channel.db_to_lin(-2.0 * channel.path_loss_db(cfg.pathloss, d[hit]))
            total = np.bincount(np.zeros(returns.size, dtype=np.intp), returns, minlength=1)[0]
        power.append(total)
        count.append(int(np.count_nonzero(hit)))
    return np.array(power) * (cfg.sigma_c2 * float(channel.dbm_to_watts(cfg.p_t_dbm))), count


class TestLobeEdgeBand:
    """Scatterers on and within 1e-9 of the lobe's edges, where a dot-product
    test alone cannot decide: both passes agree exactly with the
    trigonometric rule, and those scatterers reach `_bearing`."""

    @staticmethod
    def edge_deployment(n_antennas, phi_ue):
        ap = np.array([3.0, -2.0])
        half = channel.BEAM_HALF_ANGLE_FACTOR / n_antennas
        angles = []
        for edge in (phi_ue - half, phi_ue + half):
            angles += [edge, edge - 1e-12, edge + 1e-12]
            for n_ulp in (1, 2, 4):
                up = down = edge
                for _ in range(n_ulp):
                    up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
                angles += [up, down]
        angles = np.array(angles)
        scat = np.concatenate([ap + r * np.column_stack([np.cos(angles), np.sin(angles)])
                               for r in (0.7, 5.0, 11.0)])
        # one on the AP itself, one on the range edge 12 m along x and one just past it
        scat = np.concatenate([scat, [ap, ap + [12.0, 0.0], [np.nextafter(15.0, 16.0), -2.0]]])
        ue = ap + 10.0 * np.array([math.cos(phi_ue), math.sin(phi_ue)])
        return make_deployment([ap], [ue], scat)

    @pytest.mark.parametrize("n_antennas, phi_ue", [(4, 0.3), (8, -2.9), (1, 1.0), (4, -0.2)])
    @pytest.mark.parametrize("route", [ALL_GRID, ALL_DENSE], ids=["grid", "dense"])
    def test_edges_match_trigonometric_rule(self, monkeypatch, n_antennas, phi_ue, route):
        dep = self.edge_deployment(n_antennas, phi_ue)
        cfg = SystemConfig(N=n_antennas)
        link_dist = float(np.sqrt(np.sum((dep.ue_pos[0] - dep.ap_pos[0]) ** 2)))
        links = [(0, 0, 10.0), (0, 0, 6.0), (0, 0, link_dist)]
        seen = set()

        def spied(dx, dy, _fn=channel._bearing):
            seen.update(zip(np.ravel(dx).tolist(), np.ravel(dy).tolist()))
            return _fn(dx, dy)
        monkeypatch.setattr(channel, "_bearing", spied)
        power, count = routed_returns(route, dep, cfg, *(np.array(v) for v in zip(*links)))
        geom = channel.clutter_geometry(dep, cfg.pathloss)
        ref_power, ref_count = trig_rule_returns(dep, cfg, geom, links, route == ALL_DENSE)
        assert count.tolist() == ref_count
        assert power.tolist() == ref_power.tolist()
        assert min(ref_count) > 0
        # every offset within the 1e-9 band of an edge, and the zero offset,
        # went through the trigonometric test
        cos_half = math.cos(channel.BEAM_HALF_ANGLE_FACTOR / cfg.N)
        ux, uy = channel._bearing(*(dep.ue_pos[0] - dep.ap_pos[0]))
        off = dep.scatterer_pos - dep.ap_pos[0]
        norm = np.sqrt(np.sum(off * off, axis=1))
        band = np.abs(off @ [ux, uy] - cos_half * norm) <= 1e-9 * norm
        assert np.count_nonzero(band) > 12 * 3
        assert set(map(tuple, off[band].tolist())) <= seen

    @pytest.mark.parametrize("scale", [1e-300, 1e-162])
    @pytest.mark.parametrize("route", [ALL_GRID, ALL_DENSE], ids=["grid", "dense"])
    def test_offsets_whose_squares_underflow(self, route, scale):
        # every squared offset underflows: at 1e-300 m to 0, at 1e-162 m to a
        # subnormal of a few units, so the norms are 0 or far off and no dot
        # product decides; the trigonometric test decides each scatterer
        rng = np.random.default_rng(2)
        dep = make_deployment(scale * np.array([[0.0, 0.0], [3.0, 1.0]]), [[2.0 * scale, scale]],
                              rng.uniform(-5.0 * scale, 5.0 * scale, (60, 2)))
        cfg = SystemConfig(N=4)
        links = [(0, 0, 1.0), (1, 0, 1.0)]
        power, count = routed_returns(route, dep, cfg, *(np.array(v) for v in zip(*links)))
        geom = channel.clutter_geometry(dep, cfg.pathloss)
        ref_power, ref_count = trig_rule_returns(dep, cfg, geom, links, route == ALL_DENSE)
        assert 0 < min(ref_count) and max(ref_count) < 60
        assert count.tolist() == ref_count
        assert power.tolist() == ref_power.tolist()


class TestDensePassOracle:
    """The dense pass runs the links AP by AP, one (links, 2) @ (2, S) product
    per run of an AP's links. Each link gets the count and the power bits of
    the definitional rule, `_in_lobe` on every scatterer of its AP's row with
    the range test and the full-row sum of the masked returns, in whatever
    order and company the link comes."""

    @staticmethod
    def deployment():
        # TestLobeEdgeBand's scatterers on and beside the lobe edges of link
        # (0, 0), among random APs, UEs and scatterers
        edge = TestLobeEdgeBand.edge_deployment(4, 0.3)
        rng = np.random.default_rng(8)
        return make_deployment(np.concatenate([edge.ap_pos, rng.uniform(-30, 30, (11, 2))]),
                               np.concatenate([edge.ue_pos, rng.uniform(-30, 30, (8, 2))]),
                               np.concatenate([edge.scatterer_pos, rng.uniform(-30, 30, (150, 2))]))

    @staticmethod
    def definitional(dep, cfg, l_idx, k_idx, dist):
        cos_half = math.cos(channel.BEAM_HALF_ANGLE_FACTOR / cfg.N)
        ux, uy = channel._bearing(*(dep.ue_pos[k_idx] - dep.ap_pos[l_idx]).T)
        power, count = [], []
        for i, l in enumerate(l_idx.tolist()):
            off = dep.scatterer_pos - dep.ap_pos[l]
            hit = channel._in_lobe(off[:, 0], off[:, 1], ux[i], uy[i], cos_half)
            _, _, row_dist, row_return = next(channel._dense_rows(dep, cfg.pathloss, [l]))[l]
            hit &= row_dist <= channel.CLUTTER_RANGE_FACTOR * dist[i]
            power.append((row_return * hit).sum())
            count.append(int(np.count_nonzero(hit)))
        return np.array(power) * (cfg.sigma_c2 * float(channel.dbm_to_watts(cfg.p_t_dbm))), count

    @pytest.mark.parametrize("links_per_block", [None, 3], ids=["default", "3-links"])
    def test_matches_definitional_rule_in_any_order(self, monkeypatch, links_per_block):
        dep = self.deployment()
        cfg = SystemConfig(N=4)
        monkeypatch.setattr(channel, "_DENSE_FRACTION", ALL_DENSE)
        if links_per_block:
            monkeypatch.setattr(channel, "_LOBE_TESTS_PER_BLOCK",
                                links_per_block * dep.scatterer_pos.shape[0])
        ap_major = np.nonzero(np.ones((dep.L, dep.K), dtype=bool))
        ue_major = np.nonzero(np.ones((dep.L, dep.K), dtype=bool).T)[::-1]
        shuffled = np.random.default_rng(3).permutation(dep.L * dep.K)
        # APs 0-3 with every UE among APs 4-11 with one UE each
        mixed = (np.concatenate([np.repeat(np.arange(4), dep.K), np.arange(4, dep.L)]),
                 np.concatenate([np.tile(np.arange(dep.K), 4), np.arange(dep.L - 4) % dep.K]))
        results = {}
        for l_idx, k_idx in (ap_major, ue_major, tuple(v[shuffled] for v in ap_major), mixed):
            dist = np.array([link_distance(dep, cfg, l, k) for l, k in zip(l_idx, k_idx)])
            geom = channel.clutter_geometry(dep, cfg.pathloss)
            power, count = channel.clutter_returns(geom, dep, cfg, l_idx, k_idx, dist)
            ref_power, ref_count = self.definitional(dep, cfg, l_idx, k_idx, dist)
            assert count.tolist() == ref_count
            assert power.tolist() == ref_power.tolist()
            for link in zip(l_idx.tolist(), k_idx.tolist(), power.tolist(), count.tolist()):
                assert results.setdefault(link[:2], link[2:]) == link[2:]
        assert len(results) == dep.L * dep.K
        assert results[0, 0][1] > 0 and sum(c > 0 for _, c in results.values()) > dep.L * dep.K // 2
