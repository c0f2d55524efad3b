import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfmimo import association as assoc
from cfmimo import channel
from cfmimo.scenario import (
    InfeasibleModelError,
    ServiceMix,
    ServiceType,
    SystemConfig,
    generate_deployment,
)


def desk_config(**kw):
    base = dict(L=20, K=8, N=5, tau_p=5, tau_c=200, X=3, area_side_m=250.0, seed=7)
    base.update(kw)
    return SystemConfig(**base)


def dense(shape, links, values):
    """Values of the links `links` (each l*K + k) as an (L, K) array, 0
    elsewhere."""
    out = np.zeros(shape)
    out.reshape(-1)[links] = values
    return out


def quality(dep, cfg, budget, m, geom):
    """`assoc.link_quality` of the unmasked links as an (L, K) array S."""
    return dense(m.shape, *assoc.link_quality(dep, cfg, budget, m, geom))


def cell_by_cell_csv(links, S, R, A):
    """The association table written one cell at a time: the links `links`
    unmasked with their S and R, every other link masked with s = r = 0.0."""
    L, K = A.shape
    s, r, masked = np.zeros(L * K), np.zeros(L * K), np.ones(L * K, dtype=int)
    s[links], r[links], masked[links] = S, R, 0
    rows = ["ap_id,ue_id,s_lk,r_lk,a_lk,masked"] + [
        f"{l},{k},{float(s[l * K + k])!r},{float(r[l * K + k])!r},{int(A[l, k])},"
        f"{masked[l * K + k]}"
        for l in range(L) for k in range(K)]
    return "\n".join(rows) + "\n"


@pytest.fixture(scope="module")
def desk():
    cfg = desk_config()
    dep = generate_deployment(cfg)
    budget = channel.link_budget(dep, cfg)
    geom = channel.clutter_geometry(dep, cfg.pathloss)
    return cfg, dep, budget, geom


class TestMask:
    def test_threshold_inclusive(self):
        assert assoc.mask_links(np.array([[-65.0]]), -65.0)[0, 0] == 1

    def test_below_threshold_masked(self):
        assert assoc.mask_links(np.array([[-65.0001]]), -65.0)[0, 0] == 0

    def test_minus_infinity_threshold_all_ones(self):
        m = assoc.mask_links(np.array([[-200.0, -10.0], [-90.0, -300.0]]), -np.inf)
        assert m.sum() == 4

    @given(st.floats(-120, -40), st.floats(-120, -40))
    def test_raising_threshold_never_unmasks(self, t1, t2):
        lo, hi = sorted((t1, t2))
        p = np.linspace(-110, -50, 25).reshape(5, 5)
        m_lo, m_hi = assoc.mask_links(p, lo), assoc.mask_links(p, hi)
        assert not np.any((m_hi == 1) & (m_lo == 0))

    def test_returns_initial_access_rssi(self, desk):
        # the two-value form kept for perfbench/tracer.py, which wraps it by
        # name and reads the mask as r[0]
        cfg, dep, budget, _ = desk
        m, rssi = assoc.mask(cfg, budget)
        np.testing.assert_array_equal(rssi, budget.rssi_dbm)
        np.testing.assert_array_equal(m, assoc.mask_links(budget.rssi_dbm, cfg.p_threshold_dbm))
        assert m.shape == (cfg.L, cfg.K)


class TestLinkQuality:
    def test_joint_weighting(self, desk):
        # JCAS cells hold w_c*SNR + w_s*SCNR and SENSE cells the SCNR, with the
        # clutter from channel.clutter_returns on the same links
        cfg, dep, budget, geom = desk
        m = assoc.mask_links(budget.rssi_dbm, cfg.p_threshold_dbm)
        S = quality(dep, cfg, budget, m, geom)
        n0 = cfg.noise_power_w()
        p_r_w = channel.dbm_to_watts(budget.rssi_dbm)
        cells = {ServiceType.JCAS: 0, ServiceType.SENSE: 0}
        cluttered = 0
        for k in dep.ue_indices(ServiceType.SENSE, ServiceType.JCAS):
            rows = np.flatnonzero(m[:, k] == 1)
            pc, _ = channel.clutter_returns(geom, dep, cfg, rows, np.full(rows.size, k),
                                            budget.distance_m[rows, k])
            snr, scnr = p_r_w[rows, k] / n0, p_r_w[rows, k] / (pc + n0)
            service = ServiceType(dep.ue_service[k])
            expect = cfg.w_c * snr + cfg.w_s * scnr if service == ServiceType.JCAS else scnr
            np.testing.assert_allclose(S[rows, k], expect, rtol=1e-12)
            cells[service] += rows.size
            cluttered += int(np.count_nonzero(pc > 0))
        # both services have links, and clutter separates the SCNR from the SNR
        assert min(cells.values()) > 0 and cluttered > 0

    def test_masked_cells_zero(self, desk):
        # the evaluated links, the unmasked ones or all, are listed AP-major,
        # each with S > 0
        cfg, dep, budget, geom = desk
        m = assoc.mask_links(budget.rssi_dbm, cfg.p_threshold_dbm)
        for mask_m in (m, np.ones((cfg.L, cfg.K), dtype=np.int8)):
            links, S = assoc.link_quality(dep, cfg, budget, mask_m, geom)
            np.testing.assert_array_equal(links, np.flatnonzero(mask_m == 1))
            assert np.all(S > 0)

    def test_com_cells_are_snr(self, desk):
        cfg, dep, budget, geom = desk
        m = assoc.mask_links(budget.rssi_dbm, cfg.p_threshold_dbm)
        S = quality(dep, cfg, budget, m, geom)
        n0 = cfg.noise_power_w()
        p_r_w = channel.dbm_to_watts(budget.rssi_dbm)
        for k in dep.ue_indices(ServiceType.COM):
            rows = np.flatnonzero(m[:, k] == 1)
            np.testing.assert_allclose(S[rows, k], p_r_w[rows, k] / n0, rtol=1e-12)

    def test_scnr_equals_snr_without_clutter(self):
        cfg = desk_config(clutter_density_per_km2=0.0)
        dep = generate_deployment(cfg)
        budget = channel.link_budget(dep, cfg)
        geom = channel.clutter_geometry(dep, cfg.pathloss)
        m = assoc.mask_links(budget.rssi_dbm, cfg.p_threshold_dbm)
        S = quality(dep, cfg, budget, m, geom)
        n0 = cfg.noise_power_w()
        p_r_w = channel.dbm_to_watts(budget.rssi_dbm)
        for k in dep.ue_indices(ServiceType.SENSE):
            rows = np.flatnonzero(m[:, k] == 1)
            np.testing.assert_allclose(S[rows, k], p_r_w[rows, k] / n0, rtol=1e-12)

    def test_nonnegative_everywhere(self, desk):
        cfg, dep, budget, geom = desk
        m = assoc.mask_links(budget.rssi_dbm, cfg.p_threshold_dbm)
        S = quality(dep, cfg, budget, m, geom)
        assert np.all(S >= 0)


class TestClutterPower:
    def setup_method(self):
        self.cfg = desk_config()
        self.dep = generate_deployment(self.cfg)

    def _with_scatterers(self, pos):
        dep = generate_deployment(self.cfg)
        dep.scatterer_pos = np.asarray(pos, dtype=float)
        return dep

    def _power(self, dep):
        geom = channel.clutter_geometry(dep, self.cfg.pathloss)
        link_dist = max(float(np.linalg.norm(dep.ap_pos[0] - dep.ue_pos[0])),
                        self.cfg.pathloss.d0_m)
        power, _ = channel.clutter_returns(geom, dep, self.cfg, [0], [0], [link_dist])
        return power[0]

    def test_no_scatterers_zero(self):
        dep = self._with_scatterers(np.zeros((0, 2)))
        assert self._power(dep) == 0.0

    def test_two_equal_scatterers_double(self):
        ap, ue = self.dep.ap_pos[0], self.dep.ue_pos[0]
        mid = ap + 0.4 * (ue - ap)
        p1 = self._power(self._with_scatterers([mid]))
        p2 = self._power(self._with_scatterers([mid, mid]))
        assert p1 > 0
        assert p2 == pytest.approx(2.0 * p1, rel=1e-12)


class TestPriorities:
    def test_row_normalization(self):
        out = assoc.priorities(np.array([[2.0, 1.0, 1.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.25, 0.25]])

    def test_zero_row_stays_zero(self):
        out = assoc.priorities(np.array([[0.0, 0.0], [1.0, 3.0]]))
        np.testing.assert_array_equal(out[0], [0.0, 0.0])
        np.testing.assert_allclose(out[1], [0.25, 0.75])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            assoc.priorities(np.array([[-1.0, 2.0]]))

    @given(st.floats(1e-6, 1e6))
    def test_row_scale_invariance(self, c):
        S = np.array([[3.0, 1.0, 0.5], [0.2, 0.0, 0.8]])
        scaled = S.copy()
        scaled[0] *= c
        np.testing.assert_allclose(assoc.priorities(scaled), assoc.priorities(S),
                                   rtol=1e-9)

    def test_rows_sum_to_one_when_positive(self):
        rng = np.random.default_rng(0)
        S = rng.random((6, 4))
        sums = assoc.priorities(S).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, rtol=1e-12)


def psi(res):
    """The fraction of unmasked links, as `associate` prints it."""
    return res.links.size / res.A.size


class TestPsiAndCounts:
    def test_psi_values(self, desk):
        cfg, dep, budget, geom = desk
        assert psi(assoc.run_baseline(dep, cfg, budget, geom)) == 1.0
        # the printed float is the one the dense mask's sum over its size gives
        m = assoc.mask_links(budget.rssi_dbm, cfg.p_threshold_dbm)
        assert psi(assoc.run_sua(dep, cfg, budget, geom)) == float(m.sum()) / m.size
        for threshold, expected in ((1e308, 0.0), (-1e308, 1.0)):
            at = dataclasses.replace(cfg, p_threshold_dbm=threshold)
            assert psi(assoc.run_sua(dep, at, budget, geom)) == expected

    def test_psi_weakly_decreasing_in_threshold(self, desk):
        cfg, dep, budget, geom = desk
        psis = [psi(assoc.run_sua(dep, dataclasses.replace(cfg, p_threshold_dbm=float(t)),
                                  budget, geom))
                for t in np.linspace(-90, -40, 11)]
        assert all(a >= b for a, b in zip(psis, psis[1:]))

    def test_served_counts(self):
        A = np.eye(3, dtype=int)
        per_ap, per_ue, active = assoc.served_counts(A)
        np.testing.assert_array_equal(per_ap, [1, 1, 1])
        np.testing.assert_array_equal(per_ue, [1, 1, 1])
        assert active == 3

    def test_all_zero(self):
        per_ap, per_ue, active = assoc.served_counts(np.zeros((4, 2), dtype=int))
        assert per_ap.sum() == 0 and per_ue.sum() == 0 and active == 0

    def test_baseline_everything(self):
        A = assoc.baseline_all_to_all(100, 30)
        per_ap, per_ue, active = assoc.served_counts(A)
        assert np.all(per_ap == 30)  # every AP serves all 30 UEs
        assert np.all(per_ue == 100)
        assert active == 100


class TestServingLinks:
    # 4 APs x 5 UEs: UE 1 and UE 3 are unserved
    A = np.array([[0, 0, 1, 0, 1],
                  [1, 0, 0, 0, 1],
                  [0, 0, 1, 0, 0],
                  [1, 0, 1, 0, 0]], dtype=np.int8)

    def test_grouped_by_ue_in_given_order_aps_ascending(self):
        ue, ap = assoc.serving_links(self.A, np.array([4, 0, 2]))
        np.testing.assert_array_equal(ue, [0, 0, 1, 1, 2, 2, 2])
        np.testing.assert_array_equal(ap, [0, 1, 1, 3, 0, 2, 3])

    def test_no_ues_no_links(self):
        ue, ap = assoc.serving_links(self.A, np.array([], dtype=int))
        assert ue.size == 0 and ap.size == 0

    @pytest.mark.parametrize("ues, first", [([0, 1, 2, 3], 1), ([4, 3, 1], 3), ([2, 1], 1)])
    def test_names_first_unserved_ue(self, ues, first):
        with pytest.raises(InfeasibleModelError,
                           match=f"^UE {first} has an empty serving set$"):
            assoc.serving_links(self.A, np.array(ues))


class TestPaddedByUe:
    @pytest.mark.parametrize("fill", [np.inf, 0.0])
    def test_ue_ids_with_gaps(self, fill):
        # UEs 1, 3 and 4 have no link, as in an optimizer instance whose
        # columns hold no eligible link
        ue = np.array([0, 0, 2, 2, 2, 5])
        values = np.array([3.0, -1.0, 2.5, 7.0, 0.5, -4.0])
        padded, per_ue, start = assoc.padded_by_ue(ue, values, fill)
        assert padded.shape == (6, 3)
        np.testing.assert_array_equal(per_ue, [2, 0, 3, 0, 0, 1])
        for k in range(6):
            own = values[ue == k]
            assert per_ue[k] == own.size
            if own.size:
                assert start[k] == np.flatnonzero(ue == k)[0]
            np.testing.assert_array_equal(padded[k, :own.size], own)
            assert np.all(padded[k, own.size:] == fill)


def random_instance(rng, l_max=6, k_max=5, tau_max=3, x_max=2):
    L = int(rng.integers(2, l_max + 1))
    K = int(rng.integers(1, k_max + 1))
    tau_p = int(rng.integers(1, tau_max + 1))
    X = int(rng.integers(1, x_max + 1))
    M = (rng.random((L, K)) < rng.uniform(0.3, 1.0)).astype(np.int8)
    S = rng.random((L, K)) * 10 * M
    R = assoc.priorities(S)
    return S, R, M, tau_p, X


class TestOptimize:
    def test_single_cell(self):
        S = np.array([[2.0]])
        R = np.array([[1.0]])
        M = np.array([[1]])
        A, rep = assoc.optimize(S, R, M, 1, 1)
        assert A[0, 0] == 1
        assert rep.objective == pytest.approx(2.0)

    def test_all_masked_zero_matrix(self):
        S = np.ones((3, 2))
        M = np.zeros((3, 2), dtype=int)
        A, rep = assoc.optimize(S, assoc.priorities(S * M), M, 2, 2)
        assert A.sum() == 0
        assert rep.objective == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            assoc.optimize(np.ones((2, 2)), np.ones((2, 3)), np.ones((2, 2)), 1, 1)

    def test_capacity_constraints_bind(self):
        S = np.array([[5.0, 4.0], [3.0, 1.0]])
        M = np.ones((2, 2), dtype=int)
        R = assoc.priorities(S)
        A, rep = assoc.optimize(S, R, M, 1, 1)  # one UE per AP, one AP per UE
        assert A.sum(axis=0).max() <= 1 and A.sum(axis=1).max() <= 1

    def test_objective_value_matches_column_loop(self):
        # the column loop the vectorized sum replaced: one np.sum per column,
        # rows ascending, then the column sums in column order
        def column_loop(weights, A):
            total = 0.0
            for k in range(A.shape[1]):
                rows = np.flatnonzero(A[:, k] == 1)
                if rows.size:
                    total += float(np.sum(weights[rows, k]))
            return total

        rng = np.random.default_rng(8)
        for _ in range(300):
            L, K = rng.integers(1, 40), rng.integers(1, 30)
            w = rng.random((L, K)) * 10.0 ** rng.uniform(-6, 6, (L, K))
            A = (rng.random((L, K)) < rng.uniform(0.0, 1.0)).astype(np.int8)
            assert assoc.objective_value(w, A) == column_loop(w, A)
        # columns of 8 and more selected rows, where np.sum sums in blocks of
        # 8, and of more than 128, where it recurses
        w = rng.random((300, 6))
        A = (np.arange(300)[:, None] < np.array([1, 7, 8, 9, 130, 300])).astype(np.int8)
        assert assoc.objective_value(w, A) == column_loop(w, A)
        assert assoc.objective_value(np.zeros((3, 0)), np.zeros((3, 0))) == 0.0

    def test_integral_false_when_a_link_is_selected_twice(self):
        # `integral` is read from the selected links: UE 0 lists AP 0 twice,
        # and with X = 2 both copies are selected
        ue, ap, w = np.array([0, 0, 1]), np.array([0, 0, 1]), np.array([2.0, 2.0, 1.0])
        _, rep = assoc._associate(ue, ap, w, (2, 2), 2, 2)
        assert not rep.integral
        _, rep = assoc._associate(ue[1:], ap[1:], w[1:], (2, 2), 2, 2)
        assert rep.integral

    def test_matches_enumeration_exactly(self):
        for seed, n in ((2024, 60), (77, 40)):
            rng = np.random.default_rng(seed)
            for _ in range(n):
                S, R, M, tau_p, X = random_instance(rng)
                _, rep = assoc.optimize(S, R, M, tau_p, X)
                assert rep.objective == assoc.enumeration_objective(S, R, M, tau_p, X)

    def test_feasibility_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            L = int(rng.integers(2, 31))
            K = int(rng.integers(1, min(L, 16)))
            tau_p = int(rng.integers(1, 11))
            X = int(rng.integers(1, 6))
            M = (rng.random((L, K)) < rng.uniform(0.2, 1.0)).astype(np.int8)
            S = rng.random((L, K)) * M
            R = assoc.priorities(S)
            A, rep = assoc.optimize(S, R, M, tau_p, X)
            assert assoc.check_feasible(A, M, tau_p, X)
            assert rep.integral

    def test_unmasking_never_decreases_objective(self):
        # with the weight matrix held fixed, relaxing the mask only grows the
        # feasible set (re-deriving priorities would rescale the row instead)
        rng = np.random.default_rng(8)
        for _ in range(30):
            S, R, M, tau_p, X = random_instance(rng)
            masked_cells = np.argwhere(M == 0)
            if masked_cells.size == 0:
                continue
            l, k = masked_cells[0]
            S2, R2 = S.copy(), R.copy()
            S2[l, k], R2[l, k] = 5.0, 0.5
            _, before = assoc.optimize(S2, R2, M, tau_p, X)
            M2 = M.copy()
            M2[l, k] = 1
            _, after = assoc.optimize(S2, R2, M2, tau_p, X)
            assert after.objective >= before.objective

    def test_support_invariant_under_global_scaling(self):
        rng = np.random.default_rng(13)
        for c in (0.25, 3.0, 117.0):
            S, R, M, tau_p, X = random_instance(rng)
            A1, _ = assoc.optimize(S, R, M, tau_p, X)
            A2, _ = assoc.optimize(c * S, assoc.priorities(c * S), M, tau_p, X)
            np.testing.assert_array_equal(A1, A2)

    def test_row_scaling_preserves_row_ranking(self):
        # scaling one AP row rescales its weights uniformly, keeping its order
        rng = np.random.default_rng(14)
        S = rng.random((4, 5))
        M = np.ones((4, 5), dtype=np.int8)
        w1 = S * assoc.priorities(S)
        S2 = S.copy()
        S2[2] *= 7.5
        w2 = S2 * assoc.priorities(S2)
        np.testing.assert_array_equal(np.argsort(w1[2]), np.argsort(w2[2]))

    def test_deterministic_resolution(self):
        S = np.ones((3, 3))
        M = np.ones((3, 3), dtype=np.int8)
        R = assoc.priorities(S)
        A1, _ = assoc.optimize(S, R, M, 1, 1)
        A2, _ = assoc.optimize(S, R, M, 1, 1)
        np.testing.assert_array_equal(A1, A2)

    @pytest.mark.parametrize("weights", ["ones", "small_int"])
    def test_ties_with_binding_capacities(self, weights):
        # all-equal and small-integer weights make many shortest augmenting
        # paths of equal cost, and zero-cost cycles in the residual graph;
        # the search must still finish, stay exact and resolve ties the same
        # way on a rerun
        rng = np.random.default_rng(31)
        for trial in range(12):
            if weights == "ones":
                L, K = (6, 5) if trial == 0 else (int(rng.integers(3, 7)), int(rng.integers(2, 6)))
                S = np.ones((L, K))
            else:
                L, K = int(rng.integers(3, 7)), int(rng.integers(2, 6))
                S = rng.integers(1, 4, (L, K)).astype(float)
            M = np.ones((L, K), dtype=np.int8)
            drop = rng.random((L, K)) < 0.2
            if trial > 0:  # the first instance keeps every link
                M[drop] = 0
            R, tau_p, X = np.ones((L, K)), 1, 2
            w, _ = assoc._check_instance(S, R, M, tau_p, X)
            assert assoc._column_top_selection(w, M, X).sum(axis=1).max() > tau_p
            A1, rep = assoc.optimize(S, R, M, tau_p, X)
            A2, _ = assoc.optimize(S, R, M, tau_p, X)
            np.testing.assert_array_equal(A1, A2)
            assert assoc.check_feasible(A1, M, tau_p, X)
            assert rep.objective == assoc.enumeration_objective(S, R, M, tau_p, X)

    def test_fitting_relaxation_returned_as_is(self):
        # capacities loose enough for every UE's top X: the relaxation is the
        # optimum, returned without a repair
        rng = np.random.default_rng(41)
        fits = 0
        for _ in range(60):
            S, R, M, tau_p, X = random_instance(rng, tau_max=5)
            w, _ = assoc._check_instance(S, R, M, tau_p, X)
            top = assoc._column_top_selection(w, M, X)
            if top.sum(axis=1).max(initial=0) > tau_p:
                continue
            fits += 1
            A, rep = assoc.optimize(S, R, M, tau_p, X)
            np.testing.assert_array_equal(A, top)
            assert A.dtype == top.dtype and rep.repairs == 0
        assert fits >= 20

    def test_binding_exact_over_twenty_decades(self):
        # weights from 1e-10 to 1e10, as S*R spans in the binding scenario,
        # on instances whose relaxation overfills an AP: one repair per unit
        # of overload, and the enumerated optimum to rounding
        rng = np.random.default_rng(2006)
        binding = 0
        for _ in range(40):
            L, K = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            tau_p, X = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            M = (rng.random((L, K)) < rng.uniform(0.5, 1.0)).astype(np.int8)
            S = 10.0 ** rng.uniform(-10.0, 10.0, (L, K)) * M
            R = np.ones((L, K))
            w, _ = assoc._check_instance(S, R, M, tau_p, X)
            load = assoc._column_top_selection(w, M, X).sum(axis=1)
            if load.max(initial=0) <= tau_p:
                continue
            binding += 1
            A, rep = assoc.optimize(S, R, M, tau_p, X)
            assert assoc.check_feasible(A, M, tau_p, X)
            assert rep.repairs == np.maximum(load - tau_p, 0).sum()
            best = assoc.enumeration_objective(S, R, M, tau_p, X)
            assert rep.objective == pytest.approx(best, rel=1e-12, abs=0.0)
        assert binding >= 20

    def test_tied_top_selection_pinned(self):
        # equal weights go to the lower row; ineligible cells (masked or zero
        # weight) are never picked. Expected selections recorded from the
        # per-column lexsort implementation this one replaced.
        w = np.array([[2.0, 1.0, 0.5, 0.0],
                      [3.0, 1.0, 0.5, 4.0],
                      [2.0, 1.0, 0.5, 4.0],
                      [2.0, 0.0, 0.5, 4.0],
                      [3.0, 1.0, 0.5, 1.0]])
        M = np.array([[1, 1, 1, 1], [1, 1, 0, 1], [1, 1, 1, 1], [1, 1, 1, 0],
                      [1, 0, 1, 1]], dtype=np.int8)
        expected = {
            1: [[0, 1, 1, 0], [1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
            2: [[0, 1, 1, 0], [1, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 0], [1, 0, 0, 0]],
            3: [[1, 1, 1, 0], [1, 1, 0, 1], [0, 1, 1, 1], [0, 0, 1, 0], [1, 0, 0, 1]],
        }
        for X, A in expected.items():
            got = assoc._column_top_selection(w, M, X)
            assert got.dtype == np.int8
            np.testing.assert_array_equal(got, A)


def tied_instances(weights):
    """The instances of `test_ties_with_binding_capacities`."""
    rng = np.random.default_rng(31)
    for trial in range(12):
        if weights == "ones":
            L, K = (6, 5) if trial == 0 else (int(rng.integers(3, 7)), int(rng.integers(2, 6)))
            S = np.ones((L, K))
        else:
            L, K = int(rng.integers(3, 7)), int(rng.integers(2, 6))
            S = rng.integers(1, 4, (L, K)).astype(float)
        M = np.ones((L, K), dtype=np.int8)
        drop = rng.random((L, K)) < 0.2
        if trial > 0:
            M[drop] = 0
        yield S, np.ones((L, K)), M, 1, 2


def decade_instances():
    """The instances of `test_binding_exact_over_twenty_decades`, binding or
    not."""
    rng = np.random.default_rng(2006)
    for _ in range(40):
        L, K = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        tau_p, X = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        M = (rng.random((L, K)) < rng.uniform(0.5, 1.0)).astype(np.int8)
        yield 10.0 ** rng.uniform(-10.0, 10.0, (L, K)) * M, np.ones((L, K)), M, tau_p, X


def random_instances(seed, n, **kw):
    rng = np.random.default_rng(seed)
    return (random_instance(rng, **kw) for _ in range(n))


class TestOneRule:
    """The optimizer's objective and relaxation follow the same rules as
    `objective_value` and `_column_top_selection` on the dense arrays."""

    @pytest.mark.parametrize("instances", [
        pytest.param(lambda: random_instances(2024, 60), id="random-2024"),
        pytest.param(lambda: random_instances(77, 40), id="random-77"),
        pytest.param(lambda: random_instances(41, 60, tau_max=5), id="random-41"),
        pytest.param(lambda: tied_instances("ones"), id="ties-ones"),
        pytest.param(lambda: tied_instances("small_int"), id="ties-small-int"),
        pytest.param(decade_instances, id="decades"),
    ])
    def test_objective_and_relaxation(self, instances):
        repaired = 0
        for S, R, M, tau_p, X in instances():
            w, _ = assoc._check_instance(S, R, M, tau_p, X)
            A, rep = assoc.optimize(S, R, M, tau_p, X)
            assert rep.objective.hex() == assoc.objective_value(w, A).hex()
            if rep.repairs == 0:
                np.testing.assert_array_equal(A, assoc._column_top_selection(w, M, X))
            repaired += rep.repairs > 0
        assert repaired > 0

    def test_masked_cells_never_read(self):
        # NaN and infinities in the masked cells of S and R, some of whose
        # products are NaN or would warn: the result is that of zeros there
        rng = np.random.default_rng(17)
        for _ in range(40):
            S, R, M, tau_p, X = random_instance(rng)
            masked = M == 0
            if not masked.any():
                continue
            bad_S, bad_R = S.copy(), R.copy()
            bad_S[masked] = rng.choice([np.nan, np.inf, -np.inf, 0.0], masked.sum())
            bad_R[masked] = rng.choice([np.nan, np.inf, 0.0], masked.sum())
            S[masked] = R[masked] = 0.0
            A_bad, rep_bad = assoc.optimize(bad_S, bad_R, M, tau_p, X)
            A, rep = assoc.optimize(S, R, M, tau_p, X)
            np.testing.assert_array_equal(A_bad, A)
            assert rep_bad == rep


def lp_optimum(w, tau_p, X):
    """Max-weight b-matching as an LP; the bipartite incidence matrix is
    totally unimodular, so the LP optimum is the integer optimum."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    sparse = pytest.importorskip("scipy.sparse")
    L, K = w.shape
    ls, ks = np.nonzero(w > 0)
    n = np.arange(ls.size)
    a_ub = sparse.coo_matrix((np.ones(2 * ls.size), (np.concatenate([ls, L + ks]),
                                                     np.concatenate([n, n]))),
                             shape=(L + K, ls.size)).tocsr()
    b_ub = np.concatenate([np.full(L, tau_p), np.full(K, X)])
    res = linprog(-w[ls, ks], A_ub=a_ub, b_ub=b_ub, bounds=(0, 1), method="highs")
    assert res.status == 0, res.message
    return -float(res.fun)


def binding_scenario_instance(seed, L=400, K=120, area_side_m=1000.0, tau_p=2):
    cfg = SystemConfig(L=L, K=K, area_side_m=area_side_m, tau_p=tau_p, p_threshold_dbm=-80.0,
                       seed=seed)
    dep = generate_deployment(cfg)
    budget = channel.link_budget(dep, cfg)
    m = assoc.mask_links(budget.rssi_dbm, cfg.p_threshold_dbm)
    S = quality(dep, cfg, budget, m, channel.clutter_geometry(dep, cfg.pathloss))
    return S, assoc.priorities(S), m, cfg.tau_p, cfg.X


def random_binding_instance(L, seed, tau_p=1, X=3, K=None):
    # K * X links wanted against L * tau_p AP slots: capacities bind
    rng = np.random.default_rng(seed)
    K = L // 2 if K is None else K
    M = (rng.random((L, K)) < rng.uniform(0.05, 0.2)).astype(np.int8)
    S = rng.random((L, K)) * M
    return S, assoc.priorities(S), M, tau_p, X


class TestOptimizerAtScale:
    """Exactness where enumeration cannot reach: the flow solver against an
    LP solver on instances whose per-UE relaxation breaks an AP capacity."""

    @pytest.mark.parametrize("instance", [
        pytest.param(lambda: binding_scenario_instance(1000), id="scenario-1000"),
        pytest.param(lambda: binding_scenario_instance(2000), id="scenario-2000"),
        # the assoc-binding benchmark deployments
        *(pytest.param(lambda seed=seed: binding_scenario_instance(seed), id=f"scenario-{seed}")
          for seed in range(3000, 3004)),
        *(pytest.param(lambda seed=seed: binding_scenario_instance(seed, L=1000, K=300,
                                                                   area_side_m=1581.0, tau_p=3),
                       id=name)
          for seed, name in ((11, "scenario-L1000"), (12, "scenario-L1000-12"))),
        *(pytest.param(lambda L=L: random_binding_instance(L, L), id=f"random-L{L}")
          for L in (50, 100, 150, 200)),
        *(pytest.param(lambda L=L, t=t, x=x: random_binding_instance(L, L + 7, t, x),
                       id=f"random-L{L}-tau{t}-X{x}")
          for L, t, x in ((60, 2, 3), (100, 2, 5), (120, 3, 6), (200, 2, 4))),
        # K = 2L: the relaxation overfills the APs by D=1600 units, twice the
        # L * tau_p = 800 units of flow the optimum can carry
        pytest.param(lambda: random_binding_instance(200, 207, 4, 6, K=400),
                     id="random-L200-K400-tau4-X6"),
        pytest.param(lambda: binding_scenario_instance(11, L=4000, K=1200, area_side_m=3162.0),
                     id="scenario-L4000"),
    ])
    def test_matches_lp_optimum(self, instance):
        S, R, M, tau_p, X = instance()
        w, _ = assoc._check_instance(S, R, M, tau_p, X)
        load = assoc._column_top_selection(w, M, X).sum(axis=1)
        assert load.max() > tau_p
        A, rep = assoc.optimize(S, R, M, tau_p, X)
        assert assoc.check_feasible(A, M, tau_p, X)
        assert rep.repairs == np.maximum(load - tau_p, 0).sum()
        best = lp_optimum(w, tau_p, X)
        assert abs(rep.objective - best) <= 1e-9 * best

    @pytest.mark.parametrize("seed, kw, searches, repairs, digest", [
        (3000, {}, 11, 97, "3a13a5f51e8e7a85d67c231e622d88416827d6b08d7a846ddb6e07975df29265"),
        (3001, {}, 7, 85, "1f08029524a0e7b0b3d29b4b0e831b5b44094f14649188dd1824ad96708b86b9"),
        (3002, {}, 11, 86, "fc348f84c883b2f7cf0ec4ef5072462fbd6f982da04215deb87d454173885fce"),
        (3003, {}, 9, 88, "8227382fdf866f715960a1cf5efbdfcfd814bb72613e19f068995357e4a82d96"),
        (11, dict(L=1000, K=300, area_side_m=1581.0, tau_p=3), 10, 78,
         "ced6b4c3b70b851852445f02ff163867095df39b2faf50e9bddd643d4beecb0a"),
        (12, dict(L=1000, K=300, area_side_m=1581.0, tau_p=3), 6, 73,
         "42ee5873a32f43e579901afe58bf26a04b5b8de26140413bfdf55bfc949f9ec0"),
    ], ids=["scenario-3000", "scenario-3001", "scenario-3002", "scenario-3003",
            "scenario-L1000", "scenario-L1000-12"])
    def test_support_pinned(self, seed, kw, searches, repairs, digest):
        # sha256 of the int8 support that the solver routing one unit per
        # search returned; real-valued weights leave no tie, so routing
        # several units per search must reproduce it exactly. The search and
        # repair counts are those of the solver that kept its loads by hand
        # beside the flow; the same searches must route the same paths.
        S, R, M, tau_p, X = binding_scenario_instance(seed, **kw)
        A, rep = assoc.optimize(S, R, M, tau_p, X)
        assert (rep.searches, rep.repairs) == (searches, repairs)
        assert hashlib.sha256(A.tobytes()).hexdigest() == digest


class TestCsvDump:
    def test_format(self):
        # links 0 and 2 listed, the second with s = r = +0.0; link 1 masked
        A = np.array([[1, 0, 0]], dtype=np.int8)
        text = assoc.association_csv(np.array([0, 2]), np.array([1.5, 0.0]),
                                     np.array([1.0, 0.0]), A)
        assert text.split("\n") == ["ap_id,ue_id,s_lk,r_lk,a_lk,masked", "0,0,1.5,1.0,1,0",
                                    "0,1,0.0,0.0,0,1", "0,2,0.0,0.0,0,0", ""]

    def test_masked_row_picked_by_a(self):
        # the schemes leave a_lk = 0 on every masked link, but a masked row's
        # string is picked by a_lk, so the table writes A as it is given
        A = np.array([[0, 1]], dtype=np.int8)
        text = assoc.association_csv(np.array([], dtype=int), np.array([]), np.array([]), A)
        assert text.split("\n")[1:] == ["0,0,0.0,0.0,0,1", "0,1,0.0,0.0,1,1", ""]

    def test_matches_cell_by_cell_format(self):
        rng = np.random.default_rng(3)
        M = (rng.random((7, 5)) < 0.6).astype(np.int8)
        M[0, :3] = 1
        S = rng.random((7, 5)) * 1e6 * M
        S[0, :3] = [1e-300, 1.0 / 3.0, 1e16]
        R = assoc.priorities(S)
        A = ((rng.random((7, 5)) < 0.3) & (M == 1)).astype(np.int8)
        links = np.flatnonzero(M)
        args = links, S.ravel()[links], R.ravel()[links], A
        assert assoc.association_csv(*args) == cell_by_cell_csv(*args)

    @settings(deadline=None)
    @given(kind=st.sampled_from(["mixed", "none", "all"]), L=st.integers(0, 12),
           K=st.integers(1, 6), chunk=st.sampled_from(["1", "K-1", "K", "K+1", "3K", "LK+1"]),
           pool=st.lists(st.floats(), max_size=4), seed=st.integers(0, 2**32 - 1))
    def test_matches_cell_by_cell_format_any_table(self, kind, L, K, chunk, pool, seed):
        # a link is masked exactly when it is not listed: a masked row takes
        # a per-UE string, a listed one goes through repr, so a listed +0.0,
        # -0.0, subnormals, 1/3 and 1e16 must come out as the cell-by-cell
        # format writes them, across the chunk edges of `priorities`. The
        # cells are drawn from a seeded generator so that tables of up to
        # 12 x 6 cells stay within hypothesis's data budget.
        rng = np.random.default_rng(seed)
        values = np.array([0.0, -0.0, 5e-324, 1e-310, 1.0 / 3.0, 1e16, *pool])
        listed = {"mixed": rng.random(L * K) < 0.5, "none": np.zeros(L * K, bool),
                  "all": np.ones(L * K, bool)}[kind]
        links = np.flatnonzero(listed)
        S, R = rng.choice(values, (2, links.size))
        A = np.zeros(L * K, dtype=np.int8)
        A[links] = rng.integers(0, 2, links.size)
        A = A.reshape(L, K)
        per_chunk = {"1": 1, "K-1": K - 1, "K": K, "K+1": K + 1, "3K": 3 * K,
                     "LK+1": L * K + 1}[chunk]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(channel, "_LINKS_PER_CHUNK", per_chunk)
            text = assoc.association_csv(links, S, R, A)
        assert text == cell_by_cell_csv(links, S, R, A)


class TestPipelines:
    def test_sua_satisfies_constraints(self, desk):
        cfg, dep, budget, geom = desk
        res = assoc.run_sua(dep, cfg, budget, geom)
        M = assoc.mask_links(budget.rssi_dbm, cfg.p_threshold_dbm)
        assert assoc.check_feasible(res.A, M, cfg.tau_p, cfg.X)

    def test_baseline_is_all_ones(self, desk):
        cfg, dep, budget, geom = desk
        res = assoc.run_baseline(dep, cfg, budget, geom)
        assert res.A.sum() == cfg.L * cfg.K

    def test_baseline_holds_no_block_of_every_row(self):
        # the all-link call at L=400 has more APs' dense rows to build than
        # one chunk holds: it builds them a chunk at a time, so its traced
        # peak stays below the (L, 4, S) block of every AP's row
        cfg = SystemConfig(L=400, K=120, area_side_m=1000.0, seed=11)
        dep = generate_deployment(cfg)
        budget = channel.link_budget(dep, cfg)
        geom = channel.clutter_geometry(dep, cfg.pathloss)
        tracemalloc.start()
        try:
            assoc.run_baseline(dep, cfg, budget, geom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cfg.L * 4 * geom.xy.shape[1] * 8

    def test_memory_follows_unmasked_links_at_l1000(self):
        # run_sua keeps one (L, K) array, the int8 A, and a few arrays of the
        # unmasked links; the link budget's temporaries are one chunk of APs
        cfg = SystemConfig(L=1000, K=300, area_side_m=1581.0, seed=11)
        dep = generate_deployment(cfg)
        tracemalloc.start()
        try:
            budget = channel.link_budget(dep, cfg)
            budget_peak = tracemalloc.get_traced_memory()[1]
            geom = channel.clutter_geometry(dep, cfg.pathloss)
            before = tracemalloc.get_traced_memory()[0]
            res = assoc.run_sua(dep, cfg, budget, geom)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert budget_peak <= 3 * 8 * cfg.L * cfg.K + 2 ** 20
        assert 0 < res.links.size < cfg.L * cfg.K / 10
        assert kept <= cfg.L * cfg.K + 100 * res.links.size

    @pytest.mark.parametrize("kw", [dict(seed=1000), dict(seed=1002),
                                    dict(L=400, K=120, area_side_m=1000.0, seed=11)],
                             ids=["default-1000", "default-1002", "L400-11"])
    def test_sua_metrics_equal_baseline_on_unmasked_links(self, kw):
        # each link's clutter is routed by that link alone, so SUA's masked
        # evaluation and the baseline's all-link one agree bit for bit
        cfg = SystemConfig(**kw)
        dep = generate_deployment(cfg)
        budget = channel.link_budget(dep, cfg)
        geom = channel.clutter_geometry(dep, cfg.pathloss)
        sua = assoc.run_sua(dep, cfg, budget, geom)
        base = assoc.run_baseline(dep, cfg, budget, geom)
        np.testing.assert_array_equal(
            sua.links, np.flatnonzero(assoc.mask_links(budget.rssi_dbm, cfg.p_threshold_dbm)))
        np.testing.assert_array_equal(base.links, np.arange(base.A.size))
        assert sua.links.size
        np.testing.assert_array_equal(sua.S, base.S[sua.links])


class TestListPathOracle:
    """`run_sua` lists the unmasked links once and runs link quality,
    priorities and the optimizer on that list; a dense reference built here
    from the (L, K) formulas must give the same bits."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), L=st.integers(2, 16), seed=st.integers(0, 2 ** 16),
           mix=st.sampled_from([ServiceMix(1.0, 0.0, 0.0), ServiceMix(0.0, 1.0, 0.0),
                                ServiceMix(0.0, 0.0, 1.0), ServiceMix()]),
           threshold=st.one_of(st.sampled_from([-1e308, 1e308]), st.floats(0.0, 1.0)))
    def test_matches_dense_reference(self, data, L, seed, mix, threshold):
        K, X = data.draw(st.integers(1, L - 1)), data.draw(st.integers(1, L - 1))
        cfg = SystemConfig(L=L, K=K, X=X, tau_p=data.draw(st.integers(1, 4)), area_side_m=250.0,
                           service_mix=mix, seed=seed)
        dep = generate_deployment(cfg)
        budget = channel.link_budget(dep, cfg)
        geom = channel.clutter_geometry(dep, cfg.pathloss)
        if abs(threshold) <= 1.0:  # a point of the deployment's RSSI range
            lo, hi = budget.rssi_dbm.min(), budget.rssi_dbm.max()
            threshold = float(lo + threshold * (hi - lo))
        cfg.p_threshold_dbm = threshold
        res = assoc.run_sua(dep, cfg, budget, geom)

        M = (budget.rssi_dbm >= threshold).astype(np.int8)
        n0 = cfg.noise_power_w()
        p_r_w = channel.dbm_to_watts(budget.rssi_dbm)
        l_idx, k_idx = np.indices((L, K)).reshape(2, -1)
        pc, _ = channel.clutter_returns(geom, dep, cfg, l_idx, k_idx, budget.distance_m.ravel())
        snr, scnr = p_r_w / n0, p_r_w / (pc.reshape(L, K) + n0)
        svc = np.broadcast_to(dep.ue_service, (L, K))
        S = np.where(svc == ServiceType.COM, snr,
                     np.where(svc == ServiceType.SENSE, scnr, cfg.w_c * snr + cfg.w_s * scnr))
        S = np.where(M == 1, S, 0.0)
        sums = S.sum(axis=1, keepdims=True)
        R = np.divide(S, sums, out=np.zeros((L, K)), where=sums > 0)
        A, rep = assoc.optimize(S, R, M, cfg.tau_p, cfg.X)

        np.testing.assert_array_equal(res.links, np.flatnonzero(M))
        assert res.S.tobytes() == S.ravel()[res.links].tobytes()
        assert res.prio.tobytes() == R.ravel()[res.links].tobytes()
        assert res.A.dtype == A.dtype and res.A.tobytes() == A.tobytes()
        assert res.report == rep
