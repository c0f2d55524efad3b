import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfmimo import association as assoc
from cfmimo import channel
from cfmimo.scenario import InfeasibleModelError, ServiceType, SystemConfig, generate_deployment


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
        cfg, dep, budget, _ = desk
        m, rssi = assoc.mask(cfg, budget)
        np.testing.assert_array_equal(rssi, budget.rssi_dbm)
        assert m.shape == (cfg.L, cfg.K)


class TestLinkQuality:
    def test_joint_weighting(self, desk):
        # JCAS cells hold w_c*SNR + w_s*SCNR and SENSE cells the SCNR, with the
        # clutter from channel.clutter_returns on the same links
        cfg, dep, budget, geom = desk
        m, _ = assoc.mask(cfg, budget)
        S = assoc.link_quality(dep, cfg, budget, m, geom)
        n0 = cfg.noise_power_w()
        p_r_w = channel.dbm_to_watts(budget.p_r_dbm)
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
        # S > 0 exactly on the evaluated links: the unmasked ones, or all
        cfg, dep, budget, geom = desk
        m, _ = assoc.mask(cfg, budget)
        np.testing.assert_array_equal(assoc.link_quality(dep, cfg, budget, m, geom) > 0, m == 1)
        assert np.all(assoc.link_quality(dep, cfg, budget, None, geom) > 0)

    def test_com_cells_are_snr(self, desk):
        cfg, dep, budget, geom = desk
        m, _ = assoc.mask(cfg, budget)
        S = assoc.link_quality(dep, cfg, budget, m, geom)
        n0 = cfg.noise_power_w()
        p_r_w = channel.dbm_to_watts(budget.p_r_dbm)
        for k in dep.ue_indices(ServiceType.COM):
            rows = np.flatnonzero(m[:, k] == 1)
            np.testing.assert_allclose(S[rows, k], p_r_w[rows, k] / n0, rtol=1e-12)

    def test_scnr_equals_snr_without_clutter(self):
        cfg = desk_config(clutter_density_per_km2=0.0)
        dep = generate_deployment(cfg)
        budget = channel.link_budget(dep, cfg)
        geom = channel.clutter_geometry(dep, cfg.pathloss)
        m, _ = assoc.mask(cfg, budget)
        S = assoc.link_quality(dep, cfg, budget, m, geom)
        n0 = cfg.noise_power_w()
        p_r_w = channel.dbm_to_watts(budget.p_r_dbm)
        for k in dep.ue_indices(ServiceType.SENSE):
            rows = np.flatnonzero(m[:, k] == 1)
            np.testing.assert_allclose(S[rows, k], p_r_w[rows, k] / n0, rtol=1e-12)

    def test_nonnegative_everywhere(self, desk):
        cfg, dep, budget, geom = desk
        m, _ = assoc.mask(cfg, budget)
        S = assoc.link_quality(dep, cfg, budget, m, geom)
        assert np.all(S >= 0)


class TestClutterPower:
    def setup_method(self):
        self.cfg = desk_config()
        self.dep = generate_deployment(self.cfg)

    def _with_scatterers(self, pos, refl):
        dep = generate_deployment(self.cfg)
        dep.scatterer_pos = np.asarray(pos, dtype=float)
        dep.scatterer_refl = np.asarray(refl, dtype=float)
        return dep

    def _power(self, dep):
        geom = channel.clutter_geometry(dep, self.cfg.pathloss)
        link_dist = max(float(np.linalg.norm(dep.ap_pos[0] - dep.ue_pos[0])),
                        self.cfg.pathloss.d0_m)
        power, _ = channel.clutter_return(geom, dep, self.cfg, 0, 0, link_dist)
        return power

    def test_no_scatterers_zero(self):
        dep = self._with_scatterers(np.zeros((0, 2)), np.zeros(0))
        assert self._power(dep) == 0.0

    def test_reflectivity_linearity(self):
        ap, ue = self.dep.ap_pos[0], self.dep.ue_pos[0]
        mid = ap + 0.4 * (ue - ap)
        p1 = self._power(self._with_scatterers([mid], [1.0]))
        p2 = self._power(self._with_scatterers([mid], [2.0]))
        assert p1 > 0
        assert p2 == pytest.approx(2.0 * p1, rel=1e-12)

    def test_two_equal_scatterers_double(self):
        ap, ue = self.dep.ap_pos[0], self.dep.ue_pos[0]
        mid = ap + 0.4 * (ue - ap)
        p1 = self._power(self._with_scatterers([mid], [1.0]))
        p2 = self._power(self._with_scatterers([mid, mid], [1.0, 1.0]))
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


class TestPsiAndCounts:
    def test_psi_values(self):
        assert assoc.sparsity_psi(np.ones((3, 4))) == 1.0
        assert assoc.sparsity_psi(np.zeros((3, 4))) == 0.0
        m = np.zeros((3, 4), dtype=int)
        m[0, 0] = m[1, 1] = m[2, 2] = 1
        assert assoc.sparsity_psi(m) == 0.25

    def test_psi_weakly_decreasing_in_threshold(self, desk):
        cfg, dep, budget, _ = desk
        psis = [assoc.sparsity_psi(assoc.mask_links(budget.p_r_dbm, t))
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
    m, _ = assoc.mask(cfg, budget)
    S = assoc.link_quality(dep, cfg, budget, m, channel.clutter_geometry(dep, cfg.pathloss))
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

    @pytest.mark.parametrize("seed, kw, digest", [
        (3000, {}, "3a13a5f51e8e7a85d67c231e622d88416827d6b08d7a846ddb6e07975df29265"),
        (3001, {}, "1f08029524a0e7b0b3d29b4b0e831b5b44094f14649188dd1824ad96708b86b9"),
        (3002, {}, "fc348f84c883b2f7cf0ec4ef5072462fbd6f982da04215deb87d454173885fce"),
        (3003, {}, "8227382fdf866f715960a1cf5efbdfcfd814bb72613e19f068995357e4a82d96"),
        (11, dict(L=1000, K=300, area_side_m=1581.0, tau_p=3),
         "ced6b4c3b70b851852445f02ff163867095df39b2faf50e9bddd643d4beecb0a"),
        (12, dict(L=1000, K=300, area_side_m=1581.0, tau_p=3),
         "42ee5873a32f43e579901afe58bf26a04b5b8de26140413bfdf55bfc949f9ec0"),
    ], ids=["scenario-3000", "scenario-3001", "scenario-3002", "scenario-3003",
            "scenario-L1000", "scenario-L1000-12"])
    def test_support_pinned(self, seed, kw, digest):
        # sha256 of the int8 support that the solver routing one unit per
        # search returned; real-valued weights leave no tie, so routing
        # several units per search must reproduce it exactly
        S, R, M, tau_p, X = binding_scenario_instance(seed, **kw)
        A, rep = assoc.optimize(S, R, M, tau_p, X)
        assert 0 < rep.searches < rep.repairs
        assert hashlib.sha256(A.tobytes()).hexdigest() == digest


class TestCsvDump:
    def test_format(self):
        S = np.array([[1.5, 0.0]])
        R = assoc.priorities(S)
        A = np.array([[1, 0]])
        M = np.array([[1, 0]])
        text = assoc.association_csv(S, R, A, M)
        lines = text.strip().split("\n")
        assert lines[0] == "ap_id,ue_id,s_lk,r_lk,a_lk,masked"
        assert lines[1] == "0,0,1.5,1.0,1,0"
        assert lines[2] == "0,1,0.0,0.0,0,1"

    def test_matches_cell_by_cell_format(self):
        rng = np.random.default_rng(3)
        M = (rng.random((7, 5)) < 0.6).astype(np.int8)
        S = rng.random((7, 5)) * 1e6 * M
        S[0, :3] = [1e-300, 1.0 / 3.0, 1e16]
        R = assoc.priorities(S)
        A = (rng.random((7, 5)) < 0.3).astype(np.int64)
        expected = ["ap_id,ue_id,s_lk,r_lk,a_lk,masked"] + [
            f"{l},{k},{float(S[l, k])!r},{float(R[l, k])!r},{int(A[l, k])},{int(M[l, k] == 0)}"
            for l in range(7) for k in range(5)]
        assert assoc.association_csv(S, R, A, M) == "\n".join(expected) + "\n"

    @settings(deadline=None)
    @given(kind=st.sampled_from(["mixed", "all_blank", "no_blank"]),
           L=st.integers(0, 2 * assoc._CSV_AP_BLOCK + 3), K=st.integers(0, 6),
           pool=st.lists(st.floats(), max_size=4), seed=st.integers(0, 2**32 - 1))
    def test_matches_cell_by_cell_format_any_table(self, kind, L, K, pool, seed):
        # a blank row (s and r both +0.0, a in {0, 1}) takes a per-UE string,
        # every other row goes through repr; -0.0, subnormals, 1/3, 1e16,
        # nonzero S on masked cells and a_lk outside {0, 1} must all come out
        # as the cell-by-cell format writes them, across the AP blocks. The
        # cells are drawn from a seeded generator so that tables of up to
        # 67 x 6 cells stay within hypothesis's data budget.
        rng = np.random.default_rng(seed)
        values = np.array([0.0, -0.0, 5e-324, 1e-310, 1.0 / 3.0, 1e16, *pool])
        S, R = rng.choice(values, (2, L, K))
        A = rng.choice([0, 1, 2, -1], (L, K))
        M = rng.integers(0, 2, (L, K), dtype=np.int8)
        blank = {"mixed": rng.random((L, K)) < 0.5, "all_blank": np.ones((L, K), bool),
                 "no_blank": np.zeros((L, K), bool)}[kind]
        S[blank] = R[blank] = 0.0
        A[blank] &= 1
        if kind == "no_blank":
            zero = (S.view(np.uint64) | R.view(np.uint64)) == 0
            S[zero & ((A == 0) | (A == 1))] = -0.0
        expected = ["ap_id,ue_id,s_lk,r_lk,a_lk,masked"] + [
            f"{l},{k},{float(S[l, k])!r},{float(R[l, k])!r},{int(A[l, k])},{int(M[l, k] == 0)}"
            for l in range(L) for k in range(K)]
        assert assoc.association_csv(S, R, A, M) == "\n".join(expected) + "\n"


class TestPipelines:
    def test_sua_satisfies_constraints(self, desk):
        cfg, dep, budget, geom = desk
        res = assoc.run_sua(dep, cfg, budget, geom)
        assert assoc.check_feasible(res.A, res.mask, cfg.tau_p, cfg.X)

    def test_baseline_is_all_ones(self, desk):
        cfg, dep, budget, geom = desk
        res = assoc.run_baseline(dep, cfg, budget, geom)
        assert res.A.sum() == cfg.L * cfg.K

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
        unmasked = sua.mask == 1
        assert unmasked.any()
        np.testing.assert_array_equal(sua.S[unmasked], base.S[unmasked])
