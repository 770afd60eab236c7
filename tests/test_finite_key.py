"""Key-length evaluators against arbitrary-precision and brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpqkd.finite_key import (
    ConfigurationError,
    Protocol,
    ProtocolConfig,
    SecurityBudget,
    _box_corner,
    _gamma_result,
    derive_counts,
    epsilon_pe_nbb84,
    epsilon_total_nbb84,
    epsilon_total_nsixstate,
    gamma_pe_infimum,
    key_length_nbb84,
    key_length_nsixstate,
    net_key_length,
    six_state_entropy_expression,
)
from mpqkd.noise import ObservedStats
from mpqkd.numerics import LogEps, binary_entropy, eps_sqrt, eps_sum
from mpqkd.optimize import BudgetShares, allocate_budget, budget_components, stats_from_qab_global

import oracles


def _infimum_over_box(q_ab, q_x, q_z, eta_z, eta_x, eta_zp):
    """Gamma_PE infimum over the box of half-widths 2 eta around the statistics."""
    return _gamma_result(_box_corner(q_ab, q_x, q_z, eta_z, eta_x, eta_zp))


def bb84_budget(neg_z, neg_x, neg_ec, neg_pa):
    return SecurityBudget(
        eps_z=LogEps(neg_z), eps_x=LogEps(neg_x), eps_ec=LogEps(neg_ec), eps_pa=LogEps(neg_pa)
    )


def six_budget(neg_bar, neg_z, neg_x, neg_zp, neg_ec, neg_pa):
    return SecurityBudget(
        eps_z=LogEps(neg_z),
        eps_x=LogEps(neg_x),
        eps_ec=LogEps(neg_ec),
        eps_pa=LogEps(neg_pa),
        eps_bar=LogEps(neg_bar),
        eps_z_prime=LogEps(neg_zp),
    )


class TestDeriveCounts:
    def test_simple(self):
        cfg = ProtocolConfig(Protocol.N_BB84, 3, 1000, 0.1)
        assert derive_counts(cfg) == (100, 800, 50)

    def test_floor_behavior(self):
        cfg = ProtocolConfig(Protocol.N_BB84, 2, 10, 0.45)
        assert derive_counts(cfg) == (4, 2, 2)

    def test_degenerate(self):
        cfg = ProtocolConfig(Protocol.N_BB84, 2, 10, 0.05)
        with pytest.raises(ConfigurationError):
            derive_counts(cfg)

    def test_six_state_needs_m_prime(self):
        cfg = ProtocolConfig(Protocol.N_SIX_STATE, 2, 12, 0.1)  # m = 1, m' = 0
        with pytest.raises(ConfigurationError):
            derive_counts(cfg)


class TestEpsilonCompositions:
    def test_nbb84_derived(self):
        # frozen from direct mpf arithmetic: 2 sqrt(2*2^-80) + 2*2^-40
        budget = bb84_budget(80, 80, 40, 40)
        total = epsilon_total_nbb84(budget, 2)
        assert total.neg_log2 == pytest.approx(37.72844669683639, rel=1e-12)

    def test_nbb84_dominance(self):
        budget = bb84_budget(300, 300, 20, 260)
        total = epsilon_total_nbb84(budget, 2)
        assert total.eps == pytest.approx(LogEps(20).eps, rel=1e-12)

    def test_pe_equal_components(self):
        budget = bb84_budget(50, 50, 40, 40)
        pe = epsilon_pe_nbb84(budget, 2)
        expected = eps_sqrt(eps_sum([(2.0, LogEps(50))]))
        assert pe.neg_log2 == pytest.approx(expected.neg_log2, abs=1e-12)

    def test_sixstate_multiplier(self):
        budget = six_budget(360, 360, 360, 360, 360, 360)
        inner_only = epsilon_total_nsixstate(budget, 2, 0)  # (0+1)^k = 1
        shifted = epsilon_total_nsixstate(budget, 2, 10**6)
        assert shifted.neg_log2 == pytest.approx(
            inner_only.neg_log2 - 15 * math.log2(10**6 + 1), rel=1e-12
        )

    def test_sixstate_exponent(self):
        assert 2 ** (2 * 2) - 1 == 15

    def test_sixstate_vacuous_flag(self):
        budget = six_budget(40, 40, 40, 40, 40, 40)
        total = epsilon_total_nsixstate(budget, 3, 10**6)
        assert total.vacuous  # 63 * log2(1e6) >> 40 bits of headroom


class TestSixStateEntropyExpression:
    def test_noiseless(self):
        assert six_state_entropy_expression(0.0, 0.0, 0.0) == pytest.approx(1.0)

    def test_px_equals_half_pz(self):
        val = six_state_entropy_expression(0.0, 0.05, 0.1)
        # second x log2 x term vanishes by the 0 log 0 convention
        expected = six_state_entropy_expression(0.0, 0.05 + 1e-12, 0.1)
        assert val == pytest.approx(expected, abs=1e-9)
        assert not math.isnan(val)

    def test_reference_value(self):
        # frozen from a 60-digit evaluation at the symmetric N=2 point
        val = six_state_entropy_expression(0.05, 0.05, 0.05)
        assert val == pytest.approx(0.4968162683194162, rel=1e-12)

    def test_infeasible_marker(self):
        assert math.isnan(six_state_entropy_expression(0.0, 0.01, 0.5))

    def test_pz_one_limit(self):
        val = six_state_entropy_expression(0.0, 0.5, 1.0)
        assert not math.isnan(val)


def brute_force_infimum(q_ab, q_x, q_z, eta_z, eta_x, eta_zp, grid=512):
    """Independent dense-grid reference for the Gamma_PE infimum."""
    ab_hi = min(max(q_ab) + 2 * eta_z, 0.5)
    px_lo, px_hi = max(q_x - 2 * eta_x, 0.0), min(q_x + 2 * eta_x, 0.5)
    pz_lo, pz_hi = max(q_z - 2 * eta_zp, 0.0), min(q_z + 2 * eta_zp, 1.0)
    # an empty range (linspace would run it backwards) empties the box
    if px_lo > px_hi or pz_lo > pz_hi or max(q_ab) - 2 * eta_z > 0.5:
        return None
    px = np.linspace(px_lo, px_hi, grid)
    pz = np.linspace(pz_lo, pz_hi, grid)
    px_g, pz_g = np.meshgrid(px, pz, indexing="ij")
    a1 = 1.0 - pz_g / 2.0 - px_g
    a2 = px_g - pz_g / 2.0
    w = 1.0 - pz_g

    def xlx(x):
        return np.where(x > 1e-300, x * np.log2(np.maximum(x, 1e-300)), 0.0)

    val = xlx(a1) + xlx(a2) + w - xlx(w)
    val = np.where((a1 >= -1e-15) & (a2 >= -1e-15) & (w >= -1e-15), val, np.inf)
    best = float(val.min())
    if math.isinf(best):
        return None
    h = -ab_hi * math.log2(ab_hi) - (1 - ab_hi) * math.log2(1 - ab_hi) if 0 < ab_hi < 1 else 0.0
    return best - h


class TestGammaPEInfimum:
    def test_degenerate_box(self):
        res = _infimum_over_box([0.03], 0.04, 0.06, 0.0, 0.0, 0.0)
        assert res.feasible
        expected = six_state_entropy_expression(0.03, 0.04, 0.06)
        assert res.value == pytest.approx(expected, rel=1e-12)
        assert res.witness.p_x == pytest.approx(0.04)
        assert res.witness.p_z == pytest.approx(0.06)

    def test_corner_dominance(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            q_ab = [float(rng.uniform(0.0, 0.1))]
            q_x = float(rng.uniform(0.0, 0.1))
            q_z = float(rng.uniform(0.0, 0.2))
            eta = float(rng.uniform(0.0, 0.03))
            res = _infimum_over_box(q_ab, q_x, q_z, eta, eta, eta)
            if not res.feasible:
                continue
            h_ab = res.h_ab_part
            for px in (max(q_x - 2 * eta, 0.0), min(q_x + 2 * eta, 0.5)):
                for pz in (max(q_z - 2 * eta, 0.0), min(q_z + 2 * eta, 1.0)):
                    corner = six_state_entropy_expression(0.0, px, pz)
                    if math.isnan(corner):
                        continue
                    assert res.value <= corner - h_ab + 1e-12

    def test_against_brute_force_grid(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            q_ab = [float(rng.uniform(0.0, 0.1)) for _ in range(int(rng.integers(1, 4)))]
            q_x = float(rng.uniform(0.0, 0.1))
            q_z = float(rng.uniform(0.0, 0.25))
            eta_z = float(rng.uniform(0.001, 0.03))
            eta_x = float(rng.uniform(0.001, 0.03))
            eta_zp = float(rng.uniform(0.001, 0.03))
            res = _infimum_over_box(q_ab, q_x, q_z, eta_z, eta_x, eta_zp)
            brute = brute_force_infimum(q_ab, q_x, q_z, eta_z, eta_x, eta_zp)
            if brute is None:
                assert not res.feasible
                continue
            assert res.feasible
            assert res.value == pytest.approx(brute, abs=1e-12)

    def test_straddling_boxes_against_brute_force_grid(self):
        # boxes cut by the P_X = P_Z/2 boundary, some of them wholly beyond it
        rng = np.random.default_rng(29)
        verdicts = set()
        for _ in range(40):
            q_z = float(rng.uniform(0.12, 0.4))
            q_x = q_z / 2.0 + float(rng.uniform(-0.06, 0.01))
            eta_x = float(rng.uniform(0.001, 0.02))
            eta_zp = float(rng.uniform(0.001, 0.02))
            res = _infimum_over_box([0.03], q_x, q_z, 0.01, eta_x, eta_zp)
            brute = brute_force_infimum([0.03], q_x, q_z, 0.01, eta_x, eta_zp)
            assert res.feasible == (brute is not None)
            verdicts.add(res.feasible)
            if res.feasible:
                assert res.value == pytest.approx(brute, abs=1e-12)
        assert verdicts == {True, False}

    @pytest.mark.parametrize(
        "q_x, feasible", [(0.05, True), (0.05 - 5e-16, True), (0.05 - 1e-14, False)]
    )
    def test_roundoff_tolerance_on_boundary(self, q_x, feasible):
        # degenerate boxes at P_Z = 0.1, a hair either side of P_X = P_Z/2
        res = _infimum_over_box([0.03], q_x, 0.1, 0.0, 0.0, 0.0)
        brute = brute_force_infimum([0.03], q_x, 0.1, 0.0, 0.0, 0.0)
        assert res.feasible is feasible
        assert (brute is not None) is feasible

    def test_witness_respects_feasibility(self):
        # box straddling the p_x = p_z/2 boundary
        res = _infimum_over_box([0.02], 0.03, 0.1, 0.0, 0.01, 0.01)
        assert res.feasible
        assert res.witness.p_x - res.witness.p_z / 2.0 >= -1e-12

    def test_entirely_infeasible_box(self):
        res = _infimum_over_box([0.02], 0.0, 0.6, 0.0, 0.0, 0.0)
        assert not res.feasible
        assert res.witness is None

    @pytest.mark.parametrize(
        "q_ab, q_x, eta",
        [([0.02], 0.51, 0.0), ([0.02], 0.6, 0.02), ([0.02], 1.0, 0.2), ([0.7, 0.02], 0.05, 0.05)],
    )
    def test_empty_box_agrees_with_brute_force(self, q_ab, q_x, eta):
        # valid frequencies above 1/2 whose whole P_X or P_AB range lies
        # beyond the 1/2 cap
        ObservedStats(q_ab=q_ab, q_x=q_x, q_z=0.1)
        assert max(q_x, *q_ab) - 2.0 * eta > 0.5
        assert not _infimum_over_box(q_ab, q_x, 0.1, eta, eta, 0.01).feasible
        assert brute_force_infimum(q_ab, q_x, 0.1, eta, eta, 0.01) is None

    def test_public_wrapper(self):
        stats = ObservedStats(q_ab=[0.05], q_x=0.05, q_z=0.05)
        budget = six_budget(100, 100, 100, 100, 100, 100)
        res = gamma_pe_infimum(stats, budget, (10**5, 5 * 10**4))
        assert res.feasible
        assert res.value < six_state_entropy_expression(0.05, 0.05, 0.05)


# 60-digit evaluations resolve differences far below this; it absorbs only
# their own rounding where the bracket is flat in P_Z (at P_X = 1/2)
MP_ROUNDING = 1e-50


class TestCornerArgument:
    @given(
        p_ab=st.floats(0.0, 0.5),
        p_x=st.floats(0.0, 0.5),
        frac=st.floats(0.0, 1.0),
        step=st.floats(1e-9, 0.05),
    )
    def test_bracket_monotone_on_feasible_points(self, p_ab, p_x, frac, step):
        p_z = 2.0 * p_x * frac  # a2 = p_x (1 - frac) >= 0, so the point is feasible
        base = oracles.mp_sixstate_bracket(p_ab, p_x, p_z)
        assert base is not None
        if p_x + step <= 0.5:
            assert oracles.mp_sixstate_bracket(p_ab, p_x + step, p_z) < base
        up_z = oracles.mp_sixstate_bracket(p_ab, p_x, p_z + step)
        if up_z is not None:
            assert up_z - base >= -MP_ROUNDING

    @given(
        q_ab=st.lists(st.floats(0.0, 0.15), min_size=1, max_size=4),
        q_x=st.floats(0.0, 0.3),
        q_z=st.floats(0.0, 0.6),
        etas=st.tuples(*[st.floats(0.0, 0.05)] * 3),
    )
    def test_result_is_the_corner(self, q_ab, q_x, q_z, etas):
        eta_z, eta_x, eta_zp = etas
        res = _infimum_over_box(q_ab, q_x, q_z, eta_z, eta_x, eta_zp)
        if not res.feasible:
            return
        p_ab_worst = max(min(q + 2.0 * eta_z, 0.5) for q in q_ab)
        px_hi = min(q_x + 2.0 * eta_x, 0.5)
        pz_lo = max(q_z - 2.0 * eta_zp, 0.0)
        w = res.witness
        assert (w.p_ab, w.p_x, w.p_z) == (p_ab_worst, px_hi, pz_lo)
        assert res.value == res.entropy_part - res.h_ab_part
        reference = oracles.mp_sixstate_bracket(p_ab_worst, px_hi, pz_lo)
        if reference is not None:  # None only inside the roundoff tolerance
            assert res.value == pytest.approx(float(reference), abs=1e-12)


class TestKeyLengthNBB84:
    def test_reference_value(self):
        # frozen from the 60-digit direct evaluation of the key-length formula
        cfg = ProtocolConfig(Protocol.N_BB84, 2, 10**6, 0.05)
        stats = ObservedStats(q_ab=[0.01], q_x=0.01)
        result = key_length_nbb84(cfg, stats, bb84_budget(40, 40, 40, 40))
        assert result.raw_length == pytest.approx(576471.1370701299, rel=1e-12)
        assert result.net_length == pytest.approx(
            result.raw_length - 10**6 * binary_entropy(0.05), rel=1e-12
        )

    def test_terms_sum_to_raw(self):
        cfg = ProtocolConfig(Protocol.N_BB84, 4, 10**7, 0.1)
        stats = ObservedStats(q_ab=[0.01, 0.02, 0.03], q_x=0.02)
        result = key_length_nbb84(cfg, stats, bb84_budget(60, 55, 45, 40))
        t = result.terms
        assert result.raw_length == pytest.approx(
            t.min_entropy_term + t.leakage_term + t.ec_log_term + t.pa_term + t.ps_penalty,
            rel=1e-12,
        )
        assert result.net_length == pytest.approx(
            result.raw_length - t.preshared_cost, rel=1e-12
        )

    def test_entropy_clamp_zeroes_rate(self):
        # Q_X + 2 xi beyond 1/2 saturates the entropy penalty at one bit
        cfg = ProtocolConfig(Protocol.N_BB84, 2, 10**4, 0.1)
        stats = ObservedStats(q_ab=[0.1], q_x=0.49)
        result = key_length_nbb84(cfg, stats, bb84_budget(40, 40, 40, 40))
        assert result.raw_length < 0
        assert result.rate == 0.0

    def test_oracle_agreement_random_draws(self):
        rng = np.random.default_rng(20250810)
        for _ in range(25):
            draw = random_bb84_draw(rng)
            assert_bb84_matches_oracle(draw)

    def test_monotone_in_frequencies(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            parties = int(rng.integers(2, 6))
            cfg = ProtocolConfig(Protocol.N_BB84, parties, int(rng.integers(10**4, 10**7)), 0.1)
            budget = bb84_budget(*rng.uniform(20, 200, 4))
            q_ab = rng.uniform(0.0, 0.1, parties - 1)
            q_x = float(rng.uniform(0.0, 0.1))
            base = key_length_nbb84(
                cfg, ObservedStats(q_ab=list(q_ab), q_x=q_x), budget
            ).raw_length
            bumped_x = key_length_nbb84(
                cfg, ObservedStats(q_ab=list(q_ab), q_x=q_x + 0.02), budget
            ).raw_length
            bumped_ab = list(q_ab)
            bumped_ab[0] += 0.02
            bumped_z = key_length_nbb84(
                cfg, ObservedStats(q_ab=bumped_ab, q_x=q_x), budget
            ).raw_length
            assert bumped_x <= base + 1e-9
            assert bumped_z <= base + 1e-9

    def test_vacuous_budget_flagged(self):
        # eps_z = eps_x = 1 gives eps_PE = sqrt(N) > 1/2, so eps_rob >= 1
        cfg = ProtocolConfig(Protocol.N_BB84, 2, 10**5, 0.1)
        stats = ObservedStats(q_ab=[0.0], q_x=0.0)
        result = key_length_nbb84(cfg, stats, bb84_budget(0, 0, 1, 1))
        assert not result.feasible
        assert result.raw_length == -math.inf
        assert result.rate == 0.0

    def test_asymptotic_consistency(self):
        # raw l/L approaches 1 - h(Q_X) - h(Q_AB) for large L at fixed p
        total = 10**12
        cfg = ProtocolConfig(Protocol.N_BB84, 2, total, 0.002)
        stats = ObservedStats(q_ab=[0.1], q_x=0.1)
        neg = -math.log2(5e-9 / 4)
        result = key_length_nbb84(cfg, stats, bb84_budget(2 * neg, 2 * neg, neg, neg))
        limit = 1.0 - 2.0 * binary_entropy(0.1)
        assert abs(result.raw_length / total - limit) < 1e-3


class TestKeyLengthNSixState:
    def test_ps_penalty_two_parties(self):
        cfg = ProtocolConfig(Protocol.N_SIX_STATE, 2, 10**6, 0.05)
        stats = ObservedStats(q_ab=[0.01], q_x=0.01, q_z=0.01)
        result = key_length_nsixstate(cfg, stats, six_budget(*[400.0] * 6))
        expected = -2.0 * 15 * math.log2(10**6 + 1)
        assert result.terms.ps_penalty == pytest.approx(expected, rel=1e-12)
        assert result.terms.ps_penalty == pytest.approx(-597.9, abs=0.05)

    def test_ps_penalty_five_parties(self):
        cfg = ProtocolConfig(Protocol.N_SIX_STATE, 5, 10**6, 0.05)
        stats = ObservedStats(q_ab=[0.01] * 4, q_x=0.01, q_z=0.01)
        result = key_length_nsixstate(cfg, stats, six_budget(*[4000.0] * 6))
        expected = -2.0 * 1023 * math.log2(10**6 + 1)
        assert result.terms.ps_penalty == pytest.approx(expected, rel=1e-12)
        assert result.terms.ps_penalty == pytest.approx(-40770, abs=30)

    def test_terms_sum_to_raw(self):
        cfg = ProtocolConfig(Protocol.N_SIX_STATE, 3, 10**7, 0.1)
        stats = ObservedStats(q_ab=[0.02, 0.03], q_x=0.02, q_z=0.05)
        result = key_length_nsixstate(cfg, stats, six_budget(*[500.0] * 6))
        t = result.terms
        assert result.raw_length == pytest.approx(
            t.min_entropy_term + t.leakage_term + t.ec_log_term + t.pa_term + t.ps_penalty,
            rel=1e-12,
        )

    def test_infeasible_box_zeroes_rate(self):
        cfg = ProtocolConfig(Protocol.N_SIX_STATE, 2, 10**8, 0.1)
        stats = ObservedStats(q_ab=[0.01], q_x=0.0, q_z=0.9)
        result = key_length_nsixstate(cfg, stats, six_budget(*[2000.0] * 6))
        assert not result.feasible
        assert result.rate == 0.0
        assert result.raw_length == -math.inf

    def test_oracle_agreement_random_draws(self):
        rng = np.random.default_rng(20250811)
        for _ in range(25):
            draw = random_sixstate_draw(rng)
            assert_sixstate_matches_oracle(draw)

    def test_monotone_in_penalty_frequencies(self):
        # raw length is non-increasing in Q_AB and Q_X; Q_Z widens the
        # confidence box downward, so raising it never lowers the bracket
        rng = np.random.default_rng(37)
        for _ in range(15):
            parties = int(rng.integers(2, 5))
            cfg = ProtocolConfig(
                Protocol.N_SIX_STATE, parties, int(rng.integers(10**5, 10**8)), 0.1
            )
            budget = six_budget(*rng.uniform(300, 900, 6))
            q_ab = list(rng.uniform(0.0, 0.08, parties - 1))
            q_x, q_z = float(rng.uniform(0.0, 0.08)), float(rng.uniform(0.05, 0.15))
            stats = ObservedStats(q_ab=q_ab, q_x=q_x, q_z=q_z)
            base = key_length_nsixstate(cfg, stats, budget).raw_length
            if base == -math.inf:  # box already outside the physical region
                continue
            up_x = key_length_nsixstate(
                cfg, ObservedStats(q_ab=q_ab, q_x=q_x + 0.02, q_z=q_z), budget
            ).raw_length
            bumped = [q_ab[0] + 0.02] + q_ab[1:]
            up_ab = key_length_nsixstate(
                cfg, ObservedStats(q_ab=bumped, q_x=q_x, q_z=q_z), budget
            ).raw_length
            up_z = key_length_nsixstate(
                cfg, ObservedStats(q_ab=q_ab, q_x=q_x, q_z=q_z + 0.02), budget
            ).raw_length
            assert up_x <= base + 1e-9
            assert up_ab <= base + 1e-9
            if up_z > -math.inf:  # raising Q_Z can empty the box entirely
                assert up_z >= base - 1e-9

    def test_asymptotic_consistency(self):
        # raw l/L approaches the asymptotic rate at L = 1e14, N = 2
        total = 10**14
        cfg = ProtocolConfig(Protocol.N_SIX_STATE, 2, total, 1e-4)
        stats = ObservedStats(q_ab=[0.01], q_x=0.01, q_z=0.01)
        shift = 15 * math.log2(total + 1)
        neg = -math.log2(5e-9 / 5) + shift
        result = key_length_nsixstate(
            cfg, stats, six_budget(neg + 1, neg, neg, neg, neg, neg)
        )
        limit = six_state_entropy_expression(0.01, 0.01, 0.01)
        assert abs(result.raw_length / total - limit) < 1e-2


def random_bb84_draw(rng):
    parties = int(rng.integers(2, 7))
    return {
        "parties": parties,
        "total_rounds": int(10 ** rng.uniform(4, 12)),
        "p": float(rng.uniform(0.01, 0.3)),
        "q_ab": [float(v) for v in rng.uniform(0.0, 0.12, parties - 1)],
        "q_x": float(rng.uniform(0.0, 0.12)),
        "negs": [float(v) for v in rng.uniform(10.0, 300.0, 4)],
    }


def assert_bb84_matches_oracle(draw):
    neg_z, neg_x, neg_ec, neg_pa = draw["negs"]
    cfg = ProtocolConfig(Protocol.N_BB84, draw["parties"], draw["total_rounds"], draw["p"])
    stats = ObservedStats(q_ab=draw["q_ab"], q_x=draw["q_x"])
    result = key_length_nbb84(cfg, stats, bb84_budget(neg_z, neg_x, neg_ec, neg_pa))
    reference = oracles.mp_key_length_nbb84(
        draw["parties"],
        draw["total_rounds"],
        draw["p"],
        draw["q_ab"],
        draw["q_x"],
        neg_z,
        neg_x,
        neg_ec,
        neg_pa,
    )
    assert oracles.rel_close(result.raw_length, reference), (
        f"{result.raw_length} vs oracle {float(reference)} for {draw}"
    )


def random_sixstate_draw(rng):
    parties = int(rng.integers(2, 5))
    return {
        "parties": parties,
        "total_rounds": int(10 ** rng.uniform(5, 10)),
        "p": float(rng.uniform(0.01, 0.3)),
        "q_ab": [float(v) for v in rng.uniform(0.0, 0.1, parties - 1)],
        "q_x": float(rng.uniform(0.0, 0.1)),
        "q_z": float(rng.uniform(0.0, 0.2)),
        "negs": [float(v) for v in rng.uniform(10.0, 400.0, 6)],
    }


def assert_sixstate_matches_oracle(draw):
    neg_bar, neg_z, neg_x, neg_zp, neg_ec, neg_pa = draw["negs"]
    cfg = ProtocolConfig(Protocol.N_SIX_STATE, draw["parties"], draw["total_rounds"], draw["p"])
    stats = ObservedStats(q_ab=draw["q_ab"], q_x=draw["q_x"], q_z=draw["q_z"])
    result = key_length_nsixstate(
        cfg, stats, six_budget(neg_bar, neg_z, neg_x, neg_zp, neg_ec, neg_pa)
    )
    reference = oracles.mp_key_length_nsixstate(
        draw["parties"],
        draw["total_rounds"],
        draw["p"],
        draw["q_ab"],
        draw["q_x"],
        draw["q_z"],
        neg_bar,
        neg_z,
        neg_x,
        neg_zp,
        neg_ec,
        neg_pa,
    )
    if reference is None:
        assert not result.feasible
        return
    assert oracles.rel_close(result.raw_length, reference), (
        f"{result.raw_length} vs oracle {float(reference)} for {draw}"
    )


class TestNetKeyLength:
    def test_h_zero_limit(self):
        assert net_key_length(1000.0, 1000, 0.0) == 1000.0

    def test_h_half(self):
        assert net_key_length(1000.0, 1000, 0.5) == pytest.approx(0.0)

    def test_reference(self):
        # frozen from a 60-digit evaluation of 5000 - 1e4 h(0.05)
        assert net_key_length(5000.0, 10**4, 0.05) == pytest.approx(
            2136.0304288404387, rel=1e-12
        )


# ------------------------------------------------------------------ golden
# Evaluator and budget-split outputs recorded with the per-object evaluators
# that scored every optimizer point before the float cores.  The values are
# reprs, so any change in the order of float operations shows up; the mpmath
# oracles above stay the tolerance referees of the formulas themselves.

BB, SIX = Protocol.N_BB84, Protocol.N_SIX_STATE

# (id, kind, parties, L, p, stats, budget): budget is (eps_tot target, weights)
# for allocate_budget, or the six component exponents used directly
GOLDEN_CASES = [
    ("bb84-N2-1e6", BB, 2, 10**6, 0.05, stats_from_qab_global(0.05, 2), (5e-9, (0.25, 0.25, 0.25, 0.25))),
    ("bb84-N3-1e8", BB, 3, 10**8, 0.02, stats_from_qab_global(0.03, 3), (1e-10, (0.6, 0.3, 0.05, 0.05))),
    ("bb84-N4-local", BB, 4, 10**7, 0.1, ObservedStats(q_ab=[0.01, 0.03, 0.02], q_x=0.04), (5e-9, (0.1, 0.2, 0.3, 0.4))),
    ("bb84-N10-1e15", BB, 10, 10**15, 1e-4, stats_from_qab_global(0.02, 10), (1e-12, (0.4, 0.4, 0.1, 0.1))),
    ("bb84-vacuous-rob", BB, 5, 10**6, 0.1, stats_from_qab_global(0.05, 5), (0.9, (0.25, 0.25, 0.25, 0.25))),
    ("bb84-edge-shares", BB, 2, 10**9, 0.3, stats_from_qab_global(0.01, 2), (5e-9, (1e-12, 0.5, 0.5 - 2e-12, 1e-12))),
    ("six-N2-1e8", SIX, 2, 10**8, 0.05, stats_from_qab_global(0.05, 2), (5e-9, (1 / 6,) * 6)),
    ("six-N3-1e10", SIX, 3, 10**10, 0.01, stats_from_qab_global(0.03, 3), (1e-10, (0.3, 0.3, 0.2, 0.1, 0.05, 0.05))),
    ("six-N4-1e12", SIX, 4, 10**12, 0.003, stats_from_qab_global(0.01, 4), (5e-9, (0.2, 0.2, 0.2, 0.2, 0.1, 0.1))),
    ("six-N10-1e15", SIX, 10, 10**15, 1e-4, stats_from_qab_global(0.01, 10), (1e-12, (1 / 6,) * 6)),
    ("six-empty-box", SIX, 2, 10**12, 0.1, ObservedStats(q_ab=[0.02], q_x=0.0, q_z=0.6), (5e-9, (1 / 6,) * 6)),
    ("six-vacuous-rob", SIX, 3, 10**6, 0.1, stats_from_qab_global(0.05, 3), (1.0, 1.0, 1.0, 1.0, 30.0, 30.0)),
    ("bb84-no-test-rounds", BB, 3, 10**3, 0.0005, stats_from_qab_global(0.05, 3), (5e-9, (0.25,) * 4)),
    ("six-no-xparity-rounds", SIX, 2, 10, 0.15, stats_from_qab_global(0.05, 2), (5e-9, (1 / 6,) * 6)),
]

# per case: allocate_budget component exponents (None for a direct budget)
# and raw, net, rate, terms, eps_tot, feasible, eps_tot_vacuous, witness
GOLDEN = {'bb84-N2-1e6': (['60.150849518197795', '60.150849518197795', '29.575424759098897',
                  '29.575424759098897'],
                 ['234694.57728239716', '-51702.37983355907', '0.0',
                  ['567391.1517783336', '-332608.84822166635', '-30.575424759098897',
                   '-57.15084951098432', '0.0', '286396.95711595623'],
                  '27.575424759098897', True, False, None]),
 'bb84-N3-1e8': (['70.32753058535852', '70.32753058535852', '37.541209043760986',
                  '37.541209043760986'],
                 ['55337555.21598998', '41193500.96180791', '0.41193500961807905',
                  ['75668833.91980855', '-20331166.080191445', '-39.541209043760986',
                   '-73.08241808700261', '0.0', '14144054.254182067'],
                  '33.219280948873624', True, False, None]),
 'bb84-N4-local': (['63.794705707972525', '61.209743207251364', '29.312390353265105',
                    '28.89735285398626'],
                   ['4135304.734657248', '-554651.201235564', '0.0',
                    ['5885928.501100478', '-1750536.0743846807', '-31.897352853986263',
                     '-55.79470569498827', '0.0', '4689955.935892812'],
                    '27.575424759098897', True, False, None]),
 'bb84-N10-1e15': (['86.54005546851373', '83.37013046707142', '43.18506523353571',
                    '43.18506523353571'],
                   ['716782864263212.2', '715309830734884.1', '0.7153098307348841',
                    ['858292330543415.6', '-141509466280071.62', '-47.35499023497802',
                     '-84.37013046705064', '0.0', '1473033528328.1597'],
                    '39.86313713864835', True, False, None]),
 'bb84-vacuous-rob': (['7.3040061868901', '5.3040061868901', '2.15200309344505',
                       '2.15200309344505'],
                      ['-inf', '-inf', '0.0',
                       ['555672.6203990617', '-246917.91851277876', '-5.15200309344505',
                        '-inf', '0.0', '468995.5935892812'],
                       '0.15200309344505003', False, False, None]),
 'bb84-edge-shares': (['98.01398665684326', '59.15084951819491', '28.575424759104667',
                       '67.43856189774725'],
                      ['333277063.79402655', '-548013835.4366663', '0.0',
                       ['366769194.6920156', '-33491968.44544054', '-29.575424759104667',
                        '-132.877123788281', '0.0', '881290899.2306927'],
                       '27.575424759098897', True, False, None]),
 'six-N2-1e8': (['429.791758862708', '428.791758862708', '428.791758862708',
                 '428.791758862708', '428.791758862708', '428.791758862708'],
                ['36574961.43109811', '7935265.719502486', '0.07935265719502486',
                 ['65142368.56132532', '-28565324.492207415', '-429.791758862708',
                  '-855.583517725416', '-797.2627432057755', '28639695.711595625'],
                 '27.57542475909912', True, False,
                 ['0.05572770194793534', '0.058083061327030776', '0.04427229805206467']]),
 'six-N3-1e10': (['2128.770946331167', '2128.770946331167', '2128.3559088318884',
                  '2129.3559088318884', '2130.3559088318884', '2130.3559088318884'],
                 ['6351354280.369249', '5543422921.410137', '0.5543422921410137',
                  ['8404755907.5150175', '-2053391050.4486425', '-2132.3559088318884',
                   '-4258.711817663777', '-4185.629399576254', '807931358.9591118'],
                  '33.2192809488738', True, False,
                  ['0.032749902671927934', '0.03388679683621579', '0.042249728735085035']]),
 'six-N4-1e12': (['10195.997323209684', '10196.582285710405', '10194.997323209684',
                  '10194.997323209684', '10195.997323209684', '10195.997323209684'],
                 ['857493317577.0729', '828029265732.1506', '0.8280292657321506',
                  ['945223308393.1804', '-87729939897.3307', '-10198.582285710405',
                   '-20389.994646419367', '-20330.199940711394', '29464051844.92225'],
                  '27.575424759099405', True, False,
                  ['0.011088682385496304', '0.011539360377157823',
                   '0.016411401711170823']]),
 'six-N10-1e15': (['52249404.72954738', '52249406.89947238', '52249403.72954738',
                   '52249403.72954738', '52249403.72954738', '52249403.72954738'],
                  ['658525862452329.0', '657052828924000.9', '0.6570528289240009',
                   ['819676605880970.1', '-161150482181705.12', '-52249407.899472386',
                    '-104498805.45909476', '-104498722.56289548', '1473033528328.1597'],
                   '39.863137140870094', True, False,
                   ['0.023456704599412643', '0.029030653207825455',
                    '0.006504233308789936']]),
 'six-empty-box': (['629.107444339567', '628.107444339567', '628.107444339567',
                    '628.107444339567', '628.107444339567', '628.107444339567'],
                   ['-inf', '-inf', '0.0',
                    ['nan', 'nan', '-629.107444339567', 'nan', '-1195.8941141594937',
                     '468995593589.28125'],
                    '27.57542475909895', False, False, None]),
 'six-vacuous-rob': (None,
                     ['-inf', '-inf', '0.0',
                      ['nan', 'nan', '-32.0', 'nan', '-2511.37782151433',
                       '468995.5935892812'],
                      '-1257.273873258782', False, True, None]),
 'bb84-no-test-rounds': (['61.150849518197795', '60.150849518197795', '29.575424759098897',
                          '29.575424759098897'],
                         'ConfigurationError: no test rounds: m = 0'),
 'six-no-xparity-rounds': (['83.05186153937957', '82.05186153937957', '82.05186153937957',
                            '82.05186153937957', '82.05186153937957', '82.05186153937957'],
                           "ConfigurationError: no accepted X-parity rounds: m' = 0")}


def golden_outputs(kind, parties, total, p, stats, spec):
    if isinstance(spec[1], tuple):
        target, weights = spec
        shares = BudgetShares(p, weights)
        budget = allocate_budget(kind, parties, total, LogEps.from_eps(target), shares)
        components = [repr(getattr(budget, name).neg_log2) for name in budget_components(kind)]
    else:
        budget = six_budget(*spec)
        components = None
    evaluator = key_length_nbb84 if kind is BB else key_length_nsixstate
    try:
        res = evaluator(ProtocolConfig(kind, parties, total, p), stats, budget)
    except ConfigurationError as exc:
        return components, f"ConfigurationError: {exc}"
    w = res.witness
    return components, [
        repr(res.raw_length),
        repr(res.net_length),
        repr(res.rate),
        [repr(v) for v in vars(res.terms).values()],
        repr(res.eps_tot.neg_log2),
        res.feasible,
        res.eps_tot_vacuous,
        None if w is None else [repr(w.p_ab), repr(w.p_x), repr(w.p_z)],
    ]


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_evaluator_outputs(case):
    cid, *args = case
    assert golden_outputs(*args) == GOLDEN[cid]
