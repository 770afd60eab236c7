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
    _infimum_over_box,
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

import oracles


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
    px = np.linspace(max(q_x - 2 * eta_x, 0.0), min(q_x + 2 * eta_x, 0.5), grid)
    pz = np.linspace(max(q_z - 2 * eta_zp, 0.0), min(q_z + 2 * eta_zp, 1.0), grid)
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
