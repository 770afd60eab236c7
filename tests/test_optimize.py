"""Budget allocation exactness, optimizer guarantees, threshold mechanics."""

import math

import numpy as np
import pytest

import mpqkd.optimize as optimize
from mpqkd.finite_key import (
    ConfigurationError,
    Protocol,
    ProtocolConfig,
    epsilon_total_nbb84,
    epsilon_total_nsixstate,
    key_length_nbb84,
)
from mpqkd.noise import ObservedStats
from mpqkd.numerics import LogEps
from mpqkd.optimize import (
    BudgetShares,
    SearchConfig,
    _threshold_from_curve,
    allocate_budget,
    budget_components,
    optimize_rate,
    stats_from_qab_global,
    threshold_L,
)

TARGET = LogEps.from_eps(5e-9)
FAST = SearchConfig(max_evaluations=600, starts=3, seed=11)


def random_shares(rng, kind):
    k = len(budget_components(kind))
    w = rng.uniform(0.1, 1.0, k)
    w = w / w.sum()
    return BudgetShares(float(rng.uniform(0.01, 0.4)), tuple(float(v) for v in w))


class TestAllocateBudget:
    def test_bb84_composes_exactly_to_target(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            shares = random_shares(rng, Protocol.N_BB84)
            parties = int(rng.integers(2, 8))
            budget = allocate_budget(Protocol.N_BB84, parties, 10**6, TARGET, shares)
            total = epsilon_total_nbb84(budget, parties)
            assert total.neg_log2 >= TARGET.neg_log2  # never exceeds the budget
            assert total.neg_log2 == pytest.approx(TARGET.neg_log2, abs=1e-9)

    def test_sixstate_composes_exactly_to_target(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            shares = random_shares(rng, Protocol.N_SIX_STATE)
            parties = int(rng.integers(2, 6))
            total_rounds = int(10 ** rng.uniform(4, 12))
            budget = allocate_budget(
                Protocol.N_SIX_STATE, parties, total_rounds, TARGET, shares
            )
            total = epsilon_total_nsixstate(budget, parties, total_rounds)
            assert total.neg_log2 >= TARGET.neg_log2
            assert total.neg_log2 == pytest.approx(TARGET.neg_log2, abs=1e-9)

    def test_inner_components_absorb_postselection(self):
        shares = BudgetShares(0.05, tuple([1 / 6] * 6))
        budget = allocate_budget(Protocol.N_SIX_STATE, 3, 10**8, TARGET, shares)
        # every component sits 63 * log2(1e8 + 1) bits below the target
        shift = 63 * math.log2(10**8 + 1)
        assert budget.eps_pa.neg_log2 == pytest.approx(
            TARGET.neg_log2 + shift + math.log2(6), rel=1e-9
        )

    @pytest.mark.parametrize("kind", list(Protocol))
    def test_raises_when_target_never_met(self, monkeypatch, kind):
        # a composition stuck one bit above the target defeats every pass
        def stuck(*args):
            return LogEps(TARGET.neg_log2 - 1.0)

        monkeypatch.setattr(optimize, "epsilon_total_nbb84", stuck)
        monkeypatch.setattr(optimize, "epsilon_total_nsixstate", stuck)
        k = len(budget_components(kind))
        shares = BudgetShares(0.05, tuple([1.0 / k] * k))
        with pytest.raises(ValueError, match="exceeds the target by 1 bits"):
            allocate_budget(kind, 3, 10**6, TARGET, shares)


class TestOptimizeRate:
    def test_beats_equal_shares(self):
        stats = stats_from_qab_global(0.05, 2)
        total_rounds = 10**6
        equal = BudgetShares(0.05, tuple([0.25] * 4))
        budget = allocate_budget(Protocol.N_BB84, 2, total_rounds, TARGET, equal)
        cfg = ProtocolConfig(Protocol.N_BB84, 2, total_rounds, 0.05)
        baseline = key_length_nbb84(cfg, stats, budget).rate
        opt = optimize_rate(Protocol.N_BB84, 2, total_rounds, stats, TARGET, FAST)
        assert opt.rate >= baseline - 1e-15

    def test_noiseless_positive_rate(self):
        stats = ObservedStats(q_ab=[0.0], q_x=0.0, q_z=0.0)
        opt = optimize_rate(Protocol.N_BB84, 2, 10**6, stats, TARGET, FAST)
        assert opt.rate > 0.0

    def test_small_l_rate_zero(self):
        stats = stats_from_qab_global(0.05, 2)
        opt = optimize_rate(Protocol.N_BB84, 2, 200, stats, TARGET, FAST)
        assert opt.rate == 0.0

    def test_deterministic(self):
        stats = stats_from_qab_global(0.03, 3)
        a = optimize_rate(Protocol.N_SIX_STATE, 3, 10**7, stats, TARGET, FAST)
        b = optimize_rate(Protocol.N_SIX_STATE, 3, 10**7, stats, TARGET, FAST)
        assert a.rate == b.rate
        assert a.shares == b.shares
        assert a.evaluations == b.evaluations

    def test_budget_respected_at_optimum(self):
        stats = stats_from_qab_global(0.05, 2)
        opt = optimize_rate(Protocol.N_BB84, 2, 10**6, stats, TARGET, FAST)
        assert opt.result.eps_tot.neg_log2 >= TARGET.neg_log2 - 1e-9

    def test_too_small_l_raises(self):
        stats = stats_from_qab_global(0.05, 2)
        with pytest.raises(ConfigurationError):
            optimize_rate(Protocol.N_SIX_STATE, 2, 4, stats, TARGET, FAST)


class TestThresholdFromCurve:
    def test_simple_step(self):
        lbar = _threshold_from_curve(lambda L: L >= 5000, 64, 10**9)
        assert lbar is not None
        assert 5000 <= lbar <= 5050  # within 1% above the true step

    def test_no_crossing(self):
        assert _threshold_from_curve(lambda L: False, 64, 10**9) is None

    def test_crossed_from_start(self):
        lbar = _threshold_from_curve(lambda L: L >= 100, 1024, 10**9)
        assert lbar is not None
        assert 100 <= lbar <= 101

    def test_spurious_crossing_skipped(self):
        # crossed only on [1e4, 2e4), then again for good at 1e6
        def crossed(L):
            return (10**4 <= L < 2 * 10**4) or L >= 10**6

        lbar = _threshold_from_curve(crossed, 64, 10**9)
        assert lbar is not None
        assert 10**6 <= lbar <= int(1.01 * 10**6) + 1


class TestThresholdL:
    def test_none_when_lmax_tiny(self):
        assert threshold_L(0.05, 2, TARGET, l_max=4096, search_config=FAST) is None

    def test_crossover_exists_and_orders(self):
        lbar = threshold_L(0.05, 2, TARGET, search_config=FAST)
        assert lbar is not None
        stats = stats_from_qab_global(0.05, 2)
        below, above = lbar // 8, lbar * 8
        r6_below = optimize_rate(Protocol.N_SIX_STATE, 2, below, stats, TARGET, FAST).rate
        rb_below = optimize_rate(Protocol.N_BB84, 2, below, stats, TARGET, FAST).rate
        r6_above = optimize_rate(Protocol.N_SIX_STATE, 2, above, stats, TARGET, FAST).rate
        rb_above = optimize_rate(Protocol.N_BB84, 2, above, stats, TARGET, FAST).rate
        assert rb_below > r6_below
        assert r6_above >= rb_above
