"""The converged rate optimum: regression floors, local optimality, the cap.

Each floor is a rate that the multi-start coordinate descent this optimizer
replaced returned at the default search; the search over the test-round
count must match or beat every one.  The property holds each returned
optimum to its neighbourhood: no single move of one free logit, or of the
test-round count, scores more than 1e-12 per round above it.

This module imports neither scipy nor mpmath, so it also runs where the
library's numpy is the only dependency.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpqkd.finite_key import (
    Protocol,
    ProtocolConfig,
    budget_components,
    key_length_nbb84,
    key_length_nsixstate,
)
from mpqkd.numerics import LogEps
from mpqkd.optimize import (
    BudgetShares,
    SearchConfig,
    allocate_budget,
    optimize_rate,
    stats_from_qab_global,
)

TARGET = LogEps.from_eps(5e-9)
BB84, SIX = Protocol.N_BB84, Protocol.N_SIX_STATE

# (kind, Q_AB, N, L) -> the rate the multi-start search returned
FLOORS = {
    # the positive rates of the benchmark's rate curve (Q_AB = 0.05)
    (BB84, 0.05, 2, 10**10): 0.4039794688932091,
    (SIX, 0.05, 2, 10**10): 0.43156072112553284,
    (BB84, 0.05, 2, 31622777): 0.2859708068838026,
    # an odd m buys no m' and costs log2(1/p - 1) preshared bits: a search
    # over m rather than m' stalls on the sawtooth
    (SIX, 0.05, 2, 31622777): 0.13815892085949077,
    (BB84, 0.05, 5, 10**10): 0.4038535832080447,
    (SIX, 0.05, 5, 10**10): 0.32204084489169676,
    (BB84, 0.05, 5, 31622777): 0.2852349890247781,
    # the EC+PA share moves the length by a few bits out of 1e12: a fixed
    # 1e-3 logit step loses its second difference in roundoff
    (BB84, 0.1, 3, 10**13): 0.05994208563303376,
    # the shares move the length by about 1e4 bits out of 1e15
    (SIX, 0.05, 10, 10**15): 0.5287568430154271,
    (SIX, 0.1, 10, 10**15): 0.2508105202572341,
}


def evaluate(kind, parties, total_rounds, stats, shares, target=TARGET):
    """Net length per round through the public path."""
    budget = allocate_budget(kind, parties, total_rounds, target, shares)
    config = ProtocolConfig(kind, parties, total_rounds, shares.p)
    evaluator = key_length_nbb84 if kind is BB84 else key_length_nsixstate
    return evaluator(config, stats, budget).net_length / total_rounds


def left_edge(total_rounds, m):
    """The smallest double p with floor(L p) = m, found by walking ULPs."""
    p = m / total_rounds
    while math.floor(total_rounds * p) < m:
        p = math.nextafter(p, 1.0)
    while math.floor(total_rounds * math.nextafter(p, 0.0)) >= m:
        p = math.nextafter(p, 0.0)
    return p


def reduced_logits(weights):
    """Each share's log against w_EC + w_PA, the last two weights."""
    *rest, ec, pa = weights
    return [math.log(w / (ec + pa)) for w in rest]


def weights_of(logits):
    """Weights from reduced logits, with EC + PA split 1:2."""
    z = [math.exp(v) for v in logits] + [1.0]
    *rest, s = [v / sum(z) for v in z]
    return (*rest, s / 3.0, 2.0 * s / 3.0)


@pytest.mark.parametrize("kind, q_ab, parties, total_rounds", list(FLOORS))
def test_rate_at_least_the_multistart_floor(kind, q_ab, parties, total_rounds):
    stats = stats_from_qab_global(q_ab, parties)
    opt = optimize_rate(kind, parties, total_rounds, stats, TARGET)
    assert opt.rate >= FLOORS[kind, q_ab, parties, total_rounds] - 1e-12


class TestLocalOptimum:
    @settings(max_examples=60, deadline=None)
    @example(kind=SIX, parties=2, log10_rounds=7.5, q_ab=0.05, log10_eps=math.log10(5e-9))
    @example(kind=BB84, parties=3, log10_rounds=13.0, q_ab=0.1, log10_eps=math.log10(5e-9))
    @example(kind=SIX, parties=10, log10_rounds=15.0, q_ab=0.1, log10_eps=math.log10(5e-9))
    # P_Z clamps at 0, and the z' share sits at its edge
    @example(
        kind=SIX,
        parties=2,
        log10_rounds=math.log10(74175064),
        q_ab=0.0062,
        log10_eps=math.log10(5e-9),
    )
    @given(
        kind=st.sampled_from(list(Protocol)),
        parties=st.integers(2, 10),
        log10_rounds=st.floats(5.0, 15.0),
        q_ab=st.floats(0.003, 0.12),
        log10_eps=st.floats(-30.0, -3.0),
    )
    def test_no_single_move_gains(self, kind, parties, log10_rounds, q_ab, log10_eps):
        total_rounds = int(round(10.0**log10_rounds))
        stats = stats_from_qab_global(q_ab, parties)
        target = LogEps.from_eps(10.0**log10_eps)
        opt = optimize_rate(kind, parties, total_rounds, stats, target)

        def rate(shares):
            return max(evaluate(kind, parties, total_rounds, stats, shares, target), 0.0)

        # the rate comes back exactly through the public path
        assert rate(opt.shares) == opt.rate
        if opt.rate == 0.0:
            return
        weights, p = opt.shares.weights, opt.shares.p
        # w_PA = 2 w_EC, and p at the left edge of its step of m
        assert weights[-1] == pytest.approx(2.0 * weights[-2], rel=1e-15)
        m = math.floor(total_rounds * p)
        assert p == left_edge(total_rounds, m)
        unit = 2 if kind is SIX else 1
        assert m % unit == 0  # six-state: m = 2 m'

        def gain(shares):
            return rate(shares) - opt.rate

        logits = reduced_logits(weights)
        for i in range(len(logits)):
            for step in (-1.0, -0.1, -1e-3, 1e-3, 0.1, 1.0):
                moved = list(logits)
                moved[i] += step
                assert gain(BudgetShares(p, weights_of(moved))) <= 1e-12, (i, step)
        for dk in (-2, -1, 1, 2):
            m_moved = m + unit * dk
            if unit <= m_moved <= (total_rounds - 1) // 2:
                shares = BudgetShares(left_edge(total_rounds, m_moved), weights)
                assert gain(shares) <= 1e-12, dk


class TestEvaluationCap:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(list(Protocol)),
        parties=st.integers(2, 5),
        log10_rounds=st.floats(6.0, 12.0),
        cap=st.integers(1, 400),
        warm_p=st.one_of(st.none(), st.floats(1e-5, 0.4)),
    )
    def test_max_evaluations_caps_each_optimum(self, kind, parties, log10_rounds, cap, warm_p):
        total_rounds = int(round(10.0**log10_rounds))
        stats = stats_from_qab_global(0.05, parties)
        k = len(budget_components(kind))
        warm = None if warm_p is None else BudgetShares(warm_p, (1.0 / k,) * k)
        cfg = SearchConfig(cap, 1, 0)
        opt = optimize_rate(kind, parties, total_rounds, stats, TARGET, cfg, warm=warm)
        assert 1 <= opt.evaluations <= cap

    def test_cap_one_scores_the_floor_alone(self):
        stats = stats_from_qab_global(0.05, 2)
        opt = optimize_rate(BB84, 2, 10**8, stats, TARGET, SearchConfig(1, 1, 0))
        assert opt.evaluations == 1
        assert opt.shares == BudgetShares(math.exp(math.log(0.05)), (0.25,) * 4)


class TestNoRunaway:
    """Off eps_rob's edge ((N-1) eps_tot < 1), N-BB84 optima at L near 1e14
    that a Newton ascent ending short of the optimum leaves to its +-1, +-2
    walk, which crawls toward it until the 5000-point cap."""

    # (N, L, Q_AB, eps_tot) -> the converged rate
    RATES = {
        (9, 10**14, 0.02, 0.03): 0.7161889025977772,
        (10, 10**14, 0.04, 0.01): 0.5145515599922281,
        (10, 127912738303425, 0.035505921126539226, 0.02792800940008555): 0.5566415243442709,
    }

    @pytest.mark.parametrize("parties, total_rounds, q_ab, eps_tot", list(RATES))
    def test_converges_within_sixty_points(self, parties, total_rounds, q_ab, eps_tot):
        stats = stats_from_qab_global(q_ab, parties)
        target = LogEps.from_eps(eps_tot)
        opt = optimize_rate(BB84, parties, total_rounds, stats, target)
        assert opt.evaluations <= 60
        assert opt.rate >= self.RATES[parties, total_rounds, q_ab, eps_tot] - 1e-12
        assert evaluate(BB84, parties, total_rounds, stats, opt.shares, target) == opt.rate
