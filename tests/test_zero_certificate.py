"""The zero-rate certificate: its bound, its verdicts, and what it skips.

This module imports neither scipy nor mpmath, so it also shows that the
certificate runs on numpy alone.
"""

import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mpqkd.finite_key as finite_key
import mpqkd.optimize as optimize
from mpqkd.finite_key import (
    ConfigurationError,
    Protocol,
    ProtocolConfig,
    _length_core,
    _rob,
    budget_components,
    key_length_nbb84,
    key_length_nsixstate,
)
from mpqkd.noise import NoiseModel, NoiseScenario, ObservedStats, expected_observed_stats
from mpqkd.numerics import LogEps
from mpqkd.optimize import (
    BudgetShares,
    SearchConfig,
    allocate_budget,
    optimize_rate,
    stats_from_qab_global,
    threshold_L,
)

TARGET = LogEps.from_eps(5e-9)
P_MAX = 0.4999  # optimize_rate's upper end of p

LOG_WEIGHTS = st.lists(st.floats(math.log(1e-12), 0.0), min_size=6, max_size=6)


def log_uniform_shares(kind, p, log_weights):
    """Shares from log-uniform weight draws; 1e-12 draws sit near the simplex edge."""
    raw = [math.exp(v) for v in log_weights[: len(budget_components(kind))]]
    return BudgetShares(p, tuple(w / sum(raw) for w in raw))


def key_length_at(kind, parties, total_rounds, stats, target, opt):
    """The key length at an optimum: ``key_length_*`` of ``allocate_budget``
    at its shares."""
    budget = allocate_budget(kind, parties, total_rounds, target, opt.shares)
    config = ProtocolConfig(kind, parties, total_rounds, opt.shares.p)
    evaluator = key_length_nbb84 if kind is Protocol.N_BB84 else key_length_nsixstate
    return evaluator(config, stats, budget)


def p_range(kind, total_rounds):
    """``optimize_rate``'s p range (p_min, p_max), or None where L is too
    small for its round bookkeeping."""
    try:
        return optimize._p_range(kind, 2, total_rounds)[1:]
    except ConfigurationError:
        return None


def certified(kind, parties, total_rounds, stats, target, level=0.0):
    p_min, p_max = p_range(kind, total_rounds)
    return finite_key._certified_zero(
        kind, parties, total_rounds, stats, target.neg_log2, p_min, p_max, level
    )


def recording_scorer(scored):
    """``optimize._scorer`` whose scores are also appended to ``scored``."""
    inner = optimize._scorer

    def scorer(*args):
        score = inner(*args)

        def recorded(weights, p):
            scored.append(score(weights, p))
            return scored[-1]

        return recorded

    return scorer


def core_net(kind, parties, total_rounds, p, stats, negs, neg_pe):
    """The key-length core's net length at p."""
    return _length_core(kind, parties, total_rounds)(p, stats, negs, neg_pe)[2]


class TestBound:
    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(list(Protocol)),
        parties=st.integers(2, 10),
        log10_rounds=st.floats(1.0, 15.0),
        target_neg=st.floats(0.0, 200.0),
        log_weights=LOG_WEIGHTS,
    )
    def test_no_split_goes_below_the_floors(
        self, kind, parties, log10_rounds, target_neg, log_weights
    ):
        total_rounds = int(round(10.0**log10_rounds))
        shares = log_uniform_shares(kind, 0.1, log_weights)
        split = optimize._splitter(kind, parties, total_rounds, target_neg)
        negs, neg_pe, _ = split(shares.weights)
        floors, floor_pe = finite_key._floors(kind, parties, total_rounds, target_neg)
        # eps_PE is composed, so it may sit a few ULPs below its floor
        assert neg_pe >= floor_pe - 8.0 * math.ulp(floor_pe)
        assert all(neg >= floor for neg, floor in zip(negs, floors)), (negs, floors)

    @pytest.mark.parametrize("kind", list(Protocol))
    @pytest.mark.parametrize("parties", [2, 10])
    def test_pe_floor_is_reached_at_the_simplex_edge(self, kind, parties):
        # nearly all weight on the components eps_PE composes: eps_z and eps_x
        # for N-BB84, eps_x and eps_z' for six-state
        k = len(budget_components(kind))
        weights = [1e-12] * k
        pair = (0, 1) if kind is Protocol.N_BB84 else (2, 3)
        for i in pair:
            weights[i] = 0.5 - (k - 2) * 5e-13
        negs, neg_pe, _ = optimize._splitter(kind, parties, 10**9, TARGET.neg_log2)(tuple(weights))
        floors, floor_pe = finite_key._floors(kind, parties, 10**9, TARGET.neg_log2)
        assert neg_pe == pytest.approx(floor_pe, abs=1e-9, rel=1e-15)

    @settings(max_examples=400, deadline=None)
    @example(  # a six-state interval of one m at N = 10, L = 1e15
        kind=Protocol.N_SIX_STATE,
        parties=10,
        log10_rounds=15.0,
        q_ab=0.05,
        target_neg=27.6,
        u_p=0.9,
        u_lo=0.0,
        u_hi=0.0,
        log_weights=[0.0] * 6,
    )
    @given(
        kind=st.sampled_from(list(Protocol)),
        parties=st.integers(2, 10),
        log10_rounds=st.floats(1.0, 15.0),
        q_ab=st.floats(0.001, 0.2),
        target_neg=st.floats(0.0, 200.0),
        u_p=st.floats(0.0, 1.0),
        u_lo=st.floats(0.0, 1.0),
        u_hi=st.floats(0.0, 1.0),
        log_weights=LOG_WEIGHTS,
    )
    def test_net_length_never_above_the_interval_bound(
        self, kind, parties, log10_rounds, q_ab, target_neg, u_p, u_lo, u_hi, log_weights
    ):
        total_rounds = int(round(10.0**log10_rounds))
        p_bounds = p_range(kind, total_rounds)
        if p_bounds is None:
            return
        p_min, p_max = p_bounds
        # p as optimize_rate sets it from log p
        lp_lo, lp_hi = math.log(p_min), math.log(p_max)
        p = math.exp(lp_lo + u_p * (lp_hi - lp_lo))
        shares = log_uniform_shares(kind, p, log_weights)
        stats = stats_from_qab_global(q_ab, parties)
        negs, neg_pe, _ = optimize._splitter(kind, parties, total_rounds, target_neg)(
            shares.weights
        )
        net = core_net(kind, parties, total_rounds, p, stats, negs, neg_pe)

        # any interval of m that holds floor(L p)
        m = math.floor(total_rounds * p)
        m_min = 2 if kind is Protocol.N_SIX_STATE else 1
        m_max = (total_rounds - 1) // 2
        lo = m - math.floor(u_lo * (m - m_min))
        hi = m + math.floor(u_hi * (m_max - m))
        floors, floor_pe = finite_key._floors(kind, parties, total_rounds, target_neg)
        if _rob(floor_pe, parties) <= 0.0:
            return  # a vacuous floor bounds nothing, and certifies nothing
        bound = finite_key._length_bound(
            kind, parties, total_rounds, stats, floors, floor_pe, p_min, lo, hi
        )
        if bound is None:
            return  # an empty floor box bounds nothing, and certifies nothing
        # roundoff: a few ULPs of the largest term, which is at most a few
        # bits per round wherever the lengths are comparable
        scale = max(total_rounds, abs(bound), abs(net) if net > -math.inf else 0.0)
        assert net <= bound + 1e-12 * scale, (net, bound, lo, m, hi)

    @pytest.mark.parametrize("kind", list(Protocol))
    def test_one_m_bound_is_the_core_at_the_floors(self, kind):
        # with lo = hi = m and p = m / L the bound is the floor point itself
        parties, total_rounds = 3, 10**7
        stats = stats_from_qab_global(0.05, parties)
        floors, floor_pe = finite_key._floors(kind, parties, total_rounds, TARGET.neg_log2)
        for m in (2, 1000, 10**5, 4 * 10**6):
            p = (m + 0.25) / total_rounds
            core = core_net(kind, parties, total_rounds, p, stats, floors, floor_pe)
            bound = finite_key._length_bound(
                kind, parties, total_rounds, stats, floors, floor_pe, p, m, m
            )
            assert bound == pytest.approx(core, rel=1e-12, abs=1e-6)


class TestVerdict:
    @settings(max_examples=40, deadline=None)
    @example(
        kind=Protocol.N_SIX_STATE, parties=5, log10_rounds=7.5, q_ab=0.05, target_neg=27.6
    )
    @example(kind=Protocol.N_BB84, parties=2, log10_rounds=5.0, q_ab=0.05, target_neg=27.6)
    @given(
        kind=st.sampled_from(list(Protocol)),
        parties=st.integers(2, 10),
        log10_rounds=st.floats(2.0, 15.0),
        q_ab=st.floats(0.001, 0.2),
        target_neg=st.floats(0.0, 100.0),
    )
    def test_certified_zero_survives_a_full_search(
        self, kind, parties, log10_rounds, q_ab, target_neg
    ):
        total_rounds = int(round(10.0**log10_rounds))
        if p_range(kind, total_rounds) is None:
            return
        stats = stats_from_qab_global(q_ab, parties)
        target = LogEps(target_neg)
        if not certified(kind, parties, total_rounds, stats, target):
            return
        search = SearchConfig(400, 3, 0)
        with mock.patch.object(optimize, "_certified_zero", return_value=False):
            opt = optimize_rate(kind, parties, total_rounds, stats, target, search)
        assert opt.rate == 0.0
        assert opt.evaluations > 1  # the search ran

    @settings(max_examples=60, deadline=None)
    @example(  # certified below N-BB84 in the threshold scan of q = 0.05, N = 2
        kind=Protocol.N_SIX_STATE,
        parties=2,
        log10_rounds=27 * math.log10(2.0),
        q_ab=0.05,
        target_neg=TARGET.neg_log2,
        u_level=1.0,
    )
    @example(  # searched in full, a multiplier solve here misses sum w = 1 by 1.4e-9
        kind=Protocol.N_SIX_STATE,
        parties=7,
        log10_rounds=6.34375,
        q_ab=0.07421875,
        target_neg=5.0,
        u_level=0.0,
    )
    @given(
        kind=st.sampled_from(list(Protocol)),
        parties=st.integers(2, 10),
        log10_rounds=st.floats(6.0, 15.0),
        q_ab=st.floats(0.005, 0.08),
        target_neg=st.floats(5.0, 100.0),
        u_level=st.floats(0.0, 1.0),
    )
    def test_certified_level_survives_a_full_search(
        self, kind, parties, log10_rounds, q_ab, target_neg, u_level
    ):
        # a level between 0 and the N-BB84 optimum at the same point, as the
        # threshold search asks of the six-state rate
        total_rounds = int(round(10.0**log10_rounds))
        if p_range(kind, total_rounds) is None:
            return
        stats = stats_from_qab_global(q_ab, parties)
        target = LogEps(target_neg)
        search = SearchConfig(400, 3, 0)
        r_bb84 = optimize_rate(Protocol.N_BB84, parties, total_rounds, stats, target, search).rate
        level = u_level * r_bb84 * total_rounds
        if not certified(kind, parties, total_rounds, stats, target, level):
            return
        scored = []
        with mock.patch.object(optimize, "_certified_zero", return_value=False):
            with mock.patch.object(optimize, "_scorer", recording_scorer(scored)):
                opt = optimize_rate(kind, parties, total_rounds, stats, target, search)
        assert opt.evaluations == len(scored) > 1  # the search ran
        assert max(scored) < level, (max(scored), level)

    @pytest.mark.parametrize("level", [0.0, 1e6])
    def test_level_is_settled_only_past_the_slack(self, level):
        # a bound inside the slack below the level settles nothing, so the
        # bisection splits down to one m; one just past it settles at once
        kind, parties, total_rounds = Protocol.N_SIX_STATE, 2, 10**9
        stats = stats_from_qab_global(0.05, parties)
        slack = finite_key._ZERO_SLACK * total_rounds
        # a core far below every level, so the bounds alone decide
        with mock.patch.object(finite_key, "_length_core", lambda *a: lambda *b: (0, 0, -1e300)):
            for gap, holds in ((0.5 * slack, False), (1.5 * slack, True)):
                bound = mock.Mock(return_value=level - gap)
                with mock.patch.object(finite_key, "_length_bound", bound):
                    assert certified(kind, parties, total_rounds, stats, TARGET, level) is holds
                    assert (bound.call_count == 1) is holds

    def test_certified_optimum_is_the_equal_shares_point(self):
        kind, parties, total_rounds = Protocol.N_SIX_STATE, 5, 31622777
        stats = stats_from_qab_global(0.05, parties)
        assert certified(kind, parties, total_rounds, stats, TARGET)
        opt = optimize_rate(kind, parties, total_rounds, stats, TARGET)
        equal = BudgetShares(math.exp(math.log(0.05)), tuple([1.0 / 6] * 6))
        budget = allocate_budget(kind, parties, total_rounds, TARGET, equal)
        config = ProtocolConfig(kind, parties, total_rounds, equal.p)
        assert opt.rate == 0.0
        assert opt.shares == equal
        assert opt.evaluations == 1
        result = key_length_at(kind, parties, total_rounds, stats, TARGET, opt)
        assert result == key_length_nsixstate(config, stats, budget)
        assert result.net_length < 0.0

    @pytest.mark.parametrize(
        "kind, parties, total_rounds, fewest",
        [
            (Protocol.N_SIX_STATE, 5, 31622777, 4),
            (Protocol.N_BB84, 2, 10**5, 4),
            (Protocol.N_SIX_STATE, 2, 10**5, 2),
        ],
    )
    def test_split_budget(self, kind, parties, total_rounds, fewest):
        # certified when the bisection may split up to ``fewest`` times, and
        # not with one split fewer
        stats = stats_from_qab_global(0.05, parties)
        for budget, holds in ((fewest, True), (fewest - 1, False)):
            with mock.patch.object(finite_key, "_ZERO_MAX_SPLITS", budget):
                assert certified(kind, parties, total_rounds, stats, TARGET) is holds, budget

    @pytest.mark.parametrize("neg", [math.inf, -math.inf, -1.0])
    def test_non_finite_or_vacuous_target_certifies_nothing(self, neg):
        stats = stats_from_qab_global(0.05, 2)
        for kind in Protocol:
            assert not certified(kind, 2, 10**5, stats, LogEps(neg))

    def test_vacuous_floor_certifies_nothing(self):
        # a 0.2-bit target at N = 6 leaves eps_rob >= 1 even at the floors
        stats = stats_from_qab_global(0.05, 6)
        assert not certified(Protocol.N_BB84, 6, 10**3, stats, LogEps(0.2))

    def test_empty_floor_box_certifies_nothing(self):
        # Q_X far below Q_Z / 2: at L = 1e12 the Gamma_PE box at the floors,
        # with m at its largest, has no point
        kind, parties, total_rounds = Protocol.N_SIX_STATE, 3, 10**12
        stats = ObservedStats(q_ab=[0.05, 0.05], q_x=0.001, q_z=0.2)
        p_min, _ = p_range(kind, total_rounds)
        floors, floor_pe = finite_key._floors(kind, parties, total_rounds, TARGET.neg_log2)
        m_max = (total_rounds - 1) // 2
        bound = finite_key._length_bound(
            kind, parties, total_rounds, stats, floors, floor_pe, p_min, 2, m_max
        )
        assert bound is None
        assert not certified(kind, parties, total_rounds, stats, TARGET)


def rate_curve_rows():
    """The benchmark's rate curve: Q_AB = 0.05, N = 2, 5, L = 1e5, 10^7.5, 1e10."""
    for parties in (2, 5):
        scenario = NoiseScenario(NoiseModel.GLOBAL_DEPOLARIZING, 0.1, parties)
        stats = expected_observed_stats(scenario)
        for total_rounds in (10**5, 31622777, 10**10):
            for kind in Protocol:
                yield kind, parties, total_rounds, stats


# the zero optima of the rate curve at the default search
RATE_CURVE_ZEROS = {
    (Protocol.N_BB84, 2, 10**5),
    (Protocol.N_SIX_STATE, 2, 10**5),
    (Protocol.N_BB84, 5, 10**5),
    (Protocol.N_SIX_STATE, 5, 10**5),
    (Protocol.N_SIX_STATE, 5, 31622777),
}


class TestPinnedVerdicts:
    def test_rate_curve(self):
        verdicts = {
            (kind, parties, total_rounds): certified(kind, parties, total_rounds, stats, TARGET)
            for kind, parties, total_rounds, stats in rate_curve_rows()
        }
        assert len(verdicts) == 12
        assert {key for key, holds in verdicts.items() if holds} == RATE_CURVE_ZEROS

    def test_threshold_scan(self):
        # threshold_L(0.05, 2, 5e-9) at SearchConfig(1000, 3, 5) from L = 2^20:
        # the step that settles each verdict (a certified zero six-state rate,
        # a six-state rate certified below N-BB84, or the six-state search)
        stats = stats_from_qab_global(0.05, 2)
        certificate, optimum = optimize._certified_zero, optimize._optimum
        searching, steps, optima = [], {}, []

        def recorded_certificate(kind, parties, total_rounds, *args):
            holds = certificate(kind, parties, total_rounds, *args)
            if not searching:  # the threshold search's own certificates
                assert kind is Protocol.N_SIX_STATE
                level = args[-1] if len(args) == 5 else 0.0
                if holds:
                    steps[total_rounds] = "zero" if level == 0.0 else "below"
            return holds

        def recorded_optimum(kind, parties, total_rounds, *args):
            searching.append(kind)
            try:
                opt = optimum(kind, parties, total_rounds, *args)
            finally:
                searching.pop()
            optima.append((kind, total_rounds, opt.rate, opt.evaluations))
            if kind is Protocol.N_SIX_STATE:
                steps[total_rounds] = "search"
            return opt

        with mock.patch.object(optimize, "_certified_zero", recorded_certificate):
            with mock.patch.object(optimize, "_optimum", recorded_optimum):
                lbar = threshold_L(
                    0.05, 2, TARGET, l_min=2**20, search_config=SearchConfig(1000, 3, 5)
                )
        assert lbar == 1805811301

        def settled_by(step):
            return sorted(L for L, how in steps.items() if how == step)

        assert settled_by("zero") == [2**20, 2**21, 2**22, 2**23]
        assert settled_by("below") == sorted(
            [2**i for i in range(24, 31)] + [1518500250, 1655936264, 1729250826, 1767116488]
        )
        searched = [1786359125, 1796058879, 1805811301, 2**31, 3611622602, 7223245204]
        assert settled_by("search") == searched
        # one N-BB84 optimum wherever six-state is not a certified zero, each
        # positive and not a certified zero itself
        bb84 = {L: rate for kind, L, rate, _ in optima if kind is Protocol.N_BB84}
        assert sorted(bb84) == sorted(settled_by("below") + searched)
        assert all(rate > 0.0 for _, _, rate, _ in optima), optima
        assert not any(certified(kind, 2, L, stats, TARGET) for kind, L, _, _ in optima)
        # the six-state searches: the crossed ones reach N-BB84, and three
        # stop at their second point
        six = {L: (rate, n) for kind, L, rate, n in optima if kind is Protocol.N_SIX_STATE}
        crossed = {L for L, (rate, _) in six.items() if rate >= bb84[L]}
        assert crossed == set(searched) - {1786359125, 1796058879}
        assert {L for L, (_, n) in six.items() if n == 2} == {1805811301, 3611622602, 7223245204}
