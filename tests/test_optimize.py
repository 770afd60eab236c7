"""Budget allocation exactness, optimizer guarantees, threshold mechanics."""

import dataclasses
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mpqkd.finite_key as finite_key
import mpqkd.optimize as optimize
from mpqkd.finite_key import (
    ConfigurationError,
    Protocol,
    ProtocolConfig,
    epsilon_total_nbb84,
    epsilon_total_nsixstate,
    key_length_nbb84,
    key_length_nsixstate,
)
from mpqkd.noise import ObservedStats
from mpqkd.numerics import LogEps
from mpqkd.optimize import (
    BudgetShares,
    OptimizedRate,
    SearchConfig,
    _threshold_from_curve,
    allocate_budget,
    budget_components,
    optimize_rate,
    stats_from_qab_global,
    threshold_L,
)
from test_zero_certificate import (
    LOG_WEIGHTS,
    key_length_at,
    log_uniform_shares,
    recording_scorer,
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
        # a composition stuck one bit above the target defeats every pass;
        # the correction passes compose through the (eps_PE, eps_tot) core
        # that finite_key._composer binds
        calls = []

        def stuck(negs):
            calls.append(negs)
            return TARGET.neg_log2, TARGET.neg_log2 - 1.0

        monkeypatch.setattr(finite_key, "_composer", lambda *args: stuck)
        k = len(budget_components(kind))
        shares = BudgetShares(0.05, tuple([1.0 / k] * k))
        with pytest.raises(ValueError, match="exceeds the target by 1 bits"):
            allocate_budget(kind, 3, 10**6, TARGET, shares)
        assert len(calls) == 7  # the split as made and after each of 6 passes

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(list(Protocol)),
        parties=st.integers(2, 10),
        log10_rounds=st.floats(1.0, 15.0),
        target_neg=st.floats(1.0, 200.0),
        p=st.floats(1e-6, 0.49),
        log_weights=LOG_WEIGHTS,
    )
    def test_composed_total_never_exceeds_target(
        self, kind, parties, log10_rounds, target_neg, p, log_weights
    ):
        shares = log_uniform_shares(kind, p, log_weights)
        total_rounds = int(round(10.0**log10_rounds))
        target = LogEps(target_neg)
        budget = allocate_budget(kind, parties, total_rounds, target, shares)
        if kind is Protocol.N_BB84:
            composed = epsilon_total_nbb84(budget, parties)
        else:
            composed = epsilon_total_nsixstate(budget, parties, total_rounds)
        assert composed.neg_log2 >= target.neg_log2


# shares with one weight too many or too few for each protocol; a six-state
# optimum at N = 2, L = 1e6 is a certified zero, which scores no hint
WRONG_COUNTS = [
    (Protocol.N_BB84, 3),
    (Protocol.N_BB84, 6),
    (Protocol.N_SIX_STATE, 4),
    (Protocol.N_SIX_STATE, 7),
]


@pytest.mark.parametrize("kind, count", WRONG_COUNTS)
class TestWeightCount:
    def shares(self, kind, count):
        expected = len(budget_components(kind))
        message = f"^{kind.value} takes {expected} budget weights, got {count}$"
        return BudgetShares(0.05, (1.0 / count,) * count), message

    def test_allocate_budget_names_both_counts(self, kind, count):
        shares, message = self.shares(kind, count)
        with mock.patch.object(optimize, "_splitter", side_effect=AssertionError("split")):
            with pytest.raises(ValueError, match=message):
                allocate_budget(kind, 2, 10**6, TARGET, shares)

    def test_warm_hint_names_both_counts(self, kind, count):
        shares, message = self.shares(kind, count)
        stats = stats_from_qab_global(0.05, 2)
        with mock.patch.object(optimize, "_scorer", side_effect=AssertionError("scored")):
            with pytest.raises(ValueError, match=message):
                optimize_rate(kind, 2, 10**6, stats, TARGET, warm=shares)


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

    @pytest.mark.parametrize("kind", list(Protocol))
    @pytest.mark.parametrize("total_rounds", [10**8, 1805811301, 10**12])
    def test_stopped_search_scores_a_prefix_of_the_full_one(self, kind, total_rounds):
        # stopped at a rate, the search scores the full search's points up to
        # the first whose rate reaches it, a tie included, and no more
        stats = stats_from_qab_global(0.05, 2)
        search = (kind, 2, total_rounds, stats, TARGET, FAST)

        def stopped_at(stop):
            scored = []
            with mock.patch.object(optimize, "_scorer", recording_scorer(scored)):
                opt = optimize._optimum(*search, None, stop)
            return opt, scored

        full, every = stopped_at(math.inf)
        assert full == optimize_rate(*search)
        rates = [max(value, 0.0) / total_rounds for value in every]
        bests = sorted({max(rates[: i + 1]) for i in range(len(rates))})
        assert len(bests) > 1
        for stop in bests + [math.nextafter(full.rate, 1.0)]:
            opt, scored = stopped_at(stop)
            reached = [i for i, rate in enumerate(rates) if rate >= stop]
            assert scored == (every[: reached[0] + 1] if reached else every), stop
            assert opt.rate == max(rates[: len(scored)])
            assert opt.evaluations == len(scored)

    def test_optimum_is_plain_slotted_data(self):
        # every kept optimum costs its fields alone, with no instance dict
        stats = stats_from_qab_global(0.05, 2)
        opt = optimize_rate(Protocol.N_BB84, 2, 10**6, stats, TARGET, FAST)
        fields = [f.name for f in dataclasses.fields(OptimizedRate)]
        assert fields == ["rate", "shares", "evaluations"]
        assert not hasattr(opt, "__dict__")
        assert not hasattr(opt.shares, "__dict__")

    def test_budget_respected_at_optimum(self):
        stats = stats_from_qab_global(0.05, 2)
        opt = optimize_rate(Protocol.N_BB84, 2, 10**6, stats, TARGET, FAST)
        result = key_length_at(Protocol.N_BB84, 2, 10**6, stats, TARGET, opt)
        assert result.eps_tot.neg_log2 >= TARGET.neg_log2 - 1e-9

    @pytest.mark.parametrize("kind", list(Protocol))
    @pytest.mark.parametrize("neg", [math.inf, -math.inf])
    def test_non_finite_target_raises(self, kind, neg):
        # inf - inf inside the log-domain sums is caught at the first point
        stats = stats_from_qab_global(0.05, 2)
        with pytest.raises(ValueError, match="NaN"):
            optimize_rate(kind, 2, 10**6, stats, LogEps(neg), SearchConfig(50, 1, 0))

    def test_too_small_l_raises(self):
        stats = stats_from_qab_global(0.05, 2)
        with pytest.raises(ConfigurationError):
            optimize_rate(Protocol.N_SIX_STATE, 2, 4, stats, TARGET, FAST)

    @pytest.mark.parametrize("kind", list(Protocol))
    def test_zero_rounds_raise_value_error(self, kind):
        # once a ZeroDivisionError from p_min = 1.5 / L
        stats = stats_from_qab_global(0.05, 2)
        with pytest.raises(ValueError, match="total_rounds must be >= 1"):
            optimize_rate(kind, 2, 0, stats, TARGET, FAST)

    def test_starts_and_seed_change_nothing(self):
        stats = stats_from_qab_global(0.05, 2)
        for kind in Protocol:
            first, second = (
                optimize_rate(kind, 2, 10**8, stats, TARGET, SearchConfig(600, starts, seed))
                for starts, seed in ((1, 0), (8, 12345))
            )
            assert (first.rate, first.shares, first.evaluations) == (
                second.rate,
                second.shares,
                second.evaluations,
            )

    @pytest.mark.parametrize("field", ["max_evaluations", "starts"])
    @pytest.mark.parametrize("value", [0, -5])
    def test_search_config_rejects_empty_search(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be at least 1"):
            dataclasses.replace(FAST, **{field: value})


def equal_shares_rate(kind, parties, total_rounds, stats, target):
    """Rate at the equal-shares start point that ``optimize_rate`` always scores."""
    k = len(budget_components(kind))
    m_min = 2 if kind is Protocol.N_SIX_STATE else 1
    p = min(max(0.05, (m_min + 0.5) / total_rounds), 0.4999)
    shares = BudgetShares(p, tuple([1.0 / k] * k))
    budget = allocate_budget(kind, parties, total_rounds, target, shares)
    evaluator = key_length_nbb84 if kind is Protocol.N_BB84 else key_length_nsixstate
    return evaluator(ProtocolConfig(kind, parties, total_rounds, p), stats, budget).rate


class TestWarmStart:
    @settings(max_examples=40, deadline=None)
    # a hint whose start, within its budget, ends below the equal-shares rate
    @example(
        kind=Protocol.N_BB84,
        parties=2,
        log10_rounds=math.log10(250422),
        q_ab=0.01103290419067407,
        hint_p=0.36331860620528095,
        log_weights=[math.log(w) for w in (6.8e-06, 2.6e-07, 1.3e-08, 0.99999)] + [0.0, 0.0],
        max_evaluations=111,
    )
    @given(
        kind=st.sampled_from(list(Protocol)),
        parties=st.integers(2, 5),
        log10_rounds=st.floats(4.0, 12.0),
        q_ab=st.floats(0.01, 0.1),
        hint_p=st.floats(1e-6, 0.49),
        log_weights=LOG_WEIGHTS,
        max_evaluations=st.integers(20, 300),
    )
    def test_never_below_equal_shares(
        self, kind, parties, log10_rounds, q_ab, hint_p, log_weights, max_evaluations
    ):
        hint = log_uniform_shares(kind, hint_p, log_weights)
        total_rounds = int(round(10.0**log10_rounds))
        stats = stats_from_qab_global(q_ab, parties)
        cfg = SearchConfig(max_evaluations, 2, 0)
        opt = optimize_rate(kind, parties, total_rounds, stats, TARGET, cfg, warm=hint)
        assert opt.rate >= equal_shares_rate(kind, parties, total_rounds, stats, TARGET)

    def test_hint_from_nearby_optimum_is_cheaper(self):
        stats = stats_from_qab_global(0.05, 2)
        kind = Protocol.N_SIX_STATE
        near = optimize_rate(kind, 2, 10**9, stats, TARGET, FAST)
        cold = optimize_rate(kind, 2, 2 * 10**9, stats, TARGET, FAST)
        warm = optimize_rate(kind, 2, 2 * 10**9, stats, TARGET, FAST, warm=near.shares)
        assert warm.evaluations < cold.evaluations
        assert warm.rate == pytest.approx(cold.rate, rel=1e-6)

    def test_infeasible_hint_falls_back_to_cold_search(self):
        # at a 0.2-bit target with N = 6, eps_rob >= 1 wherever w_z + w_x is
        # near 1: the hint is vacuous, and so is the equal-shares point; both
        # solves start from equal shares moved onto eps_rob's edge
        kind, parties, total_rounds = Protocol.N_BB84, 6, 10**6
        stats = stats_from_qab_global(0.05, parties)
        target = LogEps(0.2)
        # a cap neither search reaches, so that both end where they converge
        cfg = SearchConfig(2000, 1, 0)
        hint = BudgetShares(0.05, (0.5 - 1e-12, 0.5 - 1e-12, 1e-12, 1e-12))
        cold = optimize_rate(kind, parties, total_rounds, stats, target, cfg)
        got = optimize_rate(kind, parties, total_rounds, stats, target, cfg, warm=hint)
        assert cold.rate > 0.0
        assert got.rate == cold.rate
        assert got.shares == cold.shares
        search = (kind, parties, total_rounds, stats, target)
        assert flat_fields(key_length_at(*search, got)) == flat_fields(key_length_at(*search, cold))


def public_scorer(kind, parties, total_rounds, stats, target):
    """Referee for ``optimize._scorer``: every point through the public path.

    Each score builds ``BudgetShares`` and a ``ProtocolConfig``, splits the
    budget with ``allocate_budget`` and evaluates it with ``key_length_*``.
    """
    evaluator = key_length_nbb84 if kind is Protocol.N_BB84 else key_length_nsixstate

    def score(weights, p):
        shares = BudgetShares(p, weights)
        budget = allocate_budget(kind, parties, total_rounds, LogEps(target), shares)
        config = ProtocolConfig(kind, parties, total_rounds, p)
        return evaluator(config, stats, budget).net_length

    return score


def flat_fields(result):
    """Every KeyLengthResult field, nested dataclasses flattened."""
    out = []
    for value in dataclasses.astuple(result):
        out.extend(value if isinstance(value, tuple) else [value])
    return out


def same_value(a, b):
    # NaN-aware equality: vacuous six-state terms are NaN on both sides
    return a == b or (a != a and b != b)


class TestReplayReferee:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(list(Protocol)),
        parties=st.integers(2, 6),
        log10_rounds=st.floats(3.0, 12.0),
        q_ab=st.floats(0.01, 0.12),
        max_evaluations=st.integers(20, 400),
        target_neg=st.floats(0.2, 60.0),
        hint_p=st.one_of(st.none(), st.floats(1e-6, 0.49)),
    )
    def test_optimum_matches_per_object_replay(
        self, kind, parties, log10_rounds, q_ab, max_evaluations, target_neg, hint_p
    ):
        # the same ascent, every point scored through the public objects:
        # one score that differs anywhere sends the ascent elsewhere; loose
        # targets make N-BB84 points vacuous (eps_rob >= 1)
        target = LogEps(target_neg)
        total_rounds = int(round(10.0**log10_rounds))
        stats = stats_from_qab_global(q_ab, parties)
        cfg = SearchConfig(max_evaluations, 1, 0)
        k = len(budget_components(kind))
        warm = None if hint_p is None else BudgetShares(hint_p, (1.0 / k,) * k)

        def run():
            return optimize_rate(kind, parties, total_rounds, stats, target, cfg, warm=warm)

        replay = mock.patch.object(optimize, "_scorer", public_scorer)
        try:
            got = run()
        except ConfigurationError:
            with replay, pytest.raises(ConfigurationError):
                run()
            return
        with replay:
            expected = run()
        assert got.rate == expected.rate
        assert got.shares == expected.shares
        assert got.evaluations == expected.evaluations
        search = (kind, parties, total_rounds, stats, target)
        got_fields = flat_fields(key_length_at(*search, got))
        expected_fields = flat_fields(key_length_at(*search, expected))
        pairs = list(zip(got_fields, expected_fields))
        assert len(pairs) == len(expected_fields) > 0
        assert all(same_value(a, b) for a, b in pairs), pairs


def spurious(L):
    # crossed only on [1e4, 2e4), then again for good at 1e6
    return (10**4 <= L < 2 * 10**4) or L >= 10**6


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
        lbar = _threshold_from_curve(spurious, 64, 10**9)
        assert lbar is not None
        assert 10**6 <= lbar <= int(1.01 * 10**6) + 1

    @pytest.mark.parametrize(
        "crossed, l_min, probes",
        [
            (
                lambda L: L >= 5000,
                64,
                [64, 128, 256, 512, 1024, 2048, 4096, 8192, 5793, 4871, 5312, 5087, 4978]
                + [5032, 5005, 10010, 20020],
            ),
            (lambda L: False, 64, [64 * 2**i for i in range(24)]),
            (
                lambda L: L >= 100,
                1024,
                [1024, 512, 256, 128, 64, 91, 108, 99, 103, 101, 100, 200, 400],
            ),
            (
                # 20018 = 2 * 10009 fails verification, and the scan resumes at 40036
                spurious,
                64,
                [64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 11585, 9742, 10624, 10173]
                + [9955, 10063, 10009, 20018, 40036, 80072, 160144, 320288, 640576, 1281152]
                + [905911, 1077316, 987903, 1031641, 1009535, 998660, 1004083, 2008166, 4016332],
            ),
        ],
        ids=["step", "never", "crossed-from-start", "spurious"],
    )
    def test_probe_sequence(self, crossed, l_min, probes):
        asked = []

        def recorded(L):
            asked.append(L)
            return crossed(L)

        _threshold_from_curve(recorded, l_min, 10**9)
        assert asked == probes


class TestThresholdL:
    def test_none_when_lmax_tiny(self):
        assert threshold_L(0.05, 2, TARGET, l_max=4096, search_config=FAST) is None

    def test_too_small_l_is_not_crossed(self):
        # L = 3 and 6 leave no room for the six-state round bookkeeping
        assert threshold_L(0.05, 2, TARGET, l_min=3, l_max=4096, search_config=FAST) is None

    def test_l_min_below_one_raises(self):
        with pytest.raises(ValueError, match="l_min"):
            threshold_L(0.05, 2, TARGET, l_min=0)

    def test_nbb84_optimized_only_where_six_state_is_positive(self, monkeypatch):
        # synthetic optima against a flat N-BB84 rate of 0.45 from L = 2^8,
        # and a certificate that places the six-state rate below a level
        # wherever it is zero or more than 0.1 below the level per round
        def bb84(total):
            return 0.45 if total >= 2**8 else 0.0

        curves = [
            # six-state is zero below 2^14, certified below N-BB84 up to
            # about 54613 and overtakes it at L = 163840
            (lambda total: max(0.0, 0.5 * (1.0 - 2**14 / total)), 163840),
            # six-state is positive, and ahead, where ``spurious`` is crossed
            (lambda total: 0.5 if spurious(total) else 0.0, 10**6),
            # crossed from 2^9, below the scan start, so verifying 512 asks
            # for the verdict at 1024 a second time
            (lambda total: 0.5 if total >= 2**9 else 0.0, 512),
            # six-state equals N-BB84 from L = 3000: a tie is crossed
            (lambda total: 0.45 if total >= 3000 else 0.0, 3000),
        ]
        for six, step in curves:
            calls, hints, stops, levels = [], [], [], []

            def fake_certified_zero(kind, parties, total, stats, target, level=0.0):
                assert kind is Protocol.N_SIX_STATE
                levels.append((total, level))
                return six(total) == 0.0 or six(total) + 0.1 < level / total

            def fake_optimum(kind, parties, total, stats, target, config, warm, stop=math.inf):
                calls.append((kind, total))
                hints.append(warm)
                stops.append(stop)
                rate = six(total) if kind is Protocol.N_SIX_STATE else bb84(total)
                # the shares stand for the optimum they came from
                return SimpleNamespace(rate=rate, shares=(kind, total))

            monkeypatch.setattr(optimize, "_certified_zero", fake_certified_zero)
            monkeypatch.setattr(optimize, "_optimum", fake_optimum)
            lbar = threshold_L(0.05, 2, TARGET, search_config=FAST)

            probed = []

            def eager(total):
                probed.append(total)
                return six(total) > 0.0 and bb84(total) > 0.0 and six(total) >= bb84(total)

            assert lbar == _threshold_from_curve(eager, 1024, 10**14)
            assert step <= lbar <= 1.01 * step
            assert len(calls) == len(set(calls))  # each (protocol, L) optimized at most once
            six_probed = [t for kind, t in calls if kind is Protocol.N_SIX_STATE]
            bb84_probed = [t for kind, t in calls if kind is Protocol.N_BB84]
            # N-BB84 wherever six-state is not a certified zero, and the
            # six-state search, stopped at N-BB84's rate, wherever N-BB84 is
            # positive and six-state is not certified below it
            assert set(bb84_probed) == {t for t in probed if six(t) > 0.0}
            below = {t for t in bb84_probed if six(t) + 0.1 < bb84(t)}
            assert set(six_probed) == {t for t in bb84_probed if bb84(t) > 0.0} - below
            assert len(six_probed) + len(below) == len(bb84_probed)
            assert all(
                stop == (math.inf if kind is Protocol.N_BB84 else bb84(total))
                for (kind, total), stop in zip(calls, stops)
            )
            assert levels == [
                (t, level)
                for t in dict.fromkeys(probed)
                for level in ((0.0, bb84(t) * t) if six(t) > 0.0 and bb84(t) > 0.0 else (0.0,))
            ]

            # every optimum after the first of a protocol starts from the
            # previous optimum of that protocol
            for i, ((kind, total), warm) in enumerate(zip(calls, hints)):
                earlier = [call for call in calls[:i] if call[0] is kind]
                assert warm == (earlier[-1] if earlier else None), (step, kind, total)
            assert hints.count(None) == 2

    def test_deterministic(self, monkeypatch):
        # every optimum the scan searches, N-BB84's and six-state's alike
        inner = optimize._optimum
        probes = []

        def recorded(kind, parties, total, *args):
            opt = inner(kind, parties, total, *args)
            probes.append((kind, total, *args[3:], opt.rate, opt.shares, opt.evaluations))
            return opt

        monkeypatch.setattr(optimize, "_optimum", recorded)
        runs = []
        for _ in range(2):
            probes.clear()
            lbar = threshold_L(0.05, 2, TARGET, l_min=2**22, search_config=FAST)
            runs.append((lbar, list(probes)))
        assert runs[0][0] is not None
        assert {kind for kind, *_ in runs[0][1]} == set(Protocol)
        assert runs[0] == runs[1]

    @settings(max_examples=40, deadline=None)
    @example(q_ab=0.05, parties=2, log10_rounds=math.log10(1805811301))
    @example(q_ab=0.05, parties=2, log10_rounds=math.log10(1796058879))
    @example(q_ab=0.05, parties=2, log10_rounds=math.log10(1786359125))
    @example(q_ab=0.05, parties=2, log10_rounds=27 * math.log10(2.0))
    @given(
        q_ab=st.floats(0.005, 0.11),
        parties=st.integers(2, 6),
        log10_rounds=st.floats(6.0, 13.0),
    )
    def test_verdict_is_that_of_both_full_optima(self, q_ab, parties, log10_rounds):
        # one verdict from cold starts, against both full cold optima
        total_rounds = int(round(10.0**log10_rounds))
        stats = stats_from_qab_global(q_ab, parties)
        r6, rb = (
            optimize_rate(kind, parties, total_rounds, stats, TARGET, FAST).rate
            for kind in (Protocol.N_SIX_STATE, Protocol.N_BB84)
        )
        with mock.patch.object(optimize, "_threshold_from_curve", lambda crossed, *_: crossed):
            crossed = threshold_L(q_ab, parties, TARGET, search_config=FAST)
        assert crossed(total_rounds) == (r6 > 0.0 and 0.0 < rb <= r6), (r6, rb)

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
