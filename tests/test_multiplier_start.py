"""The multiplier of the rate optimizer.

``finite_key._slopes`` differentiates the key length exactly in each budget
exponent, and ``_multiplier`` solves the stationarity conditions with
one multiplier lambda on sum w = 1, with a share of slope 0 pinned at its
edge and N-BB84's eps_rob held short of 1.  The slopes are checked against
central differences of the key-length core away from the optimum, where a
step of 1e-3 of an exponent moves the length far above its roundoff; each
solve against its own conditions; the splits an optimum makes; and the
optimum at eps_rob's edge for feasibility and a positive rate.

This module imports neither scipy nor mpmath, so it also runs where the
library's numpy is the only dependency.
"""

import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mpqkd.finite_key as finite_key
import mpqkd.optimize as optimize
from mpqkd.finite_key import _EDGE, Protocol, _length_core, _slopes, budget_components
from mpqkd.numerics import LogEps
from mpqkd.optimize import BudgetShares, SearchConfig, optimize_rate, stats_from_qab_global
from test_zero_certificate import (
    LOG_WEIGHTS,
    P_MAX,
    key_length_at,
    log_uniform_shares,
    rate_curve_rows,
)

TARGET = LogEps.from_eps(5e-9)
BB84, SIX = Protocol.N_BB84, Protocol.N_SIX_STATE
# the eps_PE group of each protocol's weights
GROUP = {BB84: (0, 1), SIX: (1, 2, 3)}


def recorded_start(kind, parties, total_rounds, stats):
    """The optimum, and the (m, weights, lambda) of each multiplier solve it made."""
    starts = []

    def multiplier(*args):
        solve = finite_key._multiplier(*args)

        def record(m):
            weights, lam = solve(m)
            starts.append((m, weights, lam))
            return weights, lam

        return record

    with mock.patch.object(optimize, "_multiplier", multiplier):
        opt = optimize_rate(kind, parties, total_rounds, stats, TARGET)
    return opt, starts


def equal_shares_start(kind, parties, total_rounds, stats):
    """The search from equal shares at p = 0.05, given as a warm start."""
    k = len(budget_components(kind))
    m_min = 2 if kind is SIX else 1
    p0 = math.exp(math.log(min(max(0.05, (m_min + 0.5) / total_rounds), P_MAX)))
    warm = BudgetShares(p0, (1.0 / k,) * k)
    return optimize_rate(kind, parties, total_rounds, stats, TARGET, warm=warm)


class TestSlopes:
    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(list(Protocol)),
        parties=st.integers(2, 10),
        log10_rounds=st.floats(5.0, 10.0),
        q_ab=st.floats(0.01, 0.1),
        target_neg=st.floats(10.0, 60.0),
        log10_p=st.floats(-3.0, -1.0),
        log_weights=LOG_WEIGHTS,
    )
    def test_match_central_differences_of_the_core(
        self, kind, parties, log10_rounds, q_ab, target_neg, log10_p, log_weights
    ):
        total_rounds = int(round(10.0**log10_rounds))
        stats = stats_from_qab_global(q_ab, parties)
        weights = log_uniform_shares(kind, 0.1, log_weights).weights
        negs, neg_pe, _ = finite_key._splitter(kind, parties, total_rounds, target_neg)(weights)
        m = max(2, round(total_rounds * 10.0**log10_p))
        core = _length_core(kind, parties, total_rounds)
        p = optimize._left_edge(total_rounds, m)

        def slopes(exps=negs):
            return _slopes(kind, parties, total_rounds, stats, m, exps, neg_pe)

        def length(exps=negs, pe=neg_pe):
            return core(p, stats, exps, pe)[1]

        got = slopes()
        if got is None:  # an empty box: no length to differentiate
            return
        a, a_pe = got
        # a difference of lengths of about L bits carries a few of their ULPs
        roundoff = 64.0 * math.ulp(float(total_rounds))
        for i, slope in enumerate(a):
            h = 1e-3 * negs[i]
            up, down = list(negs), list(negs)
            up[i] += h
            down[i] -= h
            s_up, s_down = slopes(up)[0][i], slopes(down)[0][i]
            # a clamp between the two points puts a kink there
            if not (slope > 0.0 and s_up > 0.0 and s_down > 0.0):
                continue
            difference = -(length(up) - length(down)) / (2.0 * h)
            # the difference is the slope's mean over the stencil (Simpson's rule),
            # which a steep slope puts off the central slope by (s_up - 2 slope + s_down) / 6
            mean = (s_down + 4.0 * slope + s_up) / 6.0
            assert abs(difference - mean) <= 1e-4 * slope + roundoff / h, (i, difference, mean)
        h = 1e-3 * neg_pe
        difference = -(length(pe=neg_pe + h) - length(pe=neg_pe - h)) / (2.0 * h)
        assert abs(difference - a_pe) <= 1e-4 * a_pe + roundoff / h


class TestStart:
    @settings(max_examples=80, deadline=None)
    @example(kind=SIX, parties=10, log10_rounds=15.0, q_ab=0.05)
    @example(kind=BB84, parties=10, log10_rounds=15.0, q_ab=0.05)
    # P_Z clamps at 0: the z' share has no slope
    @example(kind=SIX, parties=2, log10_rounds=8.0, q_ab=0.005)
    @given(
        kind=st.sampled_from(list(Protocol)),
        parties=st.integers(2, 10),
        log10_rounds=st.floats(4.0, 15.0),
        q_ab=st.floats(0.003, 0.12),
    )
    def test_stationary_on_the_simplex(self, kind, parties, log10_rounds, q_ab):
        total_rounds = int(round(10.0**log10_rounds))
        stats = stats_from_qab_global(q_ab, parties)
        _, starts = recorded_start(kind, parties, total_rounds, stats)
        split = finite_key._splitter(kind, parties, total_rounds, TARGET.neg_log2)
        # at every m the search scored
        for m, weights, lam in starts:
            if lam is None:
                continue  # an empty box, or a slope that is negative
            assert lam > 0.0
            assert abs(sum(weights) - 1.0) <= 16 * 2.0**-53
            assert all(w > 0.0 for w in weights)
            # dl/dw_i = lambda: a_i / w_i + c_i = lambda ln 2 (the eps_PE
            # coupling c_i, in the group only, of ``_multiplier``) for
            # every share with a slope; one with none sits at its edge
            negs, neg_pe, _ = split(weights)
            a, a_pe = _slopes(kind, parties, total_rounds, stats, m, negs, neg_pe)
            group = GROUP[kind]
            coupling = a_pe + (a[0] + a[1] if kind is BB84 else 0.0)
            coupling /= sum(weights[i] for i in group)
            for i, (slope, w) in enumerate(zip(a, weights)):
                if slope == 0.0:
                    assert w == _EDGE, i
                    continue
                gain = slope / w + (coupling if i in group else 0.0)
                assert abs(gain / (lam * math.log(2.0)) - 1.0) <= 1e-9, i

    def test_rate_curve_takes_half_the_evaluations(self):
        # the 12 optima of the benchmark's rate curve took 2130 evaluations
        # from equal shares at p = 0.05; each positive one has a start
        total = 0
        for parties in (2, 5):
            stats = stats_from_qab_global(0.05, parties)
            for total_rounds in (10**5, 31622777, 10**10):
                for kind in Protocol:
                    opt, starts = recorded_start(kind, parties, total_rounds, stats)
                    total += opt.evaluations
                    if opt.rate > 0.0:
                        assert starts and starts[0][2] is not None
        assert total <= 2130 // 2

    def test_rate_curve_splits_once_per_point_and_round(self):
        # the multiplier sets up eps_rob's edge and its first weights once
        # per optimum; solving them again at every m made 975 splits here
        splits = []
        inner = finite_key._splitter

        def splitter(*args):
            split = inner(*args)

            def counted(weights):
                splits.append(weights)
                return split(weights)

            return counted

        with mock.patch.object(finite_key, "_splitter", splitter):
            with mock.patch.object(optimize, "_splitter", splitter):
                for kind, parties, total_rounds, stats in rate_curve_rows():
                    optimize_rate(kind, parties, total_rounds, stats, TARGET)
        assert len(splits) <= 700


class TestOptimum:
    @settings(max_examples=60, deadline=None)
    # the ascent over share logits that the multiplier's shares replaced
    # stopped at the evaluation cap here, 4.4e-6 below
    @example(
        kind=BB84, parties=4, log10_rounds=math.log10(514734152358875), q_ab=0.05556164257988069
    )
    @example(kind=SIX, parties=10, log10_rounds=15.0, q_ab=0.1)
    @given(
        kind=st.sampled_from(list(Protocol)),
        parties=st.integers(2, 10),
        log10_rounds=st.floats(4.0, 15.0),
        q_ab=st.floats(0.01, 0.1),
    )
    def test_never_below_the_equal_shares_ascent(self, kind, parties, log10_rounds, q_ab):
        # ``warm`` seeds only the first solve and m: from equal shares at p =
        # 0.05 it is the cold search, point for point
        total_rounds = int(round(10.0**log10_rounds))
        stats = stats_from_qab_global(q_ab, parties)
        opt = optimize_rate(kind, parties, total_rounds, stats, TARGET)
        old = equal_shares_start(kind, parties, total_rounds, stats)
        assert key_length_at(kind, parties, total_rounds, stats, TARGET, opt).rate == opt.rate
        assert (opt.rate, opt.shares, opt.evaluations) == (old.rate, old.shares, old.evaluations)
        assert opt.evaluations < SearchConfig().max_evaluations


class TestEdge:
    @settings(max_examples=40, deadline=None)
    @given(
        parties=st.integers(3, 10),
        log10_rounds=st.floats(7.0, 15.0),
        q_ab=st.floats(0.003, 0.05),
        past=st.floats(0.01, 0.99),
    )
    def test_eps_rob_stops_short_of_one(self, parties, log10_rounds, q_ab, past):
        # (N-1) eps_tot = 2^(past log2(N-1)) > 1: the PA term grows without
        # bound as eps_rob = (N-1) (w_z + w_x) eps_tot nears 1, so the optimum
        # holds w_z + w_x at 1 - 2^-40 of eps_rob = 1
        total_rounds = int(round(10.0**log10_rounds))
        stats = stats_from_qab_global(q_ab, parties)
        target = LogEps((1.0 - past) * math.log2(parties - 1))
        opt = optimize_rate(BB84, parties, total_rounds, stats, target)
        assert key_length_at(BB84, parties, total_rounds, stats, target, opt).feasible
        assert opt.rate > 0.0
        w_z, w_x, w_ec, w_pa = opt.shares.weights
        cap = (1.0 - _EDGE) / ((parties - 1) * target.eps)
        assert abs((w_z + w_x) / cap - 1.0) <= 1e-13
        assert w_pa == pytest.approx(2.0 * w_ec, rel=1e-15)
