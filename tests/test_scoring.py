"""Point scoring of the rate optimizer: bit identity with the plain formulas.

The optimizer scores each point through fixed-arity compositions and the
key-length cores on plain floats.  These tests hold the compositions bit for
bit to the pairwise sums they replaced, and every score the optimizer takes
to one computed afresh from that point's weights and p.  They also hold the
key-length cores to a property of p within one step of m = floor(L p).

This module imports neither scipy nor mpmath.  The compositions are held to
pairwise sums; numpy only draws their random inputs.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mpqkd.optimize as optimize
from mpqkd.finite_key import (
    Protocol,
    _compose_nbb84,
    _compose_nsixstate,
    _length_core,
    postselection_bits,
    postselection_exponent,
)
from mpqkd.numerics import LogEps
from mpqkd.optimize import SearchConfig, optimize_rate, stats_from_qab_global
from test_zero_certificate import LOG_WEIGHTS, log_uniform_shares

TARGET = LogEps.from_eps(5e-9)


def bits(values):
    """The IEEE bit patterns of a sequence of floats: tells -0.0 from 0.0."""
    return [struct.pack("<d", v) for v in values]


def outcome(f, *args):
    """f(*args), or the ValueError it raises, as comparable bit patterns."""
    try:
        return bits(f(*args))
    except ValueError as exc:
        return str(exc)


# --------------------------------------------------- the replaced formulas


def plain_sum_neg(terms):
    negs = [neg - math.log2(coeff) for coeff, neg in terms]
    pivot = min(negs)
    acc = 0.0
    for neg in negs:
        acc += 2.0 ** (pivot - neg)
    total = pivot - math.log2(acc)
    if math.isnan(total):
        raise ValueError("neg_log2 must not be NaN")
    return total


def plain_compose_nbb84(negs, parties):
    z, x, ec, pa = negs
    pe = plain_sum_neg([(parties - 1, z), (1.0, x)]) / 2.0
    return pe, plain_sum_neg([(2.0, pe), (1.0, ec), (1.0, pa)])


def plain_compose_nsixstate(negs, parties, total_rounds):
    bar, z, x, zp, ec, pa = negs
    pe = plain_sum_neg([(1.0, zp), (parties - 1, z), (1.0, x)])
    inner = plain_sum_neg([(2.0, bar), (1.0, pe), (1.0, ec), (1.0, pa)])
    return pe, inner - postselection_exponent(parties) * math.log2(total_rounds + 1)


def compose(kind, negs, parties, total_rounds):
    if kind is Protocol.N_BB84:
        return _compose_nbb84(negs, math.log2(parties - 1))
    ps_bits = postselection_bits(parties, total_rounds)
    return _compose_nsixstate(negs, math.log2(parties - 1), ps_bits)


def plain_compose(kind, negs, parties, total_rounds):
    if kind is Protocol.N_BB84:
        return plain_compose_nbb84(negs, parties)
    return plain_compose_nsixstate(negs, parties, total_rounds)


# exponents near 0 (either sign), moderate, above 1e3, and infinite (eps = 0)
EXPONENTS = st.one_of(
    st.floats(-2.0, 2.0),
    st.floats(0.0, 300.0),
    st.floats(1e3, 1e7),
    st.just(math.inf),
)


class TestCompositions:
    @settings(max_examples=1000, deadline=None)
    @given(
        kind=st.sampled_from(list(Protocol)),
        parties=st.integers(2, 10),
        log10_rounds=st.floats(0.0, 15.0),
        negs=st.lists(EXPONENTS, min_size=6, max_size=6),
    )
    @example(Protocol.N_SIX_STATE, 3, 8.0, [math.inf] * 6)  # 0 + 0: NaN, raised
    @example(Protocol.N_BB84, 2, 8.0, [math.inf, math.inf, 40.0, 41.0])
    def test_equal_the_pairwise_sums(self, kind, parties, log10_rounds, negs):
        total_rounds = int(round(10.0**log10_rounds))
        negs = negs[: 4 if kind is Protocol.N_BB84 else 6]
        assert outcome(compose, kind, negs, parties, total_rounds) == outcome(
            plain_compose, kind, negs, parties, total_rounds
        )

    @pytest.mark.parametrize("kind", list(Protocol))
    def test_equal_the_pairwise_sums_on_split_exponents(self, kind):
        # exponents as _splitter makes them: nearly equal, far above 1e3 for
        # six-state, where a ULP of roundoff decides the correction passes
        rng = np.random.default_rng(5)
        k = 4 if kind is Protocol.N_BB84 else 6
        for _ in range(5000):
            parties = int(rng.integers(2, 11))
            total_rounds = int(10 ** rng.uniform(3.0, 15.0))
            base = rng.uniform(0.0, 60.0) + (
                0.0 if kind is Protocol.N_BB84 else postselection_bits(parties, total_rounds)
            )
            negs = (base + rng.uniform(0.0, 40.0, k)).tolist()
            assert outcome(compose, kind, negs, parties, total_rounds) == outcome(
                plain_compose, kind, negs, parties, total_rounds
            )


class TestScoresAreFresh:
    """Every point optimize_rate scores gets the exponents a fresh split gives.

    The scorer sees each point's weights and p, and the key-length core sees
    the p and exponents the scorer handed it; both are compared with that
    point's p and with ``_splitter`` computed afresh at its weights.
    """

    @pytest.mark.parametrize("kind", list(Protocol))
    @pytest.mark.parametrize("parties, total_rounds", [(2, 10**8), (3, 10**10)])
    def test_every_point_equals_fresh_scoring(self, monkeypatch, kind, parties, total_rounds):
        stats = stats_from_qab_global(0.05, parties)
        target = TARGET.neg_log2
        point = {}
        seen = {"points": 0}
        ps = []
        scorer = optimize._scorer
        length_core = optimize._length_core

        def spy_scorer(*args):
            score = scorer(*args)

            def spied(weights, p):
                point.update(p=p, weights=weights)
                ps.append(p)
                return score(weights, p)

            return spied

        def spy_core(*args):
            core = length_core(*args)

            def checked(p, stats_, negs, neg_pe):
                got = core(p, stats_, negs, neg_pe)
                if not point:
                    return got  # the zero-rate certificate, before any point
                fresh_negs, fresh_pe, _ = optimize._splitter(
                    kind, parties, total_rounds, target
                )(point["weights"])
                assert bits([p]) == bits([point["p"]])
                assert bits([*negs, neg_pe]) == bits([*fresh_negs, fresh_pe])
                fresh = core(point["p"], stats_, fresh_negs, fresh_pe)
                assert repr(got) == repr(fresh)
                seen["points"] += 1
                return got

            return checked

        monkeypatch.setattr(optimize, "_scorer", spy_scorer)
        monkeypatch.setattr(optimize, "_length_core", spy_core)
        opt = optimize_rate(kind, parties, total_rounds, stats, TARGET, SearchConfig(300, 1, 0))
        assert opt.rate > 0.0
        assert seen["points"] == opt.evaluations
        # after the equal-shares floor, each m is scored once
        ms = [math.floor(total_rounds * p) for p in ps[1:]]
        assert len(set(ms)) == len(ms)


class TestWithinOneStepOfM:
    @settings(max_examples=400, deadline=None)
    @given(
        kind=st.sampled_from(list(Protocol)),
        parties=st.integers(2, 10),
        log10_rounds=st.floats(2.0, 15.0),
        q_ab=st.floats(0.001, 0.2),
        target_neg=st.floats(1.0, 200.0),
        u_m=st.floats(0.0, 1.0),
        u_lo=st.floats(0.0, 1.0),
        u_hi=st.floats(0.0, 1.0),
        log_weights=LOG_WEIGHTS,
    )
    # m = (L - 1) // 2 at odd L puts p2 past 1/2
    @example(Protocol.N_BB84, 2, 3.75, 0.125, 1.0, 1.0, 0.5, 0.75, [0.0] * 6)
    def test_net_length_never_rises_with_p(
        self, kind, parties, log10_rounds, q_ab, target_neg, u_m, u_lo, u_hi, log_weights
    ):
        # the round counts are those of the step; only the preshared cost
        # L h(p) moves, and it grows with p below 1/2
        total_rounds = int(round(10.0**log10_rounds))
        m_min = 2 if kind is Protocol.N_SIX_STATE else 1
        m_max = (total_rounds - 1) // 2
        if m_max < m_min:
            return
        m = m_min + math.floor(u_m * (m_max - m_min))
        lo, hi = sorted((u_lo, u_hi))
        p1, p2 = (m + lo) / total_rounds, (m + hi) / total_rounds
        if not (math.floor(total_rounds * p1) == math.floor(total_rounds * p2) == m):
            return  # roundoff left the step
        if p2 >= 0.5:
            return  # past 1/2, where h(p) falls; no config or optimum has such a p
        stats = stats_from_qab_global(q_ab, parties)
        weights = log_uniform_shares(kind, 0.1, log_weights).weights
        negs, neg_pe, _ = optimize._splitter(kind, parties, total_rounds, target_neg)(weights)
        core = _length_core(kind, parties, total_rounds)
        first = core(p1, stats, negs, neg_pe)
        second = core(p2, stats, negs, neg_pe)
        assert repr(first[1]) == repr(second[1])  # the raw length is the same
        # binary_entropy may lose monotonicity by a few ULPs, times L
        assert second[2] <= first[2] + 8.0 * math.ulp(float(total_rounds))
