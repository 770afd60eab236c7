"""Monte Carlo engines against closed forms and exact oracles."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpqkd import simulate
from mpqkd.finite_key import Protocol, ProtocolConfig, derive_counts
from mpqkd.noise import NoiseModel, NoiseScenario, marginal_probabilities
from mpqkd.numerics import LogEps
from mpqkd.simulate import (
    ec_toy_run,
    exact_marginals,
    sampling_lemma_experiment,
    simulate_rounds,
)

GLOBAL = NoiseModel.GLOBAL_DEPOLARIZING
LOCAL = NoiseModel.LOCAL_DEPOLARIZING
SIX = Protocol.N_SIX_STATE
BB84 = Protocol.N_BB84


def _philox(seed_seq):
    return np.random.Generator(np.random.Philox(seed_seq))


def replay_simulate_rounds(scenario, config, seed, chunk):
    """Referee: the same Philox draws as ``simulate_rounds``, each chunk freshly
    allocated and tallied by whole-array reductions.  Returns the report's
    (ab_errors, x_errors, z_errors)."""
    counts = derive_counts(config)
    n_bobs = scenario.parties - 1
    z_stream, x_stream = [_philox(s) for s in np.random.SeedSequence(seed).spawn(2)]
    nu = scenario.nu
    is_global = scenario.model is GLOBAL

    ab_errors = np.zeros(n_bobs, dtype=np.int64)
    z_errors = 0
    for done in range(0, counts.m, chunk):
        rounds = min(chunk, counts.m - done)
        if is_global:
            noisy = z_stream.random(rounds) < nu
            bits = z_stream.integers(0, 2, size=(rounds, n_bobs), dtype=np.uint8)
            discord = bits & noisy[:, None]
        else:
            discord = z_stream.random((rounds, n_bobs)) < nu / 2.0
        ab_errors += discord.sum(axis=0, dtype=np.int64)
        z_errors += int(discord.any(axis=1).sum())

    x_rounds = counts.m_prime if config.kind is SIX else counts.m
    x_errors = 0
    for done in range(0, x_rounds, chunk):
        rounds = min(chunk, x_rounds - done)
        if is_global:
            noisy = x_stream.random(rounds) < nu
            parity = x_stream.integers(0, 2, size=rounds, dtype=np.uint8) & noisy
        else:
            flips = x_stream.random((rounds, n_bobs)) < nu / 2.0
            parity = flips.sum(axis=1) % 2
        x_errors += int(parity.sum())

    six = config.kind is SIX
    return tuple(int(e) for e in ab_errors), x_errors, z_errors if six else None


def replay_ec_toy_run(parties, key_bits, q, eps_ec, radius, trials, seed):
    """Referee: the same Philox draws as ``ec_toy_run``, with every hash built
    by a pass per key bit over packed offsets.  Returns (failures, aborts)."""
    offsets = np.array(
        [
            sum(1 << pos for pos in positions)
            for wt in range(radius + 1)
            for positions in itertools.combinations(range(key_bits), wt)
        ],
        dtype=np.uint64,
    )
    ball = len(offsets)
    z_ec = max(math.ceil(math.log2(ball) + math.log2(parties - 1) + eps_ec.neg_log2), 1)
    n_bobs = parties - 1
    rng = _philox(np.random.SeedSequence(seed))
    powers = np.uint64(1) << np.arange(key_bits, dtype=np.uint64)

    failures = aborts = 0
    chunk = max(1, min(trials, (1 << 21) // ball))
    for done in range(0, trials, chunk):
        batch = min(chunk, trials - done)
        flips = rng.random((batch, n_bobs, key_bits)) < q
        noise = (flips * powers).sum(axis=2, dtype=np.uint64)
        cols = rng.integers(0, 1 << z_ec, size=(batch, key_bits), dtype=np.uint64)
        f_noise = np.zeros((batch, n_bobs), dtype=np.uint64)
        f_offsets = np.zeros((batch, ball), dtype=np.uint64)
        for t in range(key_bits):
            col = cols[:, t]
            f_noise ^= np.where((noise >> np.uint64(t)) & np.uint64(1) == 1, col[:, None], 0)
            f_offsets ^= np.where((offsets >> np.uint64(t)) & np.uint64(1) == 1, col[:, None], 0)
        n_hits = (f_offsets[:, None, :] == f_noise[:, :, None]).sum(axis=2)
        n_wrong = n_hits - (flips.sum(axis=2) <= radius)
        abort_bob = n_hits == 0
        abort_trial = abort_bob.any(axis=1)
        guess_wrong = (~abort_bob) & (rng.random((batch, n_bobs)) < n_wrong / np.maximum(n_hits, 1))
        aborts += int(abort_trial.sum())
        failures += int(((~abort_trial) & guess_wrong.any(axis=1)).sum())
    return failures, aborts


def binomial_band(p, count, sigmas=5.0):
    return sigmas * math.sqrt(max(p * (1.0 - p), 1e-12) / count)


class TestExactMarginals:
    @pytest.mark.parametrize("model", [GLOBAL, LOCAL])
    @pytest.mark.parametrize("parties", [2, 3, 4])
    @pytest.mark.parametrize("nu", [0.0, 0.1, 0.5, 1.0])
    def test_matches_closed_form(self, model, parties, nu):
        scenario = NoiseScenario(model, nu, parties)
        dense = exact_marginals(scenario)
        closed = marginal_probabilities(scenario)
        assert dense.p_ab == pytest.approx(closed.p_ab, abs=1e-12)
        assert dense.p_x == pytest.approx(closed.p_x, abs=1e-12)
        assert dense.p_z == pytest.approx(closed.p_z, abs=1e-12)

    def test_noiseless(self):
        dense = exact_marginals(NoiseScenario(GLOBAL, 0.0, 3))
        assert dense.p_ab == pytest.approx(0.0, abs=1e-15)
        assert dense.p_x == pytest.approx(0.0, abs=1e-15)
        assert dense.p_z == pytest.approx(0.0, abs=1e-15)

    def test_local_two_party_reduction(self):
        dense = exact_marginals(NoiseScenario(LOCAL, 0.2, 2))
        assert dense.p_x == pytest.approx(0.1, abs=1e-12)
        assert dense.p_ab == pytest.approx(0.1, abs=1e-12)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            exact_marginals(NoiseScenario(GLOBAL, 0.1, 6))


class TestSimulateRounds:
    def test_noiseless_exact_zero(self):
        scenario = NoiseScenario(GLOBAL, 0.0, 3)
        cfg = ProtocolConfig(Protocol.N_SIX_STATE, 3, 10**5, 0.2)
        report = simulate_rounds(scenario, cfg, seed=1)
        assert all(e == 0 for e in report.ab_errors)
        assert report.x_errors == 0
        assert report.z_errors == 0

    def test_full_noise_approaches_half(self):
        scenario = NoiseScenario(GLOBAL, 1.0, 2)
        cfg = ProtocolConfig(Protocol.N_BB84, 2, 4 * 10**5, 0.25)
        report = simulate_rounds(scenario, cfg, seed=2)
        band = binomial_band(0.5, report.ab_rounds)
        assert abs(report.q_ab[0] - 0.5) < band
        assert abs(report.q_x - 0.5) < band

    @pytest.mark.parametrize("model", [GLOBAL, LOCAL])
    def test_within_five_sigma_of_closed_form(self, model):
        scenario = NoiseScenario(model, 0.1, 3)
        probs = marginal_probabilities(scenario)
        cfg = ProtocolConfig(Protocol.N_SIX_STATE, 3, 10**6, 0.25)
        report = simulate_rounds(scenario, cfg, seed=3)
        for q in report.q_ab:
            assert abs(q - probs.p_ab) < binomial_band(probs.p_ab, report.ab_rounds)
        assert abs(report.q_x - probs.p_x) < binomial_band(probs.p_x, report.x_rounds)
        assert abs(report.q_z - probs.p_z) < binomial_band(probs.p_z, report.z_rounds)

    def test_reproducible_and_seed_sensitive(self):
        scenario = NoiseScenario(LOCAL, 0.2, 3)
        cfg = ProtocolConfig(Protocol.N_SIX_STATE, 3, 10**4, 0.2)
        a = simulate_rounds(scenario, cfg, seed=7)
        b = simulate_rounds(scenario, cfg, seed=7)
        c = simulate_rounds(scenario, cfg, seed=8)
        assert a == b
        assert a != c

    def test_round_bookkeeping(self):
        scenario = NoiseScenario(GLOBAL, 0.1, 2)
        cfg = ProtocolConfig(Protocol.N_SIX_STATE, 2, 1000, 0.1)
        report = simulate_rounds(scenario, cfg, seed=5)
        assert report.ab_rounds == 100
        assert report.x_rounds == 50  # m' for the six-state protocol
        assert report.key_rounds == 800
        bb = simulate_rounds(scenario, ProtocolConfig(Protocol.N_BB84, 2, 1000, 0.1), seed=5)
        assert bb.x_rounds == 100
        assert bb.z_errors is None

    def test_observed_stats_conversion(self):
        scenario = NoiseScenario(GLOBAL, 0.1, 3)
        cfg = ProtocolConfig(Protocol.N_SIX_STATE, 3, 10**4, 0.2)
        stats = simulate_rounds(scenario, cfg, seed=9).to_observed_stats()
        assert len(stats.q_ab) == 2
        assert stats.q_z is not None

    # Counts recorded from the whole-array reductions, nu = 0.1 at L = 10^7
    # (m = 2.5e6: two full 2^20-round chunks and a partial one, seed 11) and
    # nu = 0.3 at L = 40 (m = 10, seed 12), p = 0.25.
    # (model, protocol, N, L) -> (ab_errors, x_errors, z_errors)
    PINNED = {
        (GLOBAL, BB84, 2, 10**7): ((124905,), 125222, None),
        (GLOBAL, BB84, 2, 40): ((1,), 3, None),
        (GLOBAL, BB84, 3, 10**7): ((125282, 124737), 125222, None),
        (GLOBAL, BB84, 3, 40): ((3, 2), 3, None),
        (GLOBAL, BB84, 8, 10**7): (
            (125592, 125075, 124995, 125020, 125269, 124955, 125261), 125222, None
        ),
        (GLOBAL, BB84, 8, 40): ((2, 3, 3, 2, 3, 1, 1), 3, None),
        (GLOBAL, SIX, 2, 10**7): ((124905,), 62570, 124905),
        (GLOBAL, SIX, 2, 40): ((1,), 2, 1),
        (GLOBAL, SIX, 3, 10**7): ((125282, 124737), 62570, 187631),
        (GLOBAL, SIX, 3, 40): ((3, 2), 2, 3),
        (GLOBAL, SIX, 8, 10**7): (
            (125592, 125075, 124995, 125020, 125269, 124955, 125261), 62570, 248045
        ),
        (GLOBAL, SIX, 8, 40): ((2, 3, 3, 2, 3, 1, 1), 2, 4),
        (LOCAL, BB84, 2, 10**7): ((125058,), 125291, None),
        (LOCAL, BB84, 2, 40): ((3,), 2, None),
        (LOCAL, BB84, 3, 10**7): ((125326, 124645), 238016, None),
        (LOCAL, BB84, 3, 40): ((3, 3), 2, None),
        (LOCAL, BB84, 8, 10**7): (
            (124665, 125419, 124623, 125597, 125075, 125012, 124977), 653401, None
        ),
        (LOCAL, BB84, 8, 40): ((2, 2, 3, 2, 2, 0, 0), 5, None),
        (LOCAL, SIX, 2, 10**7): ((125058,), 62562, 125058),
        (LOCAL, SIX, 2, 40): ((3,), 1, 3),
        (LOCAL, SIX, 3, 10**7): ((125326, 124645), 119047, 243661),
        (LOCAL, SIX, 3, 40): ((3, 3), 2, 5),
        (LOCAL, SIX, 8, 10**7): (
            (124665, 125419, 124623, 125597, 125075, 125012, 124977), 326743, 754157
        ),
        (LOCAL, SIX, 8, 40): ((2, 2, 3, 2, 2, 0, 0), 3, 7),
    }

    @pytest.mark.parametrize(
        "case", list(PINNED), ids=lambda c: f"{c[0].value}-{c[1].value}-N{c[2]}-L{c[3]}"
    )
    def test_pinned_counts(self, case):
        model, kind, parties, total = case
        nu, seed = (0.1, 11) if total == 10**7 else (0.3, 12)
        report = simulate_rounds(
            NoiseScenario(model, nu, parties), ProtocolConfig(kind, parties, total, 0.25), seed
        )
        assert (report.ab_errors, report.x_errors, report.z_errors) == self.PINNED[case]
        assert all(type(c) is int for c in report.ab_errors + (report.x_errors,))

    @settings(max_examples=60, deadline=None)
    @given(
        model=st.sampled_from([GLOBAL, LOCAL]),
        kind=st.sampled_from([BB84, SIX]),
        parties=st.integers(min_value=2, max_value=10),
        nu=st.floats(min_value=0.0, max_value=1.0),
        total=st.integers(min_value=8, max_value=2 * 10**5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        chunk=st.integers(min_value=64, max_value=2**14),
    )
    def test_matches_whole_array_replay(self, model, kind, parties, nu, total, seed, chunk):
        scenario = NoiseScenario(model, nu, parties)
        config = ProtocolConfig(kind, parties, total, 0.25)
        # a small chunk puts chunk boundaries and partial chunks at every scale
        with mock.patch.object(simulate, "_CHUNK", chunk):
            report = simulate_rounds(scenario, config, seed)
        expected = replay_simulate_rounds(scenario, config, seed, chunk)
        assert (report.ab_errors, report.x_errors, report.z_errors) == expected


class TestSamplingLemma:
    def test_zero_weight_no_violations(self):
        report = sampling_lemma_experiment(100, 50, 0, 1000, LogEps.from_eps(0.01), seed=1)
        assert report.two_sided == report.upper == report.lower == 0

    def test_full_weight_no_violations(self):
        report = sampling_lemma_experiment(100, 50, 100, 1000, LogEps.from_eps(0.01), seed=1)
        assert report.two_sided == report.upper == report.lower == 0

    def test_bounds_hold_with_margin(self):
        eps = LogEps.from_eps(0.01)
        report = sampling_lemma_experiment(2000, 1000, 100, 10**5, eps, seed=4)
        for freq, bound in (
            (report.freq_two_sided, report.bound_two_sided),
            (report.freq_upper, report.bound_one_sided),
            (report.freq_lower, report.bound_one_sided),
        ):
            sigma = math.sqrt(bound * (1 - bound) / report.trials)
            assert freq <= bound + 3.0 * sigma

    def test_validation(self):
        with pytest.raises(ValueError):
            sampling_lemma_experiment(100, 100, 10, 10, LogEps.from_eps(0.1), seed=0)
        with pytest.raises(ValueError):
            sampling_lemma_experiment(100, 50, 101, 10, LogEps.from_eps(0.1), seed=0)
        with pytest.raises(ValueError):
            sampling_lemma_experiment(100, 50, 10, 0, LogEps.from_eps(0.1), seed=0)

    def test_reproducible(self):
        eps = LogEps.from_eps(0.05)
        a = sampling_lemma_experiment(500, 200, 60, 5000, eps, seed=12)
        b = sampling_lemma_experiment(500, 200, 60, 5000, eps, seed=12)
        assert a == b


class TestECToy:
    def test_noiseless_radius_zero(self):
        report = ec_toy_run(3, 10, 0.0, LogEps.from_eps(2.0**-6), 0, 2000, seed=1)
        assert report.failures == 0
        assert report.aborts == 0

    def test_failure_bounded_by_eps_ec(self):
        eps_ec = LogEps.from_eps(2.0**-6)
        report = ec_toy_run(3, 12, 0.05, eps_ec, 3, 10**4, seed=2)
        bound = eps_ec.eps
        sigma = math.sqrt(bound * (1 - bound) / report.trials)
        assert report.failure_freq <= bound + 3.0 * sigma

    def test_generous_radius_never_aborts(self):
        report = ec_toy_run(2, 8, 0.1, LogEps.from_eps(0.25), 8, 2000, seed=3)
        assert report.aborts == 0

    def test_leakage_accounting(self):
        eps_ec = LogEps.from_eps(2.0**-6)
        report = ec_toy_run(3, 12, 0.05, eps_ec, 3, 100, seed=4)
        ball = 1 + 12 + 66 + 220
        expected = math.ceil(math.log2(ball) + math.log2(2) + 6)
        assert report.leakage_bits == expected
        assert report.degenerate == (expected >= 12)

    def test_degenerate_flagged_not_raised(self):
        report = ec_toy_run(3, 6, 0.05, LogEps.from_eps(2.0**-10), 3, 100, seed=5)
        assert report.degenerate

    def test_reproducible(self):
        eps_ec = LogEps.from_eps(2.0**-5)
        a = ec_toy_run(3, 10, 0.08, eps_ec, 2, 3000, seed=6)
        b = ec_toy_run(3, 10, 0.08, eps_ec, 2, 3000, seed=6)
        assert a == b

    # (parties, key_bits, q, eps_EC, radius, trials, seed) ->
    # (failures, aborts, leakage_bits, degenerate); the first spans three chunks
    PINNED = {
        (3, 12, 0.05, 2.0**-6, 3, 20000, 1): (68, 81, 16, True),
        (2, 8, 0.1, 0.25, 8, 3000, 2): (356, 0, 10, True),
        (3, 10, 0.0, 2.0**-6, 0, 2000, 3): (0, 0, 7, False),
        (5, 10, 0.08, 2.0**-5, 2, 5000, 4): (47, 739, 13, True),
        (3, 6, 0.05, 2.0**-10, 3, 1000, 5): (0, 0, 17, True),
        (4, 14, 0.1, 2.0**-4, 1, 30000, 6): (283, 23824, 10, False),
    }

    @pytest.mark.parametrize("case", list(PINNED), ids=lambda c: "-".join(map(str, c)))
    def test_pinned_counts(self, case):
        parties, key_bits, q, eps_ec, radius, trials, seed = case
        report = ec_toy_run(parties, key_bits, q, LogEps.from_eps(eps_ec), radius, trials, seed)
        counts = (report.failures, report.aborts, report.leakage_bits, report.degenerate)
        assert counts == self.PINNED[case]

    @settings(max_examples=40, deadline=None)
    @given(
        parties=st.integers(min_value=2, max_value=6),
        key_bits=st.integers(min_value=1, max_value=12),
        q=st.floats(min_value=0.0, max_value=0.5),
        neg_log2_eps=st.integers(min_value=1, max_value=12),
        radius_frac=st.floats(min_value=0.0, max_value=1.0),
        trials=st.integers(min_value=1, max_value=3000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_per_bit_replay(
        self, parties, key_bits, q, neg_log2_eps, radius_frac, trials, seed
    ):
        radius = round(radius_frac * min(key_bits, 4))
        eps_ec = LogEps.from_eps(2.0**-neg_log2_eps)
        report = ec_toy_run(parties, key_bits, q, eps_ec, radius, trials, seed)
        expected = replay_ec_toy_run(parties, key_bits, q, eps_ec, radius, trials, seed)
        assert (report.failures, report.aborts) == expected

    def test_validation(self):
        eps = LogEps.from_eps(0.1)
        with pytest.raises(ValueError):
            ec_toy_run(3, 25, 0.05, eps, 3, 10, seed=0)
        with pytest.raises(ValueError):
            ec_toy_run(3, 10, 0.7, eps, 3, 10, seed=0)
        with pytest.raises(ValueError):
            ec_toy_run(1, 10, 0.05, eps, 3, 10, seed=0)
        with pytest.raises(ValueError):
            ec_toy_run(3, 10, 0.05, eps, 3, 0, seed=0)
