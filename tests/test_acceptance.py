"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The crossover criterion dominates the runtime
(a few minutes); everything else finishes in seconds.
"""

import inspect
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from mpqkd.asymptotic import find_rate_root, rate_bb84_asymptotic, rate_sixstate_asymptotic
from mpqkd.cli import main as cli_main
from mpqkd.finite_key import (
    Protocol,
    ProtocolConfig,
    SecurityBudget,
    epsilon_total_nbb84,
    epsilon_total_nsixstate,
    key_length_nbb84,
    key_length_nsixstate,
)
from mpqkd.noise import NoiseModel, NoiseScenario, marginal_probabilities
from mpqkd.numerics import LogEps, eta_correction, xi_correction
from mpqkd.optimize import (
    BudgetShares,
    SearchConfig,
    allocate_budget,
    budget_components,
    optimize_rate,
    stats_from_qab_global,
    threshold_L,
)
from mpqkd.simulate import ec_toy_run, sampling_lemma_experiment, simulate_rounds
from mpqkd.noise import ObservedStats

import oracles
from test_finite_key import (
    assert_bb84_matches_oracle,
    assert_sixstate_matches_oracle,
    random_bb84_draw,
    random_sixstate_draw,
)
from test_zero_certificate import key_length_at

EPS_TOT = LogEps.from_eps(5e-9)
SEARCH = SearchConfig(max_evaluations=3000, starts=6, seed=2)
THRESHOLD_SEARCH = SearchConfig(max_evaluations=1000, starts=3, seed=5)


@contextmanager
def criterion(number: int, description: str, budget_seconds: float | None = None):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {description}", flush=True)
        raise
    elapsed = time.monotonic() - started
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"runtime {elapsed:.1f}s exceeds {budget_seconds}s"
    print(f"ACCEPTANCE {number:2d} PASS: {description} ({elapsed:.1f}s)", flush=True)


def test_criterion_01_formula_oracles():
    with criterion(1, "key-length formulas match the arbitrary-precision oracle", 60):
        rng = np.random.default_rng(108)
        for _ in range(100):
            assert_bb84_matches_oracle(random_bb84_draw(rng))
        for _ in range(100):
            assert_sixstate_matches_oracle(random_sixstate_draw(rng))


def test_criterion_02_asymptotic_anchors():
    with criterion(2, "asymptotic anchors and noise-threshold roots"):
        assert rate_bb84_asymptotic(0.0, 0.0) == 1.0

        def six_global(p, parties=2):
            probs = marginal_probabilities(
                NoiseScenario(NoiseModel.GLOBAL_DEPOLARIZING, 2.0 * p, parties)
            )
            return rate_sixstate_asymptotic(probs)

        assert six_global(0.0) == pytest.approx(1.0)
        bb84_root = find_rate_root(lambda p: rate_bb84_asymptotic(p, p), 0.05, 0.3)
        assert bb84_root == pytest.approx(0.1100, abs=5e-4)
        six_root = find_rate_root(six_global, 0.05, 0.3)
        assert six_root == pytest.approx(0.126, abs=1e-3)


def test_criterion_03_bb84_n_independence(capsys):
    with criterion(3, "BB84 asymptotic rate is computed by an N-free function"):
        params = inspect.signature(rate_bb84_asymptotic).parameters
        assert "parties" not in params and len(params) == 2
        assert cli_main(
            ["asymptotic", "--parties", "2,5,8", "--qab", "0.0:0.1:21", "--format", "csv"]
        ) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()[2:]
        header = lines[0].split(",")
        columns = {}
        for ln in lines[1:]:
            row = dict(zip(header, ln.split(",")))
            columns.setdefault(row["parties"], []).append(row["rate_bb84"])
        assert columns["2"] == columns["5"] == columns["8"]  # bit-exact strings


def test_criterion_04_global_model_ordering():
    with criterion(4, "six-state dominates BB84 asymptotically (global model)"):
        for parties in (2, 5, 8):
            for p_ab in np.arange(0.01, 0.105, 0.01):
                probs = marginal_probabilities(
                    NoiseScenario(NoiseModel.GLOBAL_DEPOLARIZING, 2.0 * float(p_ab), parties)
                )
                assert rate_sixstate_asymptotic(probs) >= rate_bb84_asymptotic(
                    probs.p_ab, probs.p_x
                ) - 1e-12


def test_criterion_05_local_model_ordering():
    with criterion(5, "both asymptotic rates drop from N=2 to N=10 (local model)"):
        lo = marginal_probabilities(NoiseScenario(NoiseModel.LOCAL_DEPOLARIZING, 0.04, 2))
        hi = marginal_probabilities(NoiseScenario(NoiseModel.LOCAL_DEPOLARIZING, 0.04, 10))
        assert rate_bb84_asymptotic(hi.p_ab, hi.p_x) < rate_bb84_asymptotic(lo.p_ab, lo.p_x)
        assert rate_sixstate_asymptotic(hi) < rate_sixstate_asymptotic(lo)


def test_criterion_06_exact_oracle_equivalence():
    with criterion(6, "density-matrix marginals equal the closed forms to 1e-12", 10):
        from mpqkd.simulate import exact_marginals

        for model in NoiseModel:
            for parties in (2, 3, 4):
                for nu in (0.0, 0.1, 0.5, 1.0):
                    scenario = NoiseScenario(model, nu, parties)
                    dense = exact_marginals(scenario)
                    closed = marginal_probabilities(scenario)
                    assert abs(dense.p_ab - closed.p_ab) <= 1e-12
                    assert abs(dense.p_x - closed.p_x) <= 1e-12
                    assert abs(dense.p_z - closed.p_z) <= 1e-12


def test_criterion_07_monte_carlo_consistency():
    with criterion(7, "simulated frequencies within 5 sigma of closed forms", 60):
        for model in NoiseModel:
            scenario = NoiseScenario(model, 0.1, 3)
            probs = marginal_probabilities(scenario)
            config = ProtocolConfig(Protocol.N_SIX_STATE, 3, 4 * 10**6, 0.25)
            report = simulate_rounds(scenario, config, seed=71)

            def band(p, count):
                return 5.0 * math.sqrt(p * (1.0 - p) / count)

            for q in report.q_ab:  # one million PE rounds per statistic
                assert abs(q - probs.p_ab) < band(probs.p_ab, report.ab_rounds)
            assert abs(report.q_z - probs.p_z) < band(probs.p_z, report.z_rounds)
            assert abs(report.q_x - probs.p_x) < band(probs.p_x, report.x_rounds)
            bb84 = simulate_rounds(
                scenario, ProtocolConfig(Protocol.N_BB84, 3, 4 * 10**6, 0.25), seed=72
            )
            assert abs(bb84.q_x - probs.p_x) < band(probs.p_x, bb84.x_rounds)


def test_criterion_08_sampling_lemma_bounds():
    with criterion(8, "sampling-tail violations stay within each stated bound"):
        report = sampling_lemma_experiment(
            2000, 1000, 100, 10**5, LogEps.from_eps(0.01), seed=81
        )
        for freq, bound in (
            (report.freq_two_sided, report.bound_two_sided),
            (report.freq_upper, report.bound_one_sided),
            (report.freq_lower, report.bound_one_sided),
        ):
            sigma = math.sqrt(bound * (1.0 - bound) / report.trials)
            assert freq <= bound + 3.0 * sigma


def test_criterion_09_ec_toy_bound():
    with criterion(9, "toy EC failure frequency bounded by eps_EC"):
        eps_ec = LogEps.from_eps(2.0**-6)
        report = ec_toy_run(3, 12, 0.05, eps_ec, 3, 10**5, seed=91)
        bound = eps_ec.eps
        sigma = math.sqrt(bound * (1.0 - bound) / report.trials)
        assert report.failure_freq <= bound + 3.0 * sigma


def test_criterion_10_finite_asymptotic_bridge():
    with criterion(10, "optimized finite rates approach the asymptotic values"):
        stats = stats_from_qab_global(0.01, 2)
        bb84 = optimize_rate(Protocol.N_BB84, 2, 10**12, stats, EPS_TOT, SEARCH)
        assert abs(bb84.rate - rate_bb84_asymptotic(0.01, 0.01)) < 0.02
        six = optimize_rate(Protocol.N_SIX_STATE, 2, 10**14, stats, EPS_TOT, SEARCH)
        probs = marginal_probabilities(NoiseScenario(NoiseModel.GLOBAL_DEPOLARIZING, 0.02, 2))
        assert abs(six.rate - rate_sixstate_asymptotic(probs)) < 0.05


def test_criterion_11_crossover_behavior():
    with criterion(11, "crossover threshold exists, verified, and orders correctly", 1800):
        lbar_22 = threshold_L(0.05, 2, EPS_TOT, search_config=THRESHOLD_SEARCH)
        assert lbar_22 is not None
        stats = stats_from_qab_global(0.05, 2)
        below = max(1024, lbar_22 // 8)
        r6_below = optimize_rate(
            Protocol.N_SIX_STATE, 2, below, stats, EPS_TOT, THRESHOLD_SEARCH
        ).rate
        rb_below = optimize_rate(
            Protocol.N_BB84, 2, below, stats, EPS_TOT, THRESHOLD_SEARCH
        ).rate
        assert rb_below > r6_below
        above = lbar_22 * 8
        r6_above = optimize_rate(
            Protocol.N_SIX_STATE, 2, above, stats, EPS_TOT, THRESHOLD_SEARCH
        ).rate
        rb_above = optimize_rate(
            Protocol.N_BB84, 2, above, stats, EPS_TOT, THRESHOLD_SEARCH
        ).rate
        assert r6_above >= rb_above > 0.0

        lbar_52 = threshold_L(0.05, 5, EPS_TOT, search_config=THRESHOLD_SEARCH)
        lbar_82 = threshold_L(0.05, 8, EPS_TOT, search_config=THRESHOLD_SEARCH)
        assert lbar_22 <= lbar_52 <= lbar_82  # grows with the party count

        lbar_q01 = threshold_L(0.01, 5, EPS_TOT, search_config=THRESHOLD_SEARCH)
        lbar_q10 = threshold_L(0.10, 5, EPS_TOT, search_config=THRESHOLD_SEARCH)
        assert lbar_q01 >= lbar_52 >= lbar_q10  # shrinks with the noise
        # the thresholds themselves, as the warm-started scan finds them
        lbars = (lbar_22, lbar_52, lbar_82, lbar_q01, lbar_q10)
        assert lbars == (1805811301, 42901602902, 3247575039328, 3160823245362, 8873616143)


def test_criterion_12_monotonicity_suite():
    with criterion(12, "monotonicity and budget-feasibility property suite", 60):
        rng = np.random.default_rng(121)

        # raw key length non-increasing in the penalty frequencies Q_AB, Q_X
        for _ in range(20):
            parties = int(rng.integers(2, 6))
            cfg = ProtocolConfig(
                Protocol.N_BB84, parties, int(rng.integers(10**4, 10**8)), 0.1
            )
            budget = SecurityBudget(
                eps_z=LogEps(float(rng.uniform(20, 200))),
                eps_x=LogEps(float(rng.uniform(20, 200))),
                eps_ec=LogEps(float(rng.uniform(20, 200))),
                eps_pa=LogEps(float(rng.uniform(20, 200))),
            )
            q_ab = [float(v) for v in rng.uniform(0.0, 0.1, parties - 1)]
            q_x = float(rng.uniform(0.0, 0.1))
            base = key_length_nbb84(cfg, ObservedStats(q_ab=q_ab, q_x=q_x), budget)
            up_x = key_length_nbb84(cfg, ObservedStats(q_ab=q_ab, q_x=q_x + 0.03), budget)
            bumped = [q_ab[0] + 0.03] + q_ab[1:]
            up_ab = key_length_nbb84(cfg, ObservedStats(q_ab=bumped, q_x=q_x), budget)
            assert up_x.raw_length <= base.raw_length + 1e-9
            assert up_ab.raw_length <= base.raw_length + 1e-9

        for _ in range(10):
            parties = int(rng.integers(2, 5))
            cfg = ProtocolConfig(
                Protocol.N_SIX_STATE, parties, int(rng.integers(10**5, 10**8)), 0.1
            )
            negs = rng.uniform(300, 900, 6)
            budget = SecurityBudget(
                eps_z=LogEps(float(negs[0])),
                eps_x=LogEps(float(negs[1])),
                eps_ec=LogEps(float(negs[2])),
                eps_pa=LogEps(float(negs[3])),
                eps_bar=LogEps(float(negs[4])),
                eps_z_prime=LogEps(float(negs[5])),
            )
            q_ab = [float(v) for v in rng.uniform(0.0, 0.06, parties - 1)]
            q_x, q_z = float(rng.uniform(0.0, 0.06)), float(rng.uniform(0.05, 0.12))
            stats = ObservedStats(q_ab=q_ab, q_x=q_x, q_z=q_z)
            base = key_length_nsixstate(cfg, stats, budget)
            if base.raw_length == -math.inf:
                continue
            up_x = key_length_nsixstate(
                cfg, ObservedStats(q_ab=q_ab, q_x=q_x + 0.03, q_z=q_z), budget
            )
            bumped = [q_ab[0] + 0.03] + q_ab[1:]
            up_ab = key_length_nsixstate(
                cfg, ObservedStats(q_ab=bumped, q_x=q_x, q_z=q_z), budget
            )
            assert up_x.raw_length <= base.raw_length + 1e-9
            assert up_ab.raw_length <= base.raw_length + 1e-9

        # xi and eta monotonicities
        for _ in range(30):
            n = int(rng.integers(10, 10**7))
            m = int(rng.integers(10, 10**7))
            neg = float(rng.uniform(1.0, 800.0))
            assert xi_correction(LogEps(neg), 2 * n, m) < xi_correction(LogEps(neg), n, m)
            assert xi_correction(LogEps(neg), n, 2 * m) < xi_correction(LogEps(neg), n, m)
            assert xi_correction(LogEps(neg + 1), n, m) > xi_correction(LogEps(neg), n, m)
            assert eta_correction(LogEps(neg), 2, 2 * m) < eta_correction(LogEps(neg), 2, m)
            assert eta_correction(LogEps(neg + 1), 2, m) > eta_correction(LogEps(neg), 2, m)

        # budget feasibility: allocation never exceeds the target, and the
        # optimizer's returned point composes within it
        for kind in Protocol:
            for _ in range(50):
                k = len(budget_components(kind))
                weights = rng.uniform(0.05, 1.0, k)
                weights = tuple(float(w) for w in weights / weights.sum())
                shares = BudgetShares(float(rng.uniform(0.01, 0.45)), weights)
                parties = int(rng.integers(2, 6))
                total_rounds = int(10 ** rng.uniform(4, 12))
                budget = allocate_budget(kind, parties, total_rounds, EPS_TOT, shares)
                if kind is Protocol.N_BB84:
                    total = epsilon_total_nbb84(budget, parties)
                else:
                    total = epsilon_total_nsixstate(budget, parties, total_rounds)
                assert total.neg_log2 >= EPS_TOT.neg_log2
        stats = stats_from_qab_global(0.05, 2)
        opt = optimize_rate(
            Protocol.N_BB84, 2, 10**6, stats, EPS_TOT, SearchConfig(400, 2, 12)
        )
        result = key_length_at(Protocol.N_BB84, 2, 10**6, stats, EPS_TOT, opt)
        assert result.eps_tot.neg_log2 >= EPS_TOT.neg_log2
