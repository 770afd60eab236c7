"""The benchmark's three workloads, built from a seed as lists of operations.

Every operation calls the library through module attributes (``optimize.
optimize_rate``, not a name imported once), so the tracer's wrappers are hit.
Each operation carries a correctness check that runs outside the timed
region and a fingerprint of its result.  Under ``DEFAULT_SEED`` the inputs
are exactly the ones the CLI and the acceptance suite use, and the check also
compares against the fingerprints recorded at the seed commit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from mpqkd import asymptotic, finite_key, noise, optimize, simulate
from mpqkd.finite_key import ConfigurationError, Protocol, ProtocolConfig
from mpqkd.noise import NoiseModel, NoiseScenario
from mpqkd.numerics import LogEps
from mpqkd.optimize import SearchConfig

DEFAULT_SEED = 0

Q_AB = 0.05
EPS_TOT = 5e-9
PROTOCOLS = (Protocol.N_BB84, Protocol.N_SIX_STATE)


@dataclass
class Op:
    """One operation: ``run`` is timed; ``check(result, expected)`` is not.

    ``check`` returns a list of problems; ``expected`` is the operation's
    recorded fingerprint, or None when there is nothing to compare against.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any, Any], List[str]]
    fingerprint: Callable[[Any], Any]


# ---------------------------------------------------------------- rate_curve


def _rounds_grid(lo: float, hi: float, steps: int) -> List[int]:
    """L values of ``mpqkd finite --rounds lo:hi:steps`` (log-spaced)."""
    lo, hi = math.log10(lo), math.log10(hi)
    return [int(round(10.0 ** (lo + (hi - lo) * i / (steps - 1)))) for i in range(steps)]


# the default ``mpqkd finite`` grid 1e5:1e10:11 thinned to 1e5:1e10:3 so that
# a pass fits the run length; it keeps both ends and, at N = 5, one L inside
# the stretch where the six-state rate is 0
RATE_ROUNDS = _rounds_grid(1e5, 1e10, 3)
RATE_PARTIES = (2, 5)


def _evaluator(kind: Protocol):
    if kind is Protocol.N_BB84:
        return finite_key.key_length_nbb84
    return finite_key.key_length_nsixstate


def _composed(kind: Protocol, budget, parties: int, total: int) -> LogEps:
    if kind is Protocol.N_BB84:
        return finite_key.epsilon_total_nbb84(budget, parties)
    return finite_key.epsilon_total_nsixstate(budget, parties, total)


def check_optimum(kind, parties, total, stats, target, opt) -> List[str]:
    """The returned shares compose to eps_tot <= target and reproduce the rate."""
    budget = optimize.allocate_budget(kind, parties, total, target, opt.shares)
    problems = []
    composed = _composed(kind, budget, parties, total)
    if composed.neg_log2 < target.neg_log2:
        problems.append(f"{kind.value}: composed eps_tot 2^-{composed.neg_log2!r} above target")
    config = ProtocolConfig(kind, parties, total, opt.shares.p)
    again = _evaluator(kind)(config, stats, budget)
    if max(again.net_length / total, 0.0) != opt.rate:
        problems.append(f"{kind.value}: re-evaluation gives {again.net_length / total!r}, not {opt.rate!r}")
    return problems


def _rate_row(parties: int, total: int, stats, target: LogEps, search: SearchConfig) -> Op:
    def run() -> Dict[Protocol, Any]:
        row = {}
        for kind in PROTOCOLS:
            try:
                row[kind] = optimize.optimize_rate(kind, parties, total, stats, target, search)
            except ConfigurationError:  # L too small for this protocol, as in cmd_finite
                row[kind] = None
        return row

    def fingerprint(row) -> Dict[str, str]:
        return {kind.value: repr(opt.rate if opt else 0.0) for kind, opt in row.items()}

    def check(row, expected) -> List[str]:
        problems = []
        for kind, opt in row.items():
            if opt is not None:
                problems += check_optimum(kind, parties, total, stats, target, opt)
            rate = opt.rate if opt else 0.0
            # a better search may raise a rate; it may never lower one
            if expected is not None and rate < float(expected[kind.value]) - 1e-12:
                problems.append(f"{kind.value}: rate {rate!r} below recorded {expected[kind.value]}")
        return problems

    return Op(f"N={parties} L={total}", run, check, fingerprint)


def rate_curve(seed: int, quick: bool) -> List[Op]:
    """Default ``mpqkd finite`` curve at N = 2 and 5; one op per (N, L) row."""
    target = LogEps.from_eps(EPS_TOT)
    search = SearchConfig(150, 2, seed) if quick else SearchConfig(seed=seed)
    rounds = RATE_ROUNDS[:2] if quick else RATE_ROUNDS
    ops = []
    for parties in RATE_PARTIES:
        scenario = NoiseScenario(NoiseModel.GLOBAL_DEPOLARIZING, 2.0 * Q_AB, parties)
        stats = noise.expected_observed_stats(scenario)
        ops += [_rate_row(parties, total, stats, target, search) for total in rounds]
    return ops


# ------------------------------------------------------------ threshold_scan

THRESHOLD_PARTIES = 2
# the scan doubles L from l_min; starting at 2^20 instead of the default 2^10
# drops the ten cheapest probes, keeps the same grid, the same bisection and
# verification probes and the same result, and fits a pass in the run length
THRESHOLD_L_MIN = 2**20


def threshold_scan(seed: int, quick: bool) -> List[Op]:
    """``threshold_L(0.05, 2, 5e-9)`` at the acceptance suite's search settings."""
    target = LogEps.from_eps(EPS_TOT)
    # seed 0 gives the acceptance suite's SearchConfig(1000, 3, 5)
    search = SearchConfig(40, 1, 5 + seed) if quick else SearchConfig(1000, 3, 5 + seed)
    parties = THRESHOLD_PARTIES

    def run() -> Optional[int]:
        return optimize.threshold_L(
            Q_AB, parties, target, l_min=THRESHOLD_L_MIN, search_config=search
        )

    def check(lbar, expected) -> List[str]:
        if lbar is None:
            return ["no crossing found"]
        problems = []
        # the bisection stops at 1% relative width
        if expected is not None and abs(lbar - expected) > 0.01 * expected:
            problems.append(f"threshold {lbar} differs from recorded {expected} by more than 1%")
        stats = optimize.stats_from_qab_global(Q_AB, parties)
        r6, rb = (
            optimize.optimize_rate(kind, parties, lbar, stats, target, search).rate
            for kind in (Protocol.N_SIX_STATE, Protocol.N_BB84)
        )
        if not (r6 > 0.0 and rb > 0.0 and r6 >= rb):
            problems.append(f"no crossing at the returned L: six-state {r6!r}, N-BB84 {rb!r}")
        return problems

    return [Op(f"threshold N={parties}", run, check, lambda lbar: lbar)]


# ------------------------------------------------------------- mc_validation

SIM_ROUNDS = 10**8
SIM_P = 0.25
SIM_NU = 0.1
SIM_PARTIES = (3, 8)


def _within_5_sigma(count: int, n: int, p: float) -> bool:
    return abs(count / n - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n)


def _simulation(model: NoiseModel, parties: int, total: int, seed: int) -> Op:
    scenario = NoiseScenario(model, SIM_NU, parties)
    config = ProtocolConfig(Protocol.N_SIX_STATE, parties, total, SIM_P)

    def run():
        return simulate.simulate_rounds(scenario, config, seed)

    def fingerprint(report) -> Dict[str, Any]:
        return {
            "ab_errors": list(report.ab_errors),
            "ab_rounds": report.ab_rounds,
            "x_errors": report.x_errors,
            "x_rounds": report.x_rounds,
            "z_errors": report.z_errors,
            "z_rounds": report.z_rounds,
        }

    def check(report, expected) -> List[str]:
        probs = noise.marginal_probabilities(scenario)
        tallies = [(e, report.ab_rounds, probs.p_ab, "Q_AB") for e in report.ab_errors]
        tallies.append((report.x_errors, report.x_rounds, probs.p_x, "Q_X"))
        tallies.append((report.z_errors, report.z_rounds, probs.p_z, "Q_Z"))
        problems = [
            f"{label} {count}/{n} outside 5 sigma of {p!r}"
            for count, n, p, label in tallies
            if not _within_5_sigma(count, n, p)
        ]
        if expected is not None and fingerprint(report) != expected:
            problems.append(f"counts {fingerprint(report)} differ from recorded {expected}")
        return problems

    return Op(f"simulate {model.value} N={parties}", run, check, fingerprint)


def _sigma(bound: float, trials: int) -> float:
    return math.sqrt(bound * (1.0 - bound) / trials)


def _sampling_lemma(trials: int, seed: int) -> Op:
    eps = LogEps.from_eps(0.01)  # ``mpqkd validate sampling-lemma`` defaults

    def run():
        return simulate.sampling_lemma_experiment(2000, 1000, 100, trials, eps, seed)

    def fingerprint(report) -> List[int]:
        return [report.two_sided, report.upper, report.lower]

    def check(report, expected) -> List[str]:
        problems = [
            f"{label} frequency {freq!r} above bound {bound!r} + 3 sigma"
            for label, freq, bound in (
                ("two-sided", report.freq_two_sided, report.bound_two_sided),
                ("upper", report.freq_upper, report.bound_one_sided),
                ("lower", report.freq_lower, report.bound_one_sided),
            )
            if freq > bound + 3.0 * _sigma(bound, report.trials)
        ]
        if expected is not None and fingerprint(report) != expected:
            problems.append(f"counts {fingerprint(report)} differ from recorded {expected}")
        return problems

    return Op("sampling lemma", run, check, fingerprint)


def _ec_toy(trials: int, seed: int) -> Op:
    eps_ec = LogEps.from_eps(2.0**-6)  # ``mpqkd validate ec-toy`` defaults

    def run():
        return simulate.ec_toy_run(3, 12, 0.05, eps_ec, 3, trials, seed)

    def fingerprint(report) -> List[int]:
        return [report.failures, report.aborts, report.leakage_bits]

    def check(report, expected) -> List[str]:
        problems = []
        if report.failure_freq > eps_ec.eps + 3.0 * _sigma(eps_ec.eps, report.trials):
            problems.append(f"failure frequency {report.failure_freq!r} above eps_EC + 3 sigma")
        if expected is not None and fingerprint(report) != expected:
            problems.append(f"counts {fingerprint(report)} differ from recorded {expected}")
        return problems

    return Op("ec toy", run, check, fingerprint)


def _marginals_sweep(parties_list) -> Op:
    scenarios = [
        NoiseScenario(model, nu, parties)
        for model in NoiseModel
        for parties in parties_list
        for nu in (0.0, 0.1, 0.5, 1.0)
    ]

    def run():
        return [simulate.exact_marginals(s) for s in scenarios]

    def check(dense_list, expected) -> List[str]:
        problems = []
        for scenario, dense in zip(scenarios, dense_list):
            closed = noise.marginal_probabilities(scenario)
            err = max(
                abs(closed.p_ab - dense.p_ab), abs(closed.p_x - dense.p_x), abs(closed.p_z - dense.p_z)
            )
            if not err <= 1e-12:
                problems.append(f"{scenario}: dense oracle off by {err!r}")
        return problems

    # the dense oracle's probabilities are not counts; the check is the referee
    return Op(f"exact marginals x{len(scenarios)}", run, check, lambda dense_list: None)


def _close_to_recorded(values: List[float], expected) -> bool:
    return expected is None or all(abs(v - float(e)) <= 1e-12 for v, e in zip(values, expected))


def _global_probs(p_ab: float, parties: int):
    scenario = NoiseScenario(NoiseModel.GLOBAL_DEPOLARIZING, 2.0 * p_ab, parties)
    return noise.marginal_probabilities(scenario)


def _asymptotic_curve() -> Op:
    # ``mpqkd asymptotic`` defaults: global model, N = 2,5, P_AB = 0.0:0.12:25
    grid = [0.12 * i / 24 for i in range(25)]

    def run():
        rows = []
        for parties in (2, 5):
            for p_ab in grid:
                probs = _global_probs(p_ab, parties)
                rows.append(
                    (
                        asymptotic.rate_bb84_asymptotic(probs.p_ab, probs.p_x),
                        asymptotic.rate_sixstate_asymptotic(probs),
                    )
                )
        return rows

    def fingerprint(rows) -> List[str]:
        return [repr(v) for row in rows for v in row]

    def check(rows, expected) -> List[str]:
        problems = []
        half = len(grid)
        if [r[0] for r in rows[:half]] != [r[0] for r in rows[half:]]:
            problems.append("N-BB84 asymptotic rate depends on N")
        if not all(six >= bb84 - 1e-12 for bb84, six in rows):
            problems.append("six-state below N-BB84 under global noise")
        if not _close_to_recorded([v for row in rows for v in row], expected):
            problems.append("rates differ from the recorded curve by more than 1e-12")
        return problems

    return Op("asymptotic curve", run, check, fingerprint)


def _noise_threshold(parties: int) -> Op:
    def bb84(p: float) -> float:
        probs = _global_probs(p, parties)
        return asymptotic.rate_bb84_asymptotic(probs.p_ab, probs.p_x)

    def six(p: float) -> float:
        return asymptotic.rate_sixstate_asymptotic(_global_probs(p, parties))

    def run():
        return [asymptotic.find_rate_root(bb84, 0.05, 0.3), asymptotic.find_rate_root(six, 0.05, 0.4)]

    def check(roots, expected) -> List[str]:
        problems = []
        # both curves decrease in P_AB, so a root to tol 1e-6 brackets the sign change
        for label, curve, root in (("N-BB84", bb84, roots[0]), ("six-state", six, roots[1])):
            if not curve(root - 1e-6) > 0.0 >= curve(root + 1e-6):
                problems.append(f"{label} root {root!r} does not bracket the sign change")
        if not _close_to_recorded(roots, expected):
            problems.append(f"roots {roots} differ from recorded {expected}")
        return problems

    return Op(f"noise threshold N={parties}", run, check, lambda roots: [repr(r) for r in roots])


def mc_validation(seed: int, quick: bool) -> List[Op]:
    """Simulator, dense oracle, tail-bound and asymptotic checks; no optimizer."""
    rounds = 10**6 if quick else SIM_ROUNDS
    ops = [
        _simulation(model, parties, rounds, seed)
        for model in NoiseModel
        for parties in SIM_PARTIES
    ]
    ops.append(_sampling_lemma(10**4 if quick else 10**6, seed))
    ops.append(_ec_toy(10**3 if quick else 10**5, seed))
    # the 24 cases of ``mpqkd validate marginals``
    ops.append(_marginals_sweep((2, 3) if quick else (2, 3, 4)))
    ops.append(_asymptotic_curve())
    ops += [_noise_threshold(parties) for parties in (2, 5, 8)]
    return ops


WORKLOADS: Dict[str, Callable[[int, bool], List[Op]]] = {
    "rate_curve": rate_curve,
    "threshold_scan": threshold_scan,
    "mc_validation": mc_validation,
}
