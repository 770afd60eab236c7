"""Rate maximization over the security-budget split and the test-round rate.

The total security parameter eps_tot is fixed; what remains free is how it
is divided among the subprotocol epsilons and the probability p of test
rounds.  The split is parameterized by positive simplex weights, so every
evaluated point satisfies the composed eps_tot <= target exactly, in the log
domain; no penalty terms are involved.

The search is derivative-free (the objective has clamps and floor
operations): multi-start coordinate descent with golden-section line
searches, over softmax-transformed weights and log p.  Starts come from a
scrambled Sobol sequence plus one deterministic equal-shares start, so the
optimized rate can never fall below the equal-shares rate.  Same seed and
search settings give bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np
from scipy.stats import qmc

from .finite_key import (
    ConfigurationError,
    KeyLengthResult,
    Protocol,
    ProtocolConfig,
    SecurityBudget,
    epsilon_total_nbb84,
    epsilon_total_nsixstate,
    key_length_nbb84,
    key_length_nsixstate,
    postselection_exponent,
)
from .noise import ObservedStats
from .numerics import LogEps

__all__ = [
    "BudgetShares",
    "SearchConfig",
    "OptimizedRate",
    "budget_components",
    "allocate_budget",
    "optimize_rate",
    "threshold_L",
    "stats_from_qab_global",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

BB84_COMPONENTS = ("eps_z", "eps_x", "eps_ec", "eps_pa")
SIX_STATE_COMPONENTS = ("eps_bar", "eps_z", "eps_x", "eps_z_prime", "eps_ec", "eps_pa")


def budget_components(kind: Protocol) -> Tuple[str, ...]:
    return BB84_COMPONENTS if kind is Protocol.N_BB84 else SIX_STATE_COMPONENTS


@dataclass(frozen=True)
class BudgetShares:
    """Simplex weights over the free epsilon components, plus p."""

    p: float
    weights: Tuple[float, ...]

    def __post_init__(self) -> None:
        if any(w <= 0.0 for w in self.weights):
            raise ValueError("weights must be positive")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {sum(self.weights)}")
        if not 0.0 < self.p < 0.5:
            raise ValueError(f"p must be in (0, 0.5), got {self.p}")


@dataclass(frozen=True)
class SearchConfig:
    max_evaluations: int = 5000
    starts: int = 8
    seed: int = 0


@dataclass(frozen=True)
class OptimizedRate:
    rate: float
    shares: BudgetShares
    result: KeyLengthResult
    evaluations: int


def allocate_budget(
    kind: Protocol,
    parties: int,
    total_rounds: int,
    target: LogEps,
    shares: BudgetShares,
) -> SecurityBudget:
    """Split a target eps_tot into a SecurityBudget according to shares.

    For N-BB84 the weights (w_z, w_x, w_ec, w_pa) give
    ``2 eps_PE = (w_z + w_x) eps_tot`` with the square eps_PE^2 split
    between (N-1) eps_z and eps_x in proportion w_z : w_x.  For the
    six-state protocol the weights split the inner sum
    ``eps_tot / (L+1)^(2^(2N)-1)`` as 2 eps_bar : (N-1) eps_z : eps_x :
    eps_z' : eps_EC : eps_PA.  A correction pass shifts the components by a
    few ULPs if rounding ever pushed the composed total above the target;
    ValueError is raised if six passes still leave it above.
    """
    w = dict(zip(budget_components(kind), shares.weights))
    if kind is Protocol.N_BB84:
        pair = w["eps_z"] + w["eps_x"]
        neg_pe = target.neg_log2 - math.log2(pair / 2.0)
        negs = {
            "eps_z": 2.0 * neg_pe - math.log2(w["eps_z"] / (pair * (parties - 1))),
            "eps_x": 2.0 * neg_pe - math.log2(w["eps_x"] / pair),
            "eps_ec": target.neg_log2 - math.log2(w["eps_ec"]),
            "eps_pa": target.neg_log2 - math.log2(w["eps_pa"]),
        }
        scale = {"eps_z": 2.0, "eps_x": 2.0, "eps_ec": 1.0, "eps_pa": 1.0}
    else:
        neg_inner = target.neg_log2 + postselection_exponent(parties) * math.log2(
            total_rounds + 1
        )
        negs = {
            "eps_bar": neg_inner - math.log2(w["eps_bar"] / 2.0),
            "eps_z": neg_inner - math.log2(w["eps_z"] / (parties - 1)),
            "eps_x": neg_inner - math.log2(w["eps_x"]),
            "eps_z_prime": neg_inner - math.log2(w["eps_z_prime"]),
            "eps_ec": neg_inner - math.log2(w["eps_ec"]),
            "eps_pa": neg_inner - math.log2(w["eps_pa"]),
        }
        scale = {name: 1.0 for name in negs}

    def build() -> SecurityBudget:
        return SecurityBudget(**{name: LogEps(neg) for name, neg in negs.items()})

    def composed(budget: SecurityBudget) -> LogEps:
        if kind is Protocol.N_BB84:
            return epsilon_total_nbb84(budget, parties)
        return epsilon_total_nsixstate(budget, parties, total_rounds)

    budget = build()
    for _ in range(6):
        deficit = target.neg_log2 - composed(budget).neg_log2
        if deficit <= 0.0:
            return budget
        # large six-state exponents make tiny bumps vanish in rounding, so
        # step by at least a few ULPs of the biggest component
        bump = deficit + 4.0 * max(math.ulp(abs(v)) for v in negs.values())
        for name in negs:
            negs[name] += scale[name] * bump
        budget = build()
    deficit = target.neg_log2 - composed(budget).neg_log2
    if deficit > 0.0:
        raise ValueError(
            f"composed eps_tot exceeds the target by {deficit:.3g} bits "
            "after 6 correction passes"
        )
    return budget


def _softmax(theta: np.ndarray) -> Tuple[float, ...]:
    z = np.exp(theta - np.max(theta))
    return tuple(z / z.sum())


def _golden_max(
    f: Callable[[float], float], lo: float, hi: float, iters: int
) -> Tuple[float, float]:
    """Golden-section maximization on [lo, hi]; returns (x_best, f_best)."""
    a, b = lo, hi
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def optimize_rate(
    kind: Protocol,
    parties: int,
    total_rounds: int,
    stats: ObservedStats,
    eps_tot_target: LogEps,
    search_config: Optional[SearchConfig] = None,
) -> OptimizedRate:
    """Maximize the net key rate over budget shares and p at fixed eps_tot.

    Returns the best found rate (0.0 when no positive rate exists anywhere);
    the equal-shares point is always among the starts, so the result is
    never worse than it.
    """
    cfg = search_config or SearchConfig()
    n_weights = len(budget_components(kind))
    m_min = 2 if kind is Protocol.N_SIX_STATE else 1
    p_min = (m_min + 0.5) / total_rounds
    p_max = 0.4999
    if p_min >= p_max:
        raise ConfigurationError(
            f"L = {total_rounds} is too small for {kind.value} round bookkeeping"
        )
    lp_lo, lp_hi = math.log(p_min), math.log(p_max)

    evaluator = key_length_nbb84 if kind is Protocol.N_BB84 else key_length_nsixstate
    evaluations = 0

    def evaluate(theta: np.ndarray, lp: float):
        # the signed net rate is the search objective: the zero-clamped rate
        # is flat over the whole infeasible region and gives line searches
        # nothing to follow
        nonlocal evaluations
        evaluations += 1
        p = math.exp(min(max(lp, lp_lo), lp_hi))
        weights = _softmax(theta)
        try:
            config = ProtocolConfig(kind, parties, total_rounds, p)
            budget = allocate_budget(
                kind, parties, total_rounds, eps_tot_target, BudgetShares(p, weights)
            )
            result = evaluator(config, stats, budget)
        except ConfigurationError:
            return -math.inf, None, None
        return result.net_length / total_rounds, BudgetShares(p, weights), result

    # start 0: equal shares; the rest from a scrambled Sobol sequence
    start_list = [(np.zeros(n_weights), math.log(min(max(0.05, p_min), p_max)))]
    extra = max(cfg.starts - 1, 0)
    points = np.empty((0, n_weights + 1))
    if extra:
        sobol = qmc.Sobol(d=n_weights + 1, scramble=True, seed=cfg.seed)
        points = sobol.random_base2(m=max(1, math.ceil(math.log2(extra))))[:extra]
    for row in points:
        theta = 3.0 * (2.0 * row[:n_weights] - 1.0)
        lp = lp_lo + row[n_weights] * (lp_hi - lp_lo)
        start_list.append((theta, lp))

    best = (-math.inf, None, None)

    def consider(candidate) -> None:
        nonlocal best
        objective, shares, result = candidate
        if result is None:
            return
        if best[2] is None or objective > best[0]:
            best = (objective, shares, result)

    for theta0, lp0 in start_list:
        theta = theta0.copy()
        lp = lp0
        start_budget = evaluations + cfg.max_evaluations
        first = evaluate(theta, lp)
        consider(first)
        current = first[0]
        first_sweep = True
        while evaluations < start_budget:
            improved = False
            # p first: it moves the round split, usually the strongest knob
            lo = lp_lo if first_sweep else max(lp - 0.7, lp_lo)
            hi = lp_hi if first_sweep else min(lp + 0.7, lp_hi)
            x, fx = _golden_max(lambda v: evaluate(theta, v)[0], lo, hi, iters=18)
            if fx > current + 1e-12:
                current, lp, improved = fx, x, True
            for i in range(n_weights):
                if evaluations >= start_budget:
                    break

                def along(v: float, i: int = i) -> float:
                    trial = theta.copy()
                    trial[i] = v
                    return evaluate(trial, lp)[0]

                x, fx = _golden_max(along, theta[i] - 2.0, theta[i] + 2.0, iters=16)
                if fx > current + 1e-12:
                    current = fx
                    theta[i] = x
                    improved = True
            first_sweep = False
            if not improved:
                break
        consider(evaluate(theta, lp))

    objective, shares, result = best
    if result is None:
        raise ConfigurationError("no feasible configuration found")
    return OptimizedRate(
        rate=max(objective, 0.0), shares=shares, result=result, evaluations=evaluations
    )


def stats_from_qab_global(q_ab: float, parties: int) -> ObservedStats:
    """PE frequencies implied by Q_AB under the global-depolarizing relations.

    Q_X = Q_AB and Q_Z = (2^N - 2)/2^(N-1) Q_AB, mirroring the link between
    the corresponding probabilities.
    """
    if not 0.0 < q_ab < 0.5:
        raise ValueError(f"q_ab must be in (0, 0.5), got {q_ab}")
    q_z = (2.0**parties - 2.0) / 2.0 ** (parties - 1) * q_ab
    return ObservedStats(q_ab=[q_ab] * (parties - 1), q_x=q_ab, q_z=q_z)


def _bisect_crossing(
    crossed: Callable[[int], bool], lo: int, hi: int, rel_tol: float = 1e-2
) -> int:
    """Geometric bisection for the first crossed L in (lo, hi], hi crossed."""
    while hi > lo * (1.0 + rel_tol):
        mid = int(round(math.sqrt(float(lo) * float(hi))))
        if mid <= lo or mid >= hi:
            break
        if crossed(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _threshold_from_curve(
    crossed: Callable[[int], bool], l_min: int, l_max: int
) -> Optional[int]:
    """First verified L with crossed(L), scanning a factor-2 grid.

    A candidate found by bisection is verified at 2L and 4L; on verification
    failure the scan resumes past the point where the ordering broke.
    """
    prev: Optional[int] = None
    scan = l_min
    while scan <= l_max:
        if not crossed(scan):
            prev = scan
            scan *= 2
            continue
        if prev is None:
            # crossing already at the scan start: walk down for a bracket
            lo = scan // 2
            while lo >= 8 and crossed(lo):
                scan, lo = lo, lo // 2
            if lo < 8:
                return scan
            prev = lo
        candidate = _bisect_crossing(crossed, prev, scan)
        if crossed(2 * candidate) and crossed(4 * candidate):
            return candidate
        if not crossed(2 * candidate):
            prev, scan = 2 * candidate, 4 * candidate
        else:
            prev, scan = 4 * candidate, 8 * candidate
    return None


def threshold_L(
    q_ab: float,
    parties: int,
    eps_tot_target: LogEps,
    l_max: int = 10**14,
    l_min: int = 1024,
    search_config: Optional[SearchConfig] = None,
) -> Optional[int]:
    """Smallest round count where the six-state rate catches up with N-BB84.

    Scans L on a factor-2 geometric grid, looking for the first L where both
    optimized rates are positive and the six-state rate is at least the
    N-BB84 rate, refines by bisection on log L to about 1% and verifies the
    ordering persists at 2L and 4L.  Returns None when no crossing exists
    below ``l_max``.  Frequencies are derived from Q_AB via the
    global-depolarizing relations.
    """
    stats = stats_from_qab_global(q_ab, parties)
    cache: Dict[int, Tuple[float, float]] = {}

    def rates(total_rounds: int) -> Tuple[float, float]:
        if total_rounds not in cache:
            r6 = optimize_rate(
                Protocol.N_SIX_STATE, parties, total_rounds, stats, eps_tot_target, search_config
            ).rate
            rb = optimize_rate(
                Protocol.N_BB84, parties, total_rounds, stats, eps_tot_target, search_config
            ).rate
            cache[total_rounds] = (r6, rb)
        return cache[total_rounds]

    def crossed(total_rounds: int) -> bool:
        r6, rb = rates(total_rounds)
        return r6 > 0.0 and rb > 0.0 and r6 >= rb

    return _threshold_from_curve(crossed, l_min, l_max)
