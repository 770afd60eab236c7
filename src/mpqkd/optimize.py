"""Rate maximization over the security-budget split and the test-round rate.

The total security parameter eps_tot is fixed; what remains free is how it
is divided among the subprotocol epsilons and the probability p of test
rounds.  The split (``finite_key._splitter``) takes positive simplex
weights, so every point scored composes to eps_tot <= target exactly.

The search runs over one count.  Within a step of m = floor(L p) only the
preshared cost L h(p) moves, and it grows with p, so p sits at the left
edge of its step (``_left_edge``) and the search runs over m, for six-state
over m' with m = 2 m' (an odd m buys no X-parity round).  At each m the
weights are the multiplier's (``finite_key._multiplier``): where the key
length there is stationary on sum w = 1, solved from the terms' exact
derivatives with no point scored, or where it sits at an edge of the
simplex (a share with no slope at its least weight, N-BB84's eps_rob just
short of 1).  eps_EC and eps_PA enter the key length only as -ec - 2 pa and
eps_tot only through their sum, so there w_PA = 2 w_EC.  One backtracking
Newton ascent in ln m (``_climb``) converges from the m of p = 0.05, or
of a warm p (``threshold_L`` passes the previous optimum's, at a nearby L).
The multiplier is set up once per optimum and solves the first m from
equal shares, each later one from the last one's weights; each m is scored
at most once.  The equal-shares point at p = 0.05 is always scored first,
so the rate never falls below it.  Nothing is random.  Each point is
scored on plain floats (``_scorer``) through the cores that
``allocate_budget`` and ``key_length_*`` wrap, so bit for bit as they
would.  The optimum is plain data (rate, shares, evaluations); its key
length is ``key_length_*`` of ``allocate_budget`` at those shares.

Before searching, ``finite_key._certified_zero`` may prove a zero rate;
then the equal-shares start is scored alone.  ``threshold_L`` also runs it
at N-BB84's key length, and stops a six-state search once it reaches
N-BB84, so each verdict searches at most one optimum to the end.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .finite_key import (
    ConfigurationError,
    Protocol,
    SecurityBudget,
    _certified_zero,
    _check_stats,
    _length_core,
    _multiplier,
    _p_range,
    _splitter,
    budget_components,
)
from .noise import NoiseModel, NoiseScenario, ObservedStats, expected_observed_stats
from .numerics import LogEps

__all__ = [
    "BudgetShares",
    "SearchConfig",
    "OptimizedRate",
    "allocate_budget",
    "optimize_rate",
    "threshold_L",
    "stats_from_qab_global",
]


@dataclass(frozen=True, slots=True)
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
    """The most points one optimum scores; ``starts`` and ``seed`` change nothing.

    The search is one deterministic Newton ascent over the test-round count,
    so it has no starts to count and draws nothing at random, and no
    command-line flag sets either field.  They stay, in this order, because
    callers such as the benchmark workloads build
    ``SearchConfig(max_evaluations, starts, seed)`` positionally; both caps
    must be at least 1.
    """

    max_evaluations: int = 5000
    starts: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("max_evaluations", "starts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")


@dataclass(frozen=True, slots=True)
class OptimizedRate:
    """The best point an optimum scored: its rate, shares and the count of
    points scored.

    The key length there is ``key_length_*`` of ``allocate_budget`` at
    ``shares``; its ``rate`` equals ``rate``.
    """

    rate: float
    shares: BudgetShares
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
    ValueError is raised if six passes still leave it above, or if the
    shares do not hold one weight per component.
    """
    size = len(budget_components(kind))
    if len(shares.weights) != size:
        raise ValueError(f"{kind.value} takes {size} budget weights, got {len(shares.weights)}")
    negs, _, _ = _splitter(kind, parties, total_rounds, target.neg_log2)(shares.weights)
    return SecurityBudget(
        **{name: LogEps(neg) for name, neg in zip(budget_components(kind), negs)}
    )


_CLEAR = 1e3  # stencil second differences aim at this times the roundoff
_FIRST_STEP = 1e-2  # the first stencil step, relative to k
_REACH = 2.0  # the most a Newton step moves in ln k


def _left_edge(total_rounds: int, m: int) -> float:
    """The smallest double p with floor(L p) = m."""
    p = m / total_rounds
    while math.floor(total_rounds * p) < m:
        p = math.nextafter(p, 1.0)
    while math.floor(total_rounds * math.nextafter(p, 0.0)) == m:
        p = math.nextafter(p, 0.0)
    return p


def _scorer(
    kind: Protocol, parties: int, total_rounds: int, stats: ObservedStats, target: float
) -> Callable[[Tuple[float, ...], float], float]:
    """The net length at (weights, p) on plain floats, bit for bit the public
    path's."""
    split = _splitter(kind, parties, total_rounds, target)
    length = _length_core(kind, parties, total_rounds)

    def score(weights: Tuple[float, ...], p: float) -> float:
        negs, neg_pe, _ = split(weights)
        return length(p, stats, negs, neg_pe)[2]

    return score


def _aim(curvature: float, noise: float) -> float:
    """The step whose second difference is ``_CLEAR`` times the roundoff."""
    return math.sqrt(_CLEAR * noise / (abs(curvature) or 1e-300))


def _climb(f: Callable[[int], float], k: int, k_max: int, noise: float) -> None:
    """Damped Newton ascent of f(k) over whole counts k in [2, k_max - 1],
    from k; it stops at once where f(k) has no key length.

    Slope and curvature come from a central stencil, whose next step is the
    one whose second difference clears ``noise``, the roundoff of f
    (``_aim``).  Each Newton step goes in ln k on the curvature made
    negative, at most ``_REACH``, and is cut to a quarter until it gains
    (backtracking, as in Nocedal and Wright, Numerical Optimization, 3.1),
    while half its first-order gain still exceeds ``noise``.  The ascent
    stops where a stencil point has no key length, the slope is within its
    stencil's roundoff, or no cut step gains; then k walks to its best
    neighbour (k +- 1, +- 2) until none gains.
    """
    k = min(max(k, 2), k_max - 1)
    value = f(k)
    if value == -math.inf:
        return
    step = max(1, round(_FIRST_STEP * k))
    while True:
        step = max(1, min(step, k - 1, k_max - k))
        plus, minus = f(k + step), f(k - step)
        curvature = (plus + minus - 2.0 * value) / (step * step)
        # a stencil point with no key length, or a slope within roundoff
        if not math.isfinite(curvature) or abs(plus - minus) <= 8.0 * noise:
            break
        slope = (plus - minus) / (2.0 * step)
        step = round(_aim(curvature, noise))
        # in u = ln k: d/du = k d/dk
        grad, hess = k * slope, k * (k * curvature + slope)
        delta, t = grad / max(abs(hess), abs(grad) / _REACH), 1.0
        while 0.5 * t * grad * delta > noise:
            count = min(max(round(k * math.exp(t * delta)), 2), k_max - 1)
            trial = f(count)
            if trial > value:
                break
            t /= 4.0
        else:
            break  # no step that promises more than roundoff gains
        value, k = trial, count
    while True:
        top, count = max((f(c), c) for c in (k - 1, k + 1, k - 2, k + 2) if 1 <= c <= k_max)
        if not top > value:
            return
        value, k = top, count


def optimize_rate(
    kind: Protocol,
    parties: int,
    total_rounds: int,
    stats: ObservedStats,
    eps_tot_target: LogEps,
    search_config: Optional[SearchConfig] = None,
    *,
    warm: Optional[float] = None,
) -> OptimizedRate:
    """Maximize the net key rate over budget shares and p at fixed eps_tot.

    Returns the best point scored; the equal-shares point is always scored,
    so the result is never worse than it.  Where the zero-rate certificate
    proves that no split and no p has a positive net length, the search is
    skipped: the result is rate 0.0 at the equal-shares start point, with
    ``evaluations`` 1.  Elsewhere a rate of 0.0 means the search found no
    positive point, and the shares are the least-negative point it found.

    The search is one Newton ascent over the test-round count, from the m
    of p = 0.05 (or of the p ``warm``, which must be in (0, 0.5)).  At each
    m it scores the multiplier's shares there: the weights where the key
    length is stationary on sum w = 1, or sits at an edge of the simplex
    (``finite_key._multiplier``, EC and PA split 1:2), each solve started
    from the last one's weights (the first from equal shares).  Where an m
    has no such weights, the last ones are scored there.  Each m is scored
    at most once: the search reads a value it has scored again from memory,
    and ``evaluations`` counts every point scored (the multiplier scores
    none); ``search_config.max_evaluations`` caps it.
    """
    return _optimum(kind, parties, total_rounds, stats, eps_tot_target, search_config, warm)


def _optimum(
    kind: Protocol,
    parties: int,
    total_rounds: int,
    stats: ObservedStats,
    eps_tot_target: LogEps,
    search_config: Optional[SearchConfig],
    warm: Optional[float],
    stop: float = math.inf,
) -> OptimizedRate:
    """``optimize_rate``, its search stopped once the best rate reaches ``stop``."""
    if warm is not None and not 0.0 < warm < 0.5:
        raise ValueError(f"warm must be in (0, 0.5), got {warm}")
    cfg = search_config or SearchConfig()
    n_weights = len(budget_components(kind))
    # parties, L and the statistics are the same at every point: check once
    m_min, p_min, p_max = _p_range(kind, parties, total_rounds)
    _check_stats(kind, parties, stats)

    target = eps_tot_target.neg_log2
    score = _scorer(kind, parties, total_rounds, stats, target)
    noise = 2.0**-50 * total_rounds  # roundoff, in bits, of terms of about L bits
    # the search runs over k = m, or k = m' with m = 2 m' for six-state
    k_max = min((total_rounds - 1) // 2, math.floor(total_rounds * p_max)) // m_min
    # the equal-shares point at p = 0.05 (as exp(log 0.05)) is the floor
    p0 = math.exp(math.log(min(max(0.05, p_min), p_max)))
    equal = (1.0 / n_weights,) * n_weights
    certified = _certified_zero(kind, parties, total_rounds, stats, target)
    # (net length, weights, p) of the best point so far, the first of equals
    best, evaluations = (score(equal, p0), equal, p0), 1
    scored: Dict[int, float] = {}  # each k's value

    def f(k: int) -> float:
        nonlocal best, evaluations
        if k in scored:
            return scored[k]
        # past the cap, or once the best reaches the stop, every new point
        # reads as one with no key length
        if evaluations >= cfg.max_evaluations or max(best[0], 0.0) / total_rounds >= stop:
            return -math.inf
        m = m_min * k
        weights, p = solve(m)[0], _left_edge(total_rounds, m)
        evaluations += 1
        value = scored[k] = score(weights, p)
        if value > best[0]:
            best = (value, weights, p)
        return value

    # too few counts for a central difference in m: the floor alone
    if not certified and k_max >= 3:
        solve = _multiplier(kind, parties, total_rounds, stats, target)
        k = math.floor(total_rounds * (p0 if warm is None else warm)) // m_min
        _climb(f, k, k_max, noise)

    value, weights, p = best
    # the rate as ``key_length_*`` computes it from the same net length
    return OptimizedRate(max(value, 0.0) / total_rounds, BudgetShares(p, weights), evaluations)


def stats_from_qab_global(q_ab: float, parties: int) -> ObservedStats:
    """PE frequencies implied by Q_AB under the global-depolarizing relations.

    These are the expected statistics of the global model at nu = 2 Q_AB:
    Q_X = Q_AB and Q_Z = (2^N - 2)/2^(N-1) Q_AB.
    """
    if not 0.0 < q_ab < 0.5:
        raise ValueError(f"q_ab must be in (0, 0.5), got {q_ab}")
    scenario = NoiseScenario(NoiseModel.GLOBAL_DEPOLARIZING, 2.0 * q_ab, parties)
    return expected_observed_stats(scenario)


def _threshold_from_curve(
    crossed: Callable[[int], bool], l_min: int, l_max: int
) -> Optional[int]:
    """First verified L with crossed(L), scanning a factor-2 grid.

    A candidate found by geometric bisection (to a bracket 1% wide) is
    verified at 2L and 4L; the scan resumes past the first of them that is
    not crossed.
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
            prev = scan // 2
            while prev >= 8 and crossed(prev):
                scan, prev = prev, prev // 2
            if prev < 8:
                return scan
        lo, hi = prev, scan
        while hi > lo * 1.01:
            mid = int(round(math.sqrt(float(lo) * float(hi))))
            if mid <= lo or mid >= hi:
                break
            if crossed(mid):
                hi = mid
            else:
                lo = mid
        for check in (2 * hi, 4 * hi):
            if not crossed(check):
                prev, scan = check, 2 * check
                break
        else:
            return hi
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
    ordering persists at 2L and 4L; an L too small for a protocol's round
    bookkeeping is not crossed.  Returns None when no crossing exists below
    ``l_max``.  Frequencies are derived from Q_AB via the global-depolarizing
    relations.

    One verdict per L: a certified zero six-state rate is not crossed, nor
    is a zero N-BB84 rate or a six-state rate certified below it (at the
    level r_BB84 L bits); elsewhere the six-state search stops once it
    reaches r_BB84, as the full search, only adding points, would too.  The
    first optimum of each protocol starts cold; every later one is
    warm-started (``optimize_rate``'s ``warm``) from the p of the previous
    optimum of the same protocol, since the optimal log p moves smoothly
    with log L; nothing else carries over.
    """
    if l_min < 1:
        raise ValueError(f"l_min must be at least 1, got {l_min}")
    stats = stats_from_qab_global(q_ab, parties)
    bb84, six = Protocol.N_BB84, Protocol.N_SIX_STATE
    target = eps_tot_target.neg_log2
    warm: Dict[Protocol, float] = {}

    def verdict(total_rounds: int) -> bool:
        search = (parties, total_rounds, stats, eps_tot_target, search_config)
        try:  # an L too small for the round bookkeeping is not crossed
            if _certified_zero(six, parties, total_rounds, stats, target):
                return False
            opt = optimize_rate(bb84, *search, warm=warm.get(bb84))
            warm[bb84], r_bb84 = opt.shares.p, opt.rate
            level = r_bb84 * total_rounds
            if r_bb84 == 0.0 or _certified_zero(six, parties, total_rounds, stats, target, level):
                return False
            opt = _optimum(six, *search, warm.get(six), r_bb84)
        except ConfigurationError:
            return False
        warm[six] = opt.shares.p
        return opt.rate >= r_bb84

    return _threshold_from_curve(functools.cache(verdict), l_min, l_max)
