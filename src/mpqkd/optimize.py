"""Rate maximization over the security-budget split and the test-round rate.

The total security parameter eps_tot is fixed; what remains free is how it
is divided among the subprotocol epsilons and the probability p of test
rounds.  The split is parameterized by positive simplex weights, so every
evaluated point satisfies the composed eps_tot <= target exactly, in the log
domain; no penalty terms are involved.

The search runs on a smaller space.  eps_EC and eps_PA enter the key
length only as -ec - 2 pa and eps_tot only through their sum, so w_PA =
2 w_EC (``_expand``).  Within a step of m = floor(L p) only the preshared
cost L h(p) moves, and it grows with p, so p sits at the left edge of its
step (``_left_edge``) and the search runs over m, for six-state over m'
with m = 2 m' (an odd m buys no X-parity round).  One damped Newton ascent
(``_climb``) converges there from the multiplier start, or from a warm hint
(the optimum at a nearby L; ``threshold_L`` passes the previous optimum of
the same protocol).  The multiplier start (``finite_key._multiplier_start``)
is where the key length at the m of p = 0.05 is stationary in the weights on
sum w = 1, solved from the terms' exact derivatives with no point scored;
where it has none (a clamped or empty confidence box), the ascent starts
from equal shares.  After a cold ascent the multiplier's shares at its final
m are scored too.  The equal-shares point at p = 0.05 is always scored, so
the rate never falls below it; a warm ascent that ends below it, or with no
key length, runs again cold.  Nothing is random.  Each point is scored on
plain floats (``_scorer``) through the cores that ``allocate_budget`` and
``key_length_*`` wrap, so bit for bit as they would; the public objects are
built for the point returned alone, its ``KeyLengthResult`` on first access.

Before searching, ``finite_key._certified_zero`` may prove a zero rate;
then the equal-shares start is scored alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

from .finite_key import (
    ConfigurationError,
    KeyLengthResult,
    Protocol,
    ProtocolConfig,
    SecurityBudget,
    _certified_zero,
    _check_stats,
    _composer,
    _length_core,
    _multiplier_start,
    budget_components,
    key_length_nbb84,
    key_length_nsixstate,
    postselection_bits,
)
from .noise import NoiseModel, NoiseScenario, ObservedStats, expected_observed_stats
from .numerics import LogEps, _dot, _eigh, _times

__all__ = [
    "BudgetShares",
    "SearchConfig",
    "OptimizedRate",
    "allocate_budget",
    "optimize_rate",
    "threshold_L",
    "stats_from_qab_global",
]


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
    """The most points one optimum scores; ``starts`` and ``seed`` change nothing.

    The search is one deterministic Newton ascent, so it has no starts to
    count and draws nothing at random, and no command-line flag sets either
    field.  They stay, in this order, because callers such as the benchmark
    workloads build ``SearchConfig(max_evaluations, starts, seed)``
    positionally; both caps must be at least 1.
    """

    max_evaluations: int = 5000
    starts: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("max_evaluations", "starts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class OptimizedRate:
    """The best point an optimum scored: its rate, shares and the count of
    points scored.

    ``result`` is the key length there, evaluated through
    ``allocate_budget`` and ``key_length_*`` from ``inputs`` (the protocol,
    N, L, statistics and eps_tot target of the search) on first access;
    its ``rate`` equals ``rate``.  Callers that need only rates and shares,
    such as ``threshold_L``, never build it.
    """

    rate: float
    shares: BudgetShares
    evaluations: int
    inputs: Tuple[Protocol, int, int, ObservedStats, LogEps] = field(repr=False, compare=False)

    @cached_property
    def result(self) -> KeyLengthResult:
        kind, parties, total_rounds, stats, target = self.inputs
        budget = allocate_budget(kind, parties, total_rounds, target, self.shares)
        evaluator = key_length_nbb84 if kind is Protocol.N_BB84 else key_length_nsixstate
        return evaluator(ProtocolConfig(kind, parties, total_rounds, self.shares.p), stats, budget)


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
    negs, _, _ = _splitter(kind, parties, total_rounds, target.neg_log2)(shares.weights)
    return SecurityBudget(
        **{name: LogEps(neg) for name, neg in zip(budget_components(kind), negs)}
    )


def _splitter(
    kind: Protocol, parties: int, total_rounds: int, target: float
) -> Callable[[Tuple[float, ...]], Tuple[List[float], float, float]]:
    """``allocate_budget`` on exponents, as a function of the weights: the
    components in ``budget_components(kind)`` order, eps_PE and eps_tot.

    The composition (``_composer``) and the six-state inner exponent are
    computed once.
    """
    bb84 = kind is Protocol.N_BB84
    composed = _composer(kind, parties, total_rounds)
    neg_inner = target + (0.0 if bb84 else postselection_bits(parties, total_rounds))
    scale = (2.0, 2.0, 1.0, 1.0) if bb84 else (1.0,) * 6

    def split(weights: Tuple[float, ...]) -> Tuple[List[float], float, float]:
        if bb84:
            w_z, w_x, w_ec, w_pa = weights
            pair = w_z + w_x
            neg_pe = target - math.log2(pair / 2.0)
            negs = [
                2.0 * neg_pe - math.log2(w_z / (pair * (parties - 1))),
                2.0 * neg_pe - math.log2(w_x / pair),
                target - math.log2(w_ec),
                target - math.log2(w_pa),
            ]
        else:
            w_bar, w_z, w_x, w_zp, w_ec, w_pa = weights
            negs = [
                neg_inner - math.log2(w_bar / 2.0),
                neg_inner - math.log2(w_z / (parties - 1)),
                neg_inner - math.log2(w_x),
                neg_inner - math.log2(w_zp),
                neg_inner - math.log2(w_ec),
                neg_inner - math.log2(w_pa),
            ]
        # the split as made, then after each of up to 6 correction passes
        for _ in range(7):
            neg_pe, neg_tot = composed(negs)
            deficit = target - neg_tot
            if deficit <= 0.0:
                return negs, neg_pe, neg_tot
            # large six-state exponents make tiny bumps vanish in rounding, so
            # step by at least a few ULPs of the biggest component (ULPs grow
            # with magnitude)
            bump = deficit + 4.0 * math.ulp(max(map(abs, negs)))
            negs = [v + c * bump for v, c in zip(negs, scale)]
        raise ValueError(
            f"composed eps_tot exceeds the target by {deficit:.3g} bits "
            "after 6 correction passes"
        )

    return split


_CLEAR = 1e3  # stencil second differences aim at this times the roundoff
_FIRST_STEP = 1e-2  # the first stencil step, in logits and relative in m
_REACH = 2.0  # the most a Newton step moves along one eigen-direction
_LOGIT_CAP = 50.0  # logits stay this close to the reference share's


def _left_edge(total_rounds: int, m: int) -> float:
    """The smallest double p with floor(L p) = m."""
    p = m / total_rounds
    while math.floor(total_rounds * p) < m:
        p = math.nextafter(p, 1.0)
    while math.floor(total_rounds * math.nextafter(p, 0.0)) == m:
        p = math.nextafter(p, 0.0)
    return p


def _expand(shares: Tuple[float, ...]) -> Tuple[float, ...]:
    """Weights from reduced shares, the last one w_EC + w_PA, split 1:2."""
    *rest, s = shares
    ec = s / 3.0
    return (*rest, ec, 2.0 * ec)


def _logits(weights: Tuple[float, ...]) -> List[float]:
    """The free logits of ``weights``: each share's log against w_EC + w_PA."""
    *rest, ec, pa = weights
    return [min(max(math.log(w / (ec + pa)), -_LOGIT_CAP), _LOGIT_CAP) for w in rest]


def _softmax(theta: List[float]) -> Tuple[float, ...]:
    top = max(theta)
    z = [math.exp(v - top) for v in theta]
    total = 0.0
    for v in z:
        total += v
    return tuple([v / total for v in z])


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


def _climb(
    f: Callable[[List[float], int], float],
    starts: List[List[float]],
    k: int,
    k_max: int,
    noise: float,
) -> float:
    """Damped Newton ascent of f(theta, k) over free logits and a count k in
    [2, k_max - 1], from the first of ``starts`` with a finite f; returns
    the value it ends at (-inf if no start has a key length).

    Gradient and Hessian come from a central stencil: each axis, and each
    pair of axes along their diagonal.  The logit axes are the last
    Hessian's eigenvectors, each stepped so that its second difference
    clears ``noise``, the roundoff of f (``_aim``); k steps in whole counts.
    While steps in k alone are cut to ``_REACH`` or beat the quadratic model
    (then they double), the stencil holds k alone, its strongest knob.
    Newton steps go in (theta, ln k) on the eigenvalues made negative, at
    most ``_REACH`` along each eigenvector; one that loses is shortened.
    Once a step promises less than ``noise`` or gains nothing, k walks to
    its best neighbour (k +- 1, +- 2) until none gains.
    """
    k = min(max(k, 2), k_max - 1)
    for theta in starts:
        value = f(theta, k)
        if value > -math.inf:
            break
    else:
        return -math.inf
    n = len(theta)
    basis = [[float(i == j) for j in range(n)] for i in range(n)]
    steps = [_FIRST_STEP] * n + [max(1, round(_FIRST_STEP * k))]
    count_only = True
    while True:
        steps[n] = max(1, min(steps[n], k - 1, k_max - k))

        def at(*moves: Tuple[int, int]) -> float:
            point, count = theta, k
            for axis, sign in moves:
                if axis == n:
                    count += sign * steps[n]
                else:
                    point = [x + sign * steps[axis] * b for x, b in zip(point, basis[axis])]
            return f(point, count)

        # gradient and Hessian in stencil steps, on this stage's axes
        axes = range(n if count_only else 0, n + 1)
        plus, minus = [value] * (n + 1), [value] * (n + 1)
        for i in axes:
            plus[i], minus[i] = at((i, 1)), at((i, -1))
        grad = [(a - b) / 2.0 for a, b in zip(plus, minus)]
        hess = [[0.0] * (n + 1) for _ in range(n + 1)]
        for i in axes:
            hess[i][i] = plus[i] + minus[i] - 2.0 * value
            for j in range(axes.start, i):
                pair = at((i, 1), (j, 1)) + at((i, -1), (j, -1))
                pair += 2.0 * value - plus[i] - minus[i] - plus[j] - minus[j]
                hess[i][j] = hess[j][i] = pair / 2.0
        if not all(math.isfinite(x) for row in hess for x in row):
            break  # a stencil point has no key length
        # ... in (theta, k): to_u maps stencil-step derivatives there
        to_u = [[basis[i][a] / steps[i] for i in range(n)] + [0.0] for a in range(n)]
        to_u.append([0.0] * n + [1.0 / steps[n]])
        grad = [_dot(row, grad) for row in to_u]
        hess = [[_dot(row, col) for col in to_u] for row in _times(to_u, hess)]
        # the next steps, from the curvatures along the logit eigenvectors and k
        if not count_only:
            curvatures, basis = _eigh([row[:n] for row in hess[:n]])
            steps[:n] = [min(max(_aim(v, noise), 1e-9), 1.0) for v in curvatures]
        steps[n] = round(_aim(hess[n][n], noise))
        # ... and in (theta, u), u = ln k: d/du = k d/dk
        hess[n][n] = k * (k * hess[n][n] + grad[n])
        for i in range(n):
            hess[i][n] = hess[n][i] = k * hess[i][n]
        grad[n] *= k
        to_u[n][n] *= k
        delta, slope, cut = [0.0] * (n + 1), 0.0, False
        for curvature, vec in zip(*_eigh(hess)):
            along = _dot(vec, grad)
            # a gradient within its stencil values' roundoff is no gradient
            if abs(along) <= 4.0 * noise * math.hypot(*(_dot(vec, c) for c in zip(*to_u))):
                continue
            cut = cut or abs(curvature) * _REACH < abs(along)
            step = along / max(abs(curvature), abs(along) / _REACH)
            delta = [d + step * x for d, x in zip(delta, vec)]
            slope += along * step

        def trial(t: float) -> Tuple[float, List[float], int]:
            point = [min(max(x + t * d, -_LOGIT_CAP), _LOGIT_CAP) for x, d in zip(theta, delta)]
            count = min(max(round(k * math.exp(t * delta[n])), 2), k_max - 1)
            return f(point, count), point, count

        # a step that promises less than roundoff is not worth scoring
        best, t = None, 1.0
        while best is None and 0.5 * slope > noise and t > 1e-3:
            best = trial(t)
            if not best[0] > value:
                best, t = None, t / 4.0
        while count_only and best and best[0] - value > 1.1 * (t - 0.5 * t * t) * slope:
            # the count's curvature grows on the way: try longer steps
            longer = trial(2.0 * t)
            if not longer[0] > best[0]:
                break
            best, t = longer, 2.0 * t
        if not (best or count_only):
            break
        value, theta, k = best or (value, theta, k)
        count_only = count_only and bool(best) and (cut or t != 1.0)
    while True:
        top, count = max((f(theta, c), c) for c in (k - 1, k + 1, k - 2, k + 2) if 1 <= c <= k_max)
        if not top > value:
            return value
        value, k = top, count


def optimize_rate(
    kind: Protocol,
    parties: int,
    total_rounds: int,
    stats: ObservedStats,
    eps_tot_target: LogEps,
    search_config: Optional[SearchConfig] = None,
    *,
    warm: Optional[BudgetShares] = None,
) -> OptimizedRate:
    """Maximize the net key rate over budget shares and p at fixed eps_tot.

    Returns the best point scored; the equal-shares point is always scored,
    so the result is never worse than it.  Where the zero-rate certificate
    proves that no split and no p has a positive net length, the search is
    skipped: the result is rate 0.0 at the equal-shares start point, with
    ``evaluations`` 1.  Elsewhere a rate of 0.0 means the search found no
    positive point, and the shares are the least-negative point it found.

    The search is one Newton ascent from the multiplier start: the weights
    where the key length at the m of p = 0.05 is stationary on sum w = 1
    (``finite_key._multiplier_start``, EC and PA split 1:2).  Where that
    start does not exist, the ascent starts from equal shares there, and
    where those have no key length, from the first point with one share
    dominant that has one; once it ends, the multiplier's shares at its m
    are scored.  A ``warm`` ascent starts from its shares and m instead;
    one that ends below the equal-shares point, or with no key length
    (infeasible or vacuous), runs again cold.  ``evaluations`` counts every
    point scored (the multiplier scores none);
    ``search_config.max_evaluations`` caps it.
    """
    cfg = search_config or SearchConfig()
    n_weights = len(budget_components(kind))
    m_min = 2 if kind is Protocol.N_SIX_STATE else 1
    p_max = 0.4999
    # parties, L and the statistics are the same at every point: check once
    ProtocolConfig(kind, parties, total_rounds, p_max)
    _check_stats(kind, parties, stats)
    p_min = (m_min + 0.5) / total_rounds
    if p_min >= p_max:
        raise ConfigurationError(
            f"L = {total_rounds} is too small for {kind.value} round bookkeeping"
        )

    target = eps_tot_target.neg_log2
    score = _scorer(kind, parties, total_rounds, stats, target)
    noise = 2.0**-50 * total_rounds  # roundoff, in bits, of terms of about L bits
    # the search runs over k = m, or k = m' with m = 2 m' for six-state
    k_max = min((total_rounds - 1) // 2, math.floor(total_rounds * p_max)) // m_min
    # the equal-shares point at p = 0.05 (as exp(log 0.05)) is the floor
    p0 = math.exp(math.log(min(max(0.05, p_min), p_max)))
    equal = (1.0 / n_weights,) * n_weights
    certified = _certified_zero(kind, parties, total_rounds, stats, target, p_min, p_max)
    floor = score(equal, p0)
    # (net length, weights, p) of the best point so far, the first of equals
    best, evaluations = (floor, equal, p0), 1

    def scored(weights: Tuple[float, ...], p: float) -> float:
        nonlocal best, evaluations
        # past the cap, every point reads as one with no key length
        if evaluations >= cfg.max_evaluations:
            return -math.inf
        evaluations += 1
        value = score(weights, p)
        if value > best[0]:
            best = (value, weights, p)
        return value

    def f(theta: List[float], k: int) -> float:
        weights = _expand(_softmax([*theta, 0.0]))
        return scored(weights, _left_edge(total_rounds, m_min * k))

    # too few counts for a central difference in m: the floor alone
    if not certified and k_max >= 3:
        reached = -math.inf
        if warm is not None:
            k_warm = math.floor(total_rounds * warm.p) // m_min
            reached = _climb(f, [_logits(warm.weights)], k_warm, k_max, noise)
        if not (reached > -math.inf and reached >= floor):
            split = _splitter(kind, parties, total_rounds, target)

            def multiplier(k: int) -> List[List[float]]:
                """The logits of the multiplier's shares at count k, if any."""
                start = _multiplier_start(kind, parties, total_rounds, stats, split, m_min * k)
                return [] if start is None else [_logits(start[0])]

            # the multiplier's shares at p0; else equal shares there, and where
            # they have no key length, the first point with one share
            # dominant that has one
            free = range(n_weights - 2)
            heavy = [[3.0 * (i == j) for i in free] for j in free] + [[-3.0 for _ in free]]
            k_cold = math.floor(total_rounds * p0) // m_min
            _climb(f, [*multiplier(k_cold), _logits(equal), *heavy], k_cold, k_max, noise)
            # the ascent settles m, but the shares only to its stencil's
            # resolution: score the multiplier's shares at that m too
            k_best = math.floor(total_rounds * best[2]) // m_min
            for theta in multiplier(k_best):
                f(theta, k_best)

    value, weights, p = best
    inputs = (kind, parties, total_rounds, stats, eps_tot_target)
    # the rate as ``key_length_*`` computes it from the same net length
    rate = max(value, 0.0) / total_rounds
    return OptimizedRate(rate, BudgetShares(p, weights), evaluations, inputs)


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

    One verdict per L: each L's rates are optimized once, and the N-BB84
    optimum only where the six-state rate is positive.  The first optimum
    of each protocol starts cold; every later one is
    warm-started (``optimize_rate``'s ``warm``) from the previous optimum of
    the same protocol, since the optimal shares and log p move smoothly
    with log L.
    """
    if l_min < 1:
        raise ValueError(f"l_min must be at least 1, got {l_min}")
    stats = stats_from_qab_global(q_ab, parties)
    warm: Dict[Protocol, BudgetShares] = {}
    verdicts: Dict[int, bool] = {}

    def rate(kind: Protocol, total_rounds: int) -> float:
        search = (kind, parties, total_rounds, stats, eps_tot_target, search_config)
        try:
            opt = optimize_rate(*search, warm=warm.get(kind))
        except ConfigurationError:  # L too small for the round bookkeeping: not crossed
            return 0.0
        warm[kind] = opt.shares
        return opt.rate

    def crossed(total_rounds: int) -> bool:
        if total_rounds not in verdicts:
            # a zero six-state rate settles the verdict without the N-BB84 optimum
            r6 = rate(Protocol.N_SIX_STATE, total_rounds)
            verdicts[total_rounds] = r6 > 0.0 and 0.0 < rate(Protocol.N_BB84, total_rounds) <= r6
        return verdicts[total_rounds]

    return _threshold_from_curve(crossed, l_min, l_max)
