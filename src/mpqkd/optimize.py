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
optimized rate can never fall below the equal-shares rate.  Given a warm
hint (an optimum at a nearby L), one start from the hint replaces them; the
equal-shares point is still scored as the floor, and a warm start that ends
below it falls back to the full multi-start.  ``threshold_L`` warms every
optimum after the first of each protocol from the cached optimum nearest in
log L.  Same seed and search settings give bit-identical results.  The
Sobol points come from a built-in numpy engine (``_sobol``) that reproduces
``scipy.stats.qmc.Sobol(d, scramble=True, seed=seed).random_base2(m)`` bit
for bit, so the runtime needs numpy alone.

Each of the thousands of points an optimum visits is scored on plain floats:
the budget split (``_split``) and the key-length terms run on ``neg_log2``
exponents through the same private cores that ``allocate_budget`` and
``key_length_*`` wrap, with every per-point check (share positivity and sum,
p range, round counts, Gamma_PE feasibility, eps_rob, the correction
passes).  ``BudgetShares``, ``SecurityBudget`` and ``KeyLengthResult`` are
built once per optimum, for the point returned, through the public wrappers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .finite_key import (
    ConfigurationError,
    KeyLengthResult,
    Protocol,
    ProtocolConfig,
    SecurityBudget,
    _check_stats,
    _compose_nbb84,
    _compose_nsixstate,
    _nbb84_length,
    _nsixstate_length,
    budget_components,
    key_length_nbb84,
    key_length_nsixstate,
    postselection_exponent,
)
from .noise import NoiseModel, NoiseScenario, ObservedStats, expected_observed_stats
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

# Joe & Kuo (SIAM J. Sci. Comput. 30, 2635 (2008)) direction numbers of the
# first 7 Sobol dimensions: each primitive polynomial (its degree is its bit
# length minus 1) and its initial m_k; dimension 0 is all ones
_SOBOL_POLY = (1, 3, 7, 11, 13, 19, 25)
_SOBOL_VINIT = ((1,), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13))
_SOBOL_BITS = 30


def _direction_numbers() -> np.ndarray:
    """The (7, 30) table of direction numbers, column j scaled by 2^(29 - j)."""
    rows = [[1] * _SOBOL_BITS]
    for poly, init in zip(_SOBOL_POLY[1:], _SOBOL_VINIT[1:]):
        degree = poly.bit_length() - 1
        row = list(init)
        for j in range(degree, _SOBOL_BITS):
            new = row[j - degree]
            for i in range(1, degree + 1):
                if poly >> (degree - i) & 1:
                    new ^= row[j - i] << i
            row.append(new)
        rows.append(row)
    return np.array(rows, dtype=np.int64) << (_SOBOL_BITS - 1 - np.arange(_SOBOL_BITS))


_SOBOL_V = _direction_numbers()


@dataclass(frozen=True)
class BudgetShares:
    """Simplex weights over the free epsilon components, plus p."""

    p: float
    weights: Tuple[float, ...]

    def __post_init__(self) -> None:
        _check_shares(self.p, self.weights)


def _check_shares(p: float, weights: Tuple[float, ...]) -> None:
    if any(w <= 0.0 for w in weights):
        raise ValueError("weights must be positive")
    if abs(sum(weights) - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1, got {sum(weights)}")
    if not 0.0 < p < 0.5:
        raise ValueError(f"p must be in (0, 0.5), got {p}")


@dataclass(frozen=True)
class SearchConfig:
    """Evaluation budget per start, number of starts, and the Sobol seed."""

    max_evaluations: int = 5000
    starts: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("max_evaluations", "starts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")


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
    negs, _, _ = _split(kind, parties, total_rounds, target.neg_log2, shares.weights)
    return SecurityBudget(
        **{name: LogEps(neg) for name, neg in zip(budget_components(kind), negs)}
    )


def _split(
    kind: Protocol,
    parties: int,
    total_rounds: int,
    target: float,
    weights: Tuple[float, ...],
) -> Tuple[List[float], float, float]:
    """``allocate_budget`` on exponents: (component exponents, eps_PE, eps_tot).

    The components come in ``budget_components(kind)`` order; eps_PE and
    eps_tot are the exponents they compose to.
    """
    if kind is Protocol.N_BB84:
        w_z, w_x, w_ec, w_pa = weights
        pair = w_z + w_x
        neg_pe = target - math.log2(pair / 2.0)
        negs = [
            2.0 * neg_pe - math.log2(w_z / (pair * (parties - 1))),
            2.0 * neg_pe - math.log2(w_x / pair),
            target - math.log2(w_ec),
            target - math.log2(w_pa),
        ]
        scale = (2.0, 2.0, 1.0, 1.0)
    else:
        w_bar, w_z, w_x, w_zp, w_ec, w_pa = weights
        neg_inner = target + postselection_exponent(parties) * math.log2(total_rounds + 1)
        negs = [
            neg_inner - math.log2(w_bar / 2.0),
            neg_inner - math.log2(w_z / (parties - 1)),
            neg_inner - math.log2(w_x),
            neg_inner - math.log2(w_zp),
            neg_inner - math.log2(w_ec),
            neg_inner - math.log2(w_pa),
        ]
        scale = (1.0,) * len(negs)

    def composed() -> Tuple[float, float]:
        if kind is Protocol.N_BB84:
            return _compose_nbb84(negs, parties)
        return _compose_nsixstate(negs, parties, total_rounds)

    for _ in range(6):
        neg_pe, neg_tot = composed()
        deficit = target - neg_tot
        if deficit <= 0.0:
            return negs, neg_pe, neg_tot
        # large six-state exponents make tiny bumps vanish in rounding, so
        # step by at least a few ULPs of the biggest component
        bump = deficit + 4.0 * max(math.ulp(abs(v)) for v in negs)
        negs = [v + c * bump for v, c in zip(negs, scale)]
    neg_pe, neg_tot = composed()
    deficit = target - neg_tot
    if deficit > 0.0:
        raise ValueError(
            f"composed eps_tot exceeds the target by {deficit:.3g} bits "
            "after 6 correction passes"
        )
    return negs, neg_pe, neg_tot


def _softmax(theta: np.ndarray) -> Tuple[float, ...]:
    z = np.exp(theta - theta.max())
    return tuple((z / z.sum()).tolist())


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


def _sobol(d: int, m: int, seed: int) -> np.ndarray:
    """The first 2^m points of a scrambled Sobol sequence in d <= 7 dimensions.

    Bit-identical to ``scipy.stats.qmc.Sobol(d, scramble=True, seed=seed)
    .random_base2(m)``: the same draws from ``default_rng(seed)`` (the digital
    shift first, then the lower-triangular LMS matrices, given a unit
    diagonal) and the same Gray-code order of points.
    """
    if d > len(_SOBOL_POLY):
        raise ValueError(f"the Sobol engine has {len(_SOBOL_POLY)} dimensions, got d = {d}")
    bits = _SOBOL_BITS
    rng = np.random.default_rng(seed)
    place = 2 ** np.arange(bits, dtype=np.uint32)
    shift = rng.integers(2, size=(d, bits), dtype=np.uint32) @ place
    ltm = np.tril(rng.integers(2, size=(d, bits, bits), dtype=np.uint32))
    ltm[:, range(bits), range(bits)] = 1
    # LMS scramble: bit 29 - p of scrambled column j is the parity of row p
    # of ltm against the bits of column j, most significant bit first
    msb_first = place[::-1]
    v_bits = _SOBOL_V[:d, None, :] // msb_first[:, None] & 1
    sv = msb_first @ (ltm @ v_bits & 1)
    # point i steps from point i - 1 by the column of the lowest zero bit of
    # i - 1, so it is the shift XOR the columns set in the Gray code of i
    i = np.arange(2**m)
    on = ((i ^ i >> 1)[:, None, None] >> np.arange(bits) & 1).astype(bool)
    quasi = np.bitwise_xor.reduce(np.where(on, sv, 0), axis=2) ^ shift
    return quasi / 2**bits


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

    Returns the best found rate (0.0 when no positive rate exists anywhere);
    the equal-shares point is always evaluated, so the result is never worse
    than it.

    ``warm`` (typically the optimum at a nearby L) replaces the multi-start by
    one coordinate-descent start from its weights and p, with the same
    evaluation budget.  If that start ends below the equal-shares point, or
    on a point with no key length (infeasible or vacuous), the full
    multi-start runs as if ``warm`` were None.  ``evaluations`` counts every
    point scored, fallback included.
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
    # parties, L and the statistics are the same at every point: check once
    ProtocolConfig(kind, parties, total_rounds, p_max)
    _check_stats(kind, parties, stats)

    length = _nbb84_length if kind is Protocol.N_BB84 else _nsixstate_length
    target = eps_tot_target.neg_log2
    evaluations = 0

    def p_and_weights(theta: np.ndarray, lp: float) -> Tuple[float, Tuple[float, ...]]:
        return math.exp(min(max(lp, lp_lo), lp_hi)), _softmax(theta)

    def evaluate(theta: np.ndarray, lp: float) -> Optional[float]:
        # the signed net rate is the search objective: the zero-clamped rate
        # is flat over the whole infeasible region and gives line searches
        # nothing to follow; None marks a point whose rounds cannot be split
        nonlocal evaluations
        evaluations += 1
        p, weights = p_and_weights(theta, lp)
        _check_shares(p, weights)
        try:
            negs, neg_pe, _ = _split(kind, parties, total_rounds, target, weights)
            net = length(parties, total_rounds, p, stats, negs, neg_pe)[2]
        except ConfigurationError:
            return None
        return net / total_rounds

    def objective(theta: np.ndarray, lp: float) -> float:
        value = evaluate(theta, lp)
        return -math.inf if value is None else value

    # start 0: equal shares; the rest from a scrambled Sobol sequence
    start_list = [(np.zeros(n_weights), math.log(min(max(0.05, p_min), p_max)))]
    extra = cfg.starts - 1
    points = np.empty((0, n_weights + 1))
    if extra:
        points = _sobol(n_weights + 1, max(1, math.ceil(math.log2(extra))), cfg.seed)[:extra]
    for row in points:
        theta = 3.0 * (2.0 * row[:n_weights] - 1.0)
        lp = lp_lo + row[n_weights] * (lp_hi - lp_lo)
        start_list.append((theta, lp))

    best: Optional[Tuple[float, np.ndarray, float]] = None

    def consider(value: Optional[float], theta: np.ndarray, lp: float) -> None:
        nonlocal best
        if value is not None and (best is None or value > best[0]):
            best = (value, theta.copy(), lp)

    def descend(theta0: np.ndarray, lp0: float) -> Optional[float]:
        """One coordinate-descent start; returns the value it ends at."""
        theta = theta0.copy()
        lp = lp0
        start_budget = evaluations + cfg.max_evaluations
        first = evaluate(theta, lp)
        consider(first, theta, lp)
        current = -math.inf if first is None else first
        first_sweep = True
        while evaluations < start_budget:
            improved = False
            # p first: it moves the round split, usually the strongest knob
            lo = lp_lo if first_sweep else max(lp - 0.7, lp_lo)
            hi = lp_hi if first_sweep else min(lp + 0.7, lp_hi)
            x, fx = _golden_max(lambda v: objective(theta, v), lo, hi, iters=18)
            if fx > current + 1e-12:
                current, lp, improved = fx, x, True
            for i in range(n_weights):
                if evaluations >= start_budget:
                    break

                def along(v: float, i: int = i) -> float:
                    trial = theta.copy()
                    trial[i] = v
                    return objective(trial, lp)

                x, fx = _golden_max(along, theta[i] - 2.0, theta[i] + 2.0, iters=16)
                if fx > current + 1e-12:
                    current = fx
                    theta[i] = x
                    improved = True
            first_sweep = False
            if not improved:
                break
        last = evaluate(theta, lp)
        consider(last, theta, lp)
        return last

    if warm is not None:
        # the equal-shares point stays the floor; a warm start that ends below
        # it, or on a point with no key length (infeasible or vacuous), falls
        # back to the cold starts
        floor = evaluate(*start_list[0])
        consider(floor, *start_list[0])
        lp_warm = min(max(math.log(warm.p), lp_lo), lp_hi)
        reached = descend(np.log(np.array(warm.weights)), lp_warm)
        feasible = reached is not None and reached > -math.inf
        if feasible and (floor is None or reached >= floor):
            start_list = []
    for theta0, lp0 in start_list:
        descend(theta0, lp0)

    if best is None:
        raise ConfigurationError("no feasible configuration found")
    value, theta, lp = best
    shares = BudgetShares(*p_and_weights(theta, lp))
    budget = allocate_budget(kind, parties, total_rounds, eps_tot_target, shares)
    evaluator = key_length_nbb84 if kind is Protocol.N_BB84 else key_length_nsixstate
    result = evaluator(ProtocolConfig(kind, parties, total_rounds, shares.p), stats, budget)
    return OptimizedRate(
        rate=max(value, 0.0), shares=shares, result=result, evaluations=evaluations
    )


def stats_from_qab_global(q_ab: float, parties: int) -> ObservedStats:
    """PE frequencies implied by Q_AB under the global-depolarizing relations.

    These are the expected statistics of the global model at nu = 2 Q_AB:
    Q_X = Q_AB and Q_Z = (2^N - 2)/2^(N-1) Q_AB.
    """
    if not 0.0 < q_ab < 0.5:
        raise ValueError(f"q_ab must be in (0, 0.5), got {q_ab}")
    scenario = NoiseScenario(NoiseModel.GLOBAL_DEPOLARIZING, 2.0 * q_ab, parties)
    return expected_observed_stats(scenario)


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

    Each (protocol, L) is optimized once, and the N-BB84 optimum only where
    the six-state rate is positive.  The first optimum of each protocol is a
    cold multi-start; every later one is warm-started (``optimize_rate``'s
    ``warm``) from the cached optimum of the same protocol nearest in
    |log L|, the smaller L on a tie, since the optimal shares and log p move
    smoothly with log L.
    """
    stats = stats_from_qab_global(q_ab, parties)
    cache: Dict[Tuple[Protocol, int], OptimizedRate] = {}

    def rate(kind: Protocol, total_rounds: int) -> float:
        if (kind, total_rounds) not in cache:
            # start from the same protocol's optimum nearest in |log L|, the
            # smaller L on a tie (int / int rounds correctly, so equal ratios
            # give equal keys)
            nearest = min(
                (L for k, L in cache if k is kind),
                key=lambda L: (max(L, total_rounds) / min(L, total_rounds), L),
                default=None,
            )
            warm = None if nearest is None else cache[kind, nearest].shares
            cache[kind, total_rounds] = optimize_rate(
                kind, parties, total_rounds, stats, eps_tot_target, search_config, warm=warm
            )
        return cache[kind, total_rounds].rate

    def crossed(total_rounds: int) -> bool:
        # a zero six-state rate settles the verdict without the N-BB84 optimum
        r6 = rate(Protocol.N_SIX_STATE, total_rounds)
        return r6 > 0.0 and 0.0 < rate(Protocol.N_BB84, total_rounds) <= r6

    return _threshold_from_curve(crossed, l_min, l_max)
