"""Finite-key length evaluators for the N-BB84 and N-six-state protocols.

Both protocols distribute L rounds of an N-party GHZ resource.  Second-type
(test-basis) rounds occur with probability p, giving m = floor(L*p) of them;
m of the first-type rounds are sacrificed for parameter estimation, and the
key is distilled from the remaining n = L - 2m rounds.  The N-BB84 bound uses
sampling corrections xi on the observed frequencies; the N-six-state bound
takes the infimum of an entropy expression over the confidence box Gamma_PE,
which sits in closed form at one corner of the box, and pays a postselection
penalty that scales exponentially in N.

Key lengths can be negative (they are reported as-is, useful to optimizers);
rates clamp at zero.  A budget whose robustness parameter reaches 1 or an
empty Gamma_PE yields ``raw_length = -inf`` with ``feasible = False`` rather
than an exception.

Every formula has one private core on plain floats: the round counts, the
eps_PE / eps_tot compositions (``neg_log2`` exponents in, both exponents
out, each a fixed-arity log-sum-exp), the Gamma_PE corner and the
key-length terms.  The two key lengths differ only in their min-entropy,
leakage and postselection terms; one shared tail adds the EC and PA terms,
handles a vacuous eps_rob and sums.  ``_composer`` and ``_length_core`` bind
what depends only on N and L (log2(N-1), the postselection bits), so the
rate optimizer scores each candidate point through these cores alone.  The
public functions validate their arguments, call the same cores and wrap the
results in ``LogEps``, ``KeyLengthResult`` and friends, so objects are built
only for the points a caller asks about.

``_certified_zero`` proves, where it can, that no budget split and no p has
a net length at a level (0, or N-BB84's) or above.  No split puts an
exponent below its floor (``_floors``), and every term grows as an exponent
falls, so the terms at the floors, each at its worst end of an interval of
m = floor(L p), bound the net length there (``_length_bound``); bisection
over m covers p with no grid.  At small L this proves most zero-rate
optima, and away from the crossover most six-state rates below N-BB84's.

``_multiplier_start`` gives the rate optimizer its weights at each m: the
budget weights where the key length is stationary on sum w = 1, solved with
one multiplier, in closed form, from the terms' exact slopes in their own
exponents (``_slopes``), or where it sits at an edge of the simplex.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, NamedTuple, Optional, Tuple

from .noise import MarginalProbabilities, ObservedStats
from .numerics import _LN2, LogEps, _eta, _log2_one_minus, _log_sum, _xi, binary_entropy, xlog2x

__all__ = [
    "Protocol",
    "ProtocolConfig",
    "SecurityBudget",
    "KeyLengthTerms",
    "KeyLengthResult",
    "GammaPEResult",
    "RoundCounts",
    "ConfigurationError",
    "budget_components",
    "derive_counts",
    "epsilon_pe_nbb84",
    "epsilon_pe_nsixstate",
    "epsilon_total_nbb84",
    "epsilon_total_nsixstate",
    "six_state_entropy_expression",
    "gamma_pe_infimum",
    "key_length_nbb84",
    "key_length_nsixstate",
    "net_key_length",
]

class ConfigurationError(ValueError):
    """Round bookkeeping cannot satisfy m >= 1, n >= 1 (and m' >= 1)."""


class Protocol(enum.Enum):
    N_BB84 = "n-bb84"
    N_SIX_STATE = "n-six-state"


@dataclass(frozen=True)
class ProtocolConfig:
    kind: Protocol
    parties: int
    total_rounds: int
    second_type_prob: float

    def __post_init__(self) -> None:
        if self.parties < 2:
            raise ValueError(f"parties must be >= 2, got {self.parties}")
        if self.total_rounds < 1:
            raise ValueError(f"total_rounds must be >= 1, got {self.total_rounds}")
        if not 0.0 < self.second_type_prob < 0.5:
            raise ValueError(
                f"second_type_prob must be in (0, 0.5), got {self.second_type_prob}"
            )


class RoundCounts(NamedTuple):
    m: int
    n: int
    m_prime: int


def derive_counts(config: ProtocolConfig) -> RoundCounts:
    """Round bookkeeping: m = floor(L*p), n = L - 2m, m' = floor(m/2)."""
    return RoundCounts(*_counts(config.kind, config.total_rounds, config.second_type_prob))


def _counts(kind: Protocol, total_rounds: int, p: float) -> Tuple[int, int, int]:
    m = math.floor(total_rounds * p)
    n = total_rounds - 2 * m
    m_prime = m // 2
    if m < 1:
        raise ConfigurationError(f"no test rounds: m = {m}")
    if n < 1:
        raise ConfigurationError(f"no key rounds left: n = {n}")
    if kind is Protocol.N_SIX_STATE and m_prime < 1:
        raise ConfigurationError(f"no accepted X-parity rounds: m' = {m_prime}")
    return m, n, m_prime


def _check_stats(kind: Protocol, parties: int, stats: ObservedStats) -> None:
    if len(stats.q_ab) != parties - 1:
        raise ValueError("need one Q_AB entry per Bob")
    if kind is Protocol.N_SIX_STATE and stats.q_z is None:
        raise ValueError("six-state statistics require q_z")


@dataclass(frozen=True)
class SecurityBudget:
    """Per-subprotocol security parameters, all in the log domain.

    ``eps_bar`` and ``eps_z_prime`` are only used by the N-six-state bound
    and may stay None for N-BB84.
    """

    eps_z: LogEps
    eps_x: LogEps
    eps_ec: LogEps
    eps_pa: LogEps
    eps_bar: Optional[LogEps] = None
    eps_z_prime: Optional[LogEps] = None

    def require_six_state(self) -> None:
        if self.eps_bar is None or self.eps_z_prime is None:
            raise ValueError("six-state budget needs eps_bar and eps_z_prime")


# the order in which the float cores take a budget's exponents
BB84_COMPONENTS = ("eps_z", "eps_x", "eps_ec", "eps_pa")
SIX_STATE_COMPONENTS = ("eps_bar", "eps_z", "eps_x", "eps_z_prime", "eps_ec", "eps_pa")


def budget_components(kind: Protocol) -> Tuple[str, ...]:
    return BB84_COMPONENTS if kind is Protocol.N_BB84 else SIX_STATE_COMPONENTS


def _negs(budget: SecurityBudget, kind: Protocol) -> Tuple[float, ...]:
    if kind is not Protocol.N_BB84:
        budget.require_six_state()
    return tuple(getattr(budget, name).neg_log2 for name in budget_components(kind))


def _compose_nbb84(negs, log2_bobs: float) -> Tuple[float, float]:
    """(eps_PE, eps_tot) exponents of the (z, x, ec, pa) exponents.

    ``log2_bobs`` is log2(N-1), the shift of the (N-1) eps_z term.
    """
    z, x, ec, pa = negs
    pe = _log_sum(z - log2_bobs, x) / 2.0
    return pe, _log_sum(pe - 1.0, ec, pa)


def _compose_nsixstate(negs, log2_bobs: float, ps_bits: float) -> Tuple[float, float]:
    """(eps_PE, eps_tot) exponents of the (bar, z, x, z', ec, pa) exponents.

    ``log2_bobs`` is log2(N-1) and ``ps_bits`` the ``postselection_bits``.
    """
    bar, z, x, zp, ec, pa = negs
    pe = _log_sum(zp, z - log2_bobs, x)
    return pe, _log_sum(bar - 1.0, pe, ec, pa) - ps_bits


def _composer(
    kind: Protocol, parties: int, total_rounds: int
) -> Callable[..., Tuple[float, float]]:
    """The composition of ``kind``, with log2(N-1) (and for six-state the
    postselection bits) bound: it takes the component exponents."""
    log2_bobs = math.log2(parties - 1)
    if kind is Protocol.N_BB84:
        return partial(_compose_nbb84, log2_bobs=log2_bobs)
    ps_bits = postselection_bits(parties, total_rounds)
    return partial(_compose_nsixstate, log2_bobs=log2_bobs, ps_bits=ps_bits)


def epsilon_pe_nbb84(budget: SecurityBudget, parties: int) -> LogEps:
    """eps_PE = sqrt((N-1) eps_z + eps_x)."""
    negs = _negs(budget, Protocol.N_BB84)
    return LogEps(_compose_nbb84(negs, math.log2(parties - 1))[0])


def epsilon_pe_nsixstate(budget: SecurityBudget, parties: int) -> LogEps:
    """eps_PE = eps_z' + (N-1) eps_z + eps_x."""
    # eps_PE does not depend on L; only eps_tot carries the postselection factor
    negs = _negs(budget, Protocol.N_SIX_STATE)
    return LogEps(_compose_nsixstate(negs, math.log2(parties - 1), 0.0)[0])


def epsilon_total_nbb84(budget: SecurityBudget, parties: int) -> LogEps:
    """eps_tot = 2 eps_PE + eps_EC + eps_PA."""
    negs = _negs(budget, Protocol.N_BB84)
    return LogEps(_compose_nbb84(negs, math.log2(parties - 1))[1])


def postselection_exponent(parties: int) -> int:
    """The postselection blow-up exponent 2^(2N) - 1."""
    return 2 ** (2 * parties) - 1


def postselection_bits(parties: int, total_rounds: int) -> float:
    """log2 of the postselection factor (L+1)^(2^(2N)-1)."""
    return postselection_exponent(parties) * math.log2(total_rounds + 1)


def epsilon_total_nsixstate(budget: SecurityBudget, parties: int, total_rounds: int) -> LogEps:
    """eps_tot = (L+1)^(2^(2N)-1) * (2 eps_bar + eps_PE + eps_EC + eps_PA).

    The result can be vacuous (eps_tot > 1, negative ``neg_log2``); callers
    should check ``.vacuous`` rather than expect an exception.
    """
    negs = _negs(budget, Protocol.N_SIX_STATE)
    ps_bits = postselection_bits(parties, total_rounds)
    return LogEps(_compose_nsixstate(negs, math.log2(parties - 1), ps_bits)[1])


@dataclass(frozen=True)
class KeyLengthTerms:
    """Signed contributions to the raw key length (preshared cost excluded)."""

    min_entropy_term: float
    leakage_term: float
    ec_log_term: float
    pa_term: float
    ps_penalty: float
    preshared_cost: float


@dataclass(frozen=True)
class KeyLengthResult:
    raw_length: float
    net_length: float
    rate: float
    terms: KeyLengthTerms
    eps_tot: LogEps
    feasible: bool = True
    eps_tot_vacuous: bool = False
    witness: Optional[MarginalProbabilities] = None


def net_key_length(raw: float, total_rounds: int, p: float) -> float:
    """Subtract the L*h(p) bits of preshared key spent marking test rounds."""
    return raw - total_rounds * binary_entropy(p)


def _clamp_half(q: float) -> float:
    return min(max(q, 0.0), 0.5)


def six_state_entropy_expression(p_ab_worst: float, p_x: float, p_z: float) -> float:
    """Single-round entropy bound for the six-state protocol, in bits.

    Returns::

        (1 - p_z/2 - p_x) log2(1 - p_z/2 - p_x) + (p_x - p_z/2) log2(p_x - p_z/2)
        + (1 - p_z)(1 - log2(1 - p_z)) - h(p_ab_worst)

    with the x log2 x terms extended by 0 at x = 0.  Outside the domain
    (negative arguments or p_z > 1) the point is infeasible and NaN is
    returned; ``gamma_pe_infimum`` reports a confidence box whose
    (p_x max, p_z min) corner falls outside the domain as infeasible.
    """
    a1 = 1.0 - p_z / 2.0 - p_x
    a2 = p_x - p_z / 2.0
    w = 1.0 - p_z
    if a1 < 0.0 or a2 < 0.0 or w < 0.0 or p_x < 0.0:
        return math.nan
    return _entropy_part(a1, a2, w) - binary_entropy(p_ab_worst)


def _entropy_part(a1: float, a2: float, w: float) -> float:
    """The bracket without its -h(p_ab) part, from a1, a2, w >= 0."""
    return xlog2x(a1) + xlog2x(a2) + w - xlog2x(w)


class GammaPEResult(NamedTuple):
    value: float
    entropy_part: float
    h_ab_part: float
    witness: Optional[MarginalProbabilities]
    feasible: bool


_INFEASIBLE_GAMMA = GammaPEResult(
    value=math.nan, entropy_part=math.nan, h_ab_part=math.nan, witness=None, feasible=False
)


def _box_corner(
    q_ab: list, q_x: float, q_z: float, eta_z: float, eta_x: float, eta_zp: float
) -> Optional[Tuple[float, float, float, float, float]]:
    """Worst case of the six-state bracket over the Gamma_PE confidence box.

    Returns (entropy_part, h_ab_part, P_AB, P_X, P_Z) at the worst point, or
    None for an empty box.

    The per-Bob disagreement probability enters only through -h(P_AB), which
    is maximized at the box endpoint closest to 1/2.  With a1 = 1 - P_Z/2 - P_X,
    a2 = P_X - P_Z/2 and w = 1 - P_Z, the rest of the bracket is
    a1 log2 a1 + a2 log2 a2 + w - w log2 w, and on the box (P_X <= 1/2):

    - it strictly decreases in P_X, since d/dP_X = log2(a2/a1) < 0 for
      P_X < 1/2;
    - it does not decrease in P_Z, since d/dP_Z = log2(w^2 / (4 a1 a2)) / 2
      and w^2 - 4 a1 a2 = 4 (1/2 - P_X)^2 >= 0.

    So the infimum is the corner (P_X max, P_Z min).  a1 >= 0 on the whole
    box while a2 and w are largest at that corner, so the box holds a
    feasible point exactly when the corner is feasible.
    """
    ab_hi = [min(q + 2.0 * eta_z, 0.5) for q in q_ab]
    if any(q - 2.0 * eta_z > hi for q, hi in zip(q_ab, ab_hi)):
        return None
    p_ab_worst = max(ab_hi)

    px_lo = max(q_x - 2.0 * eta_x, 0.0)
    px_hi = min(q_x + 2.0 * eta_x, 0.5)
    pz_lo = max(q_z - 2.0 * eta_zp, 0.0)
    pz_hi = min(q_z + 2.0 * eta_zp, 1.0)
    if px_lo > px_hi or pz_lo > pz_hi:
        return None

    a1 = 1.0 - pz_lo / 2.0 - px_hi
    a2 = px_hi - pz_lo / 2.0
    w = 1.0 - pz_lo
    # tolerate box-arithmetic roundoff on the feasibility boundary
    if a2 < -1e-15 or w < -1e-15:
        return None
    entropy = _entropy_part(a1, max(a2, 0.0), max(w, 0.0))
    return entropy, binary_entropy(p_ab_worst), p_ab_worst, px_hi, pz_lo


def _radii(neg_z: float, neg_x: float, neg_zp: float, m: int, m_prime: int) -> Tuple[float, ...]:
    """The sampling radii eta of Q_AB, Q_X and Q_Z, on m, m' and m rounds."""
    log_m1 = math.log(m + 1)
    return (
        _eta(neg_z, 2, m, log_m1),
        _eta(neg_x, 2, m_prime, math.log(m_prime + 1)),
        _eta(neg_zp, 2, m, log_m1),
    )


def _gamma_corner(stats: ObservedStats, etas) -> Optional[Tuple[float, float, float, float, float]]:
    """``_box_corner`` of the box with half-widths 2 eta (``_radii``)."""
    return _box_corner(stats.q_ab, stats.q_x, stats.q_z, *etas)


def _gamma_result(corner) -> GammaPEResult:
    if corner is None:
        return _INFEASIBLE_GAMMA
    entropy, h_ab, p_ab, p_x, p_z = corner
    return GammaPEResult(
        value=entropy - h_ab,
        entropy_part=entropy,
        h_ab_part=h_ab,
        witness=MarginalProbabilities(p_ab=p_ab, p_x=p_x, p_z=p_z),
        feasible=True,
    )


def gamma_pe_infimum(
    stats: ObservedStats, budget: SecurityBudget, counts: Tuple[int, int]
) -> GammaPEResult:
    """Infimum of the six-state bracket over Gamma_PE.

    The box half-widths are 2*eta(eps_z, 2, m) for each Q_AB, 2*eta(eps_x,
    2, m') for Q_X and 2*eta(eps_z', 2, m) for Q_Z.  An empty box (all
    points infeasible) is reported via ``feasible = False``.
    """
    budget.require_six_state()
    if stats.q_z is None:
        raise ValueError("six-state statistics require q_z")
    m, m_prime = counts
    if m < 1 or m_prime < 1:
        raise ValueError(f"m and m' must be >= 1, got m={m}, m'={m_prime}")
    _, neg_z, neg_x, neg_zp, _, _ = _negs(budget, Protocol.N_SIX_STATE)
    return _gamma_result(_gamma_corner(stats, _radii(neg_z, neg_x, neg_zp, m, m_prime)))


def _pa_term(neg_rob: float, neg_pa: float) -> float:
    # -2 log2((1 - eps_rob) / (2 eps_pa)); for eps_rob < 2^-53 this collapses
    # to -2 (eps_pa.neg_log2 - 1) exactly, as log2_one_minus returns -0.0-ish
    return -2.0 * (_log2_one_minus(neg_rob) + neg_pa - 1.0)


def _ec_term(parties: int, neg_ec: float) -> float:
    """The EC term -log2(2 (N-1) / eps_EC)."""
    return -(1.0 + math.log2(parties - 1) + neg_ec)


def _rob(neg_pe: float, parties: int) -> float:
    """eps_rob = 2 (N-1) eps_PE, as an exponent."""
    return neg_pe - math.log2(2.0 * (parties - 1))


# what a key-length core returns: the KeyLengthTerms fields in order, the raw
# and net lengths (-inf when vacuous), feasibility and the Gamma_PE witness
_Length = Tuple[Tuple[float, ...], float, float, bool, Optional[Tuple[float, float, float]]]


def _length_tail(
    parties: int, negs, neg_pe: float, min_entropy, leakage, ps_penalty, preshared, witness
) -> _Length:
    """The key length from a protocol's min-entropy, leakage and postselection
    terms: the EC and PA terms (of the last two exponents), eps_rob and sums.

    A NaN min-entropy term marks a point the protocol found infeasible, and
    makes the PA term NaN; otherwise eps_rob >= 1 makes it -inf.
    """
    ec, pa = negs[-2:]
    ec_log_term = _ec_term(parties, ec)
    neg_rob = _rob(neg_pe, parties)
    feasible = neg_rob > 0.0 and not math.isnan(min_entropy)
    if feasible:
        pa_term = _pa_term(neg_rob, pa)
        raw = min_entropy + leakage + ec_log_term + pa_term + ps_penalty
    else:
        pa_term = math.nan if math.isnan(min_entropy) else -math.inf
        raw = -math.inf
    terms = (min_entropy, leakage, ec_log_term, pa_term, ps_penalty, preshared)
    return terms, raw, raw - preshared, feasible, witness


def _nbb84_entropies(stats: ObservedStats, xi_x: float, xi_z: float) -> Tuple[float, float]:
    """h(Q_X + 2 xi_x) and max_i h(Q_AB,i + 2 xi_z), arguments clamped to [0, 1/2]."""
    h_x = binary_entropy(_clamp_half(stats.q_x + 2.0 * xi_x))
    h_ab = max(binary_entropy(_clamp_half(q + 2.0 * xi_z)) for q in stats.q_ab)
    return h_x, h_ab


def _nbb84_length(
    parties: int, total_rounds: int, p: float, stats: ObservedStats, negs, neg_pe: float
) -> _Length:
    z, x, _, _ = negs
    m, n, _ = _counts(Protocol.N_BB84, total_rounds, p)
    preshared = total_rounds * binary_entropy(p)
    h_x, h_ab = _nbb84_entropies(stats, _xi(x, n, m), _xi(z, n, m))
    return _length_tail(parties, negs, neg_pe, n * (1.0 - h_x), -n * h_ab, 0.0, preshared, None)


def _nsixstate_length(
    parties: int, ps_penalty: float, total_rounds: int, p: float, stats: ObservedStats, negs, neg_pe
) -> _Length:
    bar, z, x, zp, _, _ = negs
    m, n, m_prime = _counts(Protocol.N_SIX_STATE, total_rounds, p)
    preshared = total_rounds * binary_entropy(p)
    corner = _gamma_corner(stats, _radii(z, x, zp, m, m_prime))
    if corner is None or _rob(neg_pe, parties) <= 0.0:  # an empty box, or eps_rob >= 1
        return _length_tail(parties, negs, neg_pe, math.nan, math.nan, ps_penalty, preshared, None)
    entropy, h_ab = corner[:2]
    # eps_rob < 1 forces eps_PE < 1/2, so log2(1/(2 eps_PE)) > 0 here
    aep_min = 5.0 * math.sqrt(bar / n)
    aep_leak = math.log2(5.0) * math.sqrt(2.0 * (neg_pe - 1.0) / n)
    min_entropy = n * (entropy - aep_min)
    leakage = -n * (h_ab + aep_leak)
    return _length_tail(
        parties, negs, neg_pe, min_entropy, leakage, ps_penalty, preshared, corner[2:]
    )


def _length_core(kind: Protocol, parties: int, total_rounds: int) -> Callable[..., _Length]:
    """The key-length core of ``kind``, with N and L (and for six-state the
    postselection penalty) bound: it takes (p, stats, negs, neg_pe)."""
    if kind is Protocol.N_BB84:
        return partial(_nbb84_length, parties, total_rounds)
    ps_penalty = -2.0 * postselection_bits(parties, total_rounds)
    return partial(_nsixstate_length, parties, ps_penalty, total_rounds)


def _h_slope(q: float) -> float:
    """h'(q) = log2((1 - q) / q), for 0 < q < 1."""
    return math.log2((1.0 - q) / q)


def _slopes(
    kind: Protocol,
    parties: int,
    total_rounds: int,
    stats: ObservedStats,
    m: int,
    negs,
    neg_pe: float,
) -> Optional[Tuple[List[float], float]]:
    """How fast the key length at m test rounds falls as each exponent
    grows: (a, a_pe) with dl/d neg_i = -a_i, in ``budget_components(kind)``
    order, and dl/d neg_PE = -a_pe; None for an empty Gamma_PE box.

    Each slope is its terms' exact derivative.  The EC and PA terms give
    a_ec = 1 and a_pa = 2.  Each sampling radius r (xi or eta, the square
    root of an affine function of its exponent) moves an entropy argument
    by 2 dr: N-BB84's two h's and six-state's h(P_AB) weigh it by n h',
    six-state's P_X and P_Z by n d/dP_X and n d/dP_Z of ``_box_corner``'s
    bracket; past a clamp an argument stays put.  eps_PE enters through
    eps_rob in the PA term, and for six-state through ``aep_leak``; eps_bar
    through ``aep_min``.
    """
    n = total_rounds - 2 * m
    e_rob = 2.0 ** -_rob(neg_pe, parties)
    a_pe = 2.0 * e_rob / (1.0 - e_rob)
    if kind is Protocol.N_BB84:
        z, x, _, _ = negs
        xi_x, xi_z = _xi(x, n, m), _xi(z, n, m)
        # each entropy's pull: how fast the bracket falls as its argument
        # grows; dxi/d neg = xi / (2 neg)
        arg_x, arg_ab = stats.q_x + 2.0 * xi_x, max(stats.q_ab) + 2.0 * xi_z
        pull_x = _h_slope(arg_x) if arg_x < 0.5 else 0.0
        pull_ab = _h_slope(arg_ab) if arg_ab < 0.5 else 0.0
        return [n * pull_ab * xi_z / z, n * pull_x * xi_x / x, 1.0, 2.0], a_pe
    bar, z, x, zp, _, _ = negs
    # the radii of Q_AB, Q_X and Q_Z, sampled on m, m' and m rounds
    counts = (m, m // 2, m)
    etas = _radii(z, x, zp, m, m // 2)
    corner = _gamma_corner(stats, etas)
    if corner is None:
        return None
    _, _, p_ab, p_x, p_z = corner
    a1, a2, w = 1.0 - p_z / 2.0 - p_x, p_x - p_z / 2.0, 1.0 - p_z
    if min(a1, a2) <= 0.0:  # on the bracket's domain edge, where a slope is infinite
        return None
    # how fast the bracket falls as each corner coordinate moves by 2 eta:
    # P_AB and P_X up, P_Z = q_z - 2 eta_z' down; d eta/d neg = ln 2 / (16 c eta)
    pulls = (
        _h_slope(p_ab) if p_ab < 0.5 else 0.0,
        math.log2(a1 / a2) if p_x < 0.5 else 0.0,
        math.log2(w * w / (4.0 * a1 * a2)) / 2.0 if p_z > 0.0 else 0.0,
    )
    a = [2.5 * math.sqrt(n / bar)]
    a += [n * pull * _LN2 / (8.0 * c * eta) for pull, eta, c in zip(pulls, etas, counts)]
    a_pe += math.log2(5.0) * math.sqrt(n / (2.0 * (neg_pe - 1.0)))
    return [*a, 1.0, 2.0], a_pe


# rounds of the multiplier start, and its convergence in log weight
_MULTIPLIER_ROUNDS = 50
_MULTIPLIER_TOL = 1e-10
# the weight of a share with no slope, and eps_rob's least distance below 1
_EDGE = 2.0**-40


def _onto_edge(weights: Tuple[float, ...], group: Tuple[int, ...], cap: float) -> Tuple[float, ...]:
    """``weights`` with the group's mass set to ``cap`` and the rest's to
    1 - cap, each part in its own proportions."""
    inside = sum(w for i, w in enumerate(weights) if i in group)
    outside = sum(w for i, w in enumerate(weights) if i not in group)
    return tuple(
        w * (cap / inside if i in group else (1.0 - cap) / outside) for i, w in enumerate(weights)
    )


def _multiplier_start(
    kind: Protocol,
    parties: int,
    total_rounds: int,
    stats: ObservedStats,
    split: Callable[[Tuple[float, ...]], Tuple[List[float], float, float]],
    m: int,
    start: Optional[Tuple[float, ...]] = None,
) -> Optional[Tuple[Tuple[float, ...], float]]:
    """Budget weights where the key length at m test rounds is stationary on
    sum w = 1, and the multiplier lambda there: (weights, lambda), or None.

    ``split`` maps weights to (component exponents, eps_PE exponent, eps_tot
    exponent), as ``allocate_budget`` does.  Every component exponent falls
    by log2 of its own weight, and eps_PE's by log2 of the sum s of its
    group's weights (N-BB84's z and x, six-state's z, x and z').  For
    N-BB84, eps_z and eps_x are shares of eps_PE^2, so their exponents also
    fall by log2 s.  With a_i and a_pe from ``_slopes``, the stationarity
    condition dl/dw_i = lambda reads

        a_i / w_i + c_i = lambda ln 2,   c_i = (a_pe + [a_z + a_x]) / s

    in the group (the bracket for N-BB84 only) and c_i = 0 outside it.  For
    fixed slopes, each share solves to w_i = a_i / (x - c_i), x = lambda
    ln 2, and sum w = M, the mass the pinned shares leave, to a quadratic:
    with A and B the sums of a_i outside and inside the group and C the
    coupling, x is the larger root of M x^2 - (A + B + M C) x + A C = 0
    (x = A / M where B = 0), whose discriminant (A - M C)^2 + B (B + 2 A +
    2 M C) sums terms >= 0.  Each a_i varies slowly with w_i (as a radius
    over its exponent), so re-evaluating the slopes at the new weights, from
    ``start`` (equal shares by default), converges fast; so do the eps_PE
    coupling and six-state's (x, z') pair, whose slopes depend on each other
    through the box corner.

    Two edges of the simplex hold the optima that have no stationary point:

    - a share whose slope is 0 (its box coordinate clamped, as six-state's
      P_Z at 0 for small Q_Z) buys nothing, so it is pinned at weight
      ``_EDGE`` and the others are solved on the remaining mass;
    - eps_rob grows in proportion to s, and where (N-1) eps_tot > 1 the PA
      term rises without bound as eps_rob nears 1, so where the solve would
      take eps_rob past 1 - ``_EDGE``, s stops there, split in the solved
      shares' proportions (a_z : a_x, and EC:PA = 1:2).  That s is one for
      every m and start, since 20 ULPs of eps_rob there move the PA term by
      ~0.03 bits.  A start past eps_rob = 1 has no slopes; the solve starts
      from equal shares instead, moved onto that edge if they are past it too.

    None where a slope is negative or not finite, the box is empty, or an
    unconverged solve leaves weights that miss sum w = 1 by over 1e-9.
    """
    bb84 = kind is Protocol.N_BB84
    group = (0, 1) if bb84 else (1, 2, 3)
    size = len(budget_components(kind))
    equal = (1.0 / size,) * size
    # eps_rob at equal shares, and the s where eps_rob = 1 - _EDGE, if any
    e_rob = 2.0 ** -_rob(split(equal)[1], parties)
    cap = (1.0 - _EDGE) * len(group) / size / e_rob if e_rob > 0.0 else math.inf
    weights = start or equal
    if _rob(split(weights)[1], parties) <= 0.0:
        weights = equal if e_rob < 1.0 else _onto_edge(equal, group, cap)
    for _ in range(_MULTIPLIER_ROUNDS):
        negs, neg_pe, _ = split(weights)
        got = _slopes(kind, parties, total_rounds, stats, m, negs, neg_pe)
        if got is None or not all(0.0 <= v < math.inf for v in got[0]):
            return None
        a, a_pe = got
        s = sum(weights[i] for i in group)
        coupling = (a_pe + (a[0] + a[1] if bb84 else 0.0)) / s
        mass = 1.0 - _EDGE * a.count(0.0)
        out = sum(v for i, v in enumerate(a) if i not in group)
        inside = sum(v for i, v in enumerate(a) if i in group)
        # the larger root of mass lam^2 - (out + inside + mc) lam + out coupling
        mc = mass * coupling
        root = math.sqrt((out - mc) ** 2 + inside * (inside + 2.0 * out + 2.0 * mc))
        lam = (out + inside + mc + root) / (2.0 * mass) if inside > 0.0 else out / mass
        shares = [
            (v / (lam - coupling if i in group else lam) if v > 0.0 else _EDGE)
            for i, v in enumerate(a)
        ]
        if sum(shares[i] for i in group) > cap:
            shares = _onto_edge(shares, group, cap)
            lam = a[-1] / shares[-1]  # the PA share, outside the group: c = 0
        done = all(abs(math.log(u / v)) < _MULTIPLIER_TOL for u, v in zip(shares, weights))
        weights = tuple(shares)
        if done:
            break
    if abs(sum(weights) - 1.0) > 1e-9:
        return None
    return weights, lam / _LN2


# a level is certified when the bound stays this many bits per round below it,
# far above the roundoff of any length term (each is at most a few bits per
# round wherever the net length is near the level)
_ZERO_SLACK = 1e-9
# the interval split at which the certificate gives up and certifies nothing
_ZERO_MAX_SPLITS = 200


def _floors(
    kind: Protocol, parties: int, total_rounds: int, target: float
) -> Tuple[List[float], float]:
    """Exponents that no budget split goes below: (components, eps_PE).

    Every split weight is at most 1.  So for N-BB84 eps_PE is at most
    eps_tot / 2, eps_x at most eps_PE^2, eps_z at most eps_PE^2 / (N-1), and
    eps_EC and eps_PA at most eps_tot; for six-state each component and eps_PE
    are at most the inner sum eps_tot / (L+1)^(2^(2N)-1).
    """
    if kind is Protocol.N_BB84:
        neg_pe = target + 1.0
        return [2.0 * neg_pe + math.log2(parties - 1), 2.0 * neg_pe, target, target], neg_pe
    neg_inner = target + postselection_bits(parties, total_rounds)
    return [neg_inner] * 6, neg_inner


def _length_bound(
    kind: Protocol,
    parties: int,
    total_rounds: int,
    stats: ObservedStats,
    negs: List[float],
    neg_pe: float,
    p_min: float,
    lo: int,
    hi: int,
) -> Optional[float]:
    """Upper bound on the net length at the floor exponents over m in [lo, hi].

    Every term of the key-length cores grows (or stays) as an exponent falls
    to its floor, and here each factor also takes its own worst end of the
    interval: n = L - 2m is largest at lo; eta falls as m grows, so the
    Gamma_PE box is smallest at hi; xi^2 is (L-m)/(L-2m) * (m+1)/m^2 times a
    constant, and the first factor grows while the second falls; the
    preshared cost L h(p) is smallest at p = max(lo / L, p_min).  A per-round
    bracket takes the n that makes its product largest (the smallest n when
    it is negative), and the sqrt(n) penalties the smallest n.  None when
    the floor box is empty.
    """
    n_hi, n_lo = total_rounds - 2 * lo, total_rounds - 2 * hi
    ec, pa = negs[-2:]
    fixed = _ec_term(parties, ec) + _pa_term(_rob(neg_pe, parties), pa)
    fixed -= total_rounds * binary_entropy(max(lo / total_rounds, p_min))
    if kind is Protocol.N_BB84:
        z, x = negs[:2]
        coeff = (total_rounds - lo) / n_hi * (hi + 1) / (8.0 * hi * hi) * _LN2
        h_x, h_ab = _nbb84_entropies(stats, math.sqrt(coeff * x), math.sqrt(coeff * z))
        bracket, penalty = 1.0 - h_x - h_ab, 0.0
    else:
        bar, z, x, zp = negs[:4]
        corner = _gamma_corner(stats, _radii(z, x, zp, hi, hi // 2))
        if corner is None:
            return None
        bracket = corner[0] - corner[1]
        penalty = math.sqrt(n_lo) * (
            5.0 * math.sqrt(bar) + math.log2(5.0) * math.sqrt(2.0 * (neg_pe - 1.0))
        )
        fixed -= 2.0 * postselection_bits(parties, total_rounds)
    return (n_hi if bracket > 0.0 else n_lo) * bracket - penalty + fixed


def _certified_zero(
    kind: Protocol,
    parties: int,
    total_rounds: int,
    stats: ObservedStats,
    target: float,
    p_min: float,
    p_max: float,
    level: float = 0.0,
) -> bool:
    """True when no budget split and no p in [p_min, p_max] reaches ``level`` bits.

    Depth-first bisection over intervals of m = floor(L p) with
    ``_length_bound``: an interval is settled once its bound is
    ``_ZERO_SLACK`` bits per round below the level, and split at the
    geometric mean of its ends otherwise, in an order that cannot change the
    verdict.  Nothing is certified for a target exponent that is negative or
    not finite, when the floor point is vacuous (eps_rob >= 1) or its box is
    empty, when the core at the floor exponents comes within the slack of
    the level at a concrete p (one per unsettled interval), when an interval
    of one m stays unsettled, or at the ``_ZERO_MAX_SPLITS``-th split.
    """
    if not 0.0 <= target < math.inf:
        return False
    negs, neg_pe = _floors(kind, parties, total_rounds, target)
    if _rob(neg_pe, parties) <= 0.0:
        return False
    length = _length_core(kind, parties, total_rounds)
    limit = level - _ZERO_SLACK * total_rounds
    m_min = 2 if kind is Protocol.N_SIX_STATE else 1
    # p >= p_min gives m >= m_min; n >= 1 and p <= p_max (up to exp/log
    # roundoff) cap m from above
    m_max = min((total_rounds - 1) // 2, math.floor(total_rounds * p_max) + 1)
    stack, splits = [(m_min, m_max)], 0
    while stack:
        lo, hi = stack.pop()
        bound = _length_bound(kind, parties, total_rounds, stats, negs, neg_pe, p_min, lo, hi)
        if bound is None:
            return False
        if bound < limit:
            continue
        mid = math.isqrt(lo * hi)
        p = min(max((mid + 0.5) / total_rounds, p_min), p_max)
        splits += 1
        if length(p, stats, negs, neg_pe)[2] >= limit or lo == hi or splits == _ZERO_MAX_SPLITS:
            return False
        stack += [(mid + 1, hi), (lo, mid)]
    return True


def _key_length(
    kind: Protocol, label: str, config: ProtocolConfig, stats: ObservedStats, budget: SecurityBudget
) -> KeyLengthResult:
    """``key_length_*`` of ``kind`` (called ``label`` in errors)."""
    if config.kind is not kind:
        raise ValueError(f"config is for {config.kind}, not {label}")
    _check_stats(kind, config.parties, stats)
    negs = _negs(budget, kind)
    neg_pe, neg_tot = _composer(kind, config.parties, config.total_rounds)(negs)
    core = _length_core(kind, config.parties, config.total_rounds)
    terms, raw, net, feasible, witness = core(config.second_type_prob, stats, negs, neg_pe)
    eps_tot = LogEps(neg_tot)
    return KeyLengthResult(
        raw_length=raw,
        net_length=net,
        rate=max(net, 0.0) / config.total_rounds,
        terms=KeyLengthTerms(*terms),
        eps_tot=eps_tot,
        feasible=feasible,
        eps_tot_vacuous=eps_tot.vacuous,
        witness=None if witness is None else MarginalProbabilities(*witness),
    )


def key_length_nbb84(
    config: ProtocolConfig, stats: ObservedStats, budget: SecurityBudget
) -> KeyLengthResult:
    """Computable N-BB84 key length.

    l = n [1 - h(Q_X + 2 xi(eps_x, n, m)) - max_i h(Q_AB_i + 2 xi(eps_z, n, m))]
        - log2(2(N-1)/eps_EC) - 2 log2((1 - 2(N-1) eps_PE) / (2 eps_PA))

    Entropy arguments clamp to [0, 1/2]: past 1/2 the underlying bound is
    vacuous and letting h decrease again would inflate the key.

    eps_rob = 2(N-1) eps_PE = (N-1)(w_z + w_x) eps_tot under
    ``allocate_budget``'s split, and the PA term -2 log2(1 - eps_rob) grows
    without bound as eps_rob -> 1.  So where (N-1) eps_tot > 1 the length
    has no maximum over the split: it is largest next to eps_rob = 1.
    """
    return _key_length(Protocol.N_BB84, "N-BB84", config, stats, budget)


def key_length_nsixstate(
    config: ProtocolConfig, stats: ObservedStats, budget: SecurityBudget
) -> KeyLengthResult:
    """Computable N-six-state key length.

    l = n inf_{Gamma_PE}[bracket - 5 sqrt(log2(1/eps_bar)/n)
                         - log2(5) sqrt(2 log2(1/(2 eps_PE))/n)]
        - log2(2(N-1)/eps_EC) - 2 log2((1 - 2(N-1) eps_PE)/(2 eps_PA))
        - 2 (2^(2N) - 1) log2(L+1)

    where the bracket is ``six_state_entropy_expression`` minimized over the
    confidence box (the -max_i h(P_AB_i) part folded into the infimum), and
    the last line is the postselection penalty.  The square-root corrections
    read exponents from the log domain directly.
    """
    return _key_length(Protocol.N_SIX_STATE, "N-six-state", config, stats, budget)
