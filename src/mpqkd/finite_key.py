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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

from .noise import MarginalProbabilities, ObservedStats
from .numerics import (
    LogEps,
    binary_entropy,
    eps_sqrt,
    eps_sum,
    eta_correction,
    log2_one_minus,
    xi_correction,
    xlog2x,
)

__all__ = [
    "Protocol",
    "ProtocolConfig",
    "SecurityBudget",
    "KeyLengthTerms",
    "KeyLengthResult",
    "GammaPEResult",
    "RoundCounts",
    "ConfigurationError",
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
    "ObservedStats",
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
    m = math.floor(config.total_rounds * config.second_type_prob)
    n = config.total_rounds - 2 * m
    m_prime = m // 2
    if m < 1:
        raise ConfigurationError(f"no test rounds: m = {m}")
    if n < 1:
        raise ConfigurationError(f"no key rounds left: n = {n}")
    if config.kind is Protocol.N_SIX_STATE and m_prime < 1:
        raise ConfigurationError(f"no accepted X-parity rounds: m' = {m_prime}")
    return RoundCounts(m=m, n=n, m_prime=m_prime)


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


def epsilon_pe_nbb84(budget: SecurityBudget, parties: int) -> LogEps:
    """eps_PE = sqrt((N-1) eps_z + eps_x)."""
    return eps_sqrt(eps_sum([(parties - 1, budget.eps_z), (1.0, budget.eps_x)]))


def epsilon_pe_nsixstate(budget: SecurityBudget, parties: int) -> LogEps:
    """eps_PE = eps_z' + (N-1) eps_z + eps_x."""
    budget.require_six_state()
    return eps_sum(
        [(1.0, budget.eps_z_prime), (parties - 1, budget.eps_z), (1.0, budget.eps_x)]
    )


def epsilon_total_nbb84(budget: SecurityBudget, parties: int) -> LogEps:
    """eps_tot = 2 eps_PE + eps_EC + eps_PA."""
    eps_pe = epsilon_pe_nbb84(budget, parties)
    return eps_sum([(2.0, eps_pe), (1.0, budget.eps_ec), (1.0, budget.eps_pa)])


def postselection_exponent(parties: int) -> int:
    """The postselection blow-up exponent 2^(2N) - 1."""
    return 2 ** (2 * parties) - 1


def epsilon_total_nsixstate(budget: SecurityBudget, parties: int, total_rounds: int) -> LogEps:
    """eps_tot = (L+1)^(2^(2N)-1) * (2 eps_bar + eps_PE + eps_EC + eps_PA).

    The result can be vacuous (eps_tot > 1, negative ``neg_log2``); callers
    should check ``.vacuous`` rather than expect an exception.
    """
    budget.require_six_state()
    eps_pe = epsilon_pe_nsixstate(budget, parties)
    inner = eps_sum(
        [(2.0, budget.eps_bar), (1.0, eps_pe), (1.0, budget.eps_ec), (1.0, budget.eps_pa)]
    )
    shift = postselection_exponent(parties) * math.log2(total_rounds + 1)
    return LogEps(inner.neg_log2 - shift)


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


def _infimum_over_box(
    q_ab: list, q_x: float, q_z: float, eta_z: float, eta_x: float, eta_zp: float
) -> GammaPEResult:
    """Worst case of the six-state bracket over the Gamma_PE confidence box.

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
        return _INFEASIBLE_GAMMA
    p_ab_worst = max(ab_hi)

    px_lo = max(q_x - 2.0 * eta_x, 0.0)
    px_hi = min(q_x + 2.0 * eta_x, 0.5)
    pz_lo = max(q_z - 2.0 * eta_zp, 0.0)
    pz_hi = min(q_z + 2.0 * eta_zp, 1.0)
    if px_lo > px_hi or pz_lo > pz_hi:
        return _INFEASIBLE_GAMMA

    a1 = 1.0 - pz_lo / 2.0 - px_hi
    a2 = px_hi - pz_lo / 2.0
    w = 1.0 - pz_lo
    # tolerate box-arithmetic roundoff on the feasibility boundary
    if a2 < -1e-15 or w < -1e-15:
        return _INFEASIBLE_GAMMA
    entropy = _entropy_part(a1, max(a2, 0.0), max(w, 0.0))

    h_ab = binary_entropy(p_ab_worst)
    return GammaPEResult(
        value=entropy - h_ab,
        entropy_part=entropy,
        h_ab_part=h_ab,
        witness=MarginalProbabilities(p_ab=p_ab_worst, p_x=px_hi, p_z=pz_lo),
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
    eta_z = eta_correction(budget.eps_z, 2, m)
    eta_x = eta_correction(budget.eps_x, 2, m_prime)
    eta_zp = eta_correction(budget.eps_z_prime, 2, m)
    return _infimum_over_box(stats.q_ab, stats.q_x, stats.q_z, eta_z, eta_x, eta_zp)


def _pa_term(eps_rob: LogEps, eps_pa: LogEps) -> float:
    # -2 log2((1 - eps_rob) / (2 eps_pa)); for eps_rob < 2^-53 this collapses
    # to -2 (eps_pa.neg_log2 - 1) exactly, as log2_one_minus returns -0.0-ish
    return -2.0 * (log2_one_minus(eps_rob) + eps_pa.neg_log2 - 1.0)


def _vacuous_result(terms: KeyLengthTerms, eps_tot: LogEps) -> KeyLengthResult:
    return KeyLengthResult(
        raw_length=-math.inf,
        net_length=-math.inf,
        rate=0.0,
        terms=terms,
        eps_tot=eps_tot,
        feasible=False,
        eps_tot_vacuous=eps_tot.vacuous,
    )


def key_length_nbb84(
    config: ProtocolConfig, stats: ObservedStats, budget: SecurityBudget
) -> KeyLengthResult:
    """Computable N-BB84 key length.

    l = n [1 - h(Q_X + 2 xi(eps_x, n, m)) - max_i h(Q_AB_i + 2 xi(eps_z, n, m))]
        - log2(2(N-1)/eps_EC) - 2 log2((1 - 2(N-1) eps_PE) / (2 eps_PA))

    Entropy arguments clamp to [0, 1/2]: past 1/2 the underlying bound is
    vacuous and letting h decrease again would inflate the key.
    """
    if config.kind is not Protocol.N_BB84:
        raise ValueError(f"config is for {config.kind}, not N-BB84")
    n_parties = config.parties
    if len(stats.q_ab) != n_parties - 1:
        raise ValueError("need one Q_AB entry per Bob")
    m, n, _ = derive_counts(config)

    xi_x = xi_correction(budget.eps_x, n, m)
    xi_z = xi_correction(budget.eps_z, n, m)
    h_x = binary_entropy(_clamp_half(stats.q_x + 2.0 * xi_x))
    h_ab = max(binary_entropy(_clamp_half(q + 2.0 * xi_z)) for q in stats.q_ab)

    eps_pe = epsilon_pe_nbb84(budget, n_parties)
    eps_tot = epsilon_total_nbb84(budget, n_parties)
    eps_rob = eps_sum([(2.0 * (n_parties - 1), eps_pe)])

    min_entropy_term = n * (1.0 - h_x)
    leakage_term = -n * h_ab
    ec_log_term = -(1.0 + math.log2(n_parties - 1) + budget.eps_ec.neg_log2)
    preshared = config.total_rounds * binary_entropy(config.second_type_prob)

    if eps_rob.neg_log2 <= 0.0:  # abort probability bound reaches 1
        terms = KeyLengthTerms(
            min_entropy_term, leakage_term, ec_log_term, -math.inf, 0.0, preshared
        )
        return _vacuous_result(terms, eps_tot)

    pa_term = _pa_term(eps_rob, budget.eps_pa)
    raw = min_entropy_term + leakage_term + ec_log_term + pa_term
    net = raw - preshared
    terms = KeyLengthTerms(
        min_entropy_term, leakage_term, ec_log_term, pa_term, 0.0, preshared
    )
    return KeyLengthResult(
        raw_length=raw,
        net_length=net,
        rate=max(net, 0.0) / config.total_rounds,
        terms=terms,
        eps_tot=eps_tot,
        eps_tot_vacuous=eps_tot.vacuous,
    )


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
    if config.kind is not Protocol.N_SIX_STATE:
        raise ValueError(f"config is for {config.kind}, not N-six-state")
    budget.require_six_state()
    n_parties = config.parties
    if len(stats.q_ab) != n_parties - 1:
        raise ValueError("need one Q_AB entry per Bob")
    total = config.total_rounds
    m, n, m_prime = derive_counts(config)

    gamma = gamma_pe_infimum(stats, budget, (m, m_prime))
    eps_pe = epsilon_pe_nsixstate(budget, n_parties)
    eps_tot = epsilon_total_nsixstate(budget, n_parties, total)
    eps_rob = eps_sum([(2.0 * (n_parties - 1), eps_pe)])

    ec_log_term = -(1.0 + math.log2(n_parties - 1) + budget.eps_ec.neg_log2)
    ps_penalty = -2.0 * postselection_exponent(n_parties) * math.log2(total + 1)
    preshared = total * binary_entropy(config.second_type_prob)

    if not gamma.feasible or eps_rob.neg_log2 <= 0.0:
        terms = KeyLengthTerms(
            math.nan, math.nan, ec_log_term, math.nan, ps_penalty, preshared
        )
        return _vacuous_result(terms, eps_tot)

    # eps_rob < 1 forces eps_PE < 1/2, so log2(1/(2 eps_PE)) > 0 here
    aep_min = 5.0 * math.sqrt(budget.eps_bar.neg_log2 / n)
    aep_leak = math.log2(5.0) * math.sqrt(2.0 * (eps_pe.neg_log2 - 1.0) / n)

    min_entropy_term = n * (gamma.entropy_part - aep_min)
    leakage_term = -n * (gamma.h_ab_part + aep_leak)
    pa_term = _pa_term(eps_rob, budget.eps_pa)

    raw = min_entropy_term + leakage_term + ec_log_term + pa_term + ps_penalty
    net = raw - preshared
    terms = KeyLengthTerms(
        min_entropy_term, leakage_term, ec_log_term, pa_term, ps_penalty, preshared
    )
    return KeyLengthResult(
        raw_length=raw,
        net_length=net,
        rate=max(net, 0.0) / total,
        terms=terms,
        eps_tot=eps_tot,
        eps_tot_vacuous=eps_tot.vacuous,
        witness=gamma.witness,
    )
