"""Asymptotic (infinite-rounds) key rates and noise-threshold root finding.

In the limit of infinitely many rounds every finite-statistics and
epsilon-security correction vanishes, leaving closed forms:

* N-BB84: ``1 - h(p_x) - h(p_ab)``, independent of the number of parties
  (the function below deliberately takes no N);
* N-six-state: the single-round entropy expression evaluated directly at the
  channel probabilities, with no parameter-estimation slack.

Rates are signed: negative values past the noise threshold are meaningful
for root finding.  Display layers clamp at zero.
"""

from __future__ import annotations

from typing import Callable

from .finite_key import six_state_entropy_expression
from .noise import MarginalProbabilities
from .numerics import binary_entropy

__all__ = [
    "rate_bb84_asymptotic",
    "rate_sixstate_asymptotic",
    "find_rate_root",
]


def rate_bb84_asymptotic(p_ab: float, p_x: float) -> float:
    """Asymptotic N-BB84 rate 1 - h(p_x) - h(p_ab).

    Takes the Z-disagreement and X-parity error probabilities separately so
    that noise models with p_x != p_ab are supported; with symmetric noise
    (p_x = p_ab) this reduces to 1 - 2 h(p_ab).
    """
    if not 0.0 <= p_ab <= 0.5 or not 0.0 <= p_x <= 0.5:
        raise ValueError("probabilities must be in [0, 1/2]")
    return 1.0 - binary_entropy(p_x) - binary_entropy(p_ab)


def rate_sixstate_asymptotic(probs: MarginalProbabilities) -> float:
    """Asymptotic N-six-state rate at the given channel probabilities.

    Evaluates the single-round entropy expression with no slack on p_ab.
    Infeasible probability triples (outside the expression's domain) return
    NaN, which marks the rate as undefined; display layers report 0.
    """
    return six_state_entropy_expression(probs.p_ab, probs.p_x, probs.p_z)


def find_rate_root(
    rate_curve: Callable[[float], float], lo: float, hi: float, tol: float = 1e-6
) -> float:
    """Bisection root of a rate curve on [lo, hi], to absolute tolerance.

    Requires a sign change: rate(lo) > 0 > rate(hi).  Stops early once the
    midpoint rounds to an end of the bracket, so a ``tol`` below the float
    spacing there returns an end of a bracket of adjacent floats.
    """
    f_lo = rate_curve(lo)
    f_hi = rate_curve(hi)
    if not (f_lo > 0.0 > f_hi):
        raise ValueError(
            f"no sign change on [{lo}, {hi}]: rate(lo)={f_lo}, rate(hi)={f_hi}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if rate_curve(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
