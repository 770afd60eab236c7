"""Scalar building blocks: entropies, tail-bound corrections, log-domain epsilons.

Security parameters in the six-state analysis get multiplied by postselection
factors like (L+1)^(2^(2N)-1), which drives the per-component epsilons far
below the smallest positive double (2^-1074).  Every epsilon is therefore
carried as ``neg_log2 = log2(1/eps)`` and never materialized unless it is
safely representable.  All correction terms that need ln(1/eps) read the
exponent directly.

Each formula has one implementation on plain ``neg_log2`` floats (the
private ``_log_sum``, ``_xi``, ``_eta`` and ``_log2_one_minus``), which the
rate optimizer's objective calls point by point; the public ``LogEps``
functions validate their arguments and delegate to it.

The optimizer's Newton steps also need a little dense linear algebra on
matrices of at most 5 x 5: products and a symmetric eigensolver on plain
lists (``_times``, ``_eigh``), since numpy.linalg would map LAPACK's working
memory into every optimizing process.

All functions here are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Tuple

_LN2 = math.log(2.0)

__all__ = [
    "LogEps",
    "binary_entropy",
    "xlog2x",
    "xi_correction",
    "eta_correction",
    "eps_sum",
    "eps_sqrt",
    "log2_one_minus",
]


@dataclass(frozen=True)
class LogEps:
    """A security parameter stored as ``neg_log2 = log2(1/eps)``.

    ``neg_log2 >= 0`` corresponds to a genuine probability bound eps <= 1.
    Compositions (union bounds, postselection blow-ups) can push the stored
    value below zero; such a value means eps > 1, i.e. the security statement
    it would certify is vacuous.  ``vacuous`` exposes that condition; the
    constructor only rejects NaN so that composition results remain
    representable and reportable.
    """

    neg_log2: float

    def __post_init__(self) -> None:
        if math.isnan(self.neg_log2):
            raise ValueError("neg_log2 must not be NaN")

    @classmethod
    def from_eps(cls, eps: float) -> "LogEps":
        """Build from a raw epsilon in (0, 1]."""
        if not 0.0 < eps <= 1.0:
            raise ValueError(f"eps must be in (0, 1], got {eps}")
        return cls(-math.log2(eps))

    @property
    def eps(self) -> float:
        """The raw epsilon; underflows to 0.0 below about 2^-1074."""
        return 2.0 ** (-self.neg_log2)

    @property
    def ln_inv(self) -> float:
        """ln(1/eps), computed without forming eps."""
        return self.neg_log2 * _LN2

    @property
    def vacuous(self) -> bool:
        """True when the stored value corresponds to eps > 1."""
        return self.neg_log2 < 0.0


def binary_entropy(p: float) -> float:
    """Binary entropy h(p) = -p log2 p - (1-p) log2(1-p), with 0 log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def xlog2x(x: float) -> float:
    """x * log2(x), extended by continuity with 0 at x = 0."""
    if x < 0.0:
        raise ValueError(f"x must be non-negative, got {x}")
    if x == 0.0:
        return 0.0
    return x * math.log2(x)


def xi_correction(eps: LogEps, n: int, m: int) -> float:
    """Sampling-without-replacement deviation radius for a split of n+m bits.

    xi = sqrt( (n+m)(m+1) / (8 n m^2) * ln(1/eps) )

    The observed frequency on the m-sample and the unobserved frequency on
    the n-remainder differ by more than 2*xi with probability at most eps.
    """
    if n < 1 or m < 1:
        raise ValueError(f"n and m must be >= 1, got n={n}, m={m}")
    return _xi(eps.neg_log2, n, m)


def _xi(neg_log2: float, n: int, m: int) -> float:
    coeff = (n + m) * (m + 1) / (8.0 * n * m * m)
    return math.sqrt(coeff * (neg_log2 * _LN2))


def eta_correction(eps: LogEps, d: int, m: int) -> float:
    """Law-of-large-numbers deviation radius for an m-sample frequency.

    eta = sqrt( (ln(1/eps) + d ln(m+1)) / (8m) )

    ``d`` counts the outcome alphabet's degrees of freedom (2 for the binary
    frequencies estimated here).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    return _eta(eps.neg_log2, d, m, math.log(m + 1))


def _eta(neg_log2: float, d: int, m: int, log_m1: float) -> float:
    """``eta_correction`` on an exponent, given ln(m+1) (the cores take it per p)."""
    radicand = (neg_log2 * _LN2 + d * log_m1) / (8.0 * m)
    if radicand < 0.0:
        raise ValueError("negative radicand: eps exceeds (m+1)^d")
    return math.sqrt(radicand)


def eps_sum(terms: Iterable[Tuple[float, LogEps]]) -> LogEps:
    """Weighted sum of epsilons, sum_i c_i * eps_i, done in the log domain.

    Never underflows, even when every input is far below 2^-1074 (see
    ``_log_sum``).
    """
    items = [(coeff, le.neg_log2) for coeff, le in terms]
    if not items:
        raise ValueError("eps_sum needs at least one term")
    for coeff, _ in items:
        if coeff <= 0.0:
            raise ValueError(f"coefficients must be positive, got {coeff}")
    # neg_log2 of each weighted term c * eps
    return LogEps(_log_sum(*[neg - math.log2(coeff) for coeff, neg in items]))


def _log_sum(*negs: float) -> float:
    """neg_log2 of the sum of the epsilons whose exponents are ``negs``.

    Pivots the log-sum-exp on the largest epsilon, so the result never
    underflows even when every input is far below 2^-1074.  A coefficient c
    enters as an exponent shifted by log2(c): ``neg - 1.0`` for c = 2, and
    ``neg`` itself for c = 1, since ``neg - 0.0 == neg``.
    """
    pivot = min(negs)  # largest epsilon
    acc = 0.0
    for neg in negs:
        acc += 2.0 ** (pivot - neg)
    total = pivot - math.log2(acc)
    if math.isnan(total):  # infinite exponents on both sides of a term
        raise ValueError("neg_log2 must not be NaN")
    return total


def eps_sqrt(eps: LogEps) -> LogEps:
    """Square root of an epsilon: the exponent halves."""
    return LogEps(eps.neg_log2 / 2.0)


def log2_one_minus(eps: LogEps) -> float:
    """log2(1 - eps) for eps < 1, accurate down to arbitrarily small eps.

    Below 2^-53 the first-order expansion -eps/ln2 is already exact to double
    precision (and evaluates to -0.0 once eps underflows, which is the
    correctly rounded answer).
    """
    return _log2_one_minus(eps.neg_log2)


def _log2_one_minus(neg_log2: float) -> float:
    if neg_log2 <= 0.0:
        raise ValueError("log2(1-eps) requires eps < 1")
    if neg_log2 > 53.0:
        return -(2.0 ** (-neg_log2)) / _LN2
    return math.log1p(-(2.0 ** (-neg_log2))) / _LN2


def _dot(a, b) -> float:
    return sum(x * y for x, y in zip(a, b))


def _times(a, b) -> List[List[float]]:
    """The matrix product of a and b, both lists of rows."""
    return [[_dot(row, col) for col in zip(*b)] for row in a]


def _eigh(a: List[List[float]]) -> Tuple[List[float], List[List[float]]]:
    """Eigenvalues and orthonormal eigenvectors (as rows) of a small symmetric
    matrix, by cyclic Jacobi rotations."""
    n = len(a)
    a = [list(row) for row in a]
    vectors = [[float(i == j) for j in range(n)] for i in range(n)]
    for _ in range(50):
        off = sum(a[p][q] ** 2 for p in range(n) for q in range(p))
        if off <= 1e-30 * sum(a[i][i] ** 2 for i in range(n)):
            break
        for p in range(n):
            for q in range(p + 1, n):
                if a[p][q] == 0.0:
                    continue
                # the rotation in the (p, q) plane that zeroes a[p][q]
                apq = a[p][q]
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                a[p][p] -= t * apq
                a[q][q] += t * apq
                a[p][q] = a[q][p] = 0.0
                for r in range(n):
                    if r != p and r != q:
                        arp, arq = a[r][p], a[r][q]
                        a[r][p] = a[p][r] = c * arp - s * arq
                        a[r][q] = a[q][r] = s * arp + c * arq
                vectors[p], vectors[q] = (
                    [c * x - s * y for x, y in zip(vectors[p], vectors[q])],
                    [s * x + c * y for x, y in zip(vectors[p], vectors[q])],
                )
    return [a[i][i] for i in range(n)], vectors
