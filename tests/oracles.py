"""Independent arbitrary-precision references used by the test suite.

Everything here is written directly against the closed-form key-length
expressions using mpmath, forming raw epsilons as exact powers of two (the
mpf exponent range is unbounded for practical purposes, so no log-domain
tricks are needed).  The worst-case point of the six-state confidence box is
the (P_X max, P_Z min) corner: the bracket is strictly decreasing in P_X (for
P_X <= 1/2) and non-decreasing in P_Z.  The library takes the same corner, so
these references are independent of it by precision only; the dense
brute-force grid in ``test_finite_key.py`` searches the whole box and is the
independent check of the corner argument itself.
"""

import math

import mpmath as mp

DPS = 60


def mp_h(p):
    p = mp.mpf(p)
    if p == 0 or p == 1:
        return mp.mpf(0)
    return -p * mp.log(p, 2) - (1 - p) * mp.log(1 - p, 2)


def mp_xlog2x(x):
    x = mp.mpf(x)
    if x == 0:
        return mp.mpf(0)
    return x * mp.log(x, 2)


def mp_eps(neg_log2):
    return mp.mpf(2) ** (-mp.mpf(neg_log2))


def mp_xi(neg_log2, n, m):
    ln_inv = mp.mpf(neg_log2) * mp.log(2)
    return mp.sqrt(mp.mpf((n + m) * (m + 1)) / (8 * n * m * m) * ln_inv)


def mp_eta(neg_log2, d, m):
    ln_inv = mp.mpf(neg_log2) * mp.log(2)
    return mp.sqrt((ln_inv + d * mp.log(m + 1)) / (8 * m))


def mp_eps_sum_neg(terms):
    """neg_log2 of sum_i c_i * 2^(-neg_i), via direct mpf arithmetic."""
    with mp.workdps(DPS):
        total = mp.mpf(0)
        for coeff, neg in terms:
            total += mp.mpf(coeff) * mp_eps(neg)
        return -mp.log(total, 2)


def _clamp_half(x):
    return min(max(x, mp.mpf(0)), mp.mpf("0.5"))


def mp_key_length_nbb84(parties, total_rounds, p, q_ab, q_x, neg_z, neg_x, neg_ec, neg_pa):
    """Direct evaluation of the N-BB84 key length at full precision."""
    with mp.workdps(DPS):
        m = math.floor(total_rounds * p)
        n = total_rounds - 2 * m
        xi_x = mp_xi(neg_x, n, m)
        xi_z = mp_xi(neg_z, n, m)
        h_x = mp_h(_clamp_half(mp.mpf(q_x) + 2 * xi_x))
        h_ab = max(mp_h(_clamp_half(mp.mpf(q) + 2 * xi_z)) for q in q_ab)
        eps_pe = mp.sqrt((parties - 1) * mp_eps(neg_z) + mp_eps(neg_x))
        eps_ec = mp_eps(neg_ec)
        eps_pa = mp_eps(neg_pa)
        length = n * (1 - h_x - h_ab)
        length -= mp.log(2 * (parties - 1) / eps_ec, 2)
        length -= 2 * mp.log((1 - 2 * (parties - 1) * eps_pe) / (2 * eps_pa), 2)
        return length


def mp_sixstate_bracket(p_ab_worst, p_x, p_z):
    """The entropy bracket at one probability triple (no AEP corrections)."""
    with mp.workdps(DPS):
        p_x, p_z = mp.mpf(p_x), mp.mpf(p_z)
        a1 = 1 - p_z / 2 - p_x
        a2 = p_x - p_z / 2
        w = 1 - p_z
        if a1 < 0 or a2 < 0 or w < 0:
            return None
        return mp_xlog2x(a1) + mp_xlog2x(a2) + w - mp_xlog2x(w) - mp_h(p_ab_worst)


def mp_key_length_nsixstate(
    parties,
    total_rounds,
    p,
    q_ab,
    q_x,
    q_z,
    neg_bar,
    neg_z,
    neg_x,
    neg_zp,
    neg_ec,
    neg_pa,
):
    """Direct N-six-state key length with the corner-point infimum.

    Returns None when the confidence box is empty or entirely infeasible.
    """
    with mp.workdps(DPS):
        m = math.floor(total_rounds * p)
        n = total_rounds - 2 * m
        m_prime = m // 2
        eta_z = mp_eta(neg_z, 2, m)
        eta_x = mp_eta(neg_x, 2, m_prime)
        eta_zp = mp_eta(neg_zp, 2, m)

        ab_hi = [min(mp.mpf(q) + 2 * eta_z, mp.mpf("0.5")) for q in q_ab]
        if any(mp.mpf(q) - 2 * eta_z > hi for q, hi in zip(q_ab, ab_hi)):
            return None
        p_ab_worst = max(ab_hi)
        px_hi = min(mp.mpf(q_x) + 2 * eta_x, mp.mpf("0.5"))
        pz_lo = max(mp.mpf(q_z) - 2 * eta_zp, mp.mpf(0))
        if mp.mpf(q_x) - 2 * eta_x > px_hi or pz_lo > min(mp.mpf(q_z) + 2 * eta_zp, mp.mpf(1)):
            return None
        bracket = mp_sixstate_bracket(p_ab_worst, px_hi, pz_lo)
        if bracket is None:
            return None

        eps_pe = mp_eps(neg_zp) + (parties - 1) * mp_eps(neg_z) + mp_eps(neg_x)
        eps_ec = mp_eps(neg_ec)
        eps_pa = mp_eps(neg_pa)
        aep_min = 5 * mp.sqrt(mp.mpf(neg_bar) / n)
        aep_leak = mp.log(5, 2) * mp.sqrt(2 * mp.log(1 / (2 * eps_pe), 2) / n)

        length = n * (bracket - aep_min - aep_leak)
        length -= mp.log(2 * (parties - 1) / eps_ec, 2)
        length -= 2 * mp.log((1 - 2 * (parties - 1) * eps_pe) / (2 * eps_pa), 2)
        length -= 2 * (2 ** (2 * parties) - 1) * mp.log(total_rounds + 1, 2)
        return length


def rel_close(value, reference, tol=1e-9):
    """Relative agreement with a unit floor for near-zero references."""
    return abs(float(value) - float(reference)) <= tol * max(1.0, abs(float(reference)))
