"""Asymptotic rates: anchors, thresholds and ordering properties."""

import inspect
import math

import numpy as np
import pytest

from mpqkd.asymptotic import find_rate_root, rate_bb84_asymptotic, rate_sixstate_asymptotic
from mpqkd.noise import NoiseModel, NoiseScenario, marginal_probabilities


def sixstate_rate_global(p_ab: float, parties: int) -> float:
    probs = marginal_probabilities(
        NoiseScenario(NoiseModel.GLOBAL_DEPOLARIZING, 2.0 * p_ab, parties)
    )
    return rate_sixstate_asymptotic(probs)


def test_noiseless_anchor():
    assert rate_bb84_asymptotic(0.0, 0.0) == 1.0
    assert sixstate_rate_global(0.0, 2) == pytest.approx(1.0)


def test_max_noise():
    assert rate_bb84_asymptotic(0.5, 0.5) == pytest.approx(-1.0)


def test_bb84_takes_no_party_count():
    params = inspect.signature(rate_bb84_asymptotic).parameters
    assert list(params) == ["p_ab", "p_x"]


def test_bb84_symmetric_reduction():
    for p in np.linspace(0.0, 0.4, 9):
        r = rate_bb84_asymptotic(float(p), float(p))
        h = 0.0 if p in (0.0,) else -p * math.log2(p) - (1 - p) * math.log2(1 - p)
        assert r == pytest.approx(1.0 - 2.0 * h, abs=1e-12)


def test_root_toy_curve():
    assert find_rate_root(lambda p: 1.0 - 4.0 * p, 0.0, 0.5) == pytest.approx(0.25, abs=1e-6)


def test_root_bb84():
    root = find_rate_root(lambda p: rate_bb84_asymptotic(p, p), 0.05, 0.3)
    assert root == pytest.approx(0.1100, abs=5e-4)


def test_root_sixstate_bipartite():
    root = find_rate_root(lambda p: sixstate_rate_global(p, 2), 0.05, 0.3)
    assert root == pytest.approx(0.126, abs=1e-3)


@pytest.mark.parametrize("tol", [0.0, 1e-20])
def test_root_stops_below_the_float_spacing(tol):
    # no bracket is narrower than adjacent doubles, so hi - lo never falls to tol
    calls = 0

    def curve(p):
        nonlocal calls
        calls += 1
        if calls > 10_000:
            raise AssertionError("the bisection did not stop")
        return 0.11 - p

    root = find_rate_root(curve, 0.05, 0.3, tol=tol)
    assert curve(math.nextafter(root, 0.0)) > 0.0 >= curve(math.nextafter(root, 1.0))


def test_root_requires_sign_change():
    with pytest.raises(ValueError):
        find_rate_root(lambda p: 1.0, 0.0, 0.5)


def test_global_ordering_sixstate_dominates():
    for parties in (2, 5, 8):
        for p_ab in np.arange(0.01, 0.105, 0.01):
            r6 = sixstate_rate_global(float(p_ab), parties)
            rb = rate_bb84_asymptotic(float(p_ab), float(p_ab))
            assert r6 >= rb - 1e-12


def test_global_sixstate_nondecreasing_in_parties():
    for p_ab in (0.01, 0.05, 0.1):
        prev = sixstate_rate_global(p_ab, 2)
        for parties in range(3, 9):
            cur = sixstate_rate_global(p_ab, parties)
            assert cur >= prev - 1e-12
            prev = cur


def test_local_both_rates_decrease_with_parties():
    p_ab = 0.02
    for parties_lo, parties_hi in ((2, 10),):
        lo = marginal_probabilities(
            NoiseScenario(NoiseModel.LOCAL_DEPOLARIZING, 2.0 * p_ab, parties_lo)
        )
        hi = marginal_probabilities(
            NoiseScenario(NoiseModel.LOCAL_DEPOLARIZING, 2.0 * p_ab, parties_hi)
        )
        assert rate_bb84_asymptotic(hi.p_ab, hi.p_x) < rate_bb84_asymptotic(lo.p_ab, lo.p_x)
        assert rate_sixstate_asymptotic(hi) < rate_sixstate_asymptotic(lo)


def test_negative_rates_not_clamped():
    assert rate_bb84_asymptotic(0.2, 0.2) < 0.0
    assert sixstate_rate_global(0.25, 2) < 0.0
