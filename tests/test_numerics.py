"""Scalar building blocks against high-precision references and invariants."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpqkd.numerics import (
    LogEps,
    binary_entropy,
    eps_sqrt,
    eps_sum,
    eta_correction,
    log2_one_minus,
    xi_correction,
    xlog2x,
)

LN2 = math.log(2.0)


class TestBinaryEntropy:
    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_zero_convention(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_reference_value(self):
        # frozen from a 60-digit evaluation of -p log2 p - (1-p) log2(1-p)
        assert binary_entropy(0.11) == pytest.approx(0.4999159581645280, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetry(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)

    @given(
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    )
    def test_concavity(self, a, b):
        mid = binary_entropy((a + b) / 2.0)
        assert mid >= (binary_entropy(a) + binary_entropy(b)) / 2.0 - 1e-12


class TestXlog2x:
    def test_limit_and_unit(self):
        assert xlog2x(0.0) == 0.0
        assert xlog2x(1.0) == 0.0

    def test_quarter(self):
        assert xlog2x(0.25) == pytest.approx(-0.5, rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            xlog2x(-1e-9)


class TestLogEps:
    def test_from_eps_validation(self):
        with pytest.raises(ValueError):
            LogEps.from_eps(0.0)
        with pytest.raises(ValueError):
            LogEps.from_eps(1.5)

    def test_vacuous_flag(self):
        assert not LogEps(0.0).vacuous
        assert LogEps(-1.0).vacuous

    @given(st.floats(min_value=0.0, max_value=900.0))
    def test_round_trip(self, neg):
        eps = 2.0 ** (-neg)
        le = LogEps.from_eps(eps)
        assert le.eps == pytest.approx(eps, rel=1e-12)


class TestXiCorrection:
    def test_symmetric_unit_case(self):
        # eps = e^-1 makes ln(1/eps) = 1; (6*4)/(8*3*9) = 1/9
        eps = LogEps(1.0 / LN2)
        assert xi_correction(eps, 3, 3) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_eps_one_vanishes(self):
        assert xi_correction(LogEps(0.0), 1000, 50) == 0.0

    def test_reference_value(self):
        # frozen from a 60-digit evaluation at eps = 1e-9, n = m = 1e5
        xi = xi_correction(LogEps.from_eps(1e-9), 10**5, 10**5)
        assert xi == pytest.approx(0.007197824857136491, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            xi_correction(LogEps(10.0), 0, 5)
        with pytest.raises(ValueError):
            xi_correction(LogEps(10.0), 5, 0)

    def test_monotonicities(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(10, 10**6))
            m = int(rng.integers(10, 10**6))
            neg = float(rng.uniform(1.0, 500.0))
            base = xi_correction(LogEps(neg), n, m)
            assert xi_correction(LogEps(neg), n + max(1, n // 5), m) < base
            assert xi_correction(LogEps(neg), n, m + max(1, m // 5)) < base
            assert xi_correction(LogEps(neg + 1.0), n, m) > base


class TestEtaCorrection:
    def test_zero_numerator(self):
        assert eta_correction(LogEps(0.0), 0, 100) == 0.0

    def test_reference_value(self):
        eta = eta_correction(LogEps.from_eps(1e-9), 2, 10**5)
        assert eta == pytest.approx(0.007395026771992349, rel=1e-12)

    def test_monotonicities(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = int(rng.integers(10, 10**6))
            neg = float(rng.uniform(1.0, 500.0))
            base = eta_correction(LogEps(neg), 2, m)
            assert eta_correction(LogEps(neg), 2, 2 * m) < base
            assert eta_correction(LogEps(neg + 1.0), 2, m) > base

    def test_domain(self):
        with pytest.raises(ValueError):
            eta_correction(LogEps(10.0), 2, 0)
        with pytest.raises(ValueError):
            eta_correction(LogEps(-5.0), 0, 4)  # eps > 1, negative radicand


class TestEpsSum:
    def test_doubling(self):
        le = LogEps(123.456)
        total = eps_sum([(1.0, le), (1.0, le)])
        assert total.neg_log2 == pytest.approx(122.456, abs=1e-12)

    def test_identity(self):
        le = LogEps(77.0)
        assert eps_sum([(1.0, le)]).neg_log2 == pytest.approx(77.0, abs=1e-12)

    def test_deep_underflow_case(self):
        # 3*2^-1000 + 2^-1002 = 3.25 * 2^-1000; frozen 60-digit reference
        total = eps_sum([(3.0, LogEps(1000.0)), (1.0, LogEps(1002.0))])
        assert total.neg_log2 == pytest.approx(998.2995602818589, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            eps_sum([])
        with pytest.raises(ValueError):
            eps_sum([(0.0, LogEps(10.0))])

    def test_bounds_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            coeffs = rng.uniform(0.5, 4.0, k)
            negs = rng.uniform(1.0, 2000.0, k)
            total = eps_sum([(c, LogEps(g)) for c, g in zip(coeffs, negs)])
            weighted = [g - math.log2(c) for c, g in zip(coeffs, negs)]
            largest = min(weighted)  # largest term has smallest neg_log2
            assert total.neg_log2 <= largest + 1e-9
            assert total.neg_log2 >= largest - math.log2(k) - 1e-9

    def test_agrees_with_direct_doubles(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            coeffs = rng.uniform(0.5, 4.0, k)
            negs = rng.uniform(1.0, 800.0, k)
            total = eps_sum([(c, LogEps(g)) for c, g in zip(coeffs, negs)])
            direct = sum(c * 2.0 ** (-g) for c, g in zip(coeffs, negs))
            assert total.eps == pytest.approx(direct, rel=1e-10)


class TestEpsSqrt:
    def test_exponent_halves(self):
        assert eps_sqrt(LogEps(40.0)).neg_log2 == 20.0

    def test_fixed_point(self):
        assert eps_sqrt(LogEps(0.0)).neg_log2 == 0.0

    def test_decimal_halving(self):
        before = LogEps.from_eps(1e-18)
        after = eps_sqrt(before)
        assert after.eps == pytest.approx(1e-9, rel=1e-12)


class TestLog2OneMinus:
    def test_zero(self):
        assert log2_one_minus(LogEps(math.inf)) == 0.0

    def test_half(self):
        assert log2_one_minus(LogEps(1.0)) == pytest.approx(-1.0, rel=1e-15)

    def test_tiny_eps_first_order(self):
        val = log2_one_minus(LogEps(100.0))
        assert val == pytest.approx(-(2.0**-100) / LN2, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            log2_one_minus(LogEps(0.0))

    def test_branch_continuity(self):
        lo = log2_one_minus(LogEps(52.9))
        hi = log2_one_minus(LogEps(53.1))
        assert lo == pytest.approx(-(2.0**-52.9) / LN2, rel=1e-9)
        assert hi == pytest.approx(-(2.0**-53.1) / LN2, rel=1e-9)
