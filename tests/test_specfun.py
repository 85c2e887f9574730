"""Tests for the log-scale special functions."""

import math

import numpy as np
import pytest

from cvqkd.specfun import (
    LOG_ZERO,
    log_binomial,
    log_reg_upper_gamma_int,
    log_sum,
    reg_upper_gamma,
)

# 50-digit mpmath references of log C(n, k).
LOG_BINOM_REFS = {
    (1_000_000, 17): 201.3584700345077647204,
    (1_000_000, 1000): 7902.882712976144096889,
    (1_000_000, 500_000): 693140.0470130636825527,
    (100_000, 50_000): 69308.73579940940110012,
}
# mpmath gammainc(s, x, inf, regularized=True) at large s.
REG_GAMMA_REFS = {
    (100_000.0, 99_500.0): 0.94325817678720774,
    (100_000.0, 100_500.0): 0.057103269976028711,
    (12_345.6, 12_000.0): 0.99914630822688398,
    (50_000.0, 50_500.0): 0.01286884037723367,
}


class TestLogAdd:
    """Addition on the log scale, through log_sum."""

    def test_log_sum(self):
        vals = [math.log(v) for v in (1.0, 2.0, 3.5, 0.25)]
        assert log_sum(vals) == pytest.approx(math.log(6.75), rel=1e-15)
        assert log_sum([]) == LOG_ZERO
        assert log_sum([LOG_ZERO, LOG_ZERO]) == LOG_ZERO
        # huge shifts stay finite
        assert log_sum([1000.0, -1000.0]) == pytest.approx(1000.0)


class TestLogBinomial:
    def test_trivial_values(self):
        assert log_binomial(3, 2) == pytest.approx(math.log(3), rel=1e-14)
        for n in (0, 1, 7, 1000):
            assert log_binomial(n, 0) == pytest.approx(0.0, abs=1e-12)
        assert log_binomial(10, 5) == pytest.approx(math.log(252), rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_binomial(3, 4)
        with pytest.raises(ValueError):
            log_binomial(3, -1)
        with pytest.raises(ValueError):
            log_binomial(3.5, 1)

    def test_matches_exact_integers_small(self):
        for n in (1, 2, 5, 17, 64, 150, 300):
            for k in range(0, n + 1, max(1, n // 7)):
                assert log_binomial(n, k) == pytest.approx(math.log(math.comb(n, k)), abs=1e-11)

    def test_matches_reference_large(self):
        # |delta log| is the relative error of the linear-scale value
        for (n, k), ref in LOG_BINOM_REFS.items():
            assert abs(log_binomial(n, k) - ref) <= 1e-10

    def test_symmetry(self):
        assert log_binomial(1001, 137) == log_binomial(1001, 1001 - 137)


class TestRegUpperGamma:
    def test_trivial_values(self):
        for x in (0.0, 0.5, 3.0, 40.0):
            assert reg_upper_gamma(1.0, x) == pytest.approx(math.exp(-x), rel=1e-13)
        for s in (0.5, 1.0, 7.0, 300.0):
            assert reg_upper_gamma(s, 0.0) == 1.0

    def test_integer_poisson_identity(self):
        # Q(2, 1) = 2 e^{-1}
        assert reg_upper_gamma(2.0, 1.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-13)
        # independent log-space survival sum on a grid
        for s in (1, 2, 3, 10, 47, 200):
            for x in (0.0, 0.3, 1.0, 5.0, 50.0, 400.0):
                direct = reg_upper_gamma(float(s), x)
                log_form = math.exp(log_reg_upper_gamma_int(s, x))
                assert direct == pytest.approx(log_form, rel=1e-10, abs=1e-300)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_upper_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            reg_upper_gamma(-2.0, 1.0)
        with pytest.raises(ValueError):
            reg_upper_gamma(1.0, -0.1)

    def test_monotone_in_s_and_x(self):
        s_grid = np.array([0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0])
        x_grid = np.linspace(0.0, 200.0, 81)
        table = reg_upper_gamma(s_grid[:, None], x_grid[None, :])
        assert np.all(np.diff(table, axis=1) <= 1e-14)   # nonincreasing in x
        assert np.all(np.diff(table, axis=0) >= -1e-14)  # nondecreasing in s

    def test_median_lower_bound(self):
        # Q(x+1, x) >= 1/2 for all x >= 0
        x = np.linspace(0.0, 1e4, 20_001)
        assert np.all(reg_upper_gamma(x + 1.0, x) >= 0.5)

    def test_large_s_references(self):
        for (s, x), ref in REG_GAMMA_REFS.items():
            assert reg_upper_gamma(s, x) == pytest.approx(ref, rel=1e-11)

    def test_log_form_deep_tail(self):
        # survival sum stays meaningful far below linear underflow
        log_q = log_reg_upper_gamma_int(250, 4000.0)
        assert log_q < -700.0
        assert math.isfinite(log_q)
