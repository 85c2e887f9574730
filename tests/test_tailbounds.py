"""Tests for the closed-form tail bounds."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import brentq
from scipy.stats import poisson

from cvqkd.fockspace import exact_max_tail
from cvqkd.symmetry import sample_unit_sphere
from cvqkd.tailbounds import (
    BETA_COEFF,
    GFactorInputs,
    InfeasibleParameters,
    SphereVariant,
    TailBound,
    beta_exponent,
    beta_root,
    chernoff_poisson_lower,
    f_tail,
    g_factor,
    lm_lower_tail,
    lm_upper_tail,
    max_photon_tail,
    photon_cutoff,
)

# mpmath 50-digit references.
G_REAL_REF = 1.0092604578678747       # g(0.01, 1e6, 1e6), real sphere
G_COMPLEX_REF = 1.0063159598485747    # same inputs, complex sphere
CHERNOFF_REF = 0.21561430397073495    # (e^{-1/2} / 0.5^{1/2})^10
BETA_20_REF = 0.21786261576110353
BETA_15_REF = -0.06722853614753077
BETA_ROOT_REF = 16.25030613807755
CUTOFF_REF = 769.30482418792072       # ln(2e16)/ln(1.05)


class TestGFactor:
    def test_degenerate_limit_is_one(self):
        # log(2/delta) -> 0 as delta -> 2
        g = g_factor(GFactorInputs(delta=2.0 - 1e-12, n=100, k=100))
        assert g == pytest.approx(1.0, abs=1e-5)

    def test_real_sphere_value(self):
        g = g_factor(GFactorInputs(delta=0.01, n=10**6, k=10**6))
        assert g == pytest.approx(G_REAL_REF, rel=1e-14)
        assert g == pytest.approx(1.00926, abs=1e-5)

    def test_complex_sphere_value(self):
        g = g_factor(GFactorInputs(delta=0.01, n=10**6, k=10**6, variant=SphereVariant.COMPLEX))
        assert g == pytest.approx(G_COMPLEX_REF, rel=1e-14)

    def test_infeasible_denominator(self):
        # 2 sqrt(log(40)/k) >= 1 for k <= 4 log 40 = 14.75
        with pytest.raises(InfeasibleParameters):
            g_factor(GFactorInputs(delta=0.05, n=1000, k=14))
        g_factor(GFactorInputs(delta=0.05, n=1000, k=15))  # just feasible

    def test_input_validation(self):
        with pytest.raises(ValueError):
            GFactorInputs(delta=0.0, n=10, k=10)
        with pytest.raises(ValueError):
            GFactorInputs(delta=2.0, n=10, k=10)
        with pytest.raises(ValueError):
            GFactorInputs(delta=0.1, n=0, k=10)
        with pytest.raises(ValueError):
            # complex numerator uses log(1/delta), undefined above 1
            GFactorInputs(delta=1.5, n=10, k=10, variant=SphereVariant.COMPLEX)

    def test_greater_than_one_for_small_delta(self):
        for delta in (0.5, 0.1, 0.01):
            assert g_factor(GFactorInputs(delta=delta, n=500, k=500)) > 1.0

    def test_sphere_sampling_soundness(self):
        # independent route: explicit uniform unit-sphere vectors, not the
        # chi-square sampler of the mean energies used by the Monte Carlo
        # harness
        n, k, delta, trials = 300, 150, 0.05, 20_000
        g = g_factor(GFactorInputs(delta=delta, n=n, k=k))
        rng = np.random.default_rng(20240601)
        x = sample_unit_sphere(n + k, rng, size=trials)
        x2 = x * x
        y_k = x2[:, :k].mean(axis=1)
        z_n = x2[:, k:].mean(axis=1)
        rate = np.count_nonzero(z_n >= g * y_k) / trials
        assert rate <= delta + 3.0 * math.sqrt(delta / trials)


class TestTailBound:
    @given(st.floats(-745, 200))
    def test_bound_in_unit_interval(self, exponent):
        tb = TailBound.from_exponent(exponent, "test")
        assert 0.0 <= tb.bound <= 1.0
        assert tb.exponent == exponent

    def test_exponent_consistency(self):
        tb = TailBound.from_exponent(-2.0, "test")
        assert tb.bound == math.exp(-2.0)
        clamped = TailBound.from_exponent(3.0, "test")
        assert clamped.bound == 1.0
        assert clamped.exponent == 3.0


class TestLaurentMassart:
    def test_vacuous_limit(self):
        assert lm_lower_tail(100, 1e-12).bound == pytest.approx(1.0, abs=1e-9)
        assert lm_upper_tail(100, 1e-12).bound == pytest.approx(1.0, abs=1e-9)

    def test_lower_tail_values(self):
        tb = lm_lower_tail(100, 2.0)
        assert tb.bound == pytest.approx(math.exp(-2.0), rel=1e-15)
        assert tb.threshold == pytest.approx(1.0 - 2.0 * math.sqrt(0.02), rel=1e-15)
        assert tb.threshold == pytest.approx(0.71716, abs=1e-5)

    def test_upper_tail_values(self):
        tb = lm_upper_tail(100, 3.0)
        assert tb.bound == pytest.approx(math.exp(-3.0), rel=1e-15)
        assert tb.threshold == pytest.approx(1.0 + 2.0 * math.sqrt(0.03) + 0.06, rel=1e-15)
        assert tb.threshold == pytest.approx(1.40641, abs=1e-5)

    def test_empirical_tails_respect_bounds(self):
        rng = np.random.default_rng(7)
        samples = 200_000
        lower = rng.chisquare(100, samples) / 100
        upper = rng.chisquare(100, samples) / 100
        for x in (0.5, 1.0, 2.0, 3.0):
            lo = lm_lower_tail(100, x)
            hi = lm_upper_tail(100, x)
            assert np.count_nonzero(lower <= lo.threshold) / samples <= lo.bound
            assert np.count_nonzero(upper >= hi.threshold) / samples <= hi.bound

    def test_validation(self):
        with pytest.raises(ValueError):
            lm_lower_tail(0, 1.0)
        with pytest.raises(ValueError):
            lm_upper_tail(10, 0.0)


class TestChernoffPoisson:
    def test_vacuous_limit(self):
        assert chernoff_poisson_lower(10.0, 1e-12).bound == pytest.approx(1.0, abs=1e-9)

    def test_reference_value(self):
        tb = chernoff_poisson_lower(10.0, 0.5)
        assert tb.bound == pytest.approx(CHERNOFF_REF, rel=1e-14)
        # direct evaluation of (e^{-0.5} / 0.5^{0.5})^{10}
        direct = (math.exp(-0.5) / 0.5**0.5) ** 10
        assert tb.bound == pytest.approx(direct, rel=1e-12)

    def test_dominates_exact_cdf(self):
        tb = chernoff_poisson_lower(10.0, 0.5)
        exact = poisson.cdf(5, 10.0)
        assert exact == pytest.approx(0.0671, abs=2e-4)
        assert exact <= tb.bound

    def test_validation(self):
        with pytest.raises(ValueError):
            chernoff_poisson_lower(0.0, 0.5)
        with pytest.raises(ValueError):
            chernoff_poisson_lower(10.0, 1.0)


class TestBetaExponent:
    def test_at_one(self):
        assert beta_exponent(1.0) == BETA_COEFF
        assert BETA_COEFF == pytest.approx(0.0857864, abs=1e-7)

    def test_reference_values(self):
        assert beta_exponent(20.0) == pytest.approx(BETA_20_REF, rel=1e-14)
        assert beta_exponent(15.0) == pytest.approx(BETA_15_REF, rel=1e-13)
        assert beta_exponent(15.0) < 0.0  # vacuous region

    def test_root_bisection(self):
        root = beta_root(tol=1e-6)
        assert root == pytest.approx(BETA_ROOT_REF, abs=1e-6)
        # sign flips across the bracket
        assert beta_exponent(root - 2e-6) < 0.0 < beta_exponent(root + 2e-6)
        # independent root finder agrees
        assert brentq(beta_exponent, 2.0, 100.0, xtol=1e-10) == pytest.approx(root, abs=2e-6)

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            beta_root(lo=20.0, hi=30.0)


class TestFTail:
    def test_gamma_form_at_tiny_threshold(self):
        ft = f_tail(100, 1e-300)
        assert ft.gamma_form.bound == pytest.approx(1.0, abs=1e-12)

    def test_reference_values(self):
        ft = f_tail(100, 20.0)
        assert ft.chernoff_form.bound == pytest.approx(3.4541947216491e-10, rel=1e-10)
        assert ft.gamma_form.bound == pytest.approx(2.1646921719104e-28, rel=1e-10)
        assert ft.beta == pytest.approx(BETA_20_REF, rel=1e-14)

    def test_gamma_below_chernoff_when_beta_positive(self):
        for n in range(2, 201, 14):
            for d0 in np.linspace(17.0, 100.0, 6):
                ft = f_tail(n, float(d0))
                assert ft.beta > 0.0
                assert ft.gamma_form.exponent <= ft.chernoff_form.exponent + 1e-9

    def test_odd_n_path(self):
        ft = f_tail(101, 20.0)
        even_lo = f_tail(100, 20.0).gamma_form.exponent
        even_hi = f_tail(102, 20.0).gamma_form.exponent
        assert even_hi <= ft.gamma_form.exponent <= even_lo or \
            even_lo <= ft.gamma_form.exponent <= even_hi

    def test_validation(self):
        with pytest.raises(ValueError):
            f_tail(0, 20.0)
        with pytest.raises(ValueError):
            f_tail(10, 0.0)


class TestMaxPhotonTail:
    def test_examples(self):
        assert max_photon_tail(2, 2, 2).bound == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert max_photon_tail(5, 3, 4).bound == 0.0
        assert max_photon_tail(5, 3, 4).exponent == float("-inf")
        # true value 1; the log-space ratio lands within an ulp of the clamp
        assert max_photon_tail(3, 1, 1).bound == pytest.approx(1.0, abs=1e-12)

    def test_matches_exact_rational_ratio(self):
        for n in range(1, 7):
            for p in range(0, 11):
                for m in range(0, p + 1):
                    expected = Fraction(n * math.comb(n + p - m - 1, p - m),
                                        math.comb(n + p - 1, p))
                    expected = min(expected, Fraction(1))
                    got = max_photon_tail(n, p, m).bound
                    assert got == pytest.approx(float(expected), rel=1e-12)

    def test_dominates_exact_probability(self):
        for n in range(1, 5):
            for p in range(0, 9):
                for m in range(0, p + 1):
                    assert exact_max_tail(n, p, m) <= max_photon_tail(n, p, m).bound + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            max_photon_tail(0, 2, 1)
        with pytest.raises(ValueError):
            max_photon_tail(2, -1, 0)


class TestPhotonCutoff:
    def test_vanishing_mean_photon_number(self):
        # m* = ln(2n/eps)/ln(1 + 1/d) decays to 0 (logarithmically) as d -> 0
        cuts = [photon_cutoff(1, d, 0.5) for d in (1e-3, 1e-6, 1e-9, 1e-12)]
        assert all(a > b for a, b in zip(cuts, cuts[1:]))
        assert cuts[-1] < 0.06

    def test_reference_value(self):
        cut = photon_cutoff(10**6, 20.0, 1e-10)
        assert cut == pytest.approx(CUTOFF_REF, rel=1e-14)
        assert cut == pytest.approx(769.5, abs=0.5)

    def test_small_instance_cross_check(self):
        cut = photon_cutoff(2, 1.0, 2.0 / 3.0)
        assert cut == pytest.approx(math.log(6.0) / math.log(2.0), rel=1e-14)
        m = math.ceil(cut)
        assert m == 3
        assert exact_max_tail(2, 2, m) == 0.0

    def test_cutoff_guarantee_on_enumerable_grid(self):
        for n in range(1, 6):
            for eps in (0.5, 1.0 / 3.0, 0.1, 0.01):
                for d in (0.3, 0.5, 1.0, 1.5, 2.0, 2.4, 4.0, 6.0):
                    p = int(n * d)
                    if p > 12:
                        continue
                    m = math.ceil(photon_cutoff(n, d, eps))
                    assert max_photon_tail(n, p, m).bound <= eps + 1e-12
                    assert exact_max_tail(n, p, m) <= eps + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            photon_cutoff(0, 1.0, 0.5)
        with pytest.raises(ValueError):
            photon_cutoff(10, 1.0, 1.5)
