"""Hand cases for the benchmark's oracles.

    python3 -m pytest bench/test_oracles.py

These tests import only the oracles, never the package under test.
"""

import itertools
import math
from fractions import Fraction

import pytest

import oracles


def _compositions(n, p):
    return [c for c in itertools.product(range(p + 1), repeat=n) if sum(c) == p]


def test_max_occupation_tail_hand_cases():
    # (2,0), (1,1), (0,2): two of three have a mode with both photons.
    assert oracles.max_occupation_tail(2, 2, 2) == Fraction(2, 3)
    # (2,0,0), (0,2,0), (0,0,2) of the six compositions of 2 into 3 modes.
    assert oracles.max_occupation_tail(3, 2, 2) == Fraction(1, 2)
    assert oracles.max_occupation_tail(2, 2, 3) == 0
    assert oracles.max_occupation_tail(4, 5, 0) == 1


@pytest.mark.parametrize("n,p", [(1, 4), (2, 5), (3, 6), (4, 4), (5, 3)])
def test_max_occupation_tail_matches_brute_force(n, p):
    comps = _compositions(n, p)
    for m in range(p + 2):
        hits = sum(max(c) >= m for c in comps)
        assert oracles.max_occupation_tail(n, p, m) == Fraction(hits, len(comps))
        first = sum(c[0] >= m for c in comps)
        assert oracles.first_mode_tail(n, p, m) == Fraction(first, len(comps))


def test_union_bound_hand_case_and_clamp():
    # 2 C(1, 0) / C(3, 2) = 2/3: the two single-mode events are disjoint here.
    assert oracles.max_photon_union_bound(2, 2, 2) == Fraction(2, 3)
    assert oracles.max_photon_union_bound(5, 4, 0) == 1
    assert oracles.max_photon_union_bound(2, 2, 3) == 0


def _golden(n, k, y, eps, detection):
    return oracles.derive_bounds({"n": n, "k": k, "lam": 1.0, "Y_test": y, "eps_test": 1e-12, "eps_A": 1e-12,
                                  "c": 1e-3, "delta": 1e-2, "detection": detection, "eps_projection": eps})


@pytest.mark.parametrize("n,k,y,eps,detection,d_0,d_b,beta,feasible", [
    (10**6, 10**5, 5.0, 1e-10, "heterodyne", 5.215636088532769, 217.93687243711548, None, True),
    (10**9, 10**7, 5.0, 4e-20, "heterodyne", 5.023886367601267, 367.8477563633155, None, True),
    (200, 10**4, 3.63, 0.05, "heterodyne", 5.2052624915143815, 55.087217813962866, None, True),
    (10**5, 10**5, 8.0, 1e-8, "homodyne", 16.982905725979855, 547.4135482267324, 0.04079933647260514, True),
    (10**5, 10**5, 5.0, 1e-8, "homodyne", 10.61431607873741, None, None, False),
])
def test_criterion_8_configurations_in_50_digits(n, k, y, eps, detection, d_0, d_b, beta, feasible):
    got = _golden(n, k, y, eps, detection)
    assert got["feasible"] is feasible
    assert oracles.relative_error(d_0, got["d_0"]) <= 1e-12
    if d_b is not None:
        assert oracles.relative_error(d_b, got["d_B"]) <= 1e-12
    if beta is not None:
        assert oracles.relative_error(beta, got["beta"]) <= 1e-12


def test_eps_total_regimes():
    secure = {"n": 10**10, "k": 10**7, "lam": 0.05, "Y_test": 5.0, "eps_test": 1e-10, "eps_A": 1e-10,
              "c": 1.0, "delta": 0.5, "detection": "heterodyne"}
    got = oracles.derive_bounds(secure)
    assert got["exponent"] < -300 and float(got["eps_total"]) == 2e-10
    clamped = dict(secure, c=1e-3, delta=1e-2)
    assert float(oracles.derive_bounds(clamped)["eps_total"]) == 1.0


def test_infeasible_heterodyne_when_k_is_small():
    p = {"n": 10**6, "k": 10, "lam": 1.0, "Y_test": 5.0, "eps_test": 1e-10, "eps_A": 1e-10, "c": 1e-3,
         "delta": 1e-2, "detection": "heterodyne"}
    got = oracles.derive_bounds(p)
    assert not got["feasible"] and got["g_denominator"] < 0 and got["d_0"] is None


def test_float_screen_agrees_with_high_precision_away_from_ties():
    p = {"n": 10**6, "k": 10**5, "lam": 1.0, "Y_test": 5.0, "eps_test": 1e-10, "eps_A": 1e-10, "c": 1e-3,
         "delta": 1e-2, "detection": "heterodyne"}
    fast = oracles.derive_bounds(p, oracles.FLOAT_MATH)
    exact = oracles.derive_bounds(p)
    assert oracles.relative_error(fast["d_B"], exact["d_B"]) <= 1e-13
    assert not oracles.near_tie(p)
    assert oracles.near_tie(dict(p, k=int(4 * math.log(2 / 1e-10)) + 1))


def test_beta_root():
    root = oracles.beta_root()
    c0 = (1 - 1 / math.sqrt(2)) ** 2
    assert 16.0 < root < 16.5
    assert abs(c0 * float(root) - math.log(float(root)) / 2) < 1e-12


def test_strict_json():
    assert oracles.strict_json('{"a": [1, 2.5, null]}') == {"a": [1, 2.5, None]}
    for text in ('{"a": -Infinity}', '{"a": Infinity}', '{"a": NaN}'):
        with pytest.raises(oracles.NonStrictJSON):
            oracles.strict_json(text)


def test_sampling_laws_hand_cases():
    # F(n, n) is symmetric about 1 in the sense Pr[F >= 1] = 1/2.
    assert abs(oracles.f_tail(1.0, 50, 50) - 0.5) < 1e-12
    # chi2 with 2 degrees of freedom is Exp(1/2): Pr[chi2_2 > t] = e^(-t/2).
    assert abs(oracles.chi2_mean_sf(3.0, 1.0, 2, 1) - math.exp(-1.5)) < 1e-15
    # Criterion 9: Y_test = 1.2 x 3.025 over k = 10,000 heterodyne modes.
    assert 1e-79 < oracles.chi2_mean_sf(3.63, 1.5125, 20_000, 10_000) < 1e-78
    # sd = sqrt(1e5 x 0.01 x 0.99) = 31.5; a two-sided 1e-6 tail is 4.9 sd,
    # a little more for a discrete count.
    lo, hi = oracles.count_interval(100_000, 0.01)
    assert 1000 - 5.5 * 31.5 < lo < 1000 < hi < 1000 + 5.5 * 31.5


def test_poisson_and_chernoff_anchors():
    assert abs(float(oracles.poisson_cdf(5, 10.0)) - 0.0670859629) < 1e-9
    assert abs(float(oracles.chernoff_poisson_lower(10.0, 0.5)) - math.exp(10 * (-0.5 - 0.5 * math.log(0.5)))) < 1e-15
    # Q(1, x) = e^-x.
    assert abs(float(oracles.reg_upper_gamma(1, 2.0)) - math.exp(-2.0)) < 1e-16
