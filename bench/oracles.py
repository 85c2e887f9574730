"""Independent oracles for the benchmark's correctness checks.

Nothing here imports the package under test. The bounds chain is re-derived
from its stated formulas in 50-digit arithmetic, the occupation-number laws
are exact rational counts over ``math.comb``, and the sampling suites are
compared with their exact F and chi-square laws. mpmath and scipy.stats are
imported inside the functions that use them, so that a workload's set-up time
measures the program's imports and not the oracles'.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from types import SimpleNamespace

#: Decimal digits of the bounds re-derivation.
DIGITS = 50
#: Two-sided probability outside the accepted interval of a sampled count.
COUNT_ALPHA = 1e-6
#: Smallest accepted p-value of a Kolmogorov-Smirnov test against an exact law.
KS_ALPHA = 1e-6

# Double-precision stand-in for mpmath, used only to screen inputs away from
# the ties (feasibility edges, integer ceilings) where a correctly rounded
# program and a 50-digit oracle may legitimately disagree.
FLOAT_MATH = SimpleNamespace(
    mpf=float, log=math.log, log1p=math.log1p, sqrt=math.sqrt, ceil=math.ceil, exp2=lambda x: 2.0**x
)


class NonStrictJSON(ValueError):
    """A document holds NaN or an infinity, which strict JSON does not allow."""


def _reject_constant(name: str):
    raise NonStrictJSON(f"non-strict JSON constant {name}")


def strict_json(text: str):
    """Parse JSON, rejecting NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


@functools.lru_cache(maxsize=1)
def high_precision_math():
    import mpmath

    ctx = mpmath.MPContext()
    ctx.dps = DIGITS
    return SimpleNamespace(
        mpf=ctx.mpf, log=ctx.log, log1p=ctx.log1p, sqrt=ctx.sqrt, ceil=ctx.ceil, exp2=lambda x: ctx.mpf(2) ** x
    )


def derive_bounds(p: dict, M=None) -> dict:
    """Re-derive the calculator chain for one parameter set.

    ``p`` holds n, k, lam, Y_test, eps_test, eps_A, c, delta, detection and
    optionally eps_projection and y_k_observed, as the floats the program
    receives. Formulas, with eps = eps_projection (default 4 eps_test):

    * d_A = ln(n / eps_A) / ln(1 + 1/lam)
    * g(x) = (1 + 2 sqrt(L/n) + 2L/n) / (1 - 2 sqrt(L/k)), L = ln(2/x); the
      bound is infeasible when the denominator is not positive
    * heterodyne: d_0 = g(eps/4) Y_test
    * homodyne: d_0 = 2 g(eps/16) Y_k, beta = c0 d_0 - ln(d_0)/2 with
      c0 = (1 - 1/sqrt 2)^2; feasible iff beta > 0 and beta n >= ln(16/eps)
    * d_B = ln(4n / eps) / ln(1 + 1/d_0)
    * postselection exponent = ((ceil d_A ceil d_B)^2 - 1) log2(n + 1),
      after Christandl, Koenig & Renner, PRL 102, 020504 (2009)
    * eps_total = min(1, 2^(-c delta^2 n + exponent) + 2 eps_test)

    Returns every quantity and the margins of each decision, so that callers
    can tell how far an input sits from a tie.
    """
    M = M or high_precision_math()
    f = M.mpf
    n, k = f(p["n"]), f(p["k"])
    eps_test = f(p["eps_test"])
    eps = f(p["eps_projection"]) if p.get("eps_projection") is not None else 4 * eps_test
    d_a = M.log(n / f(p["eps_A"])) / M.log1p(1 / f(p["lam"]))
    homodyne = p["detection"] == "homodyne"
    g_delta = eps / 16 if homodyne else eps / 4
    big_l = M.log(2 / g_delta)
    denominator = 1 - 2 * M.sqrt(big_l / k)
    out = {"d_A": d_a, "d_A_ceil": int(M.ceil(d_a)), "g_denominator": denominator,
           "d_0": None, "d_B": None, "d_B_ceil": None, "beta": None,
           "postselection_exponent": None, "eps_total": None, "exponent": None}
    if denominator <= 0:
        out["feasible"] = False
        return out
    g = (1 + 2 * M.sqrt(big_l / n) + 2 * big_l / n) / denominator
    if homodyne:
        y_k = p.get("y_k_observed")
        d_0 = 2 * g * f(p["Y_test"] if y_k is None else y_k)
    else:
        d_0 = g * f(p["Y_test"])
    d_b = M.log(4 * n / eps) / M.log1p(1 / d_0)
    out.update(g=g, d_0=d_0, d_B=d_b, d_B_ceil=int(M.ceil(d_b)))
    feasible = True
    if homodyne:
        c0 = (1 - 1 / M.sqrt(f(2))) ** 2
        beta = c0 * d_0 - M.log(d_0) / 2
        required = M.log(16 / eps)
        out.update(beta=beta, beta_margin=beta * n - required, required=required)
        feasible = beta > 0 and beta * n >= required
    out["feasible"] = bool(feasible)
    if not feasible:
        return out
    d = out["d_A_ceil"] * out["d_B_ceil"]
    correction = (f(d) ** 2 - 1) * M.log(n + 1) / M.log(f(2))
    exponent = -f(p["c"]) * f(p["delta"]) ** 2 * n + correction
    term = f(1) if exponent >= 0 else M.exp2(exponent)
    out.update(postselection_exponent=correction, exponent=exponent,
               eps_total=min(f(1), term + 2 * eps_test))
    return out


def near_tie(p: dict) -> bool:
    """True when a parameter set sits so close to a decision edge that a
    double-precision program may round to the other side of it."""
    o = derive_bounds(p, FLOAT_MATH)

    def near_integer(x):
        return x is not None and abs(x - round(x)) <= 1e-9 * max(1.0, abs(x))

    if abs(o["g_denominator"]) < 0.02 or near_integer(o["d_A"]) or near_integer(o["d_B"]):
        return True
    if o["beta"] is not None and (abs(o["beta"]) < 0.01 or abs(o["beta_margin"]) < 1e-3 * o["required"]):
        return True
    # Inside (-300, 1) the term 2^exponent is neither clamped nor negligible,
    # and its relative error is the absolute error of a difference of two
    # large numbers.
    return o["exponent"] is not None and -300.0 < o["exponent"] < 1.0


def relative_error(actual, expected) -> float:
    expected = float(expected)
    if actual == expected:
        return 0.0
    return abs(float(actual) - expected) / max(abs(expected), 1e-300)


def compare_bounds(results: dict, expected: dict, rel: float = 1e-12) -> list[str]:
    """Mismatches between a ``bounds`` result and :func:`derive_bounds`."""
    problems = []
    if results["feasible"] != expected["feasible"]:
        problems.append(f"feasible {results['feasible']} != {expected['feasible']}")
    keys = ["d_A", "d_0", "d_B", "beta"]
    if expected["feasible"]:
        keys += ["postselection_exponent", "eps_total"]
    for key in keys:
        want, got = expected[key], results[key]
        if (want is None) != (got is None):
            problems.append(f"{key}: {got!r} vs {want!r}")
        elif want is not None and relative_error(got, want) > rel:
            problems.append(f"{key}: {got!r} vs {float(want)!r}")
    if results["d_A_ceil"] != expected["d_A_ceil"]:
        problems.append(f"d_A_ceil {results['d_A_ceil']} != {expected['d_A_ceil']}")
    if results["d_0"] is not None and results["d_B_ceil"] != expected["d_B_ceil"]:
        problems.append(f"d_B_ceil {results['d_B_ceil']} != {expected['d_B_ceil']}")
    return problems


def beta_root():
    """Upper root of c0 d0 - ln(d0)/2 (near 16.25), by 50-digit bisection."""
    M = high_precision_math()
    c0 = (1 - 1 / M.sqrt(M.mpf(2))) ** 2
    lo, hi = M.mpf(2), M.mpf(100)
    while hi - lo > M.mpf("1e-30"):
        mid = (lo + hi) / 2
        if c0 * mid - M.log(mid) / 2 < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def max_occupation_tail(n: int, p: int, m: int) -> Fraction:
    """Exact Pr[max occupation >= m] for p photons placed uniformly over the
    compositions into n modes, by inclusion-exclusion over the modes that
    hold at least m photons."""
    if m > p:
        return Fraction(0)
    if m <= 0:
        return Fraction(1)
    hits = 0
    for j in range(1, min(n, p // m) + 1):
        hits += (-1) ** (j + 1) * math.comb(n, j) * math.comb(n + p - j * m - 1, n - 1)
    return Fraction(hits, math.comb(n + p - 1, n - 1))


def first_mode_tail(n: int, p: int, t: int) -> Fraction:
    """Exact Pr[first-mode occupation >= t] under the same law."""
    if t > p:
        return Fraction(0)
    return Fraction(math.comb(n + p - t - 1, n - 1), math.comb(n + p - 1, n - 1))


def max_photon_union_bound(n: int, p: int, m: int) -> Fraction:
    """min(1, n C(n+p-m-1, p-m) / C(n+p-1, p)) as an exact fraction (0 when
    m > p)."""
    if m > p:
        return Fraction(0)
    return min(Fraction(1), Fraction(n * math.comb(n + p - m - 1, p - m), math.comb(n + p - 1, p)))


def count_interval(trials: int, prob: float, alpha: float = COUNT_ALPHA) -> tuple[int, int]:
    """Central 1 - alpha interval of a Binomial(trials, prob) count."""
    from scipy.stats import binom

    lo = int(binom.ppf(alpha / 2.0, trials, prob))
    hi = int(binom.isf(alpha / 2.0, trials, prob))
    return lo, hi


def count_consistent(count: int, trials: int, prob: float) -> bool:
    lo, hi = count_interval(trials, prob)
    return lo <= count <= hi


def f_tail(g: float, n: int, k: int) -> float:
    """Pr[Z_n >= g Y_k] for per-coordinate means of n and k squared
    standard normals: Z_n / Y_k follows F(n, k)."""
    from scipy.stats import f

    return float(f.sf(g, n, k))


def chi2_mean_sf(threshold: float, scale: float, dof: int, count: int) -> float:
    """Pr[scale * chi2_dof / count > threshold]."""
    from scipy.stats import chi2

    return float(chi2.sf(threshold * count / scale, dof))


def chi2_mean_ks(samples, scale: float, dof: int, count: int) -> float:
    """KS p-value of samples against scale * chi2_dof / count."""
    from scipy.stats import chi2, kstest

    return float(kstest(samples, lambda y: chi2.cdf(y * count / scale, dof)).pvalue)


def chi2_cdf(x: float, dof: int) -> float:
    from scipy.stats import chi2

    return float(chi2.cdf(x, dof))


def reg_upper_gamma(s, x):
    """Q(s, x) in 50 digits (an mpmath number)."""
    import mpmath

    with mpmath.workdps(DIGITS):
        return mpmath.gammainc(mpmath.mpf(s), mpmath.mpf(x), mpmath.inf, regularized=True)


def log_reg_upper_gamma(s, x):
    import mpmath

    with mpmath.workdps(DIGITS):
        return mpmath.log(reg_upper_gamma(s, x))


def poisson_cdf(j: int, lam: float):
    """Pr[Poisson(lam) <= j] as the exact Q(j + 1, lam) in 50 digits."""
    return reg_upper_gamma(j + 1, lam)


def chernoff_poisson_lower(lam: float, delta: float):
    import mpmath

    with mpmath.workdps(DIGITS):
        lam, delta = mpmath.mpf(lam), mpmath.mpf(delta)
        return mpmath.exp(lam * (-delta - (1 - delta) * mpmath.log1p(-delta)))


def log_binomial(n: int, k: int) -> float:
    return math.log(math.comb(n, k))
