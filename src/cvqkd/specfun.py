"""Log-scale special functions: binomials, the regularized incomplete gamma
function, and stable sums of nonnegative quantities.

Everything security-relevant downstream is a product or ratio of quantities
like binomial configuration counts and Poisson weights e^{-a} a^m / m!,
which overflow double precision long before the mode counts of interest.
All combinatorial work therefore happens on the natural-log scale; linear
values are only materialised when a probability is reported.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaincc, gammaln

__all__ = [
    "LOG_ZERO",
    "log_sum",
    "log_binomial",
    "reg_upper_gamma",
    "log_reg_upper_gamma_int",
]

#: Log-scale representation of an exact zero.
LOG_ZERO = float("-inf")

# lgamma differences lose absolute accuracy once the lgamma values dwarf the
# binomial log itself (ulp(lgamma(n)) grows with n); switch to the
# exactly-rounded O(min(k, n-k)) sum above this point.
_LGAMMA_BINOMIAL_CUTOFF = 20_000


def log_sum(values) -> float:
    """Return log(sum(e^v for v in values)), max-shifted and compensated.

    Accepts any iterable of log-scale floats; LOG_ZERO entries contribute
    nothing. An empty input sums to zero, i.e. LOG_ZERO.
    """
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=float)
    if arr.size == 0:
        return LOG_ZERO
    hi = float(arr.max())
    if hi == LOG_ZERO:
        return LOG_ZERO
    total = math.fsum(np.exp(arr - hi))
    return hi + math.log(total)


def _log_binomial_lgamma(n: int, k: int) -> float:
    return math.lgamma(n + 1.0) - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)


def _log_binomial_fsum(n: int, k: int) -> float:
    # ln C(n,k) = sum_j ln((n-k+j)/j); each term is O(1) so fsum keeps the
    # total exactly rounded and free of the lgamma cancellation problem.
    k = min(k, n - k)
    if k == 0:
        return 0.0
    j = np.arange(1.0, k + 1.0)
    return math.fsum(np.log((n - k + j) / j))


def log_binomial(n: int, k: int) -> float:
    """Return ln C(n, k) for integers 0 <= k <= n."""
    if n != int(n) or k != int(k):
        raise ValueError(f"log_binomial requires integers, got ({n!r}, {k!r})")
    if k < 0 or k > n:
        raise ValueError(f"log_binomial requires 0 <= k <= n, got ({n}, {k})")
    n, k = int(n), int(k)
    k = min(k, n - k)  # canonical form, so C(n, k) == C(n, n-k) bit-exactly
    if n <= _LGAMMA_BINOMIAL_CUTOFF:
        return _log_binomial_lgamma(n, k)
    return _log_binomial_fsum(n, k)


def reg_upper_gamma(s, x):
    """Regularized upper incomplete gamma Q(s, x) = Gamma(s, x) / Gamma(s).

    Scalars or arrays; requires s > 0 and x >= 0. For integer s this equals
    the Poisson survival sum e^{-x} sum_{j<s} x^j / j!, which
    :func:`log_reg_upper_gamma_int` evaluates independently on the log scale.
    """
    s_arr = np.asarray(s, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    if np.any(s_arr <= 0):
        raise ValueError("reg_upper_gamma requires s > 0")
    if np.any(x_arr < 0):
        raise ValueError("reg_upper_gamma requires x >= 0")
    out = gammaincc(s_arr, x_arr)
    if np.isscalar(s) and np.isscalar(x):
        return float(out)
    return out


def log_reg_upper_gamma_int(s: int, x: float) -> float:
    """Return ln Q(s, x) for integer s >= 1 via the Poisson survival sum.

    Stable far below the double-precision underflow threshold of the linear
    value, which is what the deep-tail comparisons downstream need.
    """
    if s != int(s) or s < 1:
        raise ValueError(f"log_reg_upper_gamma_int requires integer s >= 1, got {s!r}")
    if x < 0:
        raise ValueError(f"log_reg_upper_gamma_int requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    j = np.arange(int(s), dtype=float)
    terms = j * math.log(x) - gammaln(j + 1.0)
    hi = float(terms.max())
    total = math.fsum(np.exp(terms - hi))
    log_q = hi + math.log(total) - x
    # Q is a probability; tiny positive excursions are rounding noise.
    return min(log_q, 0.0)
