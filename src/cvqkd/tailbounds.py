"""Closed-form probability bounds behind the finite-size security analysis.

This module collects the scalar tail bounds that the dimension and epsilon
calculations consume:

* the sphere-concentration factor g(delta) comparing the mean energy of
  kept modes against tested modes after a random rotation,
* the Laurent-Massart chi-squared tail bounds it is assembled from,
* a multiplicative Chernoff bound for the lower tail of a Poisson variable,
* the Gaussian-tail exponent beta(d0) = c0*d0 - ln(d0)/2 with
  c0 = (1 - 1/sqrt(2))^2, together with the gamma-ratio form it relaxes,
* the union bound on the largest single-mode occupation of a uniformly
  mixed n-mode state with p photons, and the cutoff that inverts it.

All bounds are probabilities; values are clamped to [0, 1] with the raw
log-scale exponent preserved so that vacuous bounds remain diagnosable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .specfun import (
    LOG_ZERO,
    log_binomial,
    log_reg_upper_gamma_int,
    reg_upper_gamma,
)

__all__ = [
    "BETA_COEFF",
    "SphereVariant",
    "InfeasibleParameters",
    "GFactorInputs",
    "TailBound",
    "ThresholdTailBound",
    "FTailBound",
    "g_factor",
    "lm_lower_tail",
    "lm_upper_tail",
    "chernoff_poisson_lower",
    "beta_exponent",
    "beta_root",
    "f_tail",
    "max_photon_tail",
    "geometric_cutoff",
    "photon_cutoff",
]

#: c0 = (1 - 1/sqrt(2))^2, the coefficient of d0 in the beta exponent.
BETA_COEFF = (1.0 - 1.0 / math.sqrt(2.0)) ** 2


class SphereVariant(str, Enum):
    """Which uniform measure the concentration factor refers to."""

    REAL = "real_sphere"
    COMPLEX = "complex_sphere"


class InfeasibleParameters(ValueError):
    """Raised when a bound is undefined for the requested parameters,
    e.g. the g-factor denominator is nonpositive (k too small)."""


@dataclass(frozen=True)
class GFactorInputs:
    """Inputs of the concentration factor g(delta).

    delta is the failure probability budget, n the number of kept modes,
    k the number of tested modes. The variant selects between the bound for
    vectors uniform on the real unit sphere in dimension n + k and the one
    for the complex unit sphere in dimension n + k; both closed forms are
    implemented exactly as stated in their respective derivations, which
    differ in constants (see the module notes in README).
    """

    delta: float
    n: int
    k: int
    variant: SphereVariant = SphereVariant.REAL

    def __post_init__(self) -> None:
        if self.n < 1 or self.k < 1:
            raise ValueError(f"g_factor requires n, k >= 1, got n={self.n}, k={self.k}")
        if not 0.0 < self.delta < 2.0:
            # log(2/delta) must be positive for the bound to carry content.
            raise ValueError(f"g_factor requires 0 < delta < 2, got {self.delta}")
        if self.variant is SphereVariant.COMPLEX and self.delta > 1.0:
            raise ValueError(
                "complex-sphere g-factor requires delta <= 1 (its numerator uses log(1/delta))"
            )


def g_factor(inputs: GFactorInputs) -> float:
    """Concentration factor g(delta) for the kept-vs-tested energy ratio.

    Real-sphere form:
        g = (1 + 2 sqrt(L/n) + 2L/n) / (1 - 2 sqrt(L/k)),  L = log(2/delta)
    Complex-sphere form:
        g = (1 + 2 sqrt(log(1/delta)/(2n)) + 2L/(2n)) / (1 - sqrt(2L/k))

    Raises InfeasibleParameters when the denominator is nonpositive; the
    caller must then raise k (test more modes).
    """
    big_l = math.log(2.0 / inputs.delta)
    if inputs.variant is SphereVariant.REAL:
        numerator = 1.0 + 2.0 * math.sqrt(big_l / inputs.n) + 2.0 * big_l / inputs.n
        denominator = 1.0 - 2.0 * math.sqrt(big_l / inputs.k)
    else:
        numerator = (
            1.0
            + 2.0 * math.sqrt(math.log(1.0 / inputs.delta) / (2.0 * inputs.n))
            + 2.0 * big_l / (2.0 * inputs.n)
        )
        denominator = 1.0 - math.sqrt(2.0 * big_l / inputs.k)
    if denominator <= 0.0:
        raise InfeasibleParameters(
            f"g_factor denominator {denominator:.6g} <= 0 for k={inputs.k}, "
            f"delta={inputs.delta}; increase the number of tested modes k"
        )
    return numerator / denominator


@dataclass(frozen=True)
class TailBound:
    """A probability bound with its raw log-scale exponent.

    ``bound`` is the clamped value min(1, e^exponent); ``exponent`` keeps the
    unclamped natural log so vacuous bounds stay inspectable; ``meta`` names
    the inequality that produced it.
    """

    bound: float
    exponent: float
    meta: str

    @classmethod
    def from_exponent(cls, exponent: float, meta: str) -> "TailBound":
        bound = math.exp(exponent) if exponent <= 0.0 else 1.0
        return cls(bound=bound, exponent=exponent, meta=meta)


@dataclass(frozen=True)
class ThresholdTailBound(TailBound):
    """A tail bound together with the deviation threshold it certifies."""

    threshold: float = field(default=float("nan"))


def lm_lower_tail(k: int, x: float) -> ThresholdTailBound:
    """Lower tail of a normalized chi-squared mean with k degrees of freedom:

        Pr[ Y_k <= 1 - 2 sqrt(x/k) ] <= e^{-x}

    for Y_k the mean of k squared standard normals.
    """
    if k < 1:
        raise ValueError(f"lm_lower_tail requires k >= 1, got {k}")
    if x <= 0:
        raise ValueError(f"lm_lower_tail requires x > 0, got {x}")
    threshold = 1.0 - 2.0 * math.sqrt(x / k)
    base = TailBound.from_exponent(-x, f"chi2_lower_tail(k={k}, x={x:g})")
    return ThresholdTailBound(base.bound, base.exponent, base.meta, threshold)


def lm_upper_tail(n: int, x: float) -> ThresholdTailBound:
    """Upper tail of a normalized chi-squared mean with n degrees of freedom:

        Pr[ Z_n >= 1 + 2 sqrt(x/n) + 2x/n ] <= e^{-x}
    """
    if n < 1:
        raise ValueError(f"lm_upper_tail requires n >= 1, got {n}")
    if x <= 0:
        raise ValueError(f"lm_upper_tail requires x > 0, got {x}")
    threshold = 1.0 + 2.0 * math.sqrt(x / n) + 2.0 * x / n
    base = TailBound.from_exponent(-x, f"chi2_upper_tail(n={n}, x={x:g})")
    return ThresholdTailBound(base.bound, base.exponent, base.meta, threshold)


def chernoff_poisson_lower(lam: float, delta: float) -> TailBound:
    """Multiplicative Chernoff bound for the lower Poisson tail:

        Pr[ X <= (1 - delta) lam ] <= (e^{-delta} / (1-delta)^{1-delta})^lam

    returned on the log scale as lam * (-delta - (1-delta) ln(1-delta)).
    """
    if lam <= 0:
        raise ValueError(f"chernoff_poisson_lower requires lam > 0, got {lam}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"chernoff_poisson_lower requires 0 < delta < 1, got {delta}")
    exponent = lam * (-delta - (1.0 - delta) * math.log1p(-delta))
    return TailBound.from_exponent(exponent, f"chernoff_poisson_lower(lam={lam:g}, delta={delta:g})")


def beta_exponent(d0: float) -> float:
    """Per-mode decay rate beta(d0) = c0*d0 - ln(d0)/2, c0 = (1-1/sqrt(2))^2.

    Negative values make the e^{-beta n} bound vacuous; the caller decides
    whether that is an error (the homodyne calculator treats it as
    infeasible).
    """
    if d0 <= 0:
        raise ValueError(f"beta_exponent requires d0 > 0, got {d0}")
    return BETA_COEFF * d0 - math.log(d0) / 2.0


def beta_root(lo: float = 2.0, hi: float = 100.0, tol: float = 1e-6) -> float:
    """Bisection root of beta(d0) = 0 inside [lo, hi], bracketed to tol.

    beta is positive for very small d0, dips negative, and turns positive
    again near d0 ~ 16.25; the default bracket isolates that upper root,
    which is where the homodyne bound becomes usable.
    """
    f_lo = beta_exponent(lo)
    f_hi = beta_exponent(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0:
        raise ValueError(f"beta_root bracket [{lo}, {hi}] does not straddle a sign change")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = beta_exponent(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class FTailBound:
    """The two forms of the shifted-Gaussian mass bound for n modes.

    ``gamma_form`` is the exact gamma-ratio value Q(n/2, n d0 c0);
    ``chernoff_form`` is its relaxation min(1, e^{-beta n}). Whenever
    beta > 0 the gamma form is the tighter of the two.
    """

    gamma_form: TailBound
    chernoff_form: TailBound
    beta: float


def f_tail(n: int, d0: float) -> FTailBound:
    """Bound the Gaussian mass beyond radius sqrt(n d0) seen from a center
    at distance sqrt(n d0 / 2), in both its exact and relaxed forms."""
    if n < 1:
        raise ValueError(f"f_tail requires n >= 1, got {n}")
    if d0 <= 0:
        raise ValueError(f"f_tail requires d0 > 0, got {d0}")
    x = n * d0 * BETA_COEFF
    if n % 2 == 0:
        log_q = log_reg_upper_gamma_int(n // 2, x)
    else:
        # Half-integer shape: evaluate on the linear scale; if the value
        # underflows the exponent degenerates to -inf, which is fine at the
        # odd-n sizes this path serves.
        q = reg_upper_gamma(n / 2.0, x)
        log_q = math.log(q) if q > 0.0 else LOG_ZERO
    beta = beta_exponent(d0)
    gamma_form = TailBound.from_exponent(log_q, f"gamma_ratio(n={n}, d0={d0:g})")
    chernoff_form = TailBound.from_exponent(-beta * n, f"beta_relaxation(n={n}, d0={d0:g})")
    return FTailBound(gamma_form=gamma_form, chernoff_form=chernoff_form, beta=beta)


def max_photon_tail(n: int, p: int, m: int) -> TailBound:
    """Union bound on the chance that some mode of a uniformly mixed n-mode,
    p-photon state holds at least m photons:

        Pr[max occupation >= m] <= n * C(n+p-m-1, p-m) / C(n+p-1, p)

    computed in log space and clamped to 1. For m > p the event is
    impossible and the exact zero is returned.
    """
    if n < 1:
        raise ValueError(f"max_photon_tail requires n >= 1, got {n}")
    if p < 0 or m < 0:
        raise ValueError(f"max_photon_tail requires p, m >= 0, got p={p}, m={m}")
    if m > p:
        return TailBound(bound=0.0, exponent=LOG_ZERO, meta=f"max_photon_tail(n={n}, p={p}, m={m})")
    exponent = (
        math.log(n)
        + log_binomial(n + p - m - 1, p - m)
        - log_binomial(n + p - 1, p)
    )
    return TailBound.from_exponent(exponent, f"max_photon_tail(n={n}, p={p}, m={m})")


def geometric_cutoff(ratio: float, mean: float) -> float:
    """Cutoff m = log(ratio) / log(1 + 1/mean), where ratio * (mean / (1 + mean))^m = 1:
    with ratio = modes / budget, a union bound over modes whose occupation tail
    is at most (mean / (1 + mean))^m keeps Pr[any mode >= ceil(m)] within budget."""
    return math.log(ratio) / math.log1p(1.0 / mean)


def photon_cutoff(n: int, d: float, eps: float) -> float:
    """Occupation cutoff m* = ln(2n/eps) / ln(1 + 1/d).

    Projecting each of the n modes at ceil(m*) photons keeps the union-bound
    failure probability of a uniformly mixed state with up to n*d photons
    below eps.
    """
    if n < 1:
        raise ValueError(f"photon_cutoff requires n >= 1, got {n}")
    if d <= 0:
        raise ValueError(f"photon_cutoff requires d > 0, got {d}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"photon_cutoff requires 0 < eps < 1, got {eps}")
    return geometric_cutoff(2.0 * n / eps, d)
