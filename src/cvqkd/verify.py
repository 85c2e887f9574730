"""Verification suites: independent numerical checks of the bounds the
calculator relies on. ``SUITES`` maps each suite name to a function
``(config, seed, workers) -> (passed, details)`` that raises ValueError on
bad input."""

from __future__ import annotations

import math

import numpy as np

from . import mc
from .fockspace import (
    closed_form_I,
    closed_form_J,
    closed_form_J_forms,
    exact_max_tail,
    verify_operator_inequality,
)
from .specfun import LOG_ZERO, reg_upper_gamma
from .symmetry import mc_lemma1
from .tailbounds import (
    SphereVariant,
    chernoff_poisson_lower,
    lm_lower_tail,
    lm_upper_tail,
    max_photon_tail,
)

__all__ = ["SUITES", "require"]


def require(config: dict, keys: list[str]) -> None:
    """Raise ValueError naming every key of ``keys`` missing from ``config``."""
    missing = [key for key in keys if key not in config]
    if missing:
        raise ValueError(f"missing required parameter(s): {', '.join(missing)}")


def _suite_lemma1(config: dict, seed: int, workers: int) -> tuple[bool, dict]:
    require(config, ["n", "k", "delta", "trials"])
    result = mc_lemma1(
        n=int(config["n"]), k=int(config["k"]), delta=float(config["delta"]),
        trials=int(config["trials"]), variant=SphereVariant(config.get("variant", "real_sphere")),
        seed=seed, workers=workers,
    )
    margin = result.delta + 3.0 * result.wilson_half_width - result.rate
    passed = margin >= 0.0
    return passed, {
        "g": result.g, "failures": result.failures, "trials": result.trials,
        "rate": result.rate, "delta": result.delta,
        "wilson_low": result.wilson_low, "wilson_high": result.wilson_high,
        "margin": margin, "variant": result.variant.value,
    }


def _suite_opineq(config: dict, seed: int, workers: int) -> tuple[bool, dict]:
    require(config, ["n", "d0"])
    n, d0 = int(config["n"]), float(config["d0"])
    k_max = int(config.get("kmax") or math.ceil(n * d0) + 500)
    report = verify_operator_inequality(n, d0, k_max)
    return report.passed, {
        "min_margin": report.min_margin, "k_start": report.k_start, "k_max": report.k_max,
        "monotone": report.monotone, "violations": list(report.violations),
    }


def _suite_maxphoton(config: dict, seed: int, workers: int) -> tuple[bool, dict]:
    require(config, ["n", "p", "m"])
    n, p, m = int(config["n"]), int(config["p"]), int(config["m"])
    exact = exact_max_tail(n, p, m)
    bound = max_photon_tail(n, p, m)
    passed = exact <= bound.bound + 1e-12
    # Strict JSON has no -Infinity: an impossible event (m > p) has a
    # log-zero exponent, reported as null.
    exponent = None if bound.exponent == LOG_ZERO else bound.exponent
    return passed, {"exact": exact, "bound": bound.bound, "exponent": exponent,
                    "slack": bound.bound - exact}


def _suite_integrals(config: dict, seed: int, workers: int) -> tuple[bool, dict]:
    samples = int(config.get("samples") or 200_000)
    worst_identity = 0.0
    for n in (1, 2, 3, 5, 10, 25, 60, 120, 200):
        for a in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0, 500.0):
            i_val = closed_form_I(n, a)
            q_val = reg_upper_gamma(n, a)
            worst_identity = max(worst_identity, abs(i_val - q_val) / max(q_val, 1e-300))
    identity_ok = worst_identity <= 1e-10

    worst_consistency = 0.0
    for n in (1, 2, 3, 4):
        for a in (0.5, 1.0, 2.0, 5.0):
            gap = abs(closed_form_J(n, 0, a) - closed_form_I(n, a))
            worst_consistency = max(worst_consistency, gap / closed_form_I(n, a))
    consistency_ok = worst_consistency <= 1e-10

    gen = mc.chunk_generator(seed, 0)
    worst_dev = 0.0
    mc_ok = True
    for n in (1, 2, 3, 4):
        for k in (0, 1, 2, 3):
            for a in (0.5, 1.0, 2.0):
                y = gen.standard_exponential((samples, n))
                weights = y[:, 0] ** k / math.factorial(k)
                values = weights * (y.sum(axis=1) >= a)
                estimate = float(values.mean())
                stderr = float(values.std(ddof=1)) / math.sqrt(samples)
                dev = abs(estimate - closed_form_J(n, k, a)) / stderr
                worst_dev = max(worst_dev, dev)
                mc_ok = mc_ok and dev <= 3.0

    forms = closed_form_J_forms(3, 2, 1.5)
    passed = identity_ok and consistency_ok and mc_ok
    return passed, {
        "identity_worst_rel_err": worst_identity,
        "k0_consistency_worst_rel_err": worst_consistency,
        "mc_worst_deviation_se": worst_dev,
        "mc_samples_per_point": samples,
        "printed_form_gap_example": {"n": 3, "k": 2, "a": 1.5,
                                     "defining": forms.defining_form,
                                     "printed": forms.printed_form},
    }


def _suite_lm(config: dict, seed: int, workers: int) -> tuple[bool, dict]:
    k = int(config.get("k") or 100)
    n = int(config.get("n") or 100)
    samples = int(config.get("samples") or 1_000_000)
    gen = mc.chunk_generator(seed, 0)
    lower_samples = gen.chisquare(k, samples) / k
    upper_samples = gen.chisquare(n, samples) / n
    xs = np.linspace(0.25, 4.75, 10)
    checks = []
    passed = True
    for x in xs:
        lower = lm_lower_tail(k, float(x))
        upper = lm_upper_tail(n, float(x))
        emp_lower = float(np.count_nonzero(lower_samples <= lower.threshold)) / samples
        emp_upper = float(np.count_nonzero(upper_samples >= upper.threshold)) / samples
        ok = emp_lower <= lower.bound and emp_upper <= upper.bound
        passed = passed and ok
        checks.append({"x": float(x), "bound": lower.bound,
                       "empirical_lower": emp_lower, "empirical_upper": emp_upper})
    return passed, {"k": k, "n": n, "samples": samples, "grid": checks}


def _suite_chernoff(config: dict, seed: int, workers: int) -> tuple[bool, dict]:
    # Imported here: scipy.stats costs about a second at start-up, and only
    # this suite needs it.
    from scipy.stats import poisson

    checks = []
    passed = True
    grid = [(10.0, 0.5), (10.0, 0.25), (5.0, 0.5), (50.0, 0.1), (50.0, 0.5),
            (100.0, 0.2), (2.0, 0.5), (20.0, 0.35), (7.5, 0.6), (1000.0, 0.05)]
    for lam, delta in grid:
        bound = chernoff_poisson_lower(lam, delta)
        exact = float(poisson.cdf(math.floor((1.0 - delta) * lam), lam))
        ok = exact <= bound.bound + 1e-15
        passed = passed and ok
        checks.append({"lambda": lam, "delta": delta, "exact": exact, "bound": bound.bound})
    return passed, {"grid": checks}


SUITES = {
    "lemma1": _suite_lemma1,
    "opineq": _suite_opineq,
    "maxphoton": _suite_maxphoton,
    "integrals": _suite_integrals,
    "lm": _suite_lm,
    "chernoff": _suite_chernoff,
}
