"""Security-parameter calculator: effective dimensions and the final epsilon.

The calculator turns protocol and channel parameters into

* d_A, the single-mode cutoff dimension on the trusted (source) side, from
  the thermal tail of the source state,
* d_0, the per-mode energy scale certified by the energy test through the
  concentration factor,
* d_B, the single-mode cutoff dimension on the receiver side, from the
  max-occupation union bound at scale d_0,
* beta, the decay exponent that (for homodyne detection) must make
  e^{-beta n} negligible,
* the postselection correction exponent and the final epsilon against
  general attacks.

The collective-attack exponent constants c and delta are not known in
closed form and are mandatory user inputs; they are never defaulted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .protocol import Detection
from .tailbounds import (
    GFactorInputs,
    InfeasibleParameters,
    SphereVariant,
    beta_exponent,
    beta_root,
    g_factor,
    geometric_cutoff,
)

__all__ = [
    "SecurityInputs",
    "SecurityBounds",
    "dim_alice",
    "dims_heterodyne",
    "dims_homodyne",
    "epsilon_general",
    "security_report",
]


@dataclass(frozen=True)
class SecurityInputs:
    """Protocol, channel, and security parameters of one deployment.

    ``lam`` is the source mean photon number per mode; ``c`` and ``delta``
    are the collective-attack exponent constants in 2^{-c delta^2 n};
    ``eps_test`` is the test budget entering the final epsilon and
    ``eps_A`` the share spent on the trusted-side projection.
    """

    n: int
    k: int
    lam: float
    Y_test: float
    eps_test: float
    eps_A: float
    c: float
    delta: float
    detection: Detection = Detection.HETERODYNE

    def __post_init__(self) -> None:
        if self.n < 1 or self.k < 1:
            raise ValueError(f"need n, k >= 1, got n={self.n}, k={self.k}")
        for name in ("lam", "Y_test"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        for name in ("eps_test", "eps_A"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")
        if not (0.0 < self.c < math.inf and 0.0 < self.delta < math.inf):
            raise ValueError(
                f"collective-attack constants must be finite and positive, got c={self.c}, delta={self.delta}"
            )


@dataclass
class SecurityBounds:
    """Derived dimensions and epsilon. Real-valued dimensions carry the
    formula values; the ceilings actually used in the postselection exponent
    are reported alongside."""

    d_A: float
    d_0: float | None
    d_B: float | None
    beta: float | None
    feasible: bool
    d_A_ceil: int = 0
    d_B_ceil: int | None = None
    postselection_exponent: float | None = None
    eps_total: float | None = None
    notes: list[str] = field(default_factory=list)


def dim_alice(n: int, lam: float, eps_A: float) -> float:
    """Trusted-side cutoff dimension d_A = log(n / eps_A) / log(1 + 1/lam).

    Projecting each of n thermal modes with mean photon number lam at
    ceil(d_A) photons fails with probability at most
    n * (lam / (1 + lam))^ceil(d_A) <= eps_A.
    """
    if n < 1:
        raise ValueError(f"dim_alice requires n >= 1, got {n}")
    if lam <= 0.0:
        raise ValueError(f"dim_alice requires lam > 0, got {lam}")
    if eps_A <= 0.0:
        raise ValueError(f"dim_alice requires eps_A > 0, got {eps_A}")
    return geometric_cutoff(n / eps_A, lam)


def _dims(inputs: SecurityInputs, eps: float, g_delta: float, energy: float) -> SecurityBounds:
    """d_A, d_0 = g(g_delta) * energy and d_B at failure budget eps; infeasible
    g (too few tested modes) is reported, not raised."""
    d_a = dim_alice(inputs.n, inputs.lam, inputs.eps_A)
    try:
        g = g_factor(GFactorInputs(delta=g_delta, n=inputs.n, k=inputs.k, variant=SphereVariant.REAL))
    except InfeasibleParameters as exc:
        return SecurityBounds(
            d_A=d_a, d_0=None, d_B=None, beta=None, feasible=False,
            d_A_ceil=math.ceil(d_a), notes=[str(exc)],
        )
    d_0 = g * energy
    d_b = geometric_cutoff(4.0 * inputs.n / eps, d_0)
    return SecurityBounds(
        d_A=d_a, d_0=d_0, d_B=d_b, beta=None, feasible=True,
        d_A_ceil=math.ceil(d_a), d_B_ceil=math.ceil(d_b),
    )


def dims_heterodyne(inputs: SecurityInputs, eps: float) -> SecurityBounds:
    """Dimensions for heterodyne detection at failure budget eps.

    d_0 = g(eps/4) * Y_test and d_B = log(4n/eps) / log(1 + 1/d_0); when the
    test passes, the chance that any kept mode exceeds d_B photons is below
    eps. Infeasible g (too few tested modes) is reported, not raised.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    return _dims(inputs, eps, eps / 4.0, inputs.Y_test)


def dims_homodyne(inputs: SecurityInputs, eps: float, Y_k_observed: float) -> SecurityBounds:
    """Dimensions for homodyne detection at failure budget eps, given the
    observed tested-mode mean energy.

    d_0 = 2 g(eps/16) * Y_k; feasibility additionally requires beta(d_0) > 0
    and e^{-beta n} <= eps/16 (boundary inclusive). When n is the blocker,
    the smallest feasible n is reported in the notes; when beta <= 0, no n
    helps and the required d_0 is reported instead.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    if not 0.0 < Y_k_observed < math.inf:
        raise ValueError(f"Y_k_observed must be finite and > 0, got {Y_k_observed}")
    bounds = _dims(inputs, eps, eps / 16.0, 2.0 * Y_k_observed)
    if not bounds.feasible:
        return bounds
    d_0 = bounds.d_0
    beta = bounds.beta = beta_exponent(d_0)
    required = math.log(16.0 / eps)
    # Boundary inclusive: eps == 16 e^(-beta n) counts as feasible, so allow
    # a few ulp of slack in the log-space comparison.
    slack = 1e-9 * max(1.0, abs(required))
    if beta <= 0.0:
        bounds.feasible = False
        bounds.notes.append(
            f"beta(d_0) = {beta:.6g} <= 0: the e^(-beta n) bound is vacuous for any n; "
            f"d_0 = {d_0:.6g} must exceed the beta root {beta_root():.6f}"
        )
    elif beta * inputs.n + slack < required:
        bounds.feasible = False
        minimal_n = math.ceil(required / beta)
        bounds.notes.append(
            f"e^(-beta n) > eps/16 at n = {inputs.n}; the smallest feasible n "
            f"(at this d_0) is {minimal_n}"
        )
    return bounds


def _postselection_exponent(d_a_ceil: int, d_b_ceil: int, n: int) -> float:
    """log2 of the postselection correction (n+1)^(d^2 - 1) for the
    single-pair dimension d = d_A * d_B."""
    d = d_a_ceil * d_b_ceil
    return (float(d) ** 2 - 1.0) * math.log2(n + 1.0)


def epsilon_general(inputs: SecurityInputs, bounds: SecurityBounds) -> float:
    """Final security level against general attacks:

        eps = 2^(-c delta^2 n + (ceil(d_A) ceil(d_B))^2 - 1) log2(n+1)) + 2 eps_test

    clamped to 1 (values >= 1 mean the insecure regime). The correction
    exponent instantiates the postselection technique's polynomial factor
    with the dimensions computed here; it is surfaced separately so callers
    can substitute their own.
    """
    if not bounds.feasible:
        raise InfeasibleParameters(f"bounds are infeasible: {'; '.join(bounds.notes) or 'unknown reason'}")
    if bounds.d_B_ceil is None:
        raise InfeasibleParameters("bounds do not carry a receiver dimension")
    correction = _postselection_exponent(bounds.d_A_ceil, bounds.d_B_ceil, inputs.n)
    exponent = -inputs.c * inputs.delta**2 * inputs.n + correction
    term = 1.0 if exponent >= 0.0 else 2.0**exponent
    return min(1.0, term + 2.0 * inputs.eps_test)


def security_report(
    inputs: SecurityInputs,
    eps_projection: float | None = None,
    Y_k_observed: float | None = None,
) -> SecurityBounds:
    """Full calculator pass: dimensions, postselection exponent, epsilon.

    ``eps_projection`` is the failure budget of the pass-but-projection-fails
    bound that fixes the dimensions (default 4 * eps_test, so the
    concentration step runs at eps_test itself). For homodyne detection
    ``Y_k_observed`` defaults to Y_test, the largest value compatible with a
    passing test.
    """
    if eps_projection is None:
        eps_projection = 4.0 * inputs.eps_test
    if inputs.detection is Detection.HETERODYNE:
        bounds = dims_heterodyne(inputs, eps_projection)
    else:
        observed = inputs.Y_test if Y_k_observed is None else Y_k_observed
        bounds = dims_homodyne(inputs, eps_projection, observed)
        if Y_k_observed is None:
            bounds.notes.append("Y_k_observed defaulted to Y_test (worst case compatible with a pass)")
    if not bounds.feasible:
        return bounds
    correction = _postselection_exponent(bounds.d_A_ceil, bounds.d_B_ceil, inputs.n)
    eps_total = epsilon_general(inputs, bounds)
    completed = replace(bounds, postselection_exponent=correction, eps_total=eps_total)
    if eps_total >= 1.0:
        completed.notes.append(
            "eps_total clamped to 1: the postselection correction exceeds the "
            "collective-attack exponent c*delta^2*n (insecure regime)"
        )
    return completed
