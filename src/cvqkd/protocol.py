"""Desk-scale simulation of the entanglement-based Gaussian protocol front
end: source, Gaussian channel, detection, symmetrization, energy test.

Conventions (shot-noise units, recorded in every summary):

* vacuum quadrature variance = 1,
* a thermal mode with mean photon number lam has quadrature variance
  2*lam + 1,
* heterodyne detection of a state with quadrature variance V yields
  outcomes of variance (V + 1) / 2 per quadrature,
* homodyne detection yields outcomes of variance V.

Bob's mode after a channel with transmittance tau and excess noise xi has
variance V_B = 1 + 2*tau*lam + tau*xi, so heterodyne outcomes have
per-quadrature variance 1 + tau*lam + tau*xi/2 and E[q^2 + p^2] =
2*(1 + tau*lam + tau*xi/2) per mode.

Honest outcomes are i.i.d. zero-mean Gaussians, a law that the
symmetrizing rotations leave unchanged. ``front_end_statistics`` therefore
draws Y_k and Z_n from their exact chi-square law (see ``_stats_chunk``),
while ``run_front_end`` performs the literal symmetrize-then-test sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from . import mc
from .symmetry import (
    QuadratureRecord,
    TestOutcome,
    energy_test,
    mean_energies,
    sample_haar_orthogonal,
    sample_haar_unitary,
    symmetrize,
    to_symplectic,
)

__all__ = [
    "Detection",
    "ChannelModel",
    "ProtocolConfig",
    "FrontEndResult",
    "AbortRateEstimate",
    "simulate_bob_outcomes",
    "run_front_end",
    "front_end_statistics",
    "estimate_abort_rate",
    "run_summary",
]


class Detection(str, Enum):
    HETERODYNE = "heterodyne"
    HOMODYNE = "homodyne"


@dataclass(frozen=True)
class ChannelModel:
    """Gaussian channel with transmittance tau in (0, 1] and excess noise
    xi >= 0 in shot-noise units."""

    transmittance: float
    excess_noise: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.transmittance <= 1.0:
            raise ValueError(f"transmittance must lie in (0, 1], got {self.transmittance}")
        if self.excess_noise < 0.0:
            raise ValueError(f"excess noise must be >= 0, got {self.excess_noise}")


@dataclass(frozen=True)
class ProtocolConfig:
    """Front-end configuration: n kept modes, k tested modes, source mean
    photon number lam, detection kind, channel, and the test threshold."""

    n: int
    k: int
    lam: float
    detection: Detection
    channel: ChannelModel
    Y_test: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1 or self.k < 1:
            raise ValueError(f"need n, k >= 1, got n={self.n}, k={self.k}")
        if self.lam <= 0.0:
            raise ValueError(f"lam must be > 0, got {self.lam}")
        if self.Y_test < 0.0:
            raise ValueError(f"Y_test must be >= 0, got {self.Y_test}")

    @property
    def modes(self) -> int:
        return self.n + self.k

    @property
    def bob_mode_variance(self) -> float:
        """Quadrature variance of Bob's mode before detection."""
        tau, xi = self.channel.transmittance, self.channel.excess_noise
        return 1.0 + 2.0 * tau * self.lam + tau * xi

    @property
    def heterodyne_quadrature_variance(self) -> float:
        return 0.5 * (self.bob_mode_variance + 1.0)

    @property
    def expected_Y_k(self) -> float:
        """Mean per-mode energy of honest outcomes."""
        if self.detection is Detection.HETERODYNE:
            return 2.0 * self.heterodyne_quadrature_variance
        return self.bob_mode_variance


def simulate_bob_outcomes(cfg: ProtocolConfig, rng: np.random.Generator) -> QuadratureRecord:
    """Draw one set of honest detection outcomes for all n + k modes.

    Heterodyne: i.i.d. zero-mean Gaussian (q, p) per mode. Homodyne: one
    outcome per mode at an angle drawn uniformly in [0, 2*pi), stored in the
    q slot with p = 0 and the angle kept as bookkeeping.
    """
    m = cfg.modes
    if cfg.detection is Detection.HETERODYNE:
        sigma = math.sqrt(cfg.heterodyne_quadrature_variance)
        values = rng.standard_normal(2 * m) * sigma
        return QuadratureRecord(values=values, tested_modes=cfg.k, kept_modes=cfg.n)
    sigma = math.sqrt(cfg.bob_mode_variance)
    outcomes = rng.standard_normal(m) * sigma
    angles = rng.uniform(0.0, 2.0 * math.pi, m)
    values = np.zeros(2 * m)
    values[0::2] = outcomes
    return QuadratureRecord(values=values, tested_modes=cfg.k, kept_modes=cfg.n, angles=angles)


@dataclass(frozen=True)
class FrontEndResult:
    """Energy-test outcome plus the full symmetrized record; the kept-mode
    data are the trailing n modes of that record."""

    outcome: TestOutcome
    record: QuadratureRecord


def run_front_end(cfg: ProtocolConfig, rng: np.random.Generator) -> FrontEndResult:
    """Simulate, symmetrize with a fresh Haar rotation, and run the energy
    test on the first k symmetrized modes.

    Heterodyne records are rotated by the image of a Haar unitary on the
    interleaved quadratures; homodyne records by a Haar orthogonal matrix
    (which acts identically on the q and p sub-vectors, i.e. on the stored
    outcomes)."""
    rec = simulate_bob_outcomes(cfg, rng)
    if cfg.detection is Detection.HETERODYNE:
        rotation = to_symplectic(sample_haar_unitary(cfg.modes, rng))
    else:
        rotation = to_symplectic(sample_haar_orthogonal(cfg.modes, rng))
    symmetrized = symmetrize(rec, rotation)
    outcome = energy_test(symmetrized, cfg.Y_test)
    return FrontEndResult(outcome=outcome, record=symmetrized)


def _stats_chunk(gen: np.random.Generator, count: int, cfg: ProtocolConfig) -> tuple[np.ndarray, np.ndarray]:
    """(Y_k, Z_n) of ``count`` honest runs, exactly sigma^2 chi2_{d k} / k and
    sigma^2 chi2_{d n} / n: each of the d outcomes per mode (2 heterodyne, 1
    homodyne) is N(0, sigma^2), and the rotation does not change that law."""
    if cfg.detection is Detection.HETERODYNE:
        dof, variance = 2, cfg.heterodyne_quadrature_variance
    else:
        dof, variance = 1, cfg.bob_mode_variance
    y_k, z_n = mean_energies(gen, count, cfg.k, cfg.n, dof)
    return variance * y_k, variance * z_n


def front_end_statistics(
    cfg: ProtocolConfig, trials: int, seed: int, workers: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial (Y_k, Z_n) arrays over ``trials`` honest front-end runs,
    bit-identical for any worker count. Each pair is two chi-square draws
    from its exact law (see ``_stats_chunk``), so no array grows with n or k."""
    chunks = mc.run_chunked(partial(_stats_chunk, cfg=cfg), trials, seed, workers=workers)
    y_k = np.concatenate([c[0] for c in chunks])
    z_n = np.concatenate([c[1] for c in chunks])
    return y_k, z_n


@dataclass(frozen=True)
class AbortRateEstimate:
    aborts: int
    trials: int
    rate: float
    wilson_low: float
    wilson_high: float

    @classmethod
    def from_statistics(cls, y_k: np.ndarray, Y_test: float) -> "AbortRateEstimate":
        """Abort count (trials with ``y_k > Y_test``) and its Wilson interval."""
        trials = len(y_k)
        aborts = int(np.count_nonzero(y_k > Y_test))
        lo, hi = mc.wilson_interval(aborts, trials)
        return cls(aborts=aborts, trials=trials, rate=aborts / trials, wilson_low=lo, wilson_high=hi)


def estimate_abort_rate(cfg: ProtocolConfig, trials: int, seed: int = 0, workers: int = 1) -> AbortRateEstimate:
    """Fraction of honest front-end runs whose energy test aborts, with a
    Wilson interval."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    y_k, _ = front_end_statistics(cfg, trials, seed, workers=workers)
    return AbortRateEstimate.from_statistics(y_k, cfg.Y_test)


def run_summary(cfg: ProtocolConfig, outcome: TestOutcome, seed: int) -> dict:
    """JSON-ready summary of a single front-end run."""
    return {
        "config": {
            "n": cfg.n,
            "k": cfg.k,
            "lambda": cfg.lam,
            "detection": cfg.detection.value,
            "transmittance": cfg.channel.transmittance,
            "excess_noise": cfg.channel.excess_noise,
            "Y_test": cfg.Y_test,
        },
        "conventions": {
            "shot_noise_unit": "vacuum quadrature variance = 1",
            "normalization": outcome.normalization,
        },
        "Y_k": outcome.Y_k,
        "Z_n": outcome.Z_n,
        "passed": outcome.passed,
        "seed": seed,
    }
