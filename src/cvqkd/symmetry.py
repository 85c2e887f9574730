"""Random-rotation symmetrization of quadrature data and the energy test.

The protocol's symmetrization step applies a Haar-random passive linear
network to all modes before anything is measured; because that network
commutes with heterodyne detection, the same effect is obtained by rotating
the classical outcome vector with the induced orthogonal matrix. This
module provides the Haar samplers (unitary and orthogonal), the embedding
of a unitary into the corresponding rotation of interleaved (q, p)
coordinates, the energy-test statistics over tested and kept modes, the
exact sampler of their law for Gaussian and sphere vectors, and the Monte
Carlo harness that checks the sphere-concentration bound those statistics
obey.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import mc
from .tailbounds import GFactorInputs, SphereVariant, g_factor

__all__ = [
    "QuadratureRecord",
    "SymplecticRotation",
    "TestOutcome",
    "Lemma1Result",
    "sample_haar_unitary",
    "sample_haar_orthogonal",
    "sample_unit_sphere",
    "to_symplectic",
    "symmetrize",
    "energy_test",
    "mean_energies",
    "mc_lemma1",
    "read_quadrature_csv",
    "write_quadrature_csv",
]

_UNITARITY_TOL = 1e-8
_ORTHOGONALITY_TOL = 1e-10
# Full S^T S validation is cubic in the mode count; above this size the
# constructor falls back to a randomized norm-preservation probe.
_FULL_CHECK_MAX_DIM = 4096


@dataclass
class QuadratureRecord:
    """Interleaved phase-space outcomes (q_1, p_1, ..., q_m, p_m) for m
    modes, the first ``tested_modes`` of which feed the energy test.

    Homodyne records store the single measured value per mode in the q slot
    with p = 0, and keep the measured angles as bookkeeping in ``angles``.
    """

    values: np.ndarray
    tested_modes: int
    kept_modes: int
    angles: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size % 2 != 0:
            raise ValueError(f"values must be a flat even-length vector, got shape {self.values.shape}")
        if self.tested_modes < 1 or self.kept_modes < 1:
            raise ValueError(
                f"need at least one tested and one kept mode, got k={self.tested_modes}, n={self.kept_modes}"
            )
        if 2 * (self.tested_modes + self.kept_modes) != self.values.size:
            raise ValueError(
                f"k + n = {self.tested_modes + self.kept_modes} modes but vector holds {self.values.size // 2}"
            )
        if self.angles is not None:
            self.angles = np.asarray(self.angles, dtype=float)
            if self.angles.shape != (self.modes,):
                raise ValueError(f"angles must have one entry per mode, got shape {self.angles.shape}")

    @property
    def modes(self) -> int:
        return self.tested_modes + self.kept_modes

    def mode_energies(self) -> np.ndarray:
        """Per-mode energy q_i^2 + p_i^2."""
        q = self.values[0::2]
        p = self.values[1::2]
        return q * q + p * p


@dataclass
class SymplecticRotation:
    """Orthogonal rotation of interleaved (q, p) coordinates induced by a
    unitary mode transformation.

    In stacked (q-block, p-block) coordinates the matrix has the block form
    [[Re U, -Im U], [Im U, Re U]]; it is stored here permuted to act on the
    interleaved layout."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=float)
        dim = self.matrix.shape[0]
        if self.matrix.ndim != 2 or self.matrix.shape != (dim, dim) or dim % 2 != 0:
            raise ValueError(f"rotation must be square with even dimension, got {self.matrix.shape}")
        if dim <= _FULL_CHECK_MAX_DIM:
            residual = np.abs(self.matrix.T @ self.matrix - np.eye(dim)).max()
            if residual > _ORTHOGONALITY_TOL:
                raise ValueError(f"matrix is not orthogonal: max |S^T S - I| = {residual:.3e}")
        else:
            probe = np.random.Generator(np.random.PCG64(0)).standard_normal((dim, 8))
            before = np.linalg.norm(probe, axis=0)
            after = np.linalg.norm(self.matrix @ probe, axis=0)
            if np.abs(after / before - 1.0).max() > _ORTHOGONALITY_TOL:
                raise ValueError("matrix fails the randomized orthogonality probe")

    @property
    def modes(self) -> int:
        return self.matrix.shape[0] // 2


@dataclass(frozen=True)
class TestOutcome:
    """Result of the energy test: the test passes iff Y_k <= threshold.

    Y_k and Z_n are per-mode means of q^2 + p^2 over the tested and kept
    modes; the tested/kept statistics use the same per-mode normalization so
    they are directly comparable through the concentration factor."""

    passed: bool
    Y_k: float
    Z_n: float
    threshold: float
    normalization: str = "per_mode"


def _interleave_index(m: int) -> np.ndarray:
    # Position of interleaved coordinate a inside the stacked (q..., p...)
    # layout: q_i -> i, p_i -> m + i.
    pos = np.empty(2 * m, dtype=np.intp)
    pos[0::2] = np.arange(m)
    pos[1::2] = m + np.arange(m)
    return pos


def sample_haar_unitary(m: int, rng: np.random.Generator, size: int | None = None):
    """Haar-distributed m x m unitary (or a stack of ``size`` of them).

    QR of a complex standard-Gaussian matrix with the R diagonal normalized
    to positive reals, which makes the factorization unique and the Q factor
    exactly Haar."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    shape = (m, m) if size is None else (int(size), m, m)
    z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.einsum("...ii->...i", r)
    phase = diag / np.abs(diag)
    return q * phase[..., None, :]


def sample_haar_orthogonal(d: int, rng: np.random.Generator, size: int | None = None):
    """Haar-distributed d x d real orthogonal matrix (or a stack of them)."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    shape = (d, d) if size is None else (int(size), d, d)
    z = rng.standard_normal(shape)
    q, r = np.linalg.qr(z)
    diag = np.einsum("...ii->...i", r)
    signs = np.where(diag < 0.0, -1.0, 1.0)
    return q * signs[..., None, :]


def sample_unit_sphere(dim: int, rng: np.random.Generator, size: int | None = None):
    """Uniform point(s) on the unit sphere of R^dim."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    shape = (dim,) if size is None else (int(size), dim)
    x = rng.standard_normal(shape)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    return x / norms


def to_symplectic(unitary: np.ndarray) -> SymplecticRotation:
    """Embed an m x m unitary as the orthogonal rotation it induces on the
    2m interleaved quadratures.

    Real orthogonal inputs are valid unitaries; they act identically on the
    q and p sub-vectors, which is exactly the homodyne symmetrization."""
    u = np.asarray(unitary)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"unitary must be square, got shape {u.shape}")
    m = u.shape[0]
    residual = np.abs(u.conj().T @ u - np.eye(m)).max()
    if residual > _UNITARITY_TOL:
        raise ValueError(f"input is not unitary: max |U^dag U - I| = {residual:.3e}")
    re, im = np.real(u), np.imag(u)
    stacked = np.block([[re, -im], [im, re]])
    pos = _interleave_index(m)
    return SymplecticRotation(matrix=stacked[np.ix_(pos, pos)])


def symmetrize(rec: QuadratureRecord, rot: SymplecticRotation) -> QuadratureRecord:
    """Apply the rotation to the record's quadrature vector.

    Mode energies get mixed, so per-mode homodyne angles no longer describe
    individual coordinates and are dropped from the result."""
    if rot.matrix.shape[0] != rec.values.size:
        raise ValueError(
            f"rotation acts on {rot.matrix.shape[0]} coordinates but record holds {rec.values.size}"
        )
    return QuadratureRecord(
        values=rot.matrix @ rec.values,
        tested_modes=rec.tested_modes,
        kept_modes=rec.kept_modes,
        angles=None,
    )


def energy_test(rec: QuadratureRecord, Y_test: float) -> TestOutcome:
    """Energy test over the record's tested modes.

    Y_k is the mean of q^2 + p^2 over the first k modes, Z_n the same mean
    over the remaining n modes; the test passes iff Y_k <= Y_test, boundary
    inclusive."""
    if Y_test < 0:
        raise ValueError(f"Y_test must be >= 0, got {Y_test}")
    energies = rec.mode_energies()
    y_k = float(energies[: rec.tested_modes].mean())
    z_n = float(energies[rec.tested_modes :].mean())
    return TestOutcome(passed=y_k <= Y_test, Y_k=y_k, Z_n=z_n, threshold=Y_test)


@dataclass(frozen=True)
class Lemma1Result:
    """Empirical failure rate of the event Z_n >= g(delta) * Y_k over
    uniform sphere samples, with its Wilson interval."""

    failures: int
    trials: int
    rate: float
    g: float
    delta: float
    variant: SphereVariant
    wilson_low: float
    wilson_high: float

    @property
    def wilson_half_width(self) -> float:
        return 0.5 * (self.wilson_high - self.wilson_low)


def mean_energies(
    gen: np.random.Generator, count: int, k: int, n: int, dof: int
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` draws of the per-mode mean energies (Y_k, Z_n) of k tested
    and n kept modes with ``dof`` i.i.d. standard normal coordinates each:
    exactly Y_k = chi2_{dof k} / k and then Z_n = chi2_{dof n} / n,
    independent, in memory and time that do not grow with k or n."""
    y_k = gen.chisquare(dof * k, count) / k
    z_n = gen.chisquare(dof * n, count) / n
    return y_k, z_n


def _lemma1_chunk(gen: np.random.Generator, count: int, n: int, k: int, g: float, dof: int) -> int:
    y_k, z_n = mean_energies(gen, count, k, n, dof)
    return int(np.count_nonzero(z_n >= g * y_k))


def mc_lemma1(
    n: int,
    k: int,
    delta: float,
    trials: int,
    variant: SphereVariant = SphereVariant.REAL,
    seed: int = 0,
    workers: int = 1,
) -> Lemma1Result:
    """Monte Carlo check of the sphere-concentration bound.

    Counts how often, for a uniform unit vector in real dimension n + k
    (real variant) or complex dimension n + k (complex variant), the
    kept-mode mean energy Z_n reaches g(delta) times the tested-mode mean
    Y_k. The bound asserts that this failure rate is at most delta.

    A uniform vector is a standard Gaussian one divided by its norm, which
    cancels from Z_n >= g Y_k. So with d = 1 (real) or 2 (complex) real
    coordinates per mode, Z_n / Y_k is exactly F(d n, d k), and each trial
    draws the two chi-square variates of :func:`mean_energies`.

    Trials are partitioned into chunks with counter-derived seeds, so the
    count is bit-identical for any ``workers`` value.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    g = g_factor(GFactorInputs(delta=delta, n=n, k=k, variant=variant))
    fn = partial(_lemma1_chunk, n=n, k=k, g=g, dof=2 if variant is SphereVariant.COMPLEX else 1)
    failures = sum(mc.run_chunked(fn, trials, seed, workers=workers))
    lo, hi = mc.wilson_interval(failures, trials)
    return Lemma1Result(
        failures=failures,
        trials=trials,
        rate=failures / trials,
        g=g,
        delta=delta,
        variant=variant,
        wilson_low=lo,
        wilson_high=hi,
    )


def write_quadrature_csv(rec: QuadratureRecord, path: str | Path) -> None:
    """Write one row per mode with columns mode,q,p,tested (tested in 0/1)."""
    q = rec.values[0::2]
    p = rec.values[1::2]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["mode", "q", "p", "tested"])
        for i in range(rec.modes):
            writer.writerow([i, repr(float(q[i])), repr(float(p[i])), int(i < rec.tested_modes)])


def read_quadrature_csv(path: str | Path) -> QuadratureRecord:
    """Read a record written by :func:`write_quadrature_csv`.

    The header row is mandatory and the tested flags must mark a prefix of
    the modes (tested modes come first)."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["mode", "q", "p", "tested"]:
            raise ValueError(f"expected header 'mode,q,p,tested', got {header!r}")
        rows = [row for row in reader if row]
    if not rows:
        raise ValueError("record holds no modes")
    values = np.empty(2 * len(rows))
    tested_flags = []
    for i, row in enumerate(rows):
        if len(row) != 4:
            raise ValueError(f"row {i} must have 4 columns, got {row!r}")
        if int(row[0]) != i:
            raise ValueError(f"mode indices must be consecutive from 0, got {row[0]!r} at row {i}")
        values[2 * i] = float(row[1])
        values[2 * i + 1] = float(row[2])
        flag = int(row[3])
        if flag not in (0, 1):
            raise ValueError(f"tested flag must be 0 or 1, got {row[3]!r}")
        tested_flags.append(flag)
    k = sum(tested_flags)
    if tested_flags != [1] * k + [0] * (len(rows) - k):
        raise ValueError("tested flags must mark a prefix of the modes")
    return QuadratureRecord(values=values, tested_modes=k, kept_modes=len(rows) - k)
