"""Deterministic chunked Monte Carlo execution.

Trials are split into fixed-size chunks and chunk i always draws from a
generator seeded by (master_seed, i), independently of how chunks are
assigned to workers. Per-chunk results are combined with order-independent
reductions (integer sums, concatenation by chunk index), so every estimate
is bit-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Callable

import numpy as np

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "chunk_generator",
    "chunk_counts",
    "run_chunked",
    "wilson_interval",
    "wilson_half_width",
]

DEFAULT_CHUNK_SIZE = 4096


def chunk_generator(seed: int, index: int) -> np.random.Generator:
    """Generator for chunk ``index`` of the stream rooted at ``seed``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))


def chunk_counts(trials: int, chunk_size: int = DEFAULT_CHUNK_SIZE) -> list[int]:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    full, rest = divmod(trials, chunk_size)
    return [chunk_size] * full + ([rest] if rest else [])


def _eval_chunk(fn: Callable, seed: int, job: tuple[int, int]):
    index, count = job
    return fn(chunk_generator(seed, index), count)


def run_chunked(
    fn: Callable,
    trials: int,
    seed: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: int = 1,
) -> list:
    """Run ``fn(generator, count)`` over every chunk and return the per-chunk
    results in chunk order.

    ``fn`` must be picklable (a module-level function, possibly wrapped in
    functools.partial) when workers > 1.
    """
    jobs = list(enumerate(chunk_counts(trials, chunk_size)))
    if workers <= 1 or len(jobs) == 1:
        return [_eval_chunk(fn, seed, job) for job in jobs]
    call = partial(_eval_chunk, fn, seed)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(call, jobs))


def wilson_interval(successes: int, trials: int, z: float = 1.0) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion at z standard scores."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in [0, {trials}], got {successes}")
    p_hat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p_hat + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / trials + z2 / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def wilson_half_width(successes: int, trials: int, z: float = 1.0) -> float:
    lo, hi = wilson_interval(successes, trials, z)
    return 0.5 * (hi - lo)
