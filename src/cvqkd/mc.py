"""Deterministic chunked Monte Carlo execution.

Trials are split into fixed-size chunks and chunk i always draws from a
generator seeded by (master_seed, i), independently of how chunks are
assigned to workers. Per-chunk results are combined with order-independent
reductions (integer sums, concatenation by chunk index), so every estimate
is bit-identical for any worker count.
"""

from __future__ import annotations

import math
import os
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
]

DEFAULT_CHUNK_SIZE = 4096


def chunk_generator(seed: int, index: int) -> np.random.Generator:
    """Generator for chunk ``index`` of the stream rooted at ``seed``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))


def chunk_counts(trials: int) -> list[int]:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    full, rest = divmod(trials, DEFAULT_CHUNK_SIZE)
    return [DEFAULT_CHUNK_SIZE] * full + ([rest] if rest else [])


def _eval_chunk(fn: Callable, seed: int, job: tuple[int, int]):
    index, count = job
    return fn(chunk_generator(seed, index), count)


def run_chunked(fn: Callable, trials: int, seed: int, workers: int = 1) -> list:
    """Run ``fn(generator, count)`` over every chunk and return the per-chunk
    results in chunk order.

    At most one process per chunk and per CPU is started, whatever
    ``workers`` asks for. ``fn`` must be picklable (a module-level function,
    possibly wrapped in functools.partial) when more than one runs.
    """
    jobs = list(enumerate(chunk_counts(trials)))
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        return [_eval_chunk(fn, seed, job) for job in jobs]
    call = partial(_eval_chunk, fn, seed)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(call, jobs))


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion at one standard score."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in [0, {trials}], got {successes}")
    p_hat = successes / trials
    denom = 1.0 + 1.0 / trials
    center = (p_hat + 1.0 / (2.0 * trials)) / denom
    half = math.sqrt(p_hat * (1.0 - p_hat) / trials + 1.0 / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)
