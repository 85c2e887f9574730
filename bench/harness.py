"""Operation accounting, tracing and manifest handling shared by the workloads.

Every timed operation goes through :meth:`Ledger.op`, which counts it as
attempted, times it, and counts it as failed when the program raises or its
output is not a valid manifest. Checks against the oracles run after the
timed call and only record problems; they never count as failures.

Tracing is a :class:`Tracer` passed to the workload: it records one span per
call into a package layer, made from the benchmark's own files. The untraced
runs use :class:`NullTracer`, whose ``call`` is a plain call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SCHEMA = SRC / "cvqkd" / "schemas" / "manifest.schema.json"

LAYERS = ("cli", "secparams", "tailbounds", "specfun", "fockspace", "mc", "symmetry", "protocol")
# Longest a single fresh-interpreter command may take before the run gives up.
SUBPROCESS_TIMEOUT_S = 120


class OpFailed(Exception):
    """The program did not produce a usable result for one operation."""


class NullTracer:
    enabled = False

    def span(self, name: str):
        return contextlib.nullcontext()

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """In-memory spans: name, start, end, parent span and run id."""

    enabled = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span = {"id": len(self.spans), "name": name, "run": self.run_id,
                "parent": self._stack[-1] if self._stack else None, "start": perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield
        finally:
            span["end"] = perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per layer spent in its spans minus the time of their children."""
    child_time: dict[tuple[str, int], float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[(span["run"], span["parent"])] += span["end"] - span["start"]
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        own = span["end"] - span["start"] - child_time[(span["run"], span["id"])]
        totals[span["name"].split(".", 1)[0]] += own
    return dict(totals)


def span_durations(spans: list[dict]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        out[span["name"]].append(span["end"] - span["start"])
    return out


@dataclass(frozen=True)
class Kernel:
    """A small fixed piece of work, not the program's, timed ``reps`` times
    before each operation it calibrates. Its time against ``reference_s``
    tells how much slower than the reference the machine ran."""

    name: str
    run: Callable[[], object]
    reps: int
    reference_s: float


def process_kernel(reps: int = 1) -> Kernel:
    """A fresh interpreter that imports numpy, for operations that start one."""
    argv = [sys.executable, "-c", "import numpy"]
    env = subprocess_env()
    return Kernel("process", lambda: subprocess.run(argv, env=env, check=True, timeout=SUBPROCESS_TIMEOUT_S),
                  reps, 0.17)


class Ledger:
    """Attempted and failed operations, their times, and check problems.

    With ``kernel_for``, a function from an operation kind to its
    :class:`Kernel`, each operation is preceded by timed calls of its kernel,
    kept in ``calibration`` apart from the operation times, so that the
    speed the machine ran at during the round can be read from them.
    """

    def __init__(self, tracer=None, kernel_for=None):
        self.tracer = tracer or NullTracer()
        self.kernel_for = kernel_for
        self.kernels: dict[str, Kernel] = {}
        self.calibration: dict[str, list[float]] = defaultdict(list)
        self.kernel_op_time: dict[str, float] = defaultdict(float)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.times: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)

    def op(self, kind: str, call, accept=None, count: int = 1):
        """Time ``call()`` as ``count`` operations of ``kind``; ``accept``
        turns its raw output into the result or raises OpFailed."""
        kernel = self.kernel_for(kind) if self.kernel_for is not None else None
        if kernel is not None:
            self.kernels[kernel.name] = kernel
            for _ in range(kernel.reps):
                start = perf_counter()
                kernel.run()
                self.calibration[kernel.name].append(perf_counter() - start)
        self.attempted += count
        start = perf_counter()
        try:
            with self.tracer.span("bench." + kind):
                out = call()
        except Exception as exc:  # the benchmark keeps running and counts it
            self._fail(kind, count, f"{type(exc).__name__}: {exc}")
            return None
        elapsed = perf_counter() - start
        if accept is not None:
            try:
                out = accept(out)
            except OpFailed as exc:
                self._fail(kind, count, str(exc))
                return None
        self.times[kind].append(elapsed)
        self.counts[kind] += count
        if kernel is not None:
            self.kernel_op_time[kernel.name] += elapsed
        return out

    def slowdown(self, name: str) -> float:
        """How much slower than the reference the machine ran for the
        operations kernel ``name`` calibrates: its mean time in this round,
        without its lowest and highest tenth (single calls that something
        else interrupted), over its reference time."""
        times = sorted(self.calibration[name])
        cut = len(times) // 10
        return statistics.fmean(times[cut:len(times) - cut]) / self.kernels[name].reference_s

    def reference_time(self) -> float:
        """The round's operation time at the reference speed: the time of
        the operations each kernel calibrates, over that kernel's slowdown."""
        return sum(seconds / self.slowdown(name) for name, seconds in self.kernel_op_time.items())

    def _fail(self, kind: str, count: int, message: str) -> None:
        self.failed += count
        self.failures.append(f"{kind}: {message}")

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def total_time(self, *kinds: str) -> float:
        return sum(sum(self.times[k]) for k in kinds)

    def rate(self, *kinds: str) -> float:
        """Operations of these kinds completed per second of their own time."""
        return sum(self.counts[k] for k in kinds) / self.total_time(*kinds)


def pooled_median(rounds: list[Ledger], kind: str) -> float:
    """Median time of one operation of ``kind`` over all rounds."""
    return statistics.median(t for ledger in rounds for t in ledger.times[kind])


def round_median(rounds: list[Ledger], fn) -> float:
    """Median over rounds of a per-round figure."""
    return statistics.median(fn(ledger) for ledger in rounds)


class ManifestChecker:
    """Strict JSON parsing plus validation against the package's schema."""

    def __init__(self):
        import jsonschema

        schema = json.loads(SCHEMA.read_text())
        self._validator = jsonschema.validators.validator_for(schema)(schema)

    def __call__(self, text: str) -> dict:
        try:
            doc = oracles.strict_json(text)
        except ValueError as exc:
            raise OpFailed(f"manifest is not strict JSON: {exc}") from exc
        errors = list(self._validator.iter_errors(doc))
        if errors:
            raise OpFailed(f"manifest fails the schema: {errors[0].message}")
        return doc


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("CVQKD_SEED", None)
    return env


def run_cli(tr, argv: list[str]) -> subprocess.CompletedProcess:
    """One ``cvqkd`` command in a fresh interpreter, as a ``cli.command`` span."""
    return tr.call("cli.command", subprocess.run, [sys.executable, "-m", "cvqkd.cli", *argv],
                   env=subprocess_env(), capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S, cwd=ROOT)


def inproc_cli(main, argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` in this process, with its stdout captured."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def accept_manifest(checker: ManifestChecker, codes=(0, 2)):
    """Accept a (returncode, stdout) pair or CompletedProcess whose exit code
    is one of ``codes`` and whose stdout is a valid manifest."""

    def accept(out):
        code, text = (out.returncode, out.stdout) if isinstance(out, subprocess.CompletedProcess) else out
        if code not in codes:
            detail = out.stderr.strip() if isinstance(out, subprocess.CompletedProcess) else ""
            raise OpFailed(f"exit code {code} {detail}".strip())
        return code, checker(text)

    return accept
