"""Benchmark of the cvqkd package: one command, three workloads.

    python3 bench/run.py --workload calculator|montecarlo|frontend \\
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/``. With ``--trace 0`` it sets the workload up, times the set-up of
fresh processes, then runs whole rounds of the workload's operations for
about S seconds (at least one round) and prints the end-to-end metrics; the
gated times are read at a reference machine speed, from calibration kernels
timed before every operation (see ``bench/README.md``). With
``--trace 1`` it runs one untraced round of the workload and then one traced
round of every workload, and prints the per-layer metrics. Either way the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric by name with its unit, the workload's own named metrics and the
environment. Results, spans and layer self times are also written under
``bench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before numpy loads: on a machine with two
# shared cores, a second BLAS thread (two per worker in montecarlo) makes the
# timings follow the load on the other core as well as on this one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import importlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import harness

ROOT = harness.ROOT
WORKLOADS = ("calculator", "montecarlo", "frontend")
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
SETUP_TIMEOUT_S = 120

# Per-layer metrics read from the traced rounds: the median duration of the
# spans with the metric's name less its "_s" suffix. The rest are computed
# by the workloads (counts and sizes) or below (rates, self times, overhead).
SPAN_METRICS = (
    "cli.build_parser_s", "cli.validate_manifest_s", "cli.main_bounds_s",
    "cli.main_verify_integrals_s", "cli.main_verify_lm_s",
    "secparams.security_report_het_s", "secparams.security_report_hom_s", "secparams.dims_heterodyne_s",
    "secparams.dims_homodyne_s", "secparams.epsilon_general_s",
    "tailbounds.g_factor_s", "tailbounds.beta_root_s", "tailbounds.f_tail_s", "tailbounds.max_photon_tail_s",
    "specfun.log_reg_upper_gamma_int_s", "specfun.log_binomial_s", "specfun.reg_upper_gamma_s",
    "fockspace.exact_max_tail_s", "fockspace.verify_operator_inequality_s",
    "mc.chunk_generator_s", "mc.pool_dispatch_s",
    "symmetry.mc_lemma1_n1000_k100_s", "symmetry.mc_lemma1_n500_k500_s", "symmetry.mc_lemma1_n2000_k50_s",
    "symmetry.sample_haar_unitary_s", "symmetry.sample_haar_orthogonal_s", "symmetry.to_symplectic_s",
    "symmetry.rotation_check_s", "symmetry.symmetrize_s", "symmetry.energy_test_s",
    "symmetry.write_quadrature_csv_s", "symmetry.read_quadrature_csv_s",
    "protocol.estimate_abort_rate_s", "protocol.front_end_statistics_s", "protocol.simulate_bob_outcomes_s",
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, draw the inputs, make the warm-up call and exit (times set-up)")
    return parser.parse_args(argv)


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _git():
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None, "note": "not a git checkout"}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, env=env,
                              timeout=60).stdout.strip()

    return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def environment() -> dict:
    from importlib.metadata import version

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "jsonschema": version("jsonschema"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git": _git(),
    }


def _fresh_process_seconds(argv: list[str], env: dict | None = None) -> float:
    start = perf_counter()
    subprocess.run(argv, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S)
    return perf_counter() - start


def _op_time(ledger) -> float:
    return sum(sum(times) for times in ledger.times.values())


def _geomean_cost(named: dict) -> float:
    """Geometric mean of the named metrics as costs: seconds as they are,
    rates inverted to seconds per item."""
    costs = [value if unit == "s" else 1.0 / value for value, unit in named.values()]
    return math.exp(sum(math.log(c) for c in costs) / len(costs))


def end_to_end(module, seed: int, seconds: float) -> tuple[dict, list, dict]:
    inputs = module.prepare(seed)
    module.warm_up(inputs)
    setup = [_fresh_process_seconds([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                                     "--workload", module.NAME, "--seed", str(seed)])
             for _ in range(SETUP_SAMPLES)]
    kernel_for = module.calibration()
    rounds, walls = [], []
    while True:
        ledger = harness.Ledger(kernel_for=kernel_for)
        t0 = perf_counter()
        module.run_round(inputs, ledger, harness.NullTracer())
        walls.append(perf_counter() - t0)
        rounds.append(ledger)
        # Whole rounds that fit in the run's length, judged by operation time
        # (the first round's wall time also holds computing the oracles).
        if (len(rounds) + 1) * statistics.median(_op_time(r) for r in rounds) > seconds:
            break
    reference = [r.reference_time() for r in rounds]
    slowdown = sum(_op_time(r) for r in rounds) / sum(reference)
    named = module.named_metrics(rounds)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "round_ref_s": (statistics.median(reference), "s"),
        "geomean_cost_ref_s": (_geomean_cost(named) / slowdown, "s"),
    }
    kinds = sorted({kind for r in rounds for kind in r.times})
    wall = {"round_s": (statistics.median(_op_time(r) for r in rounds), "s"),
            "geomean_cost_s": (_geomean_cost(named), "s"),
            "slowdown": (slowdown, "ratio")}
    extra = {"named": {**named, **wall}, "rounds": len(rounds), "setup_samples_s": setup, "round_wall_s": walls,
             "round_ref_s": reference, "op_times": [dict(r.times) for r in rounds],
             "calibration_s": [dict(r.calibration) for r in rounds],
             "op_seconds_per_round": {k: sum(r.total_time(k) for r in rounds) / len(rounds) for k in kinds}}
    return metrics, rounds, extra


def traced(own: str, modules: dict, seed: int) -> tuple[dict, list, dict]:
    inputs = {}
    for name, module in modules.items():
        inputs[name] = module.prepare(seed)
        module.warm_up(inputs[name])
    untraced = harness.Ledger()
    modules[own].run_round(inputs[own], untraced, harness.NullTracer())
    ledgers, spans = {}, []
    for name, module in modules.items():
        tracer = harness.Tracer(run_id=f"{name}-seed{seed}")
        ledgers[name] = harness.Ledger(tracer)
        module.run_round(inputs[name], ledgers[name], tracer)
        spans += tracer.spans
    durations = harness.span_durations(spans)
    metrics = {name: (statistics.median(durations[name[:-2]]), "s") for name in SPAN_METRICS}
    for name, module in modules.items():
        metrics.update(module.layer_metrics([ledgers[name]]))
    metrics["fockspace.sample_composition_draws_per_s"] = (
        modules["montecarlo"].TRIALS / statistics.median(durations["fockspace.sample_composition"]), "1/s")
    env = harness.subprocess_env()
    metrics["cli.import_s"] = (statistics.median(
        _fresh_process_seconds([sys.executable, "-c", "import cvqkd.cli"], env) for _ in range(IMPORT_SAMPLES)), "s")
    self_times = harness.self_times(spans)
    for layer in harness.LAYERS:
        metrics[f"{layer}.self_s"] = (self_times[layer], "s")
    base = _op_time(untraced)
    metrics["trace.overhead_pct"] = (100.0 * (_op_time(ledgers[own]) - base) / base, "%")
    metrics["trace.spans"] = (len(spans), "count")

    harness.OUT.mkdir(parents=True, exist_ok=True)
    with open(harness.OUT / f"spans-{own}-seed{seed}.jsonl", "w") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
    # Only the own workload's rounds count as attempted and failed, so that
    # the failed share matches its untraced runs. Another workload's traced
    # round may fail only at the fault its module names.
    rounds = [untraced, ledgers[own]]
    for name, ledger in ledgers.items():
        if name != own:
            known = getattr(modules[name], "KNOWN_FAULT", None)
            rounds[-1].problems += ledger.problems + [
                f"traced {name} round: {f}" for f in ledger.failures if not (known and f.startswith(known + ":"))]
    extra = {"self_times_s": self_times, "untraced_op_s": base, "traced_op_s": _op_time(ledgers[own])}
    return metrics, rounds, extra


def main(argv=None) -> int:
    args = _parse(argv)
    if not (harness.SRC / "cvqkd").is_dir():
        print(f"bench: no package source at {harness.SRC / 'cvqkd'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    if args.setup_only:
        module = importlib.import_module(args.workload)
        module.warm_up(module.prepare(args.seed))
        return 0
    if args.trace:
        modules = {name: importlib.import_module(name) for name in WORKLOADS}
        metrics, rounds, extra = traced(args.workload, modules, args.seed)
    else:
        module = importlib.import_module(args.workload)
        metrics, rounds, extra = end_to_end(module, args.seed, args.seconds)
    env = environment()
    problems = [p for r in rounds for p in r.problems]
    failures = [f for r in rounds for f in r.failures]
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())},
    }
    for name, (value, unit) in sorted({**metrics, **extra.get("named", {})}.items()):
        print(f"metric {name} = {value:.6g} {unit}")
    for line in failures:
        print(f"failed: {line}")
    for line in problems[:50]:
        print(f"problem: {line}")
    print("env " + json.dumps(env, sort_keys=True))
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
              "environment": env, "failures": failures, "problems": problems, **extra, **result}
    harness.OUT.mkdir(parents=True, exist_ok=True)
    (harness.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
