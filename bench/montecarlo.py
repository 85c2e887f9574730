"""Workload ``montecarlo``: the verifier's sampling suites at README and
acceptance sizes.

Chunked sampling does almost all the work here and no Haar rotation is
built. A round runs:

* ``mc_lemma1`` at the three criterion-1 triples, 1e5 trials each, once
  with ``workers=1`` and once with ``workers=2``;
* ``estimate_abort_rate`` at the criterion-9 configuration (m = 10,200,
  1e4 trials);
* ``front_end_statistics`` and ``simulate --format csv`` at n = 200,
  k = 1800, 1e4 trials, with the same seed;
* ``verify integrals`` and ``verify lm`` at README sizes (their README
  commands take no seed, so they run at seed 0);
* the criterion-9 composition draw, 1e4 x (200 modes, 1041 photons).

The seed sets the program's seeds; the amount of work does not depend on it.
"""

from __future__ import annotations

import math

import numpy as np

import harness
import oracles
from cvqkd import cli, mc
from cvqkd.fockspace import sample_composition
from cvqkd.protocol import ChannelModel, Detection, ProtocolConfig, estimate_abort_rate, front_end_statistics
from cvqkd.secparams import SecurityInputs, dims_heterodyne
from cvqkd.symmetry import mc_lemma1

NAME = "montecarlo"

LEMMA1_TRIPLES = ((1000, 100, 0.05), (500, 500, 0.01), (2000, 50, 0.1))
LEMMA1_TRIALS = 100_000
TRIALS = 10_000
SIM = {"n": 200, "k": 1800, "lam": 1.0, "transmittance": 0.5, "excess_noise": 0.05}
C9 = {"n": 200, "k": 10_000, "lam": 1.0, "transmittance": 0.5, "excess_noise": 0.05}
C9_EPS = 0.05
FIRST_MODE_THRESHOLD = 12
POOL_PROBE_CHUNKS = 8

VERIFY_KINDS = ("verify_integrals", "verify_lm", "composition")


def _config(params: dict, y_test: float) -> ProtocolConfig:
    return ProtocolConfig(n=params["n"], k=params["k"], lam=params["lam"], detection=Detection.HETERODYNE,
                          channel=ChannelModel(params["transmittance"], params["excess_noise"]), Y_test=y_test)


def _quadrature_variance(params: dict) -> float:
    """Per-quadrature variance of honest heterodyne outcomes, (V_B + 1) / 2
    with V_B = 1 + 2 tau lam + tau xi."""
    tau, lam, xi = params["transmittance"], params["lam"], params["excess_noise"]
    return (2.0 + 2.0 * tau * lam + tau * xi) / 2.0


def _trivial_chunk(gen, count: int) -> int:
    return count


class Inputs:
    def __init__(self, seed: int):
        seeds = np.random.default_rng([seed, 2]).integers(0, 2**31, 4)
        self.lemma1_seed, self.abort_seed, self.stats_seed, self.composition_seed = (int(s) for s in seeds)
        sigma2 = _quadrature_variance(C9)
        self.c9_y_test = 1.2 * 2.0 * sigma2
        self.c9 = _config(C9, self.c9_y_test)
        self.sim = _config(SIM, 1.2 * 2.0 * _quadrature_variance(SIM))
        harness.OUT.mkdir(parents=True, exist_ok=True)
        self.csv_path = harness.OUT / f"simulate-{seed}.csv"
        self.simulate_argv = ["simulate", "--n", str(SIM["n"]), "--k", str(SIM["k"]), "--lambda", repr(SIM["lam"]),
                              "--detection", "heterodyne", "--transmittance", repr(SIM["transmittance"]),
                              "--excess-noise", repr(SIM["excess_noise"]), "--trials", str(TRIALS),
                              "--seed", str(self.stats_seed), "--format", "csv", "--out", str(self.csv_path)]
        self.c9_security = dict(n=C9["n"], k=C9["k"], lam=C9["lam"], Y_test=self.c9_y_test, eps_test=1e-12,
                                eps_A=1e-12, c=1e-3, delta=1e-2)
        self.checker = harness.ManifestChecker()


def calibration():
    """One kernel for every operation, the kind of work the sampling does:
    2.5 million normal draws from the package's bit generator into a 20 MB
    array, squared and summed."""
    gen = np.random.Generator(np.random.PCG64(0))
    draws = np.empty(2_500_000)

    def run():
        gen.standard_normal(out=draws)
        np.multiply(draws, draws, out=draws)
        return draws.sum()

    kernel = harness.Kernel("rng", run, 2, 0.048)
    run()
    return lambda kind: kernel


def prepare(seed: int) -> Inputs:
    return Inputs(seed)


def warm_up(inputs: Inputs) -> None:
    mc_lemma1(*LEMMA1_TRIPLES[0], trials=mc.DEFAULT_CHUNK_SIZE, seed=inputs.lemma1_seed)


def _lemma1(ledger: harness.Ledger, inputs: Inputs, tr) -> None:
    counts = {}
    for workers, kind in ((1, "lemma1_w1"), (2, "lemma1_w2")):
        for n, k, delta in LEMMA1_TRIPLES:
            span = f"symmetry.mc_lemma1_n{n}_k{k}" + ("" if workers == 1 else "_workers2")
            res = ledger.op(kind, lambda: tr.call(span, mc_lemma1, n, k, delta, trials=LEMMA1_TRIALS,
                                                  seed=inputs.lemma1_seed, workers=workers), count=LEMMA1_TRIALS)
            if res is not None:
                counts[(workers, n)] = res.failures
                big_l = math.log(2.0 / delta)
                g = (1 + 2 * math.sqrt(big_l / n) + 2 * big_l / n) / (1 - 2 * math.sqrt(big_l / k))
                ledger.check(oracles.relative_error(res.g, g) <= 1e-12, f"mc_lemma1 g at {n}, {k}: {res.g!r}")
                prob = oracles.f_tail(res.g, n, k)
                ledger.check(oracles.count_consistent(res.failures, LEMMA1_TRIALS, prob),
                             f"mc_lemma1({n}, {k}, {delta}) count {res.failures} vs exact F tail {prob:.3e}")
    for n, _, _ in LEMMA1_TRIPLES:
        if (1, n) in counts and (2, n) in counts:
            ledger.check(counts[(1, n)] == counts[(2, n)], f"mc_lemma1 n={n}: workers=1 and 2 counts differ")


def _abort_and_statistics(ledger: harness.Ledger, inputs: Inputs, tr) -> None:
    est = ledger.op("abort", lambda: tr.call("protocol.estimate_abort_rate", estimate_abort_rate, inputs.c9, TRIALS,
                                             seed=inputs.abort_seed), count=TRIALS)
    if est is not None:
        prob = oracles.chi2_mean_sf(inputs.c9_y_test, _quadrature_variance(C9), 2 * C9["k"], C9["k"])
        ledger.check(oracles.count_consistent(est.aborts, TRIALS, prob),
                     f"{est.aborts} aborts vs exact abort probability {prob:.3e}")

    sigma2 = _quadrature_variance(SIM)
    stats = ledger.op("statistics", lambda: tr.call("protocol.front_end_statistics", front_end_statistics,
                                                    inputs.sim, TRIALS, inputs.stats_seed), count=TRIALS)
    if stats is not None:
        y_k, z_n = stats
        ledger.check(len(y_k) == TRIALS == len(z_n), "front_end_statistics length")
        for name, values, modes in (("Y_k", y_k, SIM["k"]), ("Z_n", z_n, SIM["n"])):
            p_value = oracles.chi2_mean_ks(values, sigma2, 2 * modes, modes)
            ledger.check(p_value >= oracles.KS_ALPHA, f"{name} vs exact chi-square law: KS p = {p_value:.2e}")

    out = ledger.op("simulate_csv", lambda: tr.call("cli.main_simulate", harness.inproc_cli, cli.main,
                                                    inputs.simulate_argv), harness.accept_manifest(inputs.checker, (0,)))
    if out is None:
        return
    results = out[1]["results"]
    rows = np.loadtxt(inputs.csv_path, delimiter=",", skiprows=1)
    ledger.check(rows.shape == (TRIALS, 4) and bool(np.all(rows[:, 0] == np.arange(TRIALS))),
                 "simulate CSV has one row per trial")
    passed = rows[:, 3] == 1
    ledger.check(bool(np.all(passed == (rows[:, 1] <= results["Y_test"]))), "simulate CSV passed flags")
    ledger.check(int(np.count_nonzero(~passed)) == results["aborts"], "simulate CSV aborts vs manifest")
    prob = oracles.chi2_mean_sf(results["Y_test"], sigma2, 2 * SIM["k"], SIM["k"])
    ledger.check(oracles.count_consistent(results["aborts"], TRIALS, prob), "simulate aborts vs exact law")
    if stats is not None:
        ledger.check(np.array_equal(rows[:, 1], stats[0]) and np.array_equal(rows[:, 2], stats[1]),
                     "simulate CSV differs from front_end_statistics at the same seed")


def _verify(ledger: harness.Ledger, inputs: Inputs, tr) -> None:
    accept = harness.accept_manifest(inputs.checker, (0,))
    out = ledger.op("verify_integrals", lambda: tr.call("cli.main_verify_integrals", harness.inproc_cli, cli.main,
                                                        ["verify", "integrals"]), accept)
    if out is not None:
        details = out[1]["results"]["details"]
        gap = details["printed_form_gap_example"]
        ledger.check(out[1]["results"]["passed"] and details["identity_worst_rel_err"] <= 1e-10,
                     "verify integrals did not pass")
        ledger.check(oracles.relative_error(gap["defining"], oracles.reg_upper_gamma(5, 1.5)) <= 1e-12
                     and oracles.relative_error(gap["printed"], oracles.reg_upper_gamma(6, 1.5)) <= 1e-12,
                     "verify integrals: J_3(2, 1.5) forms vs Q(5, 1.5) and Q(6, 1.5)")

    out = ledger.op("verify_lm", lambda: tr.call("cli.main_verify_lm", harness.inproc_cli, cli.main,
                                                 ["verify", "lm"]), accept)
    if out is not None:
        details = out[1]["results"]["details"]
        k, n, samples = details["k"], details["n"], details["samples"]
        ledger.check(out[1]["results"]["passed"], "verify lm did not pass")
        for row in details["grid"]:
            x = row["x"]
            lower = oracles.chi2_cdf((1.0 - 2.0 * math.sqrt(x / k)) * k, k)
            upper = 1.0 - oracles.chi2_cdf((1.0 + 2.0 * math.sqrt(x / n) + 2.0 * x / n) * n, n)
            ledger.check(oracles.relative_error(row["bound"], math.exp(-x)) <= 1e-12, f"verify lm bound at x={x}")
            for name, emp, prob in (("lower", row["empirical_lower"], lower), ("upper", row["empirical_upper"], upper)):
                ledger.check(oracles.count_consistent(round(emp * samples), samples, prob),
                             f"verify lm {name} tail at x={x}: {emp} vs exact {prob:.3e}")

    def draw():
        bounds = tr.call("secparams.dims_heterodyne", dims_heterodyne, SecurityInputs(**inputs.c9_security), C9_EPS)
        photons = int(C9["n"] * bounds.d_0)
        gen = tr.call("mc.chunk_generator", mc.chunk_generator, inputs.composition_seed, 0)
        comps = tr.call("fockspace.sample_composition", sample_composition, C9["n"], photons, gen, size=TRIALS)
        return bounds, photons, comps

    out = ledger.op("composition", draw, count=TRIALS)
    if out is None:
        return
    bounds, photons, comps = out
    expected = oracles.derive_bounds({**inputs.c9_security, "detection": "heterodyne", "eps_projection": C9_EPS})
    n = C9["n"]
    ledger.check(photons == int(n * expected["d_0"]) == 1041, f"criterion-9 photons {photons}")
    ledger.check(comps.shape == (TRIALS, n) and bool(np.all(comps >= 0)) and bool(np.all(comps.sum(axis=1) == photons)),
                 "compositions do not place every photon")
    for what, hits, prob in (
        (f"max >= {expected['d_B_ceil']}", int(np.count_nonzero(comps.max(axis=1) >= expected["d_B_ceil"])),
         oracles.max_occupation_tail(n, photons, expected["d_B_ceil"])),
        (f"first mode >= {FIRST_MODE_THRESHOLD}", int(np.count_nonzero(comps[:, 0] >= FIRST_MODE_THRESHOLD)),
         oracles.first_mode_tail(n, photons, FIRST_MODE_THRESHOLD)),
    ):
        ledger.check(oracles.count_consistent(hits, TRIALS, float(prob)),
                     f"composition draw {what}: {hits} vs exact {float(prob):.3e}")


def run_round(inputs: Inputs, ledger: harness.Ledger, tr) -> None:
    _lemma1(ledger, inputs, tr)
    _abort_and_statistics(ledger, inputs, tr)
    _verify(ledger, inputs, tr)
    if tr.enabled:
        # Pool start-up and dispatch alone, on a chunk function that does no work.
        trials = POOL_PROBE_CHUNKS * mc.DEFAULT_CHUNK_SIZE
        out = tr.call("mc.pool_dispatch", mc.run_chunked, _trivial_chunk, trials, 0, workers=2)
        ledger.check(out == [mc.DEFAULT_CHUNK_SIZE] * POOL_PROBE_CHUNKS, "run_chunked lost chunks")


def named_metrics(rounds: list[harness.Ledger]) -> dict:
    def med(fn):
        return harness.round_median(rounds, fn)

    return {
        "lemma1_trials_per_s": (med(lambda r: r.rate("lemma1_w1")), "1/s"),
        "lemma1_workers2_trials_per_s": (med(lambda r: r.rate("lemma1_w2")), "1/s"),
        "abort_trials_per_s": (med(lambda r: r.rate("abort")), "1/s"),
        "simulate_csv_s": (med(lambda r: r.total_time("simulate_csv")), "s"),
        "verify_mc_s": (med(lambda r: r.total_time(*VERIFY_KINDS)), "s"),
    }


def layer_metrics(rounds: list[harness.Ledger]) -> dict:
    """Counts worked out from the trial counts and array shapes of one round."""
    chunk = mc.DEFAULT_CHUNK_SIZE
    runs = [LEMMA1_TRIALS] * (2 * len(LEMMA1_TRIPLES)) + [TRIALS] * 4  # simulate --format csv samples twice
    return {
        "mc.chunks": (sum(len(mc.chunk_counts(t)) for t in runs), "count"),
        "symmetry.lemma1_normals_bytes": (max(chunk * (n + k) * 8 for n, k, _ in LEMMA1_TRIPLES), "bytes"),
        "protocol.stats_normals_bytes": (chunk * 2 * (C9["n"] + C9["k"]) * 8, "bytes"),
    }
