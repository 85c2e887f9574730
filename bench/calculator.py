"""Workload ``calculator``: the commands a calculator user types, and the
exact oracles.

Start-up, argument parsing, schema validation and the scalar formulas do
almost all the work here; no Monte Carlo or dense linear algebra runs. A
round holds, always in the same numbers:

* eight fresh-interpreter commands: ``bounds`` heterodyne and homodyne,
  feasible and infeasible, from flags and from a config file, and
  ``verify chernoff|maxphoton|opineq``;
* 40 in-process ``cli.main(["bounds", ...])`` manifests, with the parser
  build and the manifest validation timed on their own for ten of them;
* ``verify maxphoton --n 2 --p 2 --m 3``, whose manifest holds
  ``"exponent": -Infinity`` and so fails strict parsing every time;
* five ``security_report`` sweeps over 4000 parameter sets, and its parts
  (``dims_*``, ``epsilon_general``, ``g_factor``) on 400 of them;
* the exact-oracle grids of acceptance criteria 4-6, direct ``specfun``
  grids, and one enumeration of 324,632 compositions.

The seed draws every parameter; the amount of work does not depend on it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from fractions import Fraction

import numpy as np

import harness
import oracles
from cvqkd import cli
from cvqkd.fockspace import enumerate_compositions, exact_max_tail, verify_operator_inequality
from cvqkd.protocol import Detection
from cvqkd.secparams import SecurityInputs, dims_heterodyne, dims_homodyne, epsilon_general, security_report
from cvqkd.specfun import log_binomial, log_reg_upper_gamma_int, reg_upper_gamma
from cvqkd.tailbounds import GFactorInputs, beta_root, f_tail, g_factor, max_photon_tail

NAME = "calculator"

CATEGORIES = ("het_ok", "het_infeasible", "hom_ok", "hom_beta", "hom_short")
INPROC_BOUNDS_PER_CATEGORY = 10
PARTS_TIMED_MANIFESTS = 10
REPORTS_PER_CATEGORY = {"het_ok": 1000, "het_infeasible": 1000, "hom_ok": 1000, "hom_beta": 500, "hom_short": 500}
PARTS_EVERY = 10
REPORT_SWEEPS = 5
SPECFUN_GRID = 200
ENUMERATION = (6, 30)  # C(35, 5) = 324,632 compositions
FAULT_ARGV = ["verify", "maxphoton", "--n", "2", "--p", "2", "--m", "3"]
KNOWN_FAULT = "maxphoton_m_above_p"

GRID_KINDS = ("grid_opineq", "grid_maxphoton", "grid_ftail", "grid_log_q", "grid_log_binomial",
              "grid_reg_q", "enumeration", "enumeration_max_tail")

_KEYS = ("n", "k", "lam", "Y_test", "eps_test", "eps_A", "c", "delta", "detection")
_FLAGS = {"n": "--n", "k": "--k", "lam": "--lambda", "Y_test": "--y-test", "eps_test": "--eps-test",
          "eps_A": "--eps-a", "c": "--c", "delta": "--delta", "detection": "--detection"}


def _draw(rng: np.random.Generator, category: str) -> dict:
    """One parameter set of a category, well away from every decision edge.

    Ranges are chosen so the category holds by a margin: heterodyne k <= 50
    makes the g denominator at most -0.2; homodyne d_0 in [2.5, 14] gives
    beta < -0.06; homodyne d_0 in [18, 20] with n <= 40 leaves beta n below
    half of ln(16/eps).
    """
    while True:
        p = {
            "n": int(10 ** rng.uniform(5.0, 9.5)),
            "k": int(10 ** rng.uniform(4.0, 7.0)),
            "lam": float(rng.uniform(0.05, 2.0)),
            "eps_test": float(10 ** rng.uniform(-15.0, -8.0)),
            "eps_A": float(10 ** rng.uniform(-15.0, -8.0)),
            "c": float(10 ** rng.uniform(-3.0, 0.0)),
            "delta": float(rng.uniform(0.01, 0.5)),
            "detection": "homodyne" if category.startswith("hom") else "heterodyne",
        }
        if category == "het_infeasible":
            p["k"] = int(rng.integers(1, 51))
        if category == "hom_short":
            p["n"] = int(rng.integers(10, 41))
        if category.startswith("het"):
            p["Y_test"] = float(rng.uniform(2.0, 8.0))
        else:
            target = {"hom_ok": (18.0, 40.0), "hom_beta": (2.5, 14.0), "hom_short": (18.0, 20.0)}[category]
            g = oracles.derive_bounds({**p, "Y_test": 1.0}, oracles.FLOAT_MATH)["g"]
            p["Y_test"] = float(rng.uniform(*target)) / (2.0 * g)
        if not oracles.near_tie(p):
            return p


def _argv(p: dict) -> list[str]:
    argv = ["bounds"]
    for key in _KEYS:
        argv += [_FLAGS[key], p[key] if key == "detection" else repr(p[key])]
    return argv


def _inputs(p: dict) -> SecurityInputs:
    return SecurityInputs(n=p["n"], k=p["k"], lam=p["lam"], Y_test=p["Y_test"], eps_test=p["eps_test"],
                          eps_A=p["eps_A"], c=p["c"], delta=p["delta"], detection=Detection(p["detection"]))


class Inputs:
    """Everything a round needs, drawn from the seed."""

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.cli_bounds = [_draw(rng, c) for c in ("het_ok", "het_infeasible", "hom_ok", "hom_beta")]
        file_params = _draw(rng, "het_ok")
        override = float(rng.uniform(2.0, 8.0))
        harness.OUT.mkdir(parents=True, exist_ok=True)
        self.config_path = harness.OUT / f"calculator-config-{seed}.json"
        config = {("lambda" if key == "lam" else key): file_params[key] for key in _KEYS}
        self.config_path.write_text(json.dumps(config))
        self.config_params = {**file_params, "Y_test": override}
        self.config_argv = ["bounds", "--config", str(self.config_path), "--y-test", repr(override)]

        self.maxphoton = (int(rng.integers(2, 5)), int(rng.integers(2, 9)))
        self.maxphoton += (int(rng.integers(1, self.maxphoton[1] + 1)),)
        while True:
            n_op, d0_op = int(rng.integers(5, 31)), float(rng.uniform(0.5, 10.0))
            product = Fraction(n_op) * Fraction(d0_op)
            if product - math.floor(product) > 1e-6:
                break
        self.opineq = (n_op, d0_op, math.ceil(n_op * d0_op) + 200)

        self.inproc_bounds = [_draw(rng, c) for c in ("het_ok", "het_infeasible", "hom_ok", "hom_beta")
                              for _ in range(INPROC_BOUNDS_PER_CATEGORY)]
        self.reports = [_draw(rng, c) for c in CATEGORIES for _ in range(REPORTS_PER_CATEGORY[c])]
        self.parts = self.reports[::PARTS_EVERY]

        self.opineq_grid = [(n, d0, math.ceil(n * d0) + 500) for n in (1, 5, 20, 50)
                            for d0 in (0.5, 3.0, 10.0, 20.0, 30.0)]
        self.maxphoton_grid = [(n, p, m) for n in range(1, 6) for p in range(13) for m in range(p + 1)]
        self.ftail_grid = [(n, float(d0)) for n in range(2, 501, 2) for d0 in np.linspace(17.5, 100.0, 20)]
        self.log_q_grid = [(int(s), float(x)) for s, x in zip(rng.integers(1, 400, SPECFUN_GRID),
                                                                rng.uniform(0.0, 600.0, SPECFUN_GRID))]
        self.reg_q_grid = [(float(s), float(x)) for s, x in zip(rng.uniform(0.5, 300.0, SPECFUN_GRID),
                                                                  rng.uniform(0.0, 300.0, SPECFUN_GRID))]
        binomial_n = rng.integers(1, 60_000, SPECFUN_GRID)
        self.binomial_grid = [(int(n), int(rng.integers(0, n + 1))) for n in binomial_n]
        self.enumeration_m = int(rng.integers(8, ENUMERATION[1] + 1))
        self._expected: dict = {}
        # security_report results already found to match the oracle, by
        # position in ``reports``
        self.verified_reports: dict = {}
        self.checker = harness.ManifestChecker()

    def expected(self, key, compute):
        """Oracle values, computed once per process on first use."""
        if key not in self._expected:
            self._expected[key] = compute()
        return self._expected[key]

    def bounds_oracle(self, params: dict) -> dict:
        return self.expected(("bounds", json.dumps(params, sort_keys=True)), lambda: oracles.derive_bounds(params))


CLI_KINDS = ("bounds_cli", "verify_cli")


def _python_loop() -> float:
    total = 0.0
    for i in range(3000):
        total += math.sqrt(i) * (i % 7)
    return total


def calibration():
    """Kernels for the operations of a round: a fresh interpreter that
    imports numpy for the fresh-interpreter commands, and for the rest a
    pure-Python loop of float and integer arithmetic, the kind of work the
    CLI and the scalar formulas do."""
    python = harness.Kernel("python", _python_loop, 1, 0.00045)
    process = harness.process_kernel()
    python.run()
    process.run()
    return lambda kind: process if kind in CLI_KINDS else python


def prepare(seed: int) -> Inputs:
    return Inputs(seed)


def warm_up(inputs: Inputs) -> None:
    security_report(_inputs(inputs.reports[0]))
    harness.inproc_cli(cli.main, _argv(inputs.inproc_bounds[0]))


def _check_bounds(ledger: harness.Ledger, inputs: Inputs, what: str, params: dict, out) -> None:
    if out is None:
        return
    code, doc = out
    expected = inputs.bounds_oracle(params)
    ledger.check(code == (0 if expected["feasible"] else 2), f"{what}: exit code {code}")
    for problem in oracles.compare_bounds(doc["results"], expected):
        ledger.check(False, f"{what}: {problem}")


def _check_chernoff(ledger, out) -> None:
    if out is None:
        return
    code, doc = out
    ledger.check(code == 0 and doc["results"]["passed"], "verify chernoff did not pass")
    for row in doc["results"]["details"]["grid"]:
        lam, delta = row["lambda"], row["delta"]
        exact = oracles.poisson_cdf(math.floor((1.0 - delta) * lam), lam)
        bound = oracles.chernoff_poisson_lower(lam, delta)
        ledger.check(oracles.relative_error(row["exact"], exact) <= 1e-10, f"chernoff exact at {lam}, {delta}")
        ledger.check(oracles.relative_error(row["bound"], bound) <= 1e-12, f"chernoff bound at {lam}, {delta}")
        ledger.check(row["exact"] <= row["bound"], f"chernoff exact above bound at {lam}, {delta}")


def _check_maxphoton(ledger, n: int, p: int, m: int, exact: float, bound: float, what: str) -> None:
    ledger.check(exact == float(oracles.max_occupation_tail(n, p, m)), f"{what}: exact {exact!r}")
    ledger.check(oracles.relative_error(bound, oracles.max_photon_union_bound(n, p, m)) <= 1e-12,
                 f"{what}: bound {bound!r}")
    ledger.check(exact <= bound + 1e-12, f"{what}: exact above the bound")


def _check_opineq(ledger, n: int, d0: float, k_start: int, min_margin: float, passed: bool, what: str) -> None:
    product = Fraction(n) * Fraction(d0)
    want_start = math.ceil(product + 1)
    ledger.check(passed and k_start == want_start, f"{what}: passed={passed}, k_start={k_start}")
    want = 2 * oracles.reg_upper_gamma(n + want_start, n * d0) - 1
    ledger.check(oracles.relative_error(min_margin, want) <= 1e-9, f"{what}: min margin {min_margin!r}")


def _subprocess_ops(ledger: harness.Ledger, inputs: Inputs, tr) -> None:
    accept = harness.accept_manifest(inputs.checker)
    for params in inputs.cli_bounds:
        out = ledger.op("bounds_cli", lambda: harness.run_cli(tr, _argv(params)), accept)
        _check_bounds(ledger, inputs, f"bounds {params['detection']}", params, out)
    out = ledger.op("bounds_cli", lambda: harness.run_cli(tr, inputs.config_argv), accept)
    _check_bounds(ledger, inputs, "bounds --config", inputs.config_params, out)

    out = ledger.op("verify_cli", lambda: harness.run_cli(tr, ["verify", "chernoff"]), accept)
    _check_chernoff(ledger, out)
    n, p, m = inputs.maxphoton
    argv = ["verify", "maxphoton", "--n", str(n), "--p", str(p), "--m", str(m)]
    out = ledger.op("verify_cli", lambda: harness.run_cli(tr, argv), accept)
    if out is not None:
        details = out[1]["results"]["details"]
        ledger.check(out[0] == 0, "verify maxphoton exit code")
        _check_maxphoton(ledger, n, p, m, details["exact"], details["bound"], "verify maxphoton")
    n, d0, kmax = inputs.opineq
    argv = ["verify", "opineq", "--n", str(n), "--d0", repr(d0), "--kmax", str(kmax)]
    out = ledger.op("verify_cli", lambda: harness.run_cli(tr, argv), accept)
    if out is not None:
        details = out[1]["results"]["details"]
        ledger.check(out[0] == 0, "verify opineq exit code")
        _check_opineq(ledger, n, d0, details["k_start"], details["min_margin"], out[1]["results"]["passed"],
                      "verify opineq")


def _inproc_bounds(ledger: harness.Ledger, inputs: Inputs, tr) -> None:
    accept = harness.accept_manifest(inputs.checker)
    for i, params in enumerate(inputs.inproc_bounds):
        argv = _argv(params)
        out = ledger.op("bounds_inproc", lambda: tr.call("cli.main_bounds", harness.inproc_cli, cli.main, argv),
                        accept)
        _check_bounds(ledger, inputs, "in-process bounds", params, out)
        if out is not None and i % (len(inputs.inproc_bounds) // PARTS_TIMED_MANIFESTS) == 0:
            ledger.op("build_parser", lambda: tr.call("cli.build_parser", cli.build_parser))
            ledger.op("validate_manifest", lambda: tr.call("cli.validate_manifest", cli.validate_manifest, out[1]))
    # The one operation kept although it fails every time: strict parsing
    # rejects the -Infinity this manifest holds.
    out = ledger.op(KNOWN_FAULT, lambda: harness.inproc_cli(cli.main, FAULT_ARGV), accept)
    if out is not None:
        details = out[1]["results"]["details"]
        _check_maxphoton(ledger, 2, 2, 3, details["exact"], details["bound"], "maxphoton m > p")


def _reports(ledger: harness.Ledger, inputs: Inputs, tr) -> None:
    def sweep():
        return [tr.call("secparams.security_report_" + p["detection"][:3], security_report, _inputs(p))
                for p in inputs.reports]

    for _ in range(REPORT_SWEEPS):
        reports = ledger.op("reports", sweep, count=len(inputs.reports))
        for i, (params, report) in enumerate(zip(inputs.reports, reports or [])):
            # A result equal to one already checked needs no second 50-digit comparison.
            if inputs.verified_reports.get(i) == report:
                continue
            problems = oracles.compare_bounds(asdict(report), inputs.bounds_oracle(params))
            for problem in problems:
                ledger.check(False, f"security_report {params}: {problem}")
            if not problems:
                inputs.verified_reports[i] = report

    def parts():
        out = []
        for p in inputs.parts:
            sec = _inputs(p)
            eps = 4.0 * sec.eps_test
            if p["detection"] == "homodyne":
                bounds = tr.call("secparams.dims_homodyne", dims_homodyne, sec, eps, sec.Y_test)
                g_delta = eps / 16.0
            else:
                bounds = tr.call("secparams.dims_heterodyne", dims_heterodyne, sec, eps)
                g_delta = eps / 4.0
            eps_total = tr.call("secparams.epsilon_general", epsilon_general, sec, bounds) if bounds.feasible else None
            g = None
            if bounds.d_0 is not None:
                g = tr.call("tailbounds.g_factor", g_factor, GFactorInputs(delta=g_delta, n=sec.n, k=sec.k))
            out.append((bounds, eps_total, g))
        return out

    pieces = ledger.op("report_parts", parts, count=len(inputs.parts))
    if pieces is not None and reports is not None:
        for params, (bounds, eps_total, g), report in zip(inputs.parts, pieces, reports[::PARTS_EVERY]):
            same = (bounds.d_0, bounds.d_B, bounds.feasible, eps_total) == (report.d_0, report.d_B, report.feasible,
                                                                           report.eps_total)
            ledger.check(same, f"security_report parts disagree with the report for {params}")
            if g is not None:
                ledger.check(oracles.relative_error(g, inputs.bounds_oracle(params)["g"]) <= 1e-12,
                             f"g_factor {params}")

    root = ledger.op("beta_root", lambda: tr.call("tailbounds.beta_root", beta_root))
    if root is not None:
        want = inputs.expected("beta_root", oracles.beta_root)
        ledger.check(abs(root - float(want)) <= 1e-6, f"beta_root {root!r} vs {float(want)!r}")


def _grids(ledger: harness.Ledger, inputs: Inputs, tr) -> None:
    out = ledger.op("grid_opineq", lambda: [tr.call("fockspace.verify_operator_inequality",
                                                    verify_operator_inequality, *args)
                                            for args in inputs.opineq_grid], count=len(inputs.opineq_grid))
    for (n, d0, _), report in zip(inputs.opineq_grid, out or []):
        _check_opineq(ledger, n, d0, report.k_start, report.min_margin, report.passed, f"opineq grid {n}, {d0}")

    def maxphoton():
        return [(tr.call("fockspace.exact_max_tail", exact_max_tail, *args),
                 tr.call("tailbounds.max_photon_tail", max_photon_tail, *args).bound)
                for args in inputs.maxphoton_grid]

    out = ledger.op("grid_maxphoton", maxphoton, count=len(inputs.maxphoton_grid))
    for (n, p, m), (exact, bound) in zip(inputs.maxphoton_grid, out or []):
        _check_maxphoton(ledger, n, p, m, exact, bound, f"max-photon grid {n}, {p}, {m}")

    out = ledger.op("grid_ftail", lambda: [tr.call("tailbounds.f_tail", f_tail, *args) for args in inputs.ftail_grid],
                    count=len(inputs.ftail_grid))
    if out is not None:
        expected = inputs.expected("ftail", lambda: _ftail_oracle(inputs.ftail_grid))
        for (n, d0), ft, (beta, log_q) in zip(inputs.ftail_grid, out, expected):
            ledger.check(oracles.relative_error(ft.beta, beta) <= 1e-12, f"f_tail beta at {n}, {d0}")
            ledger.check(oracles.relative_error(ft.gamma_form.exponent, log_q) <= 1e-10, f"f_tail log Q at {n}, {d0}")
            ledger.check(ft.gamma_form.exponent <= -ft.beta * n + 1e-9, f"f_tail gamma above beta form at {n}, {d0}")

    out = ledger.op("grid_log_q", lambda: [tr.call("specfun.log_reg_upper_gamma_int", log_reg_upper_gamma_int, *args)
                                           for args in inputs.log_q_grid], count=SPECFUN_GRID)
    if out is not None:
        expected = inputs.expected("log_q", lambda: [oracles.log_reg_upper_gamma(*a) for a in inputs.log_q_grid])
        for args, got, want in zip(inputs.log_q_grid, out, expected):
            ledger.check(abs(got - float(want)) <= 1e-10 * max(1.0, abs(float(want))), f"log Q{args}: {got!r}")

    out = ledger.op("grid_log_binomial", lambda: [tr.call("specfun.log_binomial", log_binomial, *args)
                                                  for args in inputs.binomial_grid], count=SPECFUN_GRID)
    if out is not None:
        expected = inputs.expected("log_binomial", lambda: [oracles.log_binomial(*a) for a in inputs.binomial_grid])
        for args, got, want in zip(inputs.binomial_grid, out, expected):
            ledger.check(abs(got - want) <= 1e-12 * max(1.0, want), f"log C{args}: {got!r} vs {want!r}")

    out = ledger.op("grid_reg_q", lambda: [tr.call("specfun.reg_upper_gamma", reg_upper_gamma, *args)
                                           for args in inputs.reg_q_grid], count=SPECFUN_GRID)
    if out is not None:
        expected = inputs.expected("reg_q", lambda: [oracles.reg_upper_gamma(*a) for a in inputs.reg_q_grid])
        for args, got, want in zip(inputs.reg_q_grid, out, expected):
            ledger.check(abs(got - float(want)) <= 1e-10 * float(want) + 1e-300, f"Q{args}: {got!r}")

    n, p = ENUMERATION
    dist = ledger.op("enumeration", lambda: tr.call("fockspace.enumerate_compositions", enumerate_compositions, n, p))
    if dist is not None:
        rows = dist.data
        code = rows @ (p + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)
        ledger.check(rows.shape == (math.comb(n + p - 1, p), n) and bool(np.all(rows.sum(axis=1) == p))
                     and bool(np.all(rows >= 0)) and bool(np.all(np.diff(code) < 0)),
                     "enumeration is not every composition once, in descending order")
    m = inputs.enumeration_m
    exact = ledger.op("enumeration_max_tail", lambda: tr.call("fockspace.exact_max_tail", exact_max_tail, n, p, m))
    if exact is not None:
        ledger.check(exact == float(oracles.max_occupation_tail(n, p, m)), f"exact_max_tail({n}, {p}, {m})")


def _ftail_oracle(grid):
    M = oracles.high_precision_math()
    c0 = (1 - 1 / M.sqrt(M.mpf(2))) ** 2
    out = []
    for n, d0 in grid:
        d = M.mpf(d0)
        out.append((c0 * d - M.log(d) / 2, oracles.log_reg_upper_gamma(M.mpf(n) / 2, n * d * c0)))
    return out


def run_round(inputs: Inputs, ledger: harness.Ledger, tr) -> None:
    _subprocess_ops(ledger, inputs, tr)
    _inproc_bounds(ledger, inputs, tr)
    _reports(ledger, inputs, tr)
    _grids(ledger, inputs, tr)


def named_metrics(rounds: list[harness.Ledger]) -> dict:
    return {
        "bounds_cli_s": (harness.pooled_median(rounds, "bounds_cli"), "s"),
        "verify_exact_cli_s": (harness.pooled_median(rounds, "verify_cli"), "s"),
        "bounds_inproc_per_s": (harness.round_median(rounds, lambda r: r.rate("bounds_inproc")), "1/s"),
        "reports_per_s": (harness.round_median(rounds, lambda r: r.rate("reports")), "1/s"),
        "oracle_grid_s": (harness.round_median(rounds, lambda r: r.total_time(*GRID_KINDS)), "s"),
    }


def layer_metrics(rounds: list[harness.Ledger]) -> dict:
    n, p = ENUMERATION
    return {"fockspace.enumerate_compositions_rows_per_s":
            (math.comb(n + p - 1, p) * sum(len(r.times["enumeration"]) for r in rounds)
             / sum(r.total_time("enumeration") for r in rounds), "1/s")}
