"""Command-line front end: security-bound calculator, verification suites,
and the honest-protocol simulator.

Every invocation prints a JSON run manifest (command, fully resolved
configuration, seed, tool version, results) so that runs are auditable and
reproducible: re-running a manifest's command with its config and seed
reproduces the results bit-identically, for any worker count.

Exit codes: 0 success / verification passed / feasible; 1 usage, config, or
I/O error; 2 infeasible parameters or failed verification.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from dataclasses import asdict, replace
from importlib.resources import files
from pathlib import Path

import jsonschema

from . import __version__, mc
from .protocol import (
    AbortRateEstimate,
    ChannelModel,
    Detection,
    ProtocolConfig,
    front_end_statistics,
    run_front_end,
    run_summary,
)
from .secparams import SecurityInputs, security_report
from .symmetry import write_quadrature_csv
from .tailbounds import SphereVariant
from .verify import SUITES, require

_ENV_SEED = "CVQKD_SEED"
# Reserved chunk index for the one-off record dump, far above any trial chunk.
_RECORD_STREAM = 2**48


class CliError(Exception):
    """Usage, configuration, or I/O error (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the manifest contract
    # reserves 2 for infeasible/failed runs, so remap usage errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.lru_cache(maxsize=1)
def load_manifest_schema() -> dict:
    return json.loads(files("cvqkd").joinpath("schemas/manifest.schema.json").read_text())


@functools.lru_cache(maxsize=1)
def _manifest_validator() -> jsonschema.protocols.Validator:
    schema = load_manifest_schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_manifest(doc: dict) -> None:
    _manifest_validator().validate(doc)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cvqkd", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=str, default=None, help="JSON config file; flags override it")
        p.add_argument("--seed", type=int, default=None,
                       help=f"master seed (fallback: ${_ENV_SEED}, then 0)")
        p.add_argument("--out", type=str, default=None, help="write the manifest here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--workers", type=int, default=1, help="worker processes for Monte Carlo suites")

    def add_security_params(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, default=None, help="kept modes")
        p.add_argument("--k", type=int, default=None, help="tested modes")
        p.add_argument("--lambda", "--lam", dest="lam", type=float, default=None,
                       help="source mean photon number per mode")
        p.add_argument("--y-test", dest="Y_test", type=float, default=None, help="energy-test threshold")
        p.add_argument("--eps-test", dest="eps_test", type=float, default=None)
        p.add_argument("--eps-a", dest="eps_A", type=float, default=None)
        p.add_argument("--c", type=float, default=None, help="collective-attack exponent constant c")
        p.add_argument("--delta", type=float, default=None, help="collective-attack rate fraction delta")
        p.add_argument("--detection", choices=[d.value for d in Detection], default=None)

    p_bounds = sub.add_parser("bounds", help="compute dimensions and the final epsilon")
    add_common(p_bounds)
    add_security_params(p_bounds)
    p_bounds.add_argument("--eps-projection", dest="eps_projection", type=float, default=None,
                          help="failure budget of the projection bound (default 4*eps_test)")
    p_bounds.add_argument("--y-k-observed", dest="y_k_observed", type=float, default=None,
                          help="observed tested-mode mean energy (homodyne; default Y_test)")

    p_verify = sub.add_parser("verify", help="run one verification suite")
    p_verify.add_argument("suite", choices=tuple(SUITES))
    add_common(p_verify)
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--k", type=int, default=None)
    p_verify.add_argument("--delta", type=float, default=None)
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--variant", choices=[v.value for v in SphereVariant],
                          default=SphereVariant.REAL.value)
    p_verify.add_argument("--d0", type=float, default=None)
    p_verify.add_argument("--kmax", type=int, default=None)
    p_verify.add_argument("--p", type=int, default=None)
    p_verify.add_argument("--m", type=int, default=None)
    p_verify.add_argument("--samples", type=int, default=None, help="samples per Monte Carlo grid point")

    p_sim = sub.add_parser("simulate", help="estimate the honest abort rate")
    add_common(p_sim)
    add_security_params(p_sim)
    p_sim.add_argument("--trials", type=int, default=None, help="number of front-end runs")
    p_sim.add_argument("--transmittance", type=float, default=None)
    p_sim.add_argument("--excess-noise", dest="excess_noise", type=float, default=None)
    p_sim.add_argument("--dump-record", dest="dump_record", type=str, default=None,
                       help="also run one fully symmetrized front end and write its record CSV here")
    return parser


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise CliError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in config file {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError(f"config file {path!r} must hold a JSON object")
    return doc


# Accepted config keys -> canonical name. "lambda" is the on-disk spelling of
# the source photon number; Python code uses "lam".
_CONFIG_KEYS = {
    "n": "n", "k": "k", "lambda": "lam", "lam": "lam",
    "Y_test": "Y_test", "y_test": "Y_test",
    "eps_test": "eps_test", "eps_A": "eps_A", "eps_a": "eps_A",
    "c": "c", "delta": "delta", "detection": "detection",
    "transmittance": "transmittance", "excess_noise": "excess_noise",
    "eps_projection": "eps_projection", "y_k_observed": "y_k_observed",
    "trials": "trials", "seed": "seed",
}


def _resolve(args: argparse.Namespace, flag_names: list[str]) -> dict:
    """Merge config file and flags; flags win. Unknown config keys error."""
    raw = _load_config_file(args.config)
    resolved: dict = {}
    for key, value in raw.items():
        if key not in _CONFIG_KEYS:
            raise CliError(f"unknown config key {key!r}")
        resolved[_CONFIG_KEYS[key]] = value
    for name in flag_names:
        value = getattr(args, name, None)
        if value is not None:
            resolved[name] = value
    return resolved


def _resolve_seed(args: argparse.Namespace, config: dict) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    if "seed" in config and config["seed"] is not None:
        try:
            return int(config["seed"])
        except (TypeError, ValueError) as exc:
            raise CliError(f"config seed must be an integer, got {config['seed']!r}") from exc
    env = os.environ.get(_ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise CliError(f"${_ENV_SEED} must be an integer, got {env!r}") from exc
    return 0


def _emit(manifest: dict, out: str | None) -> None:
    validate_manifest(manifest)
    try:
        text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise CliError(f"the manifest holds a non-finite number: {exc}") from exc
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise CliError(f"cannot write {out!r}: {exc}") from exc


def _manifest(command: str, config: dict, seed: int, results: dict) -> dict:
    return {
        "command": command,
        "config_echo": config,
        "seed": seed,
        "tool_version": __version__,
        "results": results,
    }


def _cmd_bounds(args: argparse.Namespace) -> int:
    config = _resolve(args, ["n", "k", "lam", "Y_test", "eps_test", "eps_A", "c", "delta",
                             "detection", "eps_projection", "y_k_observed"])
    seed = _resolve_seed(args, config)
    try:
        require(config, ["n", "k", "lam", "Y_test", "eps_test", "eps_A", "c", "delta", "detection"])
        inputs = SecurityInputs(
            n=int(config["n"]), k=int(config["k"]), lam=float(config["lam"]),
            Y_test=float(config["Y_test"]), eps_test=float(config["eps_test"]),
            eps_A=float(config["eps_A"]), c=float(config["c"]), delta=float(config["delta"]),
            detection=Detection(config["detection"]),
        )
        bounds = security_report(
            inputs,
            eps_projection=config.get("eps_projection"),
            Y_k_observed=config.get("y_k_observed"),
        )
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid security inputs: {exc}") from exc
    echo = dict(config)
    echo["eps_projection"] = config.get("eps_projection", 4.0 * inputs.eps_test)
    echo["seed"] = seed
    results = asdict(bounds)
    _emit(_manifest("bounds", echo, seed, results), args.out)
    return 0 if bounds.feasible else 2


def _cmd_verify(args: argparse.Namespace) -> int:
    config = _resolve(args, ["n", "k", "delta", "trials", "variant", "d0", "kmax", "p", "m", "samples"])
    seed = _resolve_seed(args, config)
    workers = max(1, int(args.workers))
    suite = args.suite
    try:
        passed, details = SUITES[suite](config, seed, workers)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid parameters for suite {suite!r}: {exc}") from exc
    echo = dict(config)
    echo["seed"] = seed
    results = {"suite": suite, "passed": passed, "details": details}
    _emit(_manifest("verify", echo, seed, results), args.out)
    return 0 if passed else 2


def _build_protocol_config(config: dict, seed: int) -> ProtocolConfig:
    require(config, ["n", "k", "lam", "detection"])
    channel = ChannelModel(
        transmittance=float(config.get("transmittance", 1.0)),
        excess_noise=float(config.get("excess_noise", 0.0)),
    )
    cfg = ProtocolConfig(
        n=int(config["n"]), k=int(config["k"]), lam=float(config["lam"]),
        detection=Detection(config["detection"]), channel=channel,
        Y_test=float(config.get("Y_test", 1.0)), seed=seed,
    )
    if "Y_test" not in config:
        # Tunable default: a 20% guard band over the honest expectation.
        cfg = replace(cfg, Y_test=1.2 * cfg.expected_Y_k)
    return cfg


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _resolve(args, ["n", "k", "lam", "Y_test", "detection",
                             "transmittance", "excess_noise", "trials"])
    seed = _resolve_seed(args, config)
    if "trials" not in config:
        raise CliError("missing required parameter(s): trials")
    try:
        trials = int(config["trials"])
    except (TypeError, ValueError) as exc:
        raise CliError(f"trials must be an integer, got {config['trials']!r}") from exc
    if trials < 1:
        raise CliError(f"trials must be >= 1, got {trials}")
    try:
        cfg = _build_protocol_config(config, seed)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid protocol config: {exc}") from exc
    if args.format == "csv" and args.out is None:
        raise CliError("--format csv requires --out")
    workers = max(1, int(args.workers))

    y_k, z_n = front_end_statistics(cfg, trials, seed, workers=workers)
    estimate = AbortRateEstimate.from_statistics(y_k, cfg.Y_test)
    results = {
        "trials": estimate.trials, "aborts": estimate.aborts, "abort_rate": estimate.rate,
        "wilson_low": estimate.wilson_low, "wilson_high": estimate.wilson_high,
        "Y_test": cfg.Y_test, "expected_Y_k": cfg.expected_Y_k,
        "shot_noise_unit": "vacuum quadrature variance = 1",
    }

    if args.dump_record is not None:
        gen = mc.chunk_generator(seed, _RECORD_STREAM)
        front = run_front_end(cfg, gen)
        try:
            write_quadrature_csv(front.record, args.dump_record)
        except OSError as exc:
            raise CliError(f"cannot write {args.dump_record!r}: {exc}") from exc
        results["record_run"] = run_summary(cfg, front.outcome, seed)
        results["record_path"] = args.dump_record

    echo = dict(config)
    echo["Y_test"] = cfg.Y_test
    echo["seed"] = seed

    if args.format == "csv":
        try:
            with open(args.out, "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(["trial", "Y_k", "Z_n", "passed"])
                for i in range(trials):
                    writer.writerow([i, repr(float(y_k[i])), repr(float(z_n[i])),
                                     int(y_k[i] <= cfg.Y_test)])
        except OSError as exc:
            raise CliError(f"cannot write {args.out!r}: {exc}") from exc
    _emit(_manifest("simulate", echo, seed, results), None if args.format == "csv" else args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "bounds":
            return _cmd_bounds(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_simulate(args)
    except CliError as exc:
        print(f"cvqkd: error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
