"""Workload ``frontend``: the literal energy-test path at m = 2000 modes.

Haar QR, the rotation embedding with its O(m^3) checks, the matrix-vector
product, the energy test and CSV record I/O do almost all the work; no Monte
Carlo runs. A round runs ``run_front_end`` on one heterodyne and one
homodyne record (n = 200, k = 1800), writes each symmetrized record to CSV
and reads it back, and runs ``simulate --dump-record`` at the same size as a
fresh-interpreter command whose record is read back and tested again.

The README example ``simulate --n 200 --k 10000 --dump-record`` is left
out: its dense m = 10,200 rotation needs well over this machine's 7 GB.

The seed draws the channel, the threshold and the program's seeds; the
amount of work does not depend on it.
"""

from __future__ import annotations

import numpy as np

import harness
from cvqkd import mc
from cvqkd.protocol import (
    ChannelModel,
    Detection,
    FrontEndResult,
    ProtocolConfig,
    run_front_end,
    simulate_bob_outcomes,
)
from cvqkd.symmetry import (
    SymplecticRotation,
    energy_test,
    read_quadrature_csv,
    sample_haar_orthogonal,
    sample_haar_unitary,
    symmetrize,
    to_symplectic,
    write_quadrature_csv,
)

NAME = "frontend"

N, K = 200, 1800
RECORDS_PER_DETECTION = 1
DUMP_TRIALS = 100


def _draw_config(rng: np.random.Generator, detection: Detection) -> ProtocolConfig:
    channel = ChannelModel(transmittance=float(rng.uniform(0.3, 1.0)), excess_noise=float(rng.uniform(0.0, 0.1)))
    cfg = ProtocolConfig(n=N, k=K, lam=float(rng.uniform(0.5, 2.0)), detection=detection, channel=channel, Y_test=1.0)
    # A threshold within half a percent of the honest mean lets both test
    # outcomes occur.
    y_test = cfg.expected_Y_k * float(rng.uniform(0.995, 1.005))
    return ProtocolConfig(n=N, k=K, lam=cfg.lam, detection=detection, channel=channel, Y_test=y_test)


class Inputs:
    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        self.records = []
        for detection in (Detection.HETERODYNE, Detection.HOMODYNE):
            cfg = _draw_config(rng, detection)
            self.records += [(cfg, int(s)) for s in rng.integers(0, 2**31, RECORDS_PER_DETECTION)]
        dump = self.records[0][0]
        harness.OUT.mkdir(parents=True, exist_ok=True)
        self.csv_paths = [harness.OUT / f"frontend-{seed}-{i}.csv" for i in range(len(self.records))]
        self.dump_path = harness.OUT / f"frontend-{seed}-dump.csv"
        self.copy_path = harness.OUT / f"frontend-{seed}-dump-copy.csv"
        self.dump_argv = ["simulate", "--n", str(N), "--k", str(K), "--lambda", repr(dump.lam),
                          "--detection", "heterodyne", "--transmittance", repr(dump.channel.transmittance),
                          "--excess-noise", repr(dump.channel.excess_noise), "--trials", str(DUMP_TRIALS),
                          "--seed", str(int(rng.integers(0, 2**31))), "--dump-record", str(self.dump_path)]
        self.checker = harness.ManifestChecker()


def calibration():
    """One kernel for every operation, the kind of work the rotation does:
    a small complex QR, a 32 MB copy and a matrix product over 8 MB."""
    rng = np.random.default_rng(0)
    z = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
    a = rng.standard_normal((1000, 1000))
    src, dst = rng.standard_normal(4_000_000), np.empty(4_000_000)

    def run():
        np.linalg.qr(z)
        np.copyto(dst, src)
        return a @ a[:, :32]

    kernel = harness.Kernel("blas", run, 3, 0.011)
    run()
    return lambda kind: kernel


def prepare(seed: int) -> Inputs:
    return Inputs(seed)


def warm_up(inputs: Inputs) -> None:
    cfg, seed = inputs.records[0]
    small = ProtocolConfig(n=10, k=10, lam=cfg.lam, detection=cfg.detection, channel=cfg.channel, Y_test=cfg.Y_test)
    front = run_front_end(small, mc.chunk_generator(seed, 0))
    write_quadrature_csv(front.record, inputs.csv_paths[0])
    read_quadrature_csv(inputs.csv_paths[0])


def _decomposed(cfg: ProtocolConfig, seed: int, tr, keep: dict) -> FrontEndResult:
    """``run_front_end`` called part by part, with the same generator."""
    gen = tr.call("mc.chunk_generator", mc.chunk_generator, seed, 0)
    rec = tr.call("protocol.simulate_bob_outcomes", simulate_bob_outcomes, cfg, gen)
    if cfg.detection is Detection.HETERODYNE:
        u = tr.call("symmetry.sample_haar_unitary", sample_haar_unitary, cfg.modes, gen)
    else:
        u = tr.call("symmetry.sample_haar_orthogonal", sample_haar_orthogonal, cfg.modes, gen)
    keep["rotation"] = rotation = tr.call("symmetry.to_symplectic", to_symplectic, u)
    symmetrized = tr.call("symmetry.symmetrize", symmetrize, rec, rotation)
    outcome = tr.call("symmetry.energy_test", energy_test, symmetrized, cfg.Y_test)
    return FrontEndResult(outcome=outcome, record=symmetrized)


def _check_record(ledger: harness.Ledger, cfg: ProtocolConfig, values: np.ndarray, outcome, raw_energy, what):
    """Energy bookkeeping of a symmetrized record, recomputed from its values."""
    q, p = values[0::2], values[1::2]
    energies = q * q + p * p
    y_k, z_n = float(energies[: cfg.k].mean()), float(energies[cfg.k :].mean())
    total = float(values @ values)
    ledger.check(values.shape == (2 * cfg.modes,), f"{what}: record shape {values.shape}")
    ledger.check(abs(y_k - outcome.Y_k) <= 1e-12 * y_k and abs(z_n - outcome.Z_n) <= 1e-12 * z_n,
                 f"{what}: Y_k, Z_n do not match the record")
    ledger.check(outcome.passed == (outcome.Y_k <= cfg.Y_test), f"{what}: passed flag")
    ledger.check(abs(cfg.k * outcome.Y_k + cfg.n * outcome.Z_n - total) <= 1e-9 * total,
                 f"{what}: Y_k and Z_n do not account for the total energy")
    if raw_energy is not None:
        ledger.check(abs(total - raw_energy) <= 1e-9 * raw_energy,
                     f"{what}: symmetrization changed the norm ({total!r} vs {raw_energy!r})")


def _records(ledger: harness.Ledger, inputs: Inputs, tr) -> None:
    checked_reference = set()
    for (cfg, seed), path in zip(inputs.records, inputs.csv_paths):
        kind = "frontend_" + cfg.detection.value[:3]
        keep: dict = {}
        if tr.enabled:
            front = ledger.op(kind, lambda: _decomposed(cfg, seed, tr, keep))
        else:
            front = ledger.op(kind, lambda: run_front_end(
                cfg, tr.call("mc.chunk_generator", mc.chunk_generator, seed, 0)))
        if front is None:
            continue
        if tr.enabled and cfg.detection not in checked_reference:
            checked_reference.add(cfg.detection)
            tr.call("symmetry.rotation_check", SymplecticRotation, keep["rotation"].matrix)
            reference = run_front_end(cfg, mc.chunk_generator(seed, 0))
            ledger.check(np.array_equal(reference.record.values, front.record.values)
                         and reference.outcome == front.outcome,
                         f"{kind}: parts of run_front_end differ from one call")
        raw = simulate_bob_outcomes(cfg, mc.chunk_generator(seed, 0)).values
        _check_record(ledger, cfg, front.record.values, front.outcome, float(raw @ raw), kind)

        ledger.op("csv_write", lambda: tr.call("symmetry.write_quadrature_csv", write_quadrature_csv,
                                               front.record, path))
        back = ledger.op("csv_read", lambda: tr.call("symmetry.read_quadrature_csv", read_quadrature_csv, path))
        if back is not None:
            ledger.check(np.array_equal(back.values, front.record.values)
                         and (back.tested_modes, back.kept_modes) == (cfg.k, cfg.n),
                         f"{kind}: CSV round trip is not bit-identical")


def _dump(ledger: harness.Ledger, inputs: Inputs, tr) -> None:
    out = ledger.op("record_cli", lambda: harness.run_cli(tr, inputs.dump_argv),
                    harness.accept_manifest(inputs.checker, (0,)))
    if out is None:
        return
    run = out[1]["results"]["record_run"]
    cfg = inputs.records[0][0]
    back = ledger.op("csv_read", lambda: tr.call("symmetry.read_quadrature_csv", read_quadrature_csv,
                                                 inputs.dump_path))
    if back is None:
        return
    ledger.check((back.tested_modes, back.kept_modes) == (K, N), "dumped record has the wrong mode split")
    y_test = out[1]["results"]["Y_test"]
    retest = ledger.op("energy_test", lambda: tr.call("symmetry.energy_test", energy_test, back, y_test))
    if retest is not None:
        ledger.check((retest.Y_k, retest.Z_n, retest.passed) == (run["Y_k"], run["Z_n"], run["passed"]),
                     "dumped record tests differently when read back")
        dumped = ProtocolConfig(n=N, k=K, lam=cfg.lam, detection=Detection.HETERODYNE, channel=cfg.channel,
                                Y_test=y_test)
        _check_record(ledger, dumped, back.values, retest, None, "dumped record")
    ledger.op("csv_write", lambda: tr.call("symmetry.write_quadrature_csv", write_quadrature_csv, back,
                                           inputs.copy_path))
    ledger.check(inputs.copy_path.read_bytes() == inputs.dump_path.read_bytes(),
                 "dumped record does not survive a CSV round trip byte for byte")


def run_round(inputs: Inputs, ledger: harness.Ledger, tr) -> None:
    _records(ledger, inputs, tr)
    _dump(ledger, inputs, tr)


def named_metrics(rounds: list[harness.Ledger]) -> dict:
    return {name: (harness.pooled_median(rounds, kind), "s")
            for name, kind in (("frontend_het_s", "frontend_het"), ("frontend_hom_s", "frontend_hom"),
                               ("record_cli_s", "record_cli"))}


def layer_metrics(rounds: list[harness.Ledger]) -> dict:
    """Sizes of the heterodyne path at m = N + K modes, from array shapes."""
    m = N + K
    return {
        "symmetry.rotation_bytes": ((2 * m) ** 2 * 8, "bytes"),
        # Householder QR of an m x m complex matrix with Q formed: 8/3 m^3
        # complex multiply-adds, 4 real flops each.
        "symmetry.qr_flops": (4 * 8 * m**3 // 3, "count"),
    }
