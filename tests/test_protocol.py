"""Tests for the honest-protocol front-end simulation."""

import math

import numpy as np
import pytest
from scipy.stats import chi2, kstest, kurtosis

from cvqkd.protocol import (
    ChannelModel,
    Detection,
    ProtocolConfig,
    estimate_abort_rate,
    front_end_statistics,
    run_front_end,
    run_summary,
    simulate_bob_outcomes,
)
from cvqkd.symmetry import mc_lemma1


def make_config(n=50, k=20, lam=1.0, detection=Detection.HETERODYNE,
                tau=1.0, xi=0.0, Y_test=5.0):
    return ProtocolConfig(n=n, k=k, lam=lam, detection=detection,
                          channel=ChannelModel(tau, xi), Y_test=Y_test)


class TestValidation:
    def test_channel(self):
        with pytest.raises(ValueError):
            ChannelModel(0.0, 0.0)
        with pytest.raises(ValueError):
            ChannelModel(1.2, 0.0)
        with pytest.raises(ValueError):
            ChannelModel(0.5, -0.1)

    def test_config(self):
        with pytest.raises(ValueError):
            make_config(n=0)
        with pytest.raises(ValueError):
            make_config(lam=0.0)
        with pytest.raises(ValueError):
            make_config(Y_test=-1.0)


class TestConventions:
    def test_expected_energy_formulas(self):
        # E[q^2+p^2] = 2 (1 + tau lam + tau xi / 2) for heterodyne
        cfg = make_config(tau=0.5, xi=0.0, lam=2.0)
        assert cfg.expected_Y_k == pytest.approx(4.0, rel=1e-14)
        cfg = make_config(tau=0.5, xi=0.05, lam=1.0)
        assert cfg.expected_Y_k == pytest.approx(2.0 * (1.0 + 0.5 + 0.0125), rel=1e-14)
        # homodyne outcomes carry the full mode variance V_B
        cfg = make_config(detection=Detection.HOMODYNE, tau=0.5, xi=0.05, lam=1.0)
        assert cfg.expected_Y_k == pytest.approx(1.0 + 2.0 * 0.5 + 0.5 * 0.05, rel=1e-14)

    def test_vacuum_heterodyne(self):
        # lam -> 0: per-quadrature variance 1, E[q^2+p^2] = 2
        cfg = make_config(n=50_000, k=50_000, lam=1e-12, tau=1.0, xi=0.0)
        rec = simulate_bob_outcomes(cfg, np.random.default_rng(0))
        energies = rec.mode_energies()
        se = energies.std(ddof=1) / math.sqrt(energies.size)
        assert abs(energies.mean() - 2.0) <= 3.0 * se
        assert rec.values.var() == pytest.approx(1.0, abs=0.02)

    def test_heterodyne_thermal_energy(self):
        # tau=1, xi=0, lam=1: E[q^2+p^2] = 4 within 0.05 at 1e5 modes
        cfg = make_config(n=50_000, k=50_000, lam=1.0, tau=1.0, xi=0.0)
        rec = simulate_bob_outcomes(cfg, np.random.default_rng(1))
        assert rec.mode_energies().mean() == pytest.approx(4.0, abs=0.05)

    def test_heterodyne_lossy_channel(self):
        cfg = make_config(n=50_000, k=50_000, lam=2.0, tau=0.5, xi=0.0)
        rec = simulate_bob_outcomes(cfg, np.random.default_rng(2))
        energies = rec.mode_energies()
        se = energies.std(ddof=1) / math.sqrt(energies.size)
        assert abs(energies.mean() - 4.0) <= 3.0 * se

    def test_heterodyne_normality(self):
        # per-quadrature sample kurtosis 3 +- 0.1 at 1e6 samples
        cfg = make_config(n=250_000, k=250_000, lam=1.0, tau=0.8, xi=0.1)
        rec = simulate_bob_outcomes(cfg, np.random.default_rng(3))
        kurt = kurtosis(rec.values, fisher=False)
        assert kurt == pytest.approx(3.0, abs=0.1)
        energies = rec.mode_energies()
        se = energies.std(ddof=1) / math.sqrt(energies.size)
        assert abs(energies.mean() - cfg.expected_Y_k) <= 3.0 * se

    def test_homodyne_outcomes(self):
        cfg = make_config(n=50_000, k=50_000, lam=1.5, tau=0.7, xi=0.1,
                          detection=Detection.HOMODYNE)
        rec = simulate_bob_outcomes(cfg, np.random.default_rng(4))
        outcomes = rec.values[0::2]
        assert np.all(rec.values[1::2] == 0.0)
        assert rec.angles is not None
        assert np.all((rec.angles >= 0.0) & (rec.angles < 2.0 * math.pi))
        se = (outcomes**2).std(ddof=1) / math.sqrt(outcomes.size)
        assert abs((outcomes**2).mean() - cfg.bob_mode_variance) <= 3.0 * se


class TestFrontEnd:
    def test_huge_threshold_always_passes(self):
        cfg = make_config(Y_test=1e12)
        res = run_front_end(cfg, np.random.default_rng(5))
        assert res.outcome.passed

    def test_zero_threshold_always_aborts(self):
        cfg = make_config(Y_test=0.0)
        res = run_front_end(cfg, np.random.default_rng(6))
        assert not res.outcome.passed

    def test_total_energy_preserved_by_symmetrization(self):
        cfg = make_config(n=30, k=10)
        seed = 7
        raw = simulate_bob_outcomes(cfg, np.random.default_rng(seed))
        res = run_front_end(cfg, np.random.default_rng(seed))
        total_raw = raw.mode_energies().sum()
        total_sym = res.record.mode_energies().sum()
        assert total_sym == pytest.approx(total_raw, abs=1e-9 * max(1.0, total_raw))

    def test_homodyne_front_end_runs(self):
        cfg = make_config(n=30, k=10, detection=Detection.HOMODYNE, Y_test=10.0)
        res = run_front_end(cfg, np.random.default_rng(9))
        assert res.outcome.Y_k >= 0.0


class TestAbortRate:
    def test_generous_threshold_rarely_aborts(self):
        cfg = make_config(n=50, k=2000, lam=1.0, tau=0.5, xi=0.05, Y_test=1.2 * 3.025)
        est = estimate_abort_rate(cfg, trials=2000, seed=10)
        assert est.rate <= 0.005

    def test_undersized_threshold_always_aborts(self):
        cfg = make_config(n=50, k=2000, lam=1.0, tau=0.5, xi=0.05, Y_test=0.8 * 3.025)
        est = estimate_abort_rate(cfg, trials=2000, seed=11)
        assert est.rate >= 0.999

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            estimate_abort_rate(make_config(), trials=0)

    def test_deterministic_across_workers(self):
        cfg = make_config(n=40, k=60)
        # 5000 trials fill two chunks
        a = estimate_abort_rate(cfg, trials=5000, seed=12)
        b = estimate_abort_rate(cfg, trials=5000, seed=12, workers=2)
        assert a == b

    def test_statistics_shapes_and_match(self):
        cfg = make_config(n=40, k=60, Y_test=3.0)
        y_k, z_n = front_end_statistics(cfg, trials=1000, seed=13)
        assert y_k.shape == z_n.shape == (1000,)
        est = estimate_abort_rate(cfg, trials=1000, seed=13)
        assert est.aborts == int(np.count_nonzero(y_k > cfg.Y_test))

    def test_pass_and_energy_overflow_is_rare(self):
        # joint event {test passes, Z_n >= g(eps/4) * Y_test} at frequency
        # <= eps/4 + 3 Wilson half-widths over honest runs
        from cvqkd.mc import wilson_interval
        from cvqkd.tailbounds import GFactorInputs, g_factor

        eps = 0.05
        cfg = make_config(n=100, k=1000, lam=1.0, tau=0.5, xi=0.05, Y_test=1.2 * 3.025)
        g = g_factor(GFactorInputs(delta=eps / 4.0, n=cfg.n, k=cfg.k))
        d_0 = g * cfg.Y_test
        trials = 5000
        y_k, z_n = front_end_statistics(cfg, trials=trials, seed=14)
        bad = int(np.count_nonzero((y_k <= cfg.Y_test) & (z_n >= d_0)))
        lo, hi = wilson_interval(bad, trials)
        assert bad / trials <= eps / 4.0 + 3.0 * 0.5 * (hi - lo)

    @pytest.mark.parametrize("detection", list(Detection))
    def test_statistics_follow_exact_chi_square_law(self, detection):
        # Y_k ~ sigma^2 chi2_{d k} / k and Z_n ~ sigma^2 chi2_{d n} / n with
        # d = 2 outcomes per mode for heterodyne and 1 for homodyne
        cfg = make_config(n=40, k=25, lam=1.5, tau=0.7, xi=0.1, detection=detection)
        if detection is Detection.HETERODYNE:
            dof, variance = 2, cfg.heterodyne_quadrature_variance
        else:
            dof, variance = 1, cfg.bob_mode_variance
        y_k, z_n = front_end_statistics(cfg, trials=20_000, seed=15)
        for values, modes in ((y_k, cfg.k), (z_n, cfg.n)):
            law = chi2(dof * modes, scale=variance / modes)
            assert kstest(values, law.cdf).pvalue > 1e-3


class TestDeploymentScale:
    def test_samplers_do_not_grow_with_mode_count(self):
        # n = 1e9 kept and k = 1e7 tested modes: any per-mode array would
        # need gigabytes per trial
        n, k = 10**9, 10**7
        res = mc_lemma1(n, k, 1e-10, trials=10_000, seed=16)
        assert res.trials == 10_000 and math.isfinite(res.g) and 0 <= res.failures <= res.trials
        cfg = make_config(n=n, k=k, lam=1.0, tau=0.5, xi=0.05, detection=Detection.HOMODYNE)
        y_k, z_n = front_end_statistics(cfg, trials=100, seed=17)
        assert y_k.shape == z_n.shape == (100,)
        assert np.all(np.isfinite(y_k)) and np.all(np.isfinite(z_n))
        # 100 means of 1e7 variables each lie within 1 % of their mean
        assert np.abs(y_k / cfg.expected_Y_k - 1.0).max() < 0.01


class TestRunSummary:
    def test_round_trips_through_json(self):
        import json

        cfg = make_config(n=10, k=5)
        res = run_front_end(cfg, np.random.default_rng(14))
        doc = run_summary(cfg, res.outcome, seed=14)
        text = json.dumps(doc)
        back = json.loads(text)
        assert back["passed"] == res.outcome.passed
        assert back["config"]["lambda"] == cfg.lam
        assert back["seed"] == 14
        assert "shot_noise_unit" in back["conventions"]
