"""Tests for Haar sampling, the symplectic embedding, symmetrization, the
energy test, and the concentration Monte Carlo harness."""

import os

import numpy as np
import pytest
from scipy.stats import binom, f, ks_2samp

from cvqkd import mc
from cvqkd.symmetry import (
    Lemma1Result,
    QuadratureRecord,
    SphereVariant,
    SymplecticRotation,
    energy_test,
    mc_lemma1,
    read_quadrature_csv,
    sample_haar_orthogonal,
    sample_haar_unitary,
    sample_unit_sphere,
    symmetrize,
    to_symplectic,
    write_quadrature_csv,
)


class TestQuadratureRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureRecord(values=np.zeros(5), tested_modes=1, kept_modes=1)
        with pytest.raises(ValueError):
            QuadratureRecord(values=np.zeros(8), tested_modes=0, kept_modes=4)
        with pytest.raises(ValueError):
            QuadratureRecord(values=np.zeros(8), tested_modes=2, kept_modes=3)
        with pytest.raises(ValueError):
            QuadratureRecord(values=np.zeros(8), tested_modes=2, kept_modes=2,
                             angles=np.zeros(3))

    def test_mode_energies(self):
        rec = QuadratureRecord(values=np.array([1.0, 2.0, 3.0, 4.0]),
                               tested_modes=1, kept_modes=1)
        assert rec.mode_energies().tolist() == [5.0, 25.0]


class TestHaarUnitary:
    def test_single_mode_is_pure_phase(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            u = sample_haar_unitary(1, rng)
            assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_unitarity_residual(self):
        rng = np.random.default_rng(2)
        for m in (2, 5, 17, 64):
            u = sample_haar_unitary(m, rng)
            residual = np.abs(u.conj().T @ u - np.eye(m)).max()
            assert residual <= 1e-10

    def test_first_entry_moment(self):
        # Haar moment E|U_ij|^2 = 1/m
        rng = np.random.default_rng(3)
        u = sample_haar_unitary(2, rng, size=100_000)
        moment = (np.abs(u[:, 0, 0]) ** 2).mean()
        assert moment == pytest.approx(0.5, abs=0.01)

    def test_batch_shape(self):
        rng = np.random.default_rng(4)
        assert sample_haar_unitary(3, rng, size=7).shape == (7, 3, 3)


class TestHaarOrthogonal:
    def test_orthogonality_residual(self):
        rng = np.random.default_rng(5)
        for d in (1, 3, 24):
            r = sample_haar_orthogonal(d, rng)
            assert np.abs(r.T @ r - np.eye(d)).max() <= 1e-10

    def test_one_dimensional_signs(self):
        rng = np.random.default_rng(6)
        r = sample_haar_orthogonal(1, rng, size=100_000)
        plus = np.count_nonzero(r[:, 0, 0] > 0) / 100_000
        assert plus == pytest.approx(0.5, abs=0.01)

    def test_first_entry_moment(self):
        rng = np.random.default_rng(7)
        r = sample_haar_orthogonal(3, rng, size=100_000)
        assert (r[:, 0, 0] ** 2).mean() == pytest.approx(1.0 / 3.0, abs=0.01)


class TestUnitSphere:
    def test_statistics(self):
        rng = np.random.default_rng(8)
        x = sample_unit_sphere(7, rng, size=100_000)
        assert np.allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-12)
        assert np.abs(x.mean(axis=0)).max() <= 0.01
        assert np.abs((x**2).mean(axis=0) - 1.0 / 7.0).max() <= 0.01


class TestToSymplectic:
    def test_identity(self):
        s = to_symplectic(np.eye(3))
        assert np.array_equal(s.matrix, np.eye(6))

    def test_imaginary_identity_rotates_each_plane(self):
        s = to_symplectic(1j * np.eye(2))
        expected = np.zeros((4, 4))
        for i in range(2):
            expected[2 * i, 2 * i + 1] = -1.0  # q' = -p
            expected[2 * i + 1, 2 * i] = 1.0   # p' = q
        assert np.array_equal(s.matrix, expected)

    def test_block_structure_exact(self):
        rng = np.random.default_rng(9)
        m = 5
        u = sample_haar_unitary(m, rng)
        s = to_symplectic(u)
        # un-permute back to stacked (q-block, p-block) order
        pos = np.empty(2 * m, dtype=int)
        pos[0::2] = np.arange(m)
        pos[1::2] = m + np.arange(m)
        stacked = np.empty_like(s.matrix)
        stacked[np.ix_(pos, pos)] = s.matrix
        assert np.array_equal(stacked[:m, :m], np.real(u))
        assert np.array_equal(stacked[:m, m:], -np.imag(u))
        assert np.array_equal(stacked[m:, :m], np.imag(u))
        assert np.array_equal(stacked[m:, m:], np.real(u))

    def test_orthogonality_and_isometry(self):
        rng = np.random.default_rng(10)
        u = sample_haar_unitary(8, rng)
        s = to_symplectic(u)
        assert np.abs(s.matrix.T @ s.matrix - np.eye(16)).max() <= 1e-9
        x = rng.standard_normal(16)
        assert abs(np.linalg.norm(s.matrix @ x) - np.linalg.norm(x)) <= 1e-9

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            to_symplectic(np.eye(3) * 1.5)
        with pytest.raises(ValueError):
            to_symplectic(np.ones((2, 3)))

    def test_real_orthogonal_acts_blockwise(self):
        rng = np.random.default_rng(11)
        r = sample_haar_orthogonal(4, rng)
        s = to_symplectic(r)
        x = rng.standard_normal(8)
        y = s.matrix @ x
        assert np.allclose(y[0::2], r @ x[0::2], atol=1e-12)
        assert np.allclose(y[1::2], r @ x[1::2], atol=1e-12)


class TestSymplecticRotationValidation:
    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            SymplecticRotation(matrix=np.eye(4) * 1.1)
        with pytest.raises(ValueError):
            SymplecticRotation(matrix=np.eye(5)[:4])


class TestSymmetrize:
    def test_identity_rotation(self):
        rng = np.random.default_rng(12)
        rec = QuadratureRecord(values=rng.standard_normal(10), tested_modes=2, kept_modes=3)
        out = symmetrize(rec, SymplecticRotation(matrix=np.eye(10)))
        assert np.array_equal(out.values, rec.values)

    def test_zero_vector(self):
        rng = np.random.default_rng(13)
        rec = QuadratureRecord(values=np.zeros(8), tested_modes=2, kept_modes=2)
        rot = to_symplectic(sample_haar_unitary(4, rng))
        assert np.array_equal(symmetrize(rec, rot).values, np.zeros(8))

    def test_energy_invariance(self):
        rng = np.random.default_rng(14)
        rec = QuadratureRecord(values=rng.standard_normal(24), tested_modes=4, kept_modes=8)
        rot = to_symplectic(sample_haar_unitary(12, rng))
        out = symmetrize(rec, rot)
        assert out.mode_energies().sum() == pytest.approx(rec.mode_energies().sum(), abs=1e-9)

    def test_weighted_statistic_invariance(self):
        # k*Y_k + n*Z_n is the total energy, preserved by the rotation
        rng = np.random.default_rng(15)
        rec = QuadratureRecord(values=rng.standard_normal(40), tested_modes=5, kept_modes=15)
        rot = to_symplectic(sample_haar_unitary(20, rng))
        before = energy_test(rec, 1.0)
        after = energy_test(symmetrize(rec, rot), 1.0)
        total_before = 5 * before.Y_k + 15 * before.Z_n
        total_after = 5 * after.Y_k + 15 * after.Z_n
        assert total_after == pytest.approx(total_before, abs=1e-9)

    def test_dimension_mismatch(self):
        rec = QuadratureRecord(values=np.zeros(8), tested_modes=2, kept_modes=2)
        with pytest.raises(ValueError):
            symmetrize(rec, SymplecticRotation(matrix=np.eye(6)))


class TestEnergyTest:
    def test_all_zero_passes(self):
        rec = QuadratureRecord(values=np.zeros(8), tested_modes=2, kept_modes=2)
        out = energy_test(rec, 0.5)
        assert out.passed and out.Y_k == 0.0

    def test_boundary_inclusive(self):
        # tested modes at (q, p) = (1, 1) give Y_k exactly 2
        values = np.array([1.0, 1.0, 1.0, 1.0, 0.3, 0.1])
        rec = QuadratureRecord(values=values, tested_modes=2, kept_modes=1)
        out = energy_test(rec, 2.0)
        assert out.Y_k == 2.0
        assert out.passed

    def test_zero_threshold_fails(self):
        rng = np.random.default_rng(16)
        rec = QuadratureRecord(values=rng.standard_normal(8), tested_modes=2, kept_modes=2)
        assert not energy_test(rec, 0.0).passed

    def test_statistics_values(self):
        values = np.array([1.0, 0.0, 0.0, 2.0, 3.0, 0.0, 0.0, 4.0])
        rec = QuadratureRecord(values=values, tested_modes=2, kept_modes=2)
        out = energy_test(rec, 10.0)
        assert out.Y_k == pytest.approx((1.0 + 4.0) / 2.0)
        assert out.Z_n == pytest.approx((9.0 + 16.0) / 2.0)
        assert out.normalization == "per_mode"


class TestRotationCommutesWithMeasurement:
    def test_y_k_distribution_unchanged_for_isotropic_records(self):
        # Two-sample KS between Y_k with and without symmetrization over
        # i.i.d. Gaussian records; the laws must agree.
        rng = np.random.default_rng(17)
        m, k = 12, 4
        replicas = 10_000
        raw = rng.standard_normal((replicas, 2 * m))
        raw_energy = raw[:, 0::2] ** 2 + raw[:, 1::2] ** 2
        y_raw = raw_energy[:, :k].mean(axis=1)

        rotated_records = rng.standard_normal((replicas, 2 * m))
        units = sample_haar_unitary(m, rng, size=replicas)
        y_rot = np.empty(replicas)
        for i in range(replicas):
            rot = to_symplectic(units[i])
            vec = rot.matrix @ rotated_records[i]
            energies = vec[0::2] ** 2 + vec[1::2] ** 2
            y_rot[i] = energies[:k].mean()
        result = ks_2samp(y_raw, y_rot)
        assert result.pvalue > 0.001


class TestMcLemma1:
    def test_rate_below_budget(self):
        res = mc_lemma1(200, 100, 0.05, trials=20_000, seed=7)
        assert isinstance(res, Lemma1Result)
        assert res.rate <= res.delta + 3.0 * res.wilson_half_width
        assert res.g > 1.0

    def test_large_delta_trivial(self):
        res = mc_lemma1(50, 200, 0.9, trials=5_000, seed=8)
        assert res.rate <= 0.9

    def test_complex_variant(self):
        res = mc_lemma1(100, 100, 0.05, trials=20_000,
                        variant=SphereVariant.COMPLEX, seed=9)
        assert res.rate <= res.delta + 3.0 * res.wilson_half_width

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            mc_lemma1(10, 10, 0.1, trials=0, seed=0)

    def test_deterministic_and_worker_independent(self):
        # 9000 trials fill three chunks
        a = mc_lemma1(60, 30, 0.1, trials=9_000, seed=42)
        b = mc_lemma1(60, 30, 0.1, trials=9_000, seed=42)
        c = mc_lemma1(60, 30, 0.1, trials=9_000, seed=42, workers=2)
        assert a == b == c

    def test_worker_count_capped(self, monkeypatch):
        # A stand-in pool records its size and maps in this process, so no
        # process is started however many workers are asked for.
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(mc, "ProcessPoolExecutor", SerialPool)
        trials = 3 * mc.DEFAULT_CHUNK_SIZE
        capped = mc_lemma1(60, 30, 0.1, trials=trials, seed=43, workers=10**6)
        assert capped == mc_lemma1(60, 30, 0.1, trials=trials, seed=43, workers=1)
        expected = min(3, os.cpu_count() or 1)
        assert sizes == ([expected] if expected > 1 else [])

    @pytest.mark.parametrize("n, k, delta, variant", [
        (1000, 100, 0.05, SphereVariant.REAL),
        (100, 100, 0.05, SphereVariant.COMPLEX),
    ])
    def test_count_follows_exact_f_tail(self, n, k, delta, variant):
        # Z_n / Y_k is F(d n, d k) with d = 1 (real) or 2 (complex) real
        # coordinates per mode, so the count is binomial with that tail
        trials = 100_000
        res = mc_lemma1(n, k, delta, trials=trials, variant=variant, seed=44)
        d = 2 if variant is SphereVariant.COMPLEX else 1
        lo, hi = binom.interval(1.0 - 1e-6, trials, f.sf(res.g, d * n, d * k))
        assert lo <= res.failures <= hi

    def test_infeasible_g_propagates(self):
        from cvqkd.tailbounds import InfeasibleParameters

        with pytest.raises(InfeasibleParameters):
            mc_lemma1(100, 5, 0.05, trials=100, seed=0)


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(18)
        rec = QuadratureRecord(values=rng.standard_normal(12), tested_modes=2, kept_modes=4)
        path = tmp_path / "record.csv"
        write_quadrature_csv(rec, path)
        back = read_quadrature_csv(path)
        assert np.array_equal(back.values, rec.values)
        assert back.tested_modes == 2 and back.kept_modes == 4

    def test_header_mandatory(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1.0,2.0,1\n1,0.5,0.5,0\n")
        with pytest.raises(ValueError):
            read_quadrature_csv(path)

    def test_tested_prefix_required(self, tmp_path):
        path = tmp_path / "scattered.csv"
        path.write_text("mode,q,p,tested\n0,1.0,0.0,0\n1,0.0,1.0,1\n")
        with pytest.raises(ValueError):
            read_quadrature_csv(path)

    def test_bad_flag_rejected(self, tmp_path):
        path = tmp_path / "flag.csv"
        path.write_text("mode,q,p,tested\n0,1.0,0.0,2\n1,0.0,1.0,0\n")
        with pytest.raises(ValueError):
            read_quadrature_csv(path)
