"""Tests for the measured FEB transfer curves behind the surrogate."""

import numpy as np
import pytest

from repro.engine.calibration import FEBCalibration, calibrate_feb


class TestFEBCalibration:
    def test_apply_interpolates(self):
        cal = FEBCalibration([-1.0, 0.0, 1.0], [-0.9, 0.0, 0.9],
                             [0.01, 0.01, 0.01])
        out = cal.apply(np.array([0.5]))
        assert out[0] == pytest.approx(0.45)

    def test_noise_sampled_when_rng_given(self):
        cal = FEBCalibration([-1.0, 1.0], [-0.5, 0.5], [0.3, 0.3])
        rng = np.random.default_rng(0)
        a = cal.apply(np.zeros(200), rng)
        assert a.std() > 0.1

    def test_output_clipped(self):
        cal = FEBCalibration([-1.0, 1.0], [-2.0, 2.0], [0.0, 0.0])
        out = cal.apply(np.array([-1.0, 1.0]))
        assert np.abs(out).max() <= 1.0

    def test_save_load_round_trip(self, tmp_path):
        cal = FEBCalibration([-1.0, 1.0], [-0.7, 0.7], [0.1, 0.2])
        path = tmp_path / "cal.npz"
        cal.save(path)
        loaded = FEBCalibration.load(path)
        np.testing.assert_allclose(loaded.mean, cal.mean)


class TestCalibrateFeb:
    def test_curve_is_monotone_ish(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cal = calibrate_feb("apc-max", 16, 128, samples=120, seed=0)
        # Ends of the measured transfer must bracket the middle.
        assert cal.mean[0] < cal.mean[-1]
        assert cal.mean[0] < 0 < cal.mean[-1]

    def test_fc_calibration(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cal = calibrate_feb("fc-apc", 32, 128, samples=100, seed=0)
        assert cal.mean[-1] > 0.5  # saturates positive

    def test_cache_hit(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        calibrate_feb("apc-avg", 16, 128, samples=60, seed=1)
        before = len(list(tmp_path.glob("*.npz")))
        calibrate_feb("apc-avg", 16, 128, samples=60, seed=1)
        assert len(list(tmp_path.glob("*.npz"))) == before
