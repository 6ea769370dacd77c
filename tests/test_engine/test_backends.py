"""Backend registry and the float / surrogate / noise backends."""

import numpy as np
import pytest

from repro.core.config import NetworkConfig, PoolKind
from repro.data.synthetic_mnist import to_bipolar
from repro.engine import BACKENDS, Engine, get_backend, register_backend
from repro.nn.dense import Dense
from repro.nn.module import Sequential


@pytest.fixture(scope="module")
def sc_config():
    return NetworkConfig.from_kinds(PoolKind.MAX, 128,
                                    ("APC", "APC", "APC"))


@pytest.fixture(scope="module")
def images(small_dataset):
    _, _, x_test, _ = small_dataset
    return to_bipolar(x_test)[:32]


class TestRegistry:
    def test_builtins_registered(self):
        for name in ("exact", "surrogate", "float", "noise"):
            assert name in BACKENDS

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("quantum")

    def test_custom_backend_pluggable(self, tiny_trained_lenet, sc_config,
                                      images):
        @register_backend
        class ConstantBackend:
            name = "constant-test"

            def __init__(self, plan, seed=0):
                self.units = plan.layers[-1].units

            def forward(self, imgs):
                out = np.zeros((len(imgs), self.units))
                out[:, 3] = 1.0
                return out

        try:
            engine = Engine(tiny_trained_lenet, sc_config,
                            backend="constant-test")
            assert (engine.predict(images[:4]) == 3).all()
        finally:
            BACKENDS.pop("constant-test", None)

    def test_nameless_backend_rejected(self):
        with pytest.raises(ValueError, match="name"):
            register_backend(object)


class TestFloatBackend:
    def test_matches_software_model(self, tiny_trained_lenet, sc_config,
                                    images):
        """The float backend is the software baseline: same predictions
        as the trained network's own forward pass."""
        engine = Engine(tiny_trained_lenet, sc_config, backend="float")
        np.testing.assert_array_equal(engine.predict(images),
                                      tiny_trained_lenet.predict(
                                          images))

    def test_logits_close_to_model(self, tiny_trained_lenet, sc_config,
                                   images):
        engine = Engine(tiny_trained_lenet, sc_config, backend="float")
        np.testing.assert_allclose(
            engine.forward(images),
            tiny_trained_lenet.forward(images), atol=1e-9)

    def test_deterministic(self, tiny_trained_lenet, sc_config, images):
        engine = Engine(tiny_trained_lenet, sc_config, backend="float")
        np.testing.assert_array_equal(engine.forward(images),
                                      engine.forward(images))


class TestSurrogateBackend:
    def test_error_close_to_exact_sim(self, tiny_trained_lenet,
                                      small_dataset, sc_config):
        """The surrogate must track the bit-exact simulator."""
        _, _, x_test, y_test = small_dataset
        x = to_bipolar(x_test)
        exact = Engine(tiny_trained_lenet, sc_config, backend="exact",
                       seed=0)
        exact_err = exact.error_rate(x, y_test, max_images=24)
        fast = Engine(tiny_trained_lenet, sc_config, backend="surrogate",
                      seed=0, samples=160)
        fast_err = fast.error_rate(x[:120], y_test[:120], batch_size=256)
        assert abs(fast_err - exact_err) < 25.0

    def test_noiseless_deterministic(self, tiny_trained_lenet, sc_config,
                                     images):
        """With noise disabled, repeated evaluations are identical (the
        measured transfer curve is deterministic for one seed)."""
        a = Engine(tiny_trained_lenet, sc_config, backend="surrogate",
                   seed=0, samples=120, noisy=False)
        b = Engine(tiny_trained_lenet, sc_config, backend="surrogate",
                   seed=0, samples=120, noisy=False)
        np.testing.assert_allclose(a.forward(images), a.forward(images))
        np.testing.assert_allclose(a.forward(images), b.forward(images))

    def test_curves_cached_on_plan(self, tiny_trained_lenet, sc_config):
        plan = Engine(tiny_trained_lenet, sc_config, backend="surrogate",
                      seed=0, samples=120).plan
        first = Engine(backend="surrogate", plan=plan, seed=0,
                       samples=120).backend.calibrations
        second = Engine(backend="surrogate", plan=plan, seed=0,
                        samples=120).backend.calibrations
        assert first is second


class TestNoiseBackend:
    def test_sigmas_exposed(self, tiny_trained_lenet, sc_config):
        engine = Engine(tiny_trained_lenet, sc_config, backend="noise",
                        seed=0, samples=48)
        assert len(engine.backend.stage_sigmas) == 3
        assert all(s >= 0 for s in engine.backend.stage_sigmas)

    def test_longer_streams_fewer_errors(self, tiny_trained_lenet,
                                         small_dataset):
        """Table 6's central trend under the paper's methodology."""
        _, _, x_test, y_test = small_dataset
        x = to_bipolar(x_test)
        errs = {}
        for L in (64, 512):
            cfg = NetworkConfig.from_kinds(PoolKind.MAX, L,
                                           ("APC", "APC", "APC"))
            engine = Engine(tiny_trained_lenet, cfg, backend="noise",
                            seed=0, samples=48)
            errs[L] = engine.error_rate(x, y_test, batch_size=256)
        assert errs[512] <= errs[64] + 2.0

    def test_mux_noisier_than_apc(self, tiny_trained_lenet):
        """Figure 14 through the noise lens: MUX sigma > APC sigma."""
        sigmas = {}
        for first in ("MUX", "APC"):
            cfg = NetworkConfig.from_kinds(PoolKind.MAX, 128,
                                           (first, "APC", "APC"))
            sigmas[first] = Engine(tiny_trained_lenet, cfg,
                                   backend="noise", seed=0,
                                   samples=48).backend.stage_sigmas
        assert sigmas["MUX"][0] > sigmas["APC"][0]


class TestEngineApi:
    def test_needs_model_or_plan(self, sc_config):
        with pytest.raises(ValueError, match="plan"):
            Engine(config=sc_config)

    def test_rejects_model_config_mismatch(self, sc_config):
        with pytest.raises(ValueError, match="layer kinds"):
            Engine(Sequential([Dense(784, 2)]), sc_config,
                   backend="surrogate")

    def test_plan_shared_across_backends(self, tiny_trained_lenet,
                                         sc_config, images):
        """One compiled plan drives every backend family."""
        plan = Engine(tiny_trained_lenet, sc_config,
                      backend="float").plan
        engines = {}
        for name in ("float", "noise", "exact"):
            opts = {"samples": 48} if name == "noise" else {}
            engines[name] = Engine(backend=name, plan=plan, seed=0, **opts)
            assert engines[name].plan is plan
        out = engines["exact"].predict(images[:2])
        assert out.shape == (2,)

    def test_error_rate_max_images(self, tiny_trained_lenet, sc_config,
                                   images, small_dataset):
        _, _, _, y_test = small_dataset
        engine = Engine(tiny_trained_lenet, sc_config, backend="float")
        err = engine.error_rate(images, y_test[:len(images)], max_images=8)
        assert 0.0 <= err <= 100.0
