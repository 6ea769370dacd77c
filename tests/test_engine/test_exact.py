"""Bit-identity of the batched exact backend vs the frozen legacy oracle.

The acceptance bar for the engine refactor: on fixed seeds, the batched
``exact`` backend must produce *bit-identical* logits to the pre-engine
simulator (frozen verbatim as
:class:`repro.engine.reference.ReferenceSCNetwork`), for every
inner-product-kind / pooling family and with quantized storage.
"""

import numpy as np
import pytest

from repro.core.config import NetworkConfig, PoolKind
from repro.data.synthetic_mnist import to_bipolar
from repro.nn.dense import Dense
from repro.nn.module import Sequential
from repro.engine import Engine
from repro.engine.reference import ReferenceSCNetwork


@pytest.fixture(scope="module")
def images(small_dataset):
    _, _, x_test, _ = small_dataset
    return to_bipolar(x_test)[:5]


def _logits(net, imgs):
    return np.stack([net.forward_image(i) for i in imgs])


class TestBitIdentityVsLegacy:
    @pytest.mark.parametrize("pooling,kinds,length,bits,seed", [
        (PoolKind.MAX, ("APC", "APC", "APC"), 128, None, 3),
        (PoolKind.MAX, ("MUX", "APC", "APC"), 64, 7, 3),
        (PoolKind.MAX, ("MUX", "APC", "APC"), 64, None, 1),
        (PoolKind.MAX, ("APC", "MUX", "APC"), 64, None, 3),
        (PoolKind.AVG, ("MUX", "MUX", "MUX"), 64, None, 3),
        (PoolKind.AVG, ("APC", "APC", "APC"), 64, (7, 7, 6), 3),
        (PoolKind.AVG, ("APC", "MUX", "APC"), 128, 6, 3),
    ])
    def test_batched_engine_matches_sequential_legacy(
            self, tiny_trained_lenet, images, pooling, kinds, length, bits,
            seed):
        cfg = NetworkConfig.from_kinds(pooling, length, kinds)
        legacy = ReferenceSCNetwork(tiny_trained_lenet, cfg, seed=seed,
                                    weight_bits=bits)
        engine = Engine(tiny_trained_lenet, cfg, backend="exact", seed=seed,
                        weight_bits=bits)
        np.testing.assert_array_equal(_logits(legacy, images),
                                      engine.forward(images))


class TestBatchingInvariance:
    def test_batched_equals_single_image_calls(self, tiny_trained_lenet,
                                               images):
        """One predict(batch) == fresh-engine per-image calls, bit for bit
        (the stream factory draws the same PRNG sequence either way)."""
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 64,
                                       ("APC", "APC", "APC"))
        batched = Engine(tiny_trained_lenet, cfg, backend="exact",
                         seed=7).forward(images)
        sequential = Engine(tiny_trained_lenet, cfg, backend="exact",
                            seed=7)
        seq = np.stack([sequential.forward(img[None])[0]
                        for img in images.reshape(len(images), -1)])
        np.testing.assert_array_equal(batched, seq)

    def test_mux_selects_match_across_batching(self, tiny_trained_lenet,
                                               images):
        """MUX select signals are pre-drawn in legacy image-major order."""
        cfg = NetworkConfig.from_kinds(PoolKind.AVG, 64,
                                       ("MUX", "MUX", "MUX"))
        batched = Engine(tiny_trained_lenet, cfg, backend="exact",
                         seed=2).forward(images)
        sequential = Engine(tiny_trained_lenet, cfg, backend="exact",
                            seed=2)
        seq = np.stack([sequential.forward(img[None])[0]
                        for img in images.reshape(len(images), -1)])
        np.testing.assert_array_equal(batched, seq)

    def test_internal_batch_splitting_is_invisible(self, tiny_trained_lenet,
                                                   images):
        """A tiny batch budget forces internal chunking; results match."""
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 64,
                                       ("APC", "APC", "APC"))
        whole = Engine(tiny_trained_lenet, cfg, backend="exact",
                       seed=5).forward(images)
        split = Engine(tiny_trained_lenet, cfg, backend="exact", seed=5,
                       batch_budget=1).forward(images)
        np.testing.assert_array_equal(whole, split)

    def test_lfsr_sng_batch_size_invariant(self, tiny_trained_lenet,
                                           images):
        """The pooled-LFSR SNG advances per call; the backend encodes one
        image per call so batching stays invariant there too."""
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 64,
                                       ("APC", "APC", "APC"))
        batched = Engine(tiny_trained_lenet, cfg, backend="exact",
                         seed=9, sng="lfsr").forward(images)
        sequential = Engine(tiny_trained_lenet, cfg, backend="exact",
                            seed=9, sng="lfsr")
        seq = np.stack([sequential.forward(img[None])[0]
                        for img in images.reshape(len(images), -1)])
        np.testing.assert_array_equal(batched, seq)

    def test_counting_tile_size_is_invisible(self, tiny_trained_lenet,
                                             images):
        """chunk_budget tiles the counting loop without changing results."""
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 64,
                                       ("APC", "APC", "APC"))
        a = Engine(tiny_trained_lenet, cfg, backend="exact",
                   seed=5).forward(images[:2])
        b = Engine(tiny_trained_lenet, cfg, backend="exact", seed=5,
                   chunk_budget=1 << 12).forward(images[:2])
        np.testing.assert_array_equal(a, b)


class TestExactValidation:
    @pytest.fixture(scope="class")
    def engine(self, tiny_trained_lenet):
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 64,
                                       ("APC", "APC", "APC"))
        return Engine(tiny_trained_lenet, cfg, backend="exact", seed=0)

    def test_rejects_wrong_size(self, engine):
        with pytest.raises(ValueError, match="784"):
            engine.forward(np.zeros((2, 1, 10, 10)))

    def test_rejects_wrong_size_batch_totalling_784(self, engine):
        """A (4, 196) batch must not be reinterpreted as one 784-pixel
        image just because its total size matches."""
        with pytest.raises(ValueError, match="784"):
            engine.forward(np.zeros((4, 196)))

    def test_rejects_out_of_range(self, engine):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            engine.forward(np.full((1, 1, 28, 28), 2.0))

    def test_single_2d_image_accepted(self, engine, images):
        out = engine.forward(images[0].reshape(28, 28))
        assert out.shape == (1, 10)


class TestExactConstruction:
    def test_rejects_model_config_mismatch(self):
        model = Sequential([Dense(784, 2)])
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 64,
                                       ("APC", "APC", "APC"))
        with pytest.raises(ValueError, match="layer kinds"):
            Engine(model, cfg, backend="exact")

    def test_plans_built(self, tiny_trained_lenet):
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 64,
                                       ("MUX", "APC", "APC"))
        plan = Engine(tiny_trained_lenet, cfg, backend="exact", seed=0).plan
        assert len(plan.gain_deficits) == 4
        names = [lp.name for lp in plan.layers]
        assert names == ["Layer0", "Layer1", "Layer2", "Output"]
        assert plan.layers[0].n_inputs == 26   # 25 + bias
        assert plan.layers[2].n_inputs == 801

    def test_weight_bits_quantization_applies(self, tiny_trained_lenet):
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 64,
                                       ("APC", "APC", "APC"))
        engine = Engine(tiny_trained_lenet, cfg, backend="exact", seed=0,
                        weight_bits=4)
        # 4-bit storage: every weight is a multiple of 2/16 minus 1.
        w = engine.plan.layers[0].weights
        codes = (w + 1.0) / 2.0 * 16
        np.testing.assert_allclose(codes, np.round(codes), atol=1e-9)


class TestExactInference:
    def test_forward_shape(self, tiny_trained_lenet, images):
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 256,
                                       ("APC", "APC", "APC"))
        engine = Engine(tiny_trained_lenet, cfg, backend="exact", seed=0)
        assert engine.forward(images[:1]).shape == (1, 10)

    def test_deterministic(self, tiny_trained_lenet, images):
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 128,
                                       ("APC", "APC", "APC"))
        a = Engine(tiny_trained_lenet, cfg, backend="exact",
                   seed=7).forward(images[:1])
        b = Engine(tiny_trained_lenet, cfg, backend="exact",
                   seed=7).forward(images[:1])
        np.testing.assert_array_equal(a, b)

    def test_predictions_beat_chance(self, cached_lenet):
        """At L=512 the all-APC network tracks the software model
        closely (the paper's central claim for APC configurations)."""
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 512,
                                       ("APC", "APC", "APC"))
        engine = Engine(cached_lenet.model, cfg, backend="exact", seed=0)
        x = cached_lenet.bipolar_test_images()
        err = engine.error_rate(x, cached_lenet.y_test, max_images=16)
        assert err < 40.0


class TestForwardIndependent:
    """The serving contract: per-request stream state inside one batch."""

    @pytest.mark.parametrize("pooling,kinds,sng", [
        (PoolKind.MAX, ("APC", "APC", "APC"), "ideal"),
        (PoolKind.AVG, ("MUX", "APC", "APC"), "ideal"),
        (PoolKind.MAX, ("APC", "APC", "APC"), "lfsr"),
    ])
    def test_rows_match_fresh_single_request_engines(
            self, tiny_trained_lenet, images, pooling, kinds, sng):
        cfg = NetworkConfig.from_kinds(pooling, 64, kinds)
        shared = Engine(tiny_trained_lenet, cfg, backend="exact", seed=11,
                        sng=sng)
        batched = shared.backend.forward_independent(
            images.reshape(len(images), -1)[:3])
        fresh = np.stack([
            Engine(tiny_trained_lenet, cfg, backend="exact", seed=11,
                   sng=sng).forward(img[None])[0]
            for img in images.reshape(len(images), -1)[:3]
        ])
        np.testing.assert_array_equal(batched, fresh)

    def test_does_not_perturb_stateful_forward(self, tiny_trained_lenet,
                                               images):
        """Interleaving forward_independent calls leaves the engine's own
        stream sequence untouched."""
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 64,
                                       ("APC", "APC", "APC"))
        plain = Engine(tiny_trained_lenet, cfg, backend="exact",
                       seed=7).forward(images)
        interleaved = Engine(tiny_trained_lenet, cfg, backend="exact",
                             seed=7)
        interleaved.backend.forward_independent(
            images.reshape(len(images), -1)[:2])
        np.testing.assert_array_equal(plain, interleaved.forward(images))

    def test_repeated_calls_are_identical(self, tiny_trained_lenet,
                                          images):
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 64,
                                       ("APC", "APC", "APC"))
        backend = Engine(tiny_trained_lenet, cfg, backend="exact",
                         seed=3).backend
        flat = images.reshape(len(images), -1)[:3]
        np.testing.assert_array_equal(backend.forward_independent(flat),
                                      backend.forward_independent(flat))

    def test_batch_composition_is_invisible(self, tiny_trained_lenet,
                                            images):
        """A request's row does not depend on its batch-mates."""
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 64,
                                       ("APC", "APC", "APC"))
        backend = Engine(tiny_trained_lenet, cfg, backend="exact",
                         seed=5).backend
        flat = images.reshape(len(images), -1)
        whole = backend.forward_independent(flat[:4])
        np.testing.assert_array_equal(
            whole[2], backend.forward_independent(flat[2:3])[0])
        np.testing.assert_array_equal(
            whole[1:3], backend.forward_independent(flat[1:3]))
