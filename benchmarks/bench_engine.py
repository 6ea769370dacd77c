"""Engine throughput benchmark: batched vs sequential legacy inference.

Measures the refactor's acceptance criterion — batched exact inference of
a 16-image batch through ``Engine.predict`` against 16 sequential
single-image calls of the frozen pre-engine simulator
(:class:`repro.engine.reference.ReferenceSCNetwork`) — plus per-backend
latency for the pluggable backends.  Setup (training, plan compilation,
weight-stream generation) is excluded from both sides: the comparison
isolates the per-request execution loop, which is what batching
restructures.

Run directly (``PYTHONPATH=src python benchmarks/bench_engine.py``) or
via ``benchmarks/run_all.py``, which records the result in
``benchmarks/BENCH_engine.json``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import NetworkConfig, PoolKind
from repro.data.synthetic_mnist import generate_dataset, to_bipolar
from repro.engine import Engine
from repro.engine.reference import ReferenceSCNetwork
from repro.nn.lenet import build_lenet5
from repro.nn.trainer import Trainer

BATCH = 16
KINDS = ("APC", "APC", "APC")
LENGTHS = (64, 128, 256)
PRIMARY_LENGTH = 64
FLOAT_BACKENDS = ("surrogate", "noise", "float")


def _trained_model():
    """The deterministic quick-trained LeNet-5 the benchmark simulates."""
    x_train, y_train, x_test, y_test = generate_dataset(
        n_train=600, n_test=200, seed=123)
    model = build_lenet5("max", seed=0)
    Trainer(model, lr=0.06, batch_size=64, seed=0).fit(
        to_bipolar(x_train), y_train, epochs=2)
    return model, to_bipolar(x_test)[:BATCH], y_test[:BATCH]


def _time(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def measure_engine() -> dict:
    """Run all engine benchmarks; returns the BENCH_engine payload."""
    model, images, labels = _trained_model()
    results = {"batch": BATCH, "kinds": "-".join(KINDS), "pooling": "max",
               "primary_length": PRIMARY_LENGTH, "exact": {},
               "float_backends_ms": {}}

    for length in LENGTHS:
        config = NetworkConfig.from_kinds(PoolKind.MAX, length, KINDS)
        legacy = ReferenceSCNetwork(model, config, seed=0)
        legacy_preds, legacy_s = _time(lambda: legacy.predict(images))
        engine = Engine(model, config, backend="exact", seed=0)
        engine_preds, engine_s = _time(lambda: engine.predict(images))
        if not np.array_equal(legacy_preds, engine_preds):
            raise AssertionError(
                f"L={length}: batched engine predictions diverged from the "
                "legacy sequential simulator — bit-identity broken")
        results["exact"][str(length)] = {
            "legacy_sequential_s": round(legacy_s, 4),
            "engine_batched_s": round(engine_s, 4),
            "legacy_images_per_s": round(BATCH / legacy_s, 2),
            "engine_images_per_s": round(BATCH / engine_s, 2),
            "speedup": round(legacy_s / engine_s, 2),
            "bit_identical": True,
        }

    config = NetworkConfig.from_kinds(PoolKind.MAX, PRIMARY_LENGTH, KINDS)
    for name in FLOAT_BACKENDS:
        engine = Engine(model, config, backend=name, seed=0)
        engine.predict(images)  # warm calibration caches / JIT-ish costs
        _, seconds = _time(lambda: engine.predict(images))
        results["float_backends_ms"][name] = round(seconds * 1e3, 2)

    results["speedup_at_primary"] = \
        results["exact"][str(PRIMARY_LENGTH)]["speedup"]
    return results


def main() -> None:
    results = measure_engine()
    print(f"batched-vs-legacy exact speedup "
          f"(L={results['primary_length']}): "
          f"{results['speedup_at_primary']}x")
    for length, row in results["exact"].items():
        print(f"  L={length}: legacy {row['legacy_images_per_s']} img/s, "
              f"batched {row['engine_images_per_s']} img/s "
              f"({row['speedup']}x, bit-identical)")
    for name, ms in results["float_backends_ms"].items():
        print(f"  {name}: {ms} ms / {results['batch']} images")


if __name__ == "__main__":
    main()
