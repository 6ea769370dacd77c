"""Offline workloads: ``Engine.forward`` on 16-image batches at L=64.

The load generator side (:class:`Offline`) spawns this file as the
program's process, one per set-up, and checks what it returns.  The child
side (``python offline.py ...``) builds the model exactly as
``python -m repro serve`` does with its defaults, runs forwards back to
back for the timed window and reports latencies, CPU time, peak memory
and every batch's logits.  Before each timed batch it keeps a fork of
the backend's stream state, so the load generator can replay a batch on
the NumPy tier in its own process, after the window, bit for bit.
"""

from __future__ import annotations

import argparse
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import measure
import tracing

BATCH = 16
LENGTH = 64
POOL_BATCHES = 8
READY = "SCBENCH READY"


def engine_config():
    """The serve default design point: lenet5, APC on every layer, max
    pooling, L=64."""
    from repro.core.config import NetworkConfig, resolve_pooling
    from repro.nn.zoo import default_kinds
    return NetworkConfig.from_kinds(resolve_pooling("max"), LENGTH,
                                    default_kinds("lenet5"), name="serve")


def quick_model():
    """The model ``python -m repro serve`` trains with its defaults."""
    from repro.__main__ import _quick_model
    model, _, _ = _quick_model(600, 2, n_test=16, pooling="max",
                               model_name="lenet5")
    return model


class Offline:
    """Load-generator side of ``offline-native`` / ``offline-numpy``."""

    def __init__(self, ctx):
        import numpy as np
        from repro.data.synthetic_mnist import SyntheticMNIST, to_bipolar
        self.ctx = ctx
        images, _ = SyntheticMNIST(seed=10_000 + ctx.seed).batch(
            POOL_BATCHES * BATCH)
        self.batches = to_bipolar(images.reshape(POOL_BATCHES, BATCH, -1))
        self.inputs = ctx.run_dir / "offline-inputs.npy"
        np.save(self.inputs, self.batches)

    def run(self, seconds: float, traced: bool) -> dict:
        """Set up one program process and measure it for ``seconds``."""
        out = self.ctx.run_dir / f"offline-{time.monotonic_ns()}.pkl"
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--inputs", str(self.inputs), "--out", str(out),
               "--seconds", str(seconds), "--trace", "1" if traced else "0"]
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=self.ctx.root, env=self.ctx.env,
                                stdout=subprocess.PIPE,
                                stderr=self.ctx.log, text=True)
        try:
            setup_s = None
            for line in proc.stdout:
                if line.startswith(READY):
                    setup_s = time.monotonic() - start
                    break
            proc.communicate(timeout=150)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        code = proc.returncode
        if setup_s is None or code != 0:
            raise RuntimeError(f"offline program exited {code} "
                               f"(log: {self.ctx.log.name})")
        with open(out, "rb") as fh:
            child = pickle.load(fh)
        out.unlink()
        n = len(child["logits"])
        result = {
            "setup_s": setup_s, "attempted": n,
            "failed": self.replay_failures(child),
            "images": n * BATCH, "window_s": child["t1"] - child["t0"],
            "cpu_s": child["cpu_s"],
            "latencies_ms": [1e3 * s for s in child["latencies"]],
            "peak_rss_mb": child["peak_rss_mb"],
        }
        if traced:
            result["layers"] = tracing.summarize(child["records"],
                                                 child["t0"], child["t1"])
        return result

    def replay_failures(self, child: dict) -> int:
        """Replay the process's last batch, the one furthest along its
        stream, on the NumPy tier here and after the window; 1 when its
        logits differ in any bit."""
        import repro.native as native
        engine = self.ctx.oracle_engine()
        # The fork is the stream state the program's backend held right
        # before that batch.
        engine.backend.factory = child["snapshots"][-1]
        with native.override(False):
            expected = engine.forward(self.batches[child["order"][-1]])
        return measure.logits_mismatches([child["logits"][-1]], [expected])


def child_main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import numpy as np

    import repro.native as native
    recorder = None
    if args.trace:
        recorder = tracing.install()
    from repro.engine import Engine
    want = os.environ.get("REPRO_NATIVE") == "1"
    if native.enabled() != want:
        raise SystemExit(f"native tier enabled={native.enabled()}, "
                         f"REPRO_NATIVE={os.environ.get('REPRO_NATIVE')}")
    batches = np.load(args.inputs)
    engine = Engine(quick_model(), engine_config(), backend="exact", seed=0)
    engine.forward(batches[0])          # warm-up: lazy tables, caches
    print(READY, flush=True)
    pid = os.getpid()
    snapshots, logits, latencies, order = [], [], [], []
    cpu0 = measure.cpu_seconds(pid)
    t0 = time.monotonic()
    deadline = t0 + args.seconds
    while True:
        k = len(logits) % len(batches)
        snapshots.append(engine.backend.factory.fork())
        start = time.perf_counter()
        logits.append(engine.forward(batches[k]))
        latencies.append(time.perf_counter() - start)
        order.append(k)
        if time.monotonic() >= deadline:
            break
    t1 = time.monotonic()
    cpu_s = measure.cpu_seconds(pid) - cpu0
    with open(args.out, "wb") as fh:
        pickle.dump({
            "t0": t0, "t1": t1, "latencies": latencies, "cpu_s": cpu_s,
            "peak_rss_mb": measure.peak_rss_mb(pid), "logits": logits,
            "snapshots": snapshots, "order": order,
            "records": recorder.records if recorder else None,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(child_main())
