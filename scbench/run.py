#!/usr/bin/env python3
"""Benchmark of the SC-DCNN reproduction, end to end and per layer.

Run from the root of a checkout::

    python3 scbench/run.py --workload offline-native --seed 1 \\
        --seconds 8 --trace 0

Workloads (all serve the model ``python -m repro serve`` builds with its
defaults: quick-trained lenet5, APC on every layer, max pooling, exact
backend, L=64, engine seed 0; ``--seed`` draws only the inputs):

``offline-native``
    ``Engine.forward`` on 16-image batches back to back, native tier
    required.  Time goes to the compute layers, none to ``serve``.
``offline-numpy``
    The same with ``REPRO_NATIVE=0``: the pure-NumPy word-kernel tier.
    A native-kernel change must read unchanged here.
``serve-image``
    ``python -m repro serve`` in its own process; one keep-alive
    closed-loop client per core sends single-image ``/predict`` requests.
    Batches hold about one image, so per-request cost dominates.
``serve-scene``
    The same server and clients; each request is a cluttered 56x56 scene
    at stride 14 (9 windows), so the batcher coalesces wide batches.

With ``--trace 0`` the run sets the program up three times, in three
processes one after another: ``setup_s`` is the median set-up, and each
process is measured for a third of ``--seconds``, pooled into one set of
figures.  With ``--trace 1`` it measures one untraced and one traced
program for ``--seconds`` each and prints the per-layer metrics.
Per-layer times of the forward's children (``engine.encode_ms`` …
``engine.unattributed_ms``) are ms per forward call and add up to
``engine.forward_ms``; ``serve.resolve_ms`` is ms per request;
``tiled.*_ms`` are ms per call; set-up layers are totals per process.
The last line of standard output is the JSON result; the line before it
holds the run's provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import signal
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: build products and per-run scratch, inside the checkout
BUILD = ROOT / ".bench_build" / "scbench"

WORKLOADS = {
    "offline-native": ("offline", "native"),
    "offline-numpy": ("offline", "numpy"),
    "serve-image": ("image", "native"),
    "serve-scene": ("scene", "native"),
}
SETUP_REPS = 3

END_TO_END = {
    "setup_s": "s",
    "images_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_image": "ms",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "nn.train_s": "s",
    "engine.compile_ms": "ms",
    "engine.init_ms": "ms",
    "engine.forward_ms": "ms",
    "engine.batch_images_mean": "count",
    "engine.encode_ms": "ms",
    "native.apc_counts_ms": "ms",
    "sc.transpose_pack_ms": "ms",
    "sc.popcount_sum_ms": "ms",
    "blocks.pool_ms": "ms",
    "sc.btanh_ms": "ms",
    "sc.stanh_ms": "ms",
    "sc.pack_ms": "ms",
    "engine.unattributed_ms": "ms",
    "tiled.extract_ms": "ms",
    "tiled.reduce_ms": "ms",
    "serve.resolve_ms": "ms",
    "serve.service_ms_p50": "ms",
    "serve.wait_ms_p50": "ms",
    "serve.http_ms_p50": "ms",
    "serve.batch_size_mean": "count",
    "serve.pool_hit_ratio": "ratio",
    "serve.pool_lookups": "count",
    "serve.plans_compiled": "count",
    "host.calib_ms": "ms",
    "trace.overhead_ratio": "ratio",
}
#: every variable that sets a BLAS / OpenMP thread count
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: observability and fault switches that must not touch a measured run
CLEARED_VARS = ("REPRO_TRACE", "REPRO_PROFILE", "REPRO_FAULTS")


def pinned_env(tier: str) -> dict:
    """Environment of every process the benchmark runs: one BLAS thread,
    no tracing, profiling or faults, the native tier required (or off),
    and every cache inside the checkout's build directory."""
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_VARS}
    env.update({k: "1" for k in THREAD_VARS})
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONUNBUFFERED": "1",
        "PYTHONHASHSEED": "0",
        "REPRO_NATIVE": "1" if tier == "native" else "0",
        "REPRO_NATIVE_CACHE": str(BUILD / "native"),
        "XDG_CACHE_HOME": str(BUILD / "cache"),
    })
    return env


def metric_block(values: dict, names: dict) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the metrics in ``names``."""
    missing = set(names) - set(values)
    extra = set(values) - set(names)
    if missing or extra:
        raise ValueError(f"metrics missing {sorted(missing)}, "
                         f"unexpected {sorted(extra)}")
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in names.items()}


class Context:
    """What the workloads share: paths, seed, environment, oracle."""

    def __init__(self, seed: int, env: dict, run_dir: Path):
        self.root = ROOT
        self.seed = seed
        self.env = env
        self.run_dir = run_dir
        self.log = open(run_dir / "program.log", "w")
        self._engine = None

    def oracle_engine(self):
        """A dedicated exact engine over the program's model, in this
        process.  The trained model is cached per source digest, since
        training is deterministic."""
        if self._engine is None:
            import measure
            import offline
            from repro.engine import Engine
            cache = BUILD / f"oracle-model-{measure.source_digest(ROOT)}.pkl"
            if cache.exists():
                with open(cache, "rb") as fh:
                    model = pickle.load(fh)
            else:
                stdout, sys.stdout = sys.stdout, sys.stderr
                try:
                    model = offline.quick_model()
                finally:
                    sys.stdout = stdout
                tmp = cache.with_suffix(f".{os.getpid()}")
                with open(tmp, "wb") as fh:
                    pickle.dump(model, fh)
                os.replace(tmp, cache)
            self._engine = Engine(model, offline.engine_config(),
                                  backend="exact", seed=0)
        return self._engine


def build() -> None:
    """Byte-compile the sources and load the native tier, which builds it
    into the benchmark's build directory when the workload requires it
    (``REPRO_NATIVE=1``, a hard error if it cannot), before any timed
    set-up."""
    import compileall
    compileall.compile_dir(str(ROOT / "src" / "repro"), quiet=1)
    import repro.native  # noqa: F401


def measure_workload(workload: str, ctx: Context, seconds: float,
                     trace: bool):
    import measure
    kind, _ = WORKLOADS[workload]
    if kind == "offline":
        from offline import Offline
        runner = Offline(ctx)
    else:
        from serving import Serving
        runner = Serving(ctx, kind)
    calib = [measure.calib_ms()]
    if trace:
        runs = [runner.run(seconds, traced=False),
                runner.run(seconds, traced=True)]
        measured = runs[-1:]
    else:
        # Each set-up measures its share of the window, so the figures
        # span three processes and the whole run, not one stretch of it.
        runs = [runner.run(seconds / SETUP_REPS, traced=False)
                for _ in range(SETUP_REPS)]
        measured = runs
    calib.append(measure.calib_ms())
    images = sum(r["images"] for r in measured)
    lat = [x for r in measured for x in r["latencies_ms"]]
    info = {"workload": workload, "seed": ctx.seed, "seconds": seconds,
            "latency_samples": len(lat),
            "samples_beyond_p90": measure.beyond(lat, 90),
            "setup_s_each": [r["setup_s"] for r in runs],
            "host_calib_ms": calib}
    if trace:
        values = {name: 0.0 for name in PER_LAYER}
        values.update(runs[1]["layers"])
        values["host.calib_ms"] = statistics.fmean(calib)
        values["trace.overhead_ratio"] = (
            (runs[1]["images"] / runs[1]["window_s"])
            / (runs[0]["images"] / runs[0]["window_s"]))
        metrics = metric_block(values, PER_LAYER)
    else:
        metrics = metric_block({
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "images_per_s": images / sum(r["window_s"] for r in runs),
            "latency_p50_ms": measure.percentile(lat, 50),
            "latency_p90_ms": measure.percentile(lat, 90),
            "cpu_ms_per_image": 1e3 * sum(r["cpu_s"] for r in runs) / images,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        }, END_TO_END)
    failed = sum(r["failed"] for r in runs)
    return {"correct": failed == 0,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": failed, "metrics": metrics}, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds through the workloads' cleanup, which stops the
    # program's processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"scbench: no program sources under {ROOT / 'src'}; run "
              "from a full checkout", file=sys.stderr)
        return 2
    env = pinned_env(WORKLOADS[args.workload][1])
    # This process is the load generator and the oracle: pin it too,
    # before NumPy loads.
    os.environ.clear()
    os.environ.update(env)
    sys.path.insert(0, str(ROOT / "src"))
    run_dir = BUILD / "runs" / str(os.getpid())
    run_dir.mkdir(parents=True, exist_ok=True)
    build()
    import measure
    import repro.native as native
    ctx = Context(args.seed, env, run_dir)
    try:
        result, info = measure_workload(args.workload, ctx, args.seconds,
                                        bool(args.trace))
    except Exception:
        ctx.log.close()
        print(f"scbench: program log kept at {run_dir / 'program.log'}",
              file=sys.stderr)
        raise
    ctx.log.close()
    shutil.rmtree(run_dir, ignore_errors=True)
    info["provenance"] = measure.provenance(ROOT, native.status())
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
