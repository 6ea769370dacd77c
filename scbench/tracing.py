"""Timing wrappers the benchmark installs in the program's process.

A traced program (the offline engine child, or the server started by
``serving.py``) calls :func:`install` after importing ``repro`` and
before any work.  Each wrapped public function appends one record
``(layer, start, seconds, parent, images)`` per call, where ``start`` is
``time.monotonic()`` (one clock for every process on the host, so the
load generator can cut the records to its own timed window) and
``parent`` is the innermost wrapped layer active on the same thread.

Compute-layer functions below the engine (encode, kernels, pooling,
activation, packing) record only while an ``engine.forward`` call is
active on their thread, so weight-stream drawing and plan compilation
never count as forward work.  :func:`summarize` turns the records into
the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import pickle
import sys
import threading
import time

import measure

#: (module, attribute path, layer) for every wrapped public function.
SETUP_LAYERS = (
    ("repro.nn.trainer", "Trainer.fit", "nn.train"),
    ("repro.engine.plan", "compile_plan", "engine.compile"),
    ("repro.engine.engine", "Engine.__init__", "engine.init"),
)
FORWARD_LAYERS = (
    ("repro.engine.exact", "ExactBackend.forward", "engine.forward"),
    ("repro.engine.exact", "ExactBackend.forward_independent",
     "engine.forward"),
)
#: the children of ``engine.forward``; recorded only inside a forward
FORWARD_CHILDREN = (
    ("repro.sc.rng", "StreamFactory.packed", "engine.encode"),
    ("repro.native", "apc_inner_counts", "native.apc_counts"),
    ("repro.sc.ops", "transpose_pack", "sc.transpose_pack"),
    ("repro.sc.ops", "popcount_sum", "sc.popcount_sum"),
    ("repro.blocks.pooling", "apc_max_pool", "blocks.pool"),
    ("repro.sc.activation", "btanh_counts", "sc.btanh"),
    ("repro.sc.activation", "stanh_packed", "sc.stanh"),
    ("repro.sc.ops", "pack_bits", "sc.pack"),
)
SERVE_LAYERS = (
    ("repro.serve.service", "RequestResolver.resolve", "serve.resolve"),
    ("repro.serve.service", "RequestResolver.resolve_scene",
     "serve.resolve"),
    ("repro.serve.service", "InferenceService.predict", "serve.service"),
    ("repro.serve.service", "InferenceService.predict_scene",
     "serve.service"),
    ("repro.engine.tiled", "extract_windows", "tiled.extract"),
    ("repro.engine.tiled", "reduce_scene", "tiled.reduce"),
)
CHILD_NAMES = tuple(layer for _, _, layer in FORWARD_CHILDREN)


class Recorder:
    """Per-process record store plus the per-thread stack of open layers."""

    def __init__(self):
        self.records = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, layer: str, forward_only: bool = False):
        is_forward = layer == "engine.forward"

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = self._stack()
            if forward_only and "engine.forward" not in stack:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            stack.append(layer)
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = time.monotonic() - start
                stack.pop()
                images = len(args[1]) if is_forward else 0
                with self._lock:
                    self.records.append(
                        (layer, start, seconds, parent, images))

        return timed

    def dump(self, path: str) -> None:
        with self._lock:
            records = list(self.records)
        with open(path, "wb") as fh:
            pickle.dump(records, fh)


def _install_one(recorder: Recorder, module_name: str, path: str,
                 layer: str, forward_only: bool) -> None:
    module = sys.modules[module_name]
    if "." in path:
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name)
        setattr(cls, attr, recorder.wrap(getattr(cls, attr), layer,
                                         forward_only))
        return
    original = getattr(module, path)
    timed = recorder.wrap(original, layer, forward_only)
    # Rebind the name wherever a module imported it by value (e.g.
    # ``repro.engine.exact`` binds ``apc_max_pool`` at import), so the
    # wrapper sees every caller.
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "repro" or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, timed)


def install() -> Recorder:
    """Wrap every layer of :data:`SETUP_LAYERS` … :data:`SERVE_LAYERS`."""
    import importlib
    for module_name in ("repro.__main__", "repro.serve", "repro.engine.exact",
                        "repro.engine.tiled", "repro.native", "repro.nn.trainer"):
        importlib.import_module(module_name)
    recorder = Recorder()
    for module_name, path, layer in (SETUP_LAYERS + FORWARD_LAYERS
                                     + SERVE_LAYERS):
        _install_one(recorder, module_name, path, layer, False)
    for module_name, path, layer in FORWARD_CHILDREN:
        _install_one(recorder, module_name, path, layer, True)
    return recorder


def _p50(values) -> float:
    return measure.percentile(values, 50) if values else 0.0


def summarize(records, t0: float, t1: float) -> dict:
    """Per-layer metrics from the records of one traced program.

    Setup layers count over the whole life of the process; every other
    layer counts only calls that started inside the timed window
    ``[t0, t1]``.  Forward children are reported per forward call and
    counted once, at their outermost wrapped call below the forward, so
    ``engine.forward_ms`` equals the children plus
    ``engine.unattributed_ms``.
    """
    setup = {"nn.train": 0.0, "engine.compile": 0.0, "engine.init": 0.0}
    compile_in_init = 0.0
    window = [r for r in records if t0 <= r[1] <= t1]
    for layer, _, seconds, parent, _ in records:
        if layer in setup:
            setup[layer] += seconds
            if layer == "engine.compile" and parent == "engine.init":
                compile_in_init += seconds
    forwards = [r for r in window if r[0] == "engine.forward"]
    n_fwd = len(forwards)
    per_forward = 1e3 / n_fwd if n_fwd else 0.0
    out = {
        "nn.train_s": setup["nn.train"],
        "engine.compile_ms": 1e3 * setup["engine.compile"],
        "engine.init_ms": 1e3 * (setup["engine.init"] - compile_in_init),
        "engine.forward_ms": per_forward * sum(r[2] for r in forwards),
        "engine.batch_images_mean": (sum(r[4] for r in forwards) / n_fwd
                                     if n_fwd else 0.0),
    }
    attributed = 0.0
    for layer in dict.fromkeys(CHILD_NAMES):
        total = sum(r[2] for r in window
                    if r[0] == layer and r[3] == "engine.forward")
        attributed += total
        out[layer + "_ms"] = per_forward * total
    out["engine.unattributed_ms"] = out["engine.forward_ms"] \
        - per_forward * attributed

    def mean_ms(layer):
        calls = [r[2] for r in window if r[0] == layer]
        return 1e3 * sum(calls) / len(calls) if calls else 0.0

    services = [r for r in window if r[0] == "serve.service"]
    n_req = len(services)
    out["tiled.extract_ms"] = mean_ms("tiled.extract")
    out["tiled.reduce_ms"] = mean_ms("tiled.reduce")
    out["serve.resolve_ms"] = (1e3 * sum(r[2] for r in window
                                         if r[0] == "serve.resolve") / n_req
                               if n_req else 0.0)
    out["serve.service_ms_p50"] = 1e3 * _p50([r[2] for r in services])
    waits = []
    for _, start, seconds, _, _ in services:
        end = start + seconds
        # The forwards that ran wholly inside the request are the ones it
        # rode in: the batcher forms a batch from every ticket queued at
        # that moment, so no other request's forward fits inside it.
        ridden = sum(f[2] for f in forwards
                     if f[1] >= start and f[1] + f[2] <= end)
        waits.append(max(seconds - ridden, 0.0))
    out["serve.wait_ms_p50"] = 1e3 * _p50(waits)
    return out
