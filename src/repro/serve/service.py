"""In-process inference service, and the request lifecycle it shares.

:class:`ServiceBase` is the one request lifecycle of both serving
frontends, this module's :class:`InferenceService` and the multi-process
:class:`~repro.serve.procpool.ProcServeFacade`.  A request — images or a
composite scene, plus optional spec overrides (model, backend, stream
length, FEB kinds, pooling, weight bits, seed) — is admitted, resolved
by the engine-free :class:`RequestResolver` into a canonical
:class:`repro.core.config.NetworkConfig` and a hashable *group key*
(everything two requests must agree on to share one engine call), and
booked exactly once: latency, shed or error.  Subclasses supply only
execution.  :class:`InferenceService` — the embeddable core the HTTP
server wraps, and the entry point for Python callers — executes in
process:

1. each image or scene window becomes one ticket on the
   :class:`repro.serve.batcher.MicroBatcher`, which coalesces
   concurrent same-group tickets into batched engine calls bounded by
   ``max_batch``/``max_wait_ms``;
2. the batch is served from the :class:`repro.serve.pool.EnginePool`'s
   shared engine.  Exact-backend batches run through
   ``forward_independent``, so every response is bit-identical to a
   dedicated single-request ``Engine.predict`` with the same per-request
   seed regardless of what it was coalesced with.  Stateful float-domain
   backends (``surrogate``/``noise`` draw sampled noise) are serialized
   per engine instead — their responses are statistically, not bitwise,
   batch-invariant; ``float`` is deterministic either way.

Failure model: request ``timeout`` becomes a queue *deadline* — a
request still queued past it is shed before compute
(:class:`~repro.serve.batcher.DeadlineExceeded`, HTTP 504) rather than
burning engine time on an abandoned wait.  A request that fails for any
reason — deadline, a ``QueueFull`` halfway through its fan-out, a
compute error — cancels every ticket it already submitted, so nothing
is computed for nobody.  :meth:`ServiceBase.drain` flips the service
into drain mode: new requests are refused with :class:`ServiceDraining`
(HTTP 503 + ``Retry-After``) while in-flight work runs to completion
(:meth:`ServiceBase.await_idle`) — the SIGTERM path of
:func:`repro.serve.server.run_server`.
"""

from __future__ import annotations

import contextlib
import hashlib
import threading
import time

import numpy as np

from repro import faults, obs
from repro.core.config import (
    NetworkConfig,
    resolve_kinds,
    resolve_pooling,
)
from repro.data.scenes import Scene
from repro.data.synthetic_mnist import to_bipolar
from repro.engine import get_backend
from repro.engine.engine import as_image_batch
from repro.engine.plan import normalize_weight_bits
from repro.engine.tiled import SceneResult, extract_windows, reduce_scene
from repro.nn.zoo import hidden_layer_count, input_geometry
from repro.serve.batcher import DeadlineExceeded, MicroBatcher
from repro.serve.pool import EnginePool
from repro.serve.stats import LatencyTracker

# re-exported for serving callers; the parsers live with the config
# domain in repro.core.config
__all__ = ["InferenceService", "RequestResolver", "ServiceBase",
           "ServiceDraining", "payload_fingerprint", "resolve_pooling",
           "resolve_kinds"]


class ServiceDraining(RuntimeError):
    """The service is draining (shutdown in progress): new requests are
    refused; the HTTP layer maps this to 503 with a ``Retry-After``."""


def payload_fingerprint(image) -> str:
    """Stable 12-hex digest of one request payload.

    Fault-injection specs target a *specific* request with
    ``site="serve.request", match=payload_fingerprint(img)`` — stable
    under re-batching and bisection, unlike occurrence counting.
    """
    arr = np.ascontiguousarray(np.asarray(image, dtype=np.float64))
    return hashlib.sha1(arr.tobytes()).hexdigest()[:12]


class RequestResolver:
    """Request-spec resolution over a model set, engine-free.

    Everything the serving layer must decide about a request *before*
    touching an engine lives here: validating per-request overrides
    against the hosted models, resolving them into a canonical
    :class:`~repro.core.config.NetworkConfig`, and deriving the hashable
    *group key* — the fields two requests must agree on to share one
    batched engine call.  Every :class:`ServiceBase` owns one, so the
    multi-process frontend (:mod:`repro.serve.procpool`) rejects
    malformed requests with a 400 and picks a worker **without**
    crossing a process boundary.

    All failures raise ``ValueError`` — the HTTP layer's 400 class.
    """

    def __init__(self, models: dict, *, default_model: str,
                 backend: str = "exact", length: int = 64, kinds=None,
                 pooling="max", weight_bits=None, seed: int = 0):
        #: per-model (hidden layer count, input shape) — the request
        #: facts validated before any engine work
        self._models_meta = {
            name: (hidden_layer_count(m), input_geometry(m))
            for name, m in models.items()}
        if default_model not in self._models_meta:
            raise ValueError(f"default model {default_model!r} is not "
                             "among the hosted models")
        self.defaults = {
            "model": default_model,
            "backend": backend,
            "length": int(length),
            "kinds": None if kinds is None else resolve_kinds(kinds),
            "pooling": resolve_pooling(pooling),
            "weight_bits": weight_bits,
            "seed": int(seed),
        }
        get_backend(backend)  # fail fast on an unknown default

    def resolve(self, overrides: dict):
        """Resolve per-request overrides into ``(group_key, config, spec)``.

        Raises ``ValueError`` on any malformed field — the HTTP layer
        maps that to a 400.
        """
        unknown = set(overrides) - set(self.defaults)
        if unknown:
            raise ValueError(
                f"unknown request fields: {sorted(unknown)}; "
                f"allowed: {sorted(self.defaults)}")
        spec = dict(self.defaults)
        spec.update(overrides)
        backend = str(spec["backend"])
        get_backend(backend)
        model = str(spec["model"])
        hidden, _ = self.model_meta(model)
        try:
            kinds = (("APC",) * hidden if spec["kinds"] is None
                     else resolve_kinds(spec["kinds"], n_layers=hidden))
            config = NetworkConfig.from_kinds(
                resolve_pooling(spec["pooling"]), int(spec["length"]),
                kinds)
            bits = normalize_weight_bits(spec["weight_bits"],
                                         n_layers=hidden + 1)
            seed = int(spec["seed"])
        except TypeError as exc:
            # e.g. length=None or weight_bits=1.5 — a caller error, not
            # an internal one; keep the ValueError contract of resolve
            raise ValueError(f"malformed request field: {exc}") from exc
        key = (model, backend, config, bits, seed)
        return key, config, spec

    def model_meta(self, model: str) -> tuple:
        """(hidden layer count, input shape) for a hosted model name.

        The single unknown-model check of the service layer; raises
        ``ValueError`` (→ HTTP 400) listing what is hosted.
        """
        try:
            return self._models_meta[model]
        except KeyError:
            raise ValueError(
                f"unknown model {model!r}; this service hosts: "
                f"{', '.join(sorted(self._models_meta))}") from None

    def input_shape(self, model=None) -> tuple:
        """A hosted model's ``(channels, height, width)`` input geometry."""
        model = self.defaults["model"] if model is None else str(model)
        return self.model_meta(model)[1]

    def as_images(self, images, model: str) -> np.ndarray:
        """Normalize request payload to the target model's pixel batch.

        Every malformed payload — wrong geometry, out-of-range values,
        or non-numeric content numpy raises ``TypeError`` for — surfaces
        as ``ValueError``, the HTTP layer's 400 class (pre-fix a
        non-numeric payload escaped as ``TypeError`` → 500).
        """
        try:
            return as_image_batch(images, bipolar=True,
                                  shape=self.model_meta(model)[1])
        except TypeError as exc:
            raise ValueError(
                f"malformed image payload: {exc}") from exc

    def resolve_scene(self, scene, model: str, stride=None):
        """Validate a scene request against a hosted model's geometry.

        Returns ``(scene, boxes, flat_windows)`` where ``flat_windows``
        is the bipolar ``(N, pixels)`` window batch ready for the
        engine.  Every malformed input — bad payload, multi-channel
        model, canvas smaller than the model tile, bad stride — raises
        ``ValueError`` (→ HTTP 400), *before* any engine work.
        """
        channels, h, w = self.model_meta(model)[1]
        if channels != 1:
            raise ValueError(
                f"scene requests need a single-channel model; "
                f"{model!r} consumes {channels}-channel input")
        if not isinstance(scene, Scene):
            scene = Scene.from_payload(scene)
        if stride is None:
            stride = h
        try:
            stride = int(stride)
        except (TypeError, ValueError):
            raise ValueError(
                f"stride must be an integer, got {stride!r}") from None
        windows, boxes = extract_windows(scene.canvas, (h, w), stride)
        flat = to_bipolar(windows.reshape(len(boxes), -1))
        return scene, boxes, flat

    def describe(self) -> dict:
        """JSON-ready rendering of the defaults (the ``/stats`` block)."""
        return {
            "model": self.defaults["model"],
            "backend": self.defaults["backend"],
            "length": self.defaults["length"],
            "kinds": (None if self.defaults["kinds"] is None
                      else ",".join(self.defaults["kinds"])),
            "pooling": self.defaults["pooling"].value.lower(),
            "weight_bits": self.defaults["weight_bits"],
            "seed": self.defaults["seed"],
        }


class _Request:
    """One admitted request: overrides, deadline, submitted tickets."""

    __slots__ = ("overrides", "deadline", "tickets")

    def __init__(self, overrides: dict, deadline):
        self.overrides = overrides
        self.deadline = deadline  # monotonic instant, or None
        self.tickets = []

    def remaining(self):
        """Seconds left before the deadline (``None``: unbounded)."""
        if self.deadline is None:
            return None
        return max(self.deadline - time.monotonic(), 0.0)


class ServiceBase:
    """The request lifecycle both serving frontends share.

    Subclasses supply execution — :meth:`_serve_images` and
    :meth:`_serve_scene` — plus ``stats`` and ``close``.
    """

    def __init__(self, models: dict, **spec):
        # ``models`` is the hosted {name: model} mapping, its first entry
        # the default; ``spec`` the default request fields.
        self.resolver = RequestResolver(
            models, default_model=next(iter(models)), **spec)
        self.defaults = self.resolver.defaults
        self.tracker = LatencyTracker()
        self._closed = False
        self._draining = False
        self._inflight = 0
        self._idle = threading.Condition()

    # ------------------------------------------------------------------
    # the lifecycle
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _lifecycle(self, span: str, timeout, overrides: dict):
        """Admit one request, open its root span, book it exactly once.

        A failed request cancels every ticket it already submitted —
        execution appends each to ``request.tickets`` as it submits —
        so none is computed for nobody.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        # Atomic under ``_idle``: a request is either refused or
        # visible to ``await_idle()`` from the instant it is accepted.
        with self._idle:
            if self._draining:
                raise ServiceDraining(
                    "service is draining; not accepting new requests")
            self._inflight += 1
        start = time.monotonic()
        request = _Request(overrides,
                           None if timeout is None else start + timeout)
        try:
            # Root span of the request lifecycle: tickets capture it at
            # submit time, so the batcher's queue/coalesce/compute spans
            # (recorded on worker threads) all parent back here.
            with obs.span(span,
                          model=str(overrides.get(
                              "model", self.defaults["model"])),
                          backend=str(overrides.get(
                              "backend", self.defaults["backend"]))):
                yield request
        except Exception as exc:
            for ticket in request.tickets:
                ticket.cancel()
            if isinstance(exc, (DeadlineExceeded, TimeoutError)):
                self.tracker.record_shed()
            else:
                self.tracker.record_error()
            raise
        finally:
            with self._idle:
                self._inflight -= 1
                if self._inflight == 0:
                    self._idle.notify_all()
        self.tracker.record(time.monotonic() - start)

    def _serve_images(self, request: _Request, key, batch) -> list:
        """Per-image class predictions for a resolved image batch."""
        raise NotImplementedError

    def _serve_scene(self, request: _Request, key, scene: Scene, stride,
                     boxes, windows) -> SceneResult:
        """The :class:`SceneResult` for a resolved scene request."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def predict(self, images, timeout: float = None, **overrides
                ) -> np.ndarray:
        """Class predictions for one or many images (blocking).

        Accepts a single image (``(784,)`` or ``(28, 28)``) or a batch;
        returns an ``(N,)`` int array.  Keyword overrides (``model``,
        ``backend``, ``length``, ``kinds``, ``pooling``, ``weight_bits``,
        ``seed``) replace the service defaults for this request only —
        ``model`` selects among the registered zoo entries.  ``timeout``
        bounds the *whole* request, not each image — it also becomes
        the queue deadline, so a request that cannot be served in time
        is shed before compute
        (:class:`~repro.serve.batcher.DeadlineExceeded`) instead of
        evaluated for nobody.
        """
        with self._lifecycle("serve.predict", timeout,
                             overrides) as request:
            key, _, _ = self.resolver.resolve(overrides)
            batch = self.resolver.as_images(images, model=key[0])
            preds = np.asarray(self._serve_images(request, key, batch),
                               dtype=np.int64)
        return preds

    def predict_one(self, image, timeout: float = None, **overrides) -> int:
        """Single-image convenience wrapper around :meth:`predict`."""
        return int(self.predict(image, timeout=timeout, **overrides)[0])

    def predict_scene(self, scene, stride: int = None,
                      timeout: float = None, **overrides) -> SceneResult:
        """Tiled inference over a composite scene (blocking).

        ``scene`` is a :class:`repro.data.scenes.Scene` or its JSON
        payload form; it is validated against the target model before
        any engine work.  With the exact backend every window's logits
        are bit-identical to a dedicated single-window run, so scene
        replies depend on neither batching nor worker count.
        ``stride`` defaults to the model tile height (non-overlapping
        windows); returns a :class:`repro.engine.tiled.SceneResult`.
        """
        with self._lifecycle("serve.scene", timeout, overrides) as request:
            key, _, _ = self.resolver.resolve(overrides)
            scene, boxes, windows = self.resolver.resolve_scene(
                scene, model=key[0], stride=stride)
            result = self._serve_scene(request, key, scene, stride, boxes,
                                       windows)
        return result

    def input_shape(self, model=None) -> tuple:
        """A hosted model's ``(channels, height, width)`` input geometry.

        Raises ``ValueError`` for unregistered names (the HTTP layer maps
        that to a 400, same as :meth:`predict` would).
        """
        return self.resolver.input_shape(model)

    # ------------------------------------------------------------------
    # drain / telemetry
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self) -> None:
        """Stop accepting new requests; in-flight ones run to completion.

        Idempotent.  Pair with :meth:`await_idle` then ``close`` for a
        graceful shutdown that never drops an accepted request.
        """
        # Under ``_idle`` so it serializes against the accept path: once
        # drain() returns, every in-flight request is counted.
        with self._idle:
            self._draining = True

    def await_idle(self, timeout: float = None) -> bool:
        """Block until no request is in flight; False on timeout."""
        with self._idle:
            return self._idle.wait_for(lambda: self._inflight == 0,
                                       timeout)

    def export_gauges(self) -> None:
        """Publish point-in-time gauges into the current registry.

        Called by scrapers (the ``/metrics`` handler, tests) rather than
        continuously: gauges describe *now*, so setting them at scrape
        time keeps the hot path free of gauge churn and means a registry
        swapped in by a test sees values the moment it scrapes.
        """
        obs.gauge("repro_serve_draining",
                  "1 while the service refuses new requests.").set(
                      1 if self._draining else 0)

    def metrics_text(self) -> str:
        """Prometheus exposition of this process's registry (``/metrics``)."""
        self.export_gauges()
        return obs.render(obs.get_registry())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class InferenceService(ServiceBase):
    """Micro-batched inference over pooled engines for a trained model set.

    Parameters
    ----------
    model:
        The trained model every request is served from — a single
        :class:`repro.nn.module.Sequential` (named ``"default"``) or a
        ``{name: model}`` mapping for multi-model serving; per-request
        ``model=<name>`` overrides pick among the registered entries.
    backend, length, kinds, pooling, weight_bits, seed:
        Default request spec; any field can be overridden per request.
        ``kinds=None`` means "all-APC at the target model's depth",
        resolved per request — the right default when models of
        different depths share the service.
    max_batch, max_wait_ms, workers, max_queue:
        Micro-batching policy (see :class:`MicroBatcher`); ``max_queue``
        is the backpressure bound (full queue → :class:`QueueFull`,
        surfaced as HTTP 503).
    max_engines:
        Engine-pool capacity (see :class:`EnginePool`).
    warm:
        Preload the default spec's engine at construction so the first
        request does not pay compilation + weight-stream drawing.
    """

    def __init__(self, model, *, backend: str = "exact", length: int = 64,
                 kinds=None, pooling="max",
                 weight_bits=None, seed: int = 0, max_batch: int = 16,
                 max_wait_ms: float = 2.0, workers: int = 1,
                 max_queue: int = 1024, max_engines: int = 8,
                 warm: bool = True):
        self.pool = EnginePool(model, max_engines=max_engines)
        super().__init__(self.pool.models, backend=backend, length=length,
                         kinds=kinds, pooling=pooling,
                         weight_bits=weight_bits, seed=seed)
        self.batcher = MicroBatcher(self._run_batch, max_batch=max_batch,
                                    max_wait_ms=max_wait_ms,
                                    workers=workers, max_queue=max_queue)
        if warm:
            self.pool.get(self.resolver.resolve({})[1], backend=backend,
                          weight_bits=weight_bits, seed=self.defaults["seed"],
                          model=self.pool.default_model)

    # ------------------------------------------------------------------
    # batched execution (called by batcher workers)
    # ------------------------------------------------------------------
    def _run_batch(self, key, payloads):
        # A 6-tuple key is a scene-window group: same spec fields plus
        # the "logits" marker appended by _serve_scene, so scene
        # windows coalesce among themselves and get raw logits back
        # (the reduction needs margins, not argmaxes) while plain
        # predict traffic keeps its 5-tuple key and argmax replies.
        want_logits = len(key) == 6
        model, backend_name, config, bits, seed = key[:5]
        if faults.active() is not None:
            # Per-payload site first: a spec matching one request's
            # fingerprint fails every batch containing it, so bisection
            # isolates exactly that request.  Then the whole-batch site.
            for payload in payloads:
                faults.fire("serve.request",
                            label=payload_fingerprint(payload))
            faults.fire("serve.compute",
                        label=f"{model}:{backend_name}:{len(payloads)}")
        engine = self.pool.get(config, backend=backend_name,
                               weight_bits=bits, seed=seed, model=model)
        batch = np.stack(payloads)
        backend = engine.backend
        if hasattr(backend, "forward_independent"):
            # Per-request stream-state forks: thread-safe on a shared
            # engine and bit-identical to single-request calls.
            logits = backend.forward_independent(batch)
        else:
            # Stateful float-domain backends mutate their noise RNG per
            # call; serialize per engine (the pool attaches the lock, so
            # its lifetime matches the engine's) so concurrent workers
            # never race it.
            with engine.serial_lock:
                logits = backend.forward(batch)
        if want_logits:
            return list(logits)
        return list(np.argmax(logits, axis=1))

    # ------------------------------------------------------------------
    # request execution (the lifecycle lives in ServiceBase)
    # ------------------------------------------------------------------
    def _fan_out(self, request: _Request, key, payloads) -> list:
        """One batcher ticket per payload; their results, in order.

        Every image or window is its own queue entry, so a request both
        benefits from and contributes to coalescing.
        """
        for payload in payloads:
            request.tickets.append(self.batcher.submit(
                key, payload, deadline=request.deadline))
        return [ticket.result(request.remaining())
                for ticket in request.tickets]

    def _serve_images(self, request, key, batch) -> list:
        return self._fan_out(request, key, batch)

    def _serve_scene(self, request, key, scene, stride, boxes, windows):
        # All windows of a scene share one group key (the request spec
        # plus a "logits" marker), so they coalesce into engine calls
        # together and with concurrent same-spec scene traffic.
        logits = np.stack([
            np.asarray(row, dtype=np.float64)
            for row in self._fan_out(request, key + ("logits",), windows)])
        cell_preds, cell_windows = reduce_scene(
            scene.kind, [c.box for c in scene.cells], boxes, logits)
        return SceneResult(kind=scene.kind, boxes=boxes,
                           window_logits=logits, cell_preds=cell_preds,
                           cell_windows=cell_windows)

    # ------------------------------------------------------------------
    # telemetry / shutdown
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Aggregated service / batcher / pool telemetry for ``/stats``."""
        return {
            "draining": self._draining,
            "service": self.tracker.summary(),
            "batcher": self.batcher.stats(),
            "pool": self.pool.stats(),
            "defaults": self.resolver.describe(),
        }

    def export_gauges(self) -> None:
        """Publish queue, batcher and pool gauges (plus draining)."""
        super().export_gauges()
        batcher = self.batcher.stats()
        obs.gauge("repro_serve_queue_depth",
                  "Requests waiting in the batcher queue.").set(
                      batcher["queued"])
        obs.gauge("repro_serve_inflight_batches",
                  "Batches currently being computed.").set(
                      batcher["inflight_batches"])
        pool = self.pool.stats()
        obs.gauge("repro_pool_engines",
                  "Engines resident in the pool.").set(pool["engines"])
        obs.gauge("repro_pool_plans",
                  "Compiled plans resident in the pool.").set(
                      pool["plans"])

    def close(self) -> None:
        """Drain the queue and stop the batcher workers (idempotent)."""
        if not self._closed:
            self._closed = True
            self.batcher.close()
