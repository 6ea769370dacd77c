"""``repro.serve`` — dynamic micro-batching inference service.

The serving subsystem turns the unified layer-graph engine into a
servable system: concurrent single-image requests are coalesced into
micro-batches (where the batched exact backend is ~3x faster per image
than request-at-a-time execution), hot compiled plans and engines are
shared contention-free across worker threads, and a stdlib HTTP JSON
API exposes prediction, liveness and telemetry endpoints.

Layers, bottom-up:

* :mod:`repro.serve.pool` — :class:`EnginePool`, the thread-safe LRU
  cache of compiled plans and constructed engines;
* :mod:`repro.serve.batcher` — :class:`MicroBatcher`, the queue +
  worker-thread coalescer with a ``max_batch``/``max_wait_ms`` policy;
* :mod:`repro.serve.service` — :class:`InferenceService`, the
  embeddable in-process service tying pool, batcher and telemetry
  together (plus :class:`RequestResolver`, the engine-free request
  validation shared with the multi-process frontend);
* :mod:`repro.serve.procpool` — :class:`ProcServeFacade`, N worker
  processes behind a spec-affine routing frontend; the frontend
  compiles the warm plans once and every forked worker inherits them
  copy-on-write (``--procs N``);
* :mod:`repro.serve.server` — the ``ThreadingHTTPServer`` JSON API
  (``POST /predict``, ``GET /healthz``, ``GET /stats``);
* :mod:`repro.serve.stats` — :class:`LatencyTracker` telemetry.

Exact-backend responses are *bit-identical* to dedicated single-request
``Engine.predict`` calls with the same per-request seed, no matter how
requests are coalesced — the guarantee rests on
:meth:`repro.engine.exact.ExactBackend.forward_independent` (see
DESIGN.md, "Serving layer").

Start a server from the shell::

    python -m repro serve --port 8100 --backend exact --length 64

or embed the service::

    from repro.serve import InferenceService
    service = InferenceService(trained_model, length=64)
    pred = service.predict_one(image)
"""

from repro.serve.batcher import (
    DeadlineExceeded,
    MicroBatcher,
    QueueFull,
    Ticket,
)
from repro.serve.pool import EnginePool
from repro.serve.procpool import ProcServeFacade
from repro.serve.server import ServeHTTPServer, create_server, run_server
from repro.serve.service import (
    InferenceService,
    RequestResolver,
    ServiceDraining,
    payload_fingerprint,
)
from repro.serve.stats import LatencyTracker

__all__ = [
    "DeadlineExceeded",
    "EnginePool",
    "MicroBatcher",
    "ProcServeFacade",
    "QueueFull",
    "RequestResolver",
    "ServeHTTPServer",
    "ServiceDraining",
    "Ticket",
    "InferenceService",
    "LatencyTracker",
    "create_server",
    "payload_fingerprint",
    "run_server",
]
