"""Multi-process serving: worker processes behind a routing frontend.

The in-process :class:`~repro.serve.service.InferenceService` coalesces
beautifully but computes under one GIL: NumPy kernels release it, yet
the per-layer Python orchestration serializes, so one process cannot
scale exact-backend throughput with cores.  This module runs **N worker
processes**, each hosting a full service (own pool, own micro-batcher,
own GIL), behind a thin frontend, :class:`ProcServeFacade`, which
inherits the request lifecycle from
:class:`~repro.serve.service.ServiceBase` and supplies only the relay:

* **Inherited plans** — compiled plans are quantization products,
  large and immutable.  The frontend compiles each warm spec once,
  before it forks any worker, and keeps the plans keyed like the engine
  pool's plan tier (model digest, config digest, bits, length).  Every
  worker — a respawned one too — is forked from the frontend, inherits
  those plan objects copy-on-write and seeds its pool with them.  A
  plan's weight arrays are never written after compile, so their pages
  stay shared: one copy of the weights no matter how many processes
  serve them.
* **Spec-affine routing** — a request's group key (model, backend,
  config, bits, seed) hashes to a worker, so same-spec requests land in
  the same process and its micro-batcher keeps coalescing them; the
  batched exact backend's per-request stream-state forks keep every
  reply bit-identical to a dedicated single-request engine run.
* **Admission control** — the frontend bounds in-flight requests per
  model *before* crossing a process boundary
  (:class:`~repro.serve.batcher.QueueFull` → HTTP 503 +
  ``Retry-After``), on top of each worker's own queue bound.
* **Supervision** — a monitor thread watches worker sentinels; a dead
  worker (chaos kill, OOM) is respawned and its in-flight requests are
  resubmitted — safe because serving compute is deterministic and
  side-effect-free, so the worst case is a request computed twice with
  the first reply winning.  No accepted request's reply is dropped.
* **Drain** — the inherited ``drain``/``await_idle`` refuse new work
  at the frontend and hold SIGTERM shutdown until every accepted
  request has its reply.  Workers are not told: the frontend is their
  only client, and a drained worker would refuse an accepted request.
* **Shutdown** — a forked worker closes the frontend-side pipe ends it
  inherited, so the facade's ``close`` is an EOF every worker sees:
  each closes its service and exits 0.  A worker that misses the join
  timeout is terminated and counted
  (``repro_serve_forced_terminations_total``), and any request still
  owed a reply fails instead of waiting forever.

Workers are **fork**-context processes (same choice as the DSE runner):
the model set, the warm plans and an armed ``REPRO_FAULTS`` injector
are all inherited.

The frontend stays a *threading* HTTP server: connection threads block
in :meth:`ProcServeFacade.predict` waiting on a reply event, which
releases the GIL, so frontend I/O concurrency is cheap while all
compute runs in the workers.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import threading
import time
import multiprocessing
from multiprocessing import connection

from repro import faults, obs
from repro.engine import build_graph, compile_plan
from repro.nn.zoo import model_digest
from repro.serve.batcher import DeadlineExceeded, QueueFull
from repro.serve.pool import config_digest, hosted_models
from repro.serve.service import InferenceService, ServiceBase

__all__ = ["ProcServeFacade"]

_RESTARTS_TOTAL = "repro_serve_worker_restarts_total"
_RESTARTS_HELP = "Serve worker processes respawned after dying."
_TERMINATIONS_TOTAL = "repro_serve_forced_terminations_total"
_TERMINATIONS_HELP = ("Serve worker processes terminated at close after "
                      "missing the join timeout.")

#: extra seconds the frontend waits beyond a request's own timeout
#: before declaring the reply lost (covers queue + pickling transit)
REPLY_SLACK_S = 5.0

#: how long a worker's stats scrape may take
CONTROL_TIMEOUT_S = 10.0

#: how long ``close`` waits for a worker to exit on EOF before it
#: terminates the worker
JOIN_TIMEOUT_S = 5.0

# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------

def _error_kind(exc: BaseException) -> str:
    """Collapse a worker-side exception to a transportable kind tag."""
    if isinstance(exc, QueueFull):
        return "queue_full"
    if isinstance(exc, DeadlineExceeded):
        return "deadline"
    if isinstance(exc, TimeoutError):
        return "timeout"
    if isinstance(exc, ValueError):
        return "bad_request"
    return "internal"


def _rebuild_error(kind: str, message: str) -> Exception:
    """Frontend-side inverse of :func:`_error_kind` (keeps HTTP mapping)."""
    return {
        "queue_full": QueueFull,
        "deadline": DeadlineExceeded,
        "timeout": TimeoutError,
        "bad_request": ValueError,
    }.get(kind, RuntimeError)(message)


def _worker_main(worker_id: int, models, service_kwargs: dict,
                 plans: dict, req_conn, rep_conn, threads: int,
                 frontend_ends) -> None:
    """A worker process: one full service fed from its request pipe.

    Requests are pulled by a small thread pool so concurrent same-spec
    traffic actually coalesces in this worker's micro-batcher (a single
    puller would serialize it away).  Both pipe ends are guarded by
    **worker-local** ``threading.Lock``s on purpose: a cross-process
    lock (what a shared ``mp.Queue`` uses) leaks in the acquired state
    when a chaos kill lands while a sibling thread holds it, deadlocking
    every later incarnation of the worker — process-local locks die
    with the process.  ``plans`` is the frontend's warm-plan mapping,
    inherited at fork: seeding the pool with it copies no weights.
    Shutdown is the frontend closing its send end: every puller sees
    EOF in turn — once no other process holds that end, hence
    ``frontend_ends`` (the fork's copies of the frontend-side ends, this
    worker's and its siblings') are closed first.
    """
    for conn in frontend_ends:
        conn.close()
    faults.maybe_install_from_env()
    kwargs = dict(service_kwargs)
    warm = kwargs.pop("warm", True)
    service = InferenceService(models, warm=False, **kwargs)
    with service.pool._lock:
        service.pool._plans.update(plans)
    if warm:
        # Engines still need their weight streams drawn per process;
        # the plan underneath was inherited from the frontend, so
        # warming here never re-quantizes.
        try:
            key, config, _ = service.resolver.resolve({})
            service.pool.get(config, backend=key[1], weight_bits=key[3],
                             seed=key[4], model=key[0])
        except Exception:  # pragma: no cover - warm is best-effort
            pass
    recv_lock = threading.Lock()
    send_lock = threading.Lock()

    def _reply(item) -> None:
        try:
            with send_lock:
                rep_conn.send(item)
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass  # frontend is gone; nothing left to answer to

    def _handle(msg) -> None:
        kind, req_id = msg[0], msg[1]
        try:
            if kind == "stats":
                _reply((req_id, True, {
                    "worker": worker_id,
                    "pid": os.getpid(),
                    "stats": service.stats(),
                    "metrics": service.metrics_text(),
                }))
                return
            *payload, deadline, overrides = msg[2:]
            timeout = None
            if deadline is not None:
                # CLOCK_MONOTONIC is system-wide on Linux, so the
                # frontend's absolute deadline is meaningful here —
                # queue transit counts against the request budget.
                timeout = max(deadline - time.monotonic(), 1e-3)
            if kind == "predict":
                preds = service.predict(*payload, timeout=timeout,
                                        **overrides)
                _reply((req_id, True, [int(p) for p in preds]))
            else:
                # "scene": the SceneResult dataclass pickles whole
                _reply((req_id, True, service.predict_scene(
                    *payload, timeout=timeout, **overrides)))
        except BaseException as exc:  # noqa: BLE001 - relay, don't die
            _reply((req_id, False, (_error_kind(exc), str(exc))))

    def _pull() -> None:
        while True:
            try:
                with recv_lock:
                    msg = req_conn.recv()
            except (EOFError, OSError):
                return
            _handle(msg)

    pullers = [threading.Thread(target=_pull, name=f"pull-{i}",
                                daemon=True)
               for i in range(max(1, int(threads)))]
    for thread in pullers:
        thread.start()
    for thread in pullers:
        thread.join()
    service.close()
    try:
        rep_conn.close()
    except OSError:  # pragma: no cover
        pass


# ---------------------------------------------------------------------------
# frontend facade
# ---------------------------------------------------------------------------

class _Pending:
    """One message to a worker awaiting its reply."""

    __slots__ = ("event", "result", "error", "worker", "msg")

    def __init__(self, worker: int, msg):
        self.event = threading.Event()
        self.result = None
        self.error = None
        self.worker = worker
        self.msg = msg


class _WorkerLink:
    """One worker incarnation: process + its pipe ends + reply pump."""

    __slots__ = ("proc", "req_send", "rep_recv", "send_lock", "reader")

    def __init__(self, proc, req_send, rep_recv):
        self.proc = proc
        self.req_send = req_send
        self.rep_recv = rep_recv
        self.send_lock = threading.Lock()
        self.reader = None

    def close(self) -> None:
        """Close the frontend-side pipe ends (reply pump exits on EOF)."""
        for conn in (self.req_send, self.rep_recv):
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass


class ProcServeFacade(ServiceBase):
    """N worker processes behind the :class:`InferenceService` API.

    Drop-in for the HTTP layer: the whole request lifecycle — admission,
    drain, root spans, the ``tracker`` books — is the inherited
    :class:`~repro.serve.service.ServiceBase`; this class only relays a
    resolved request to its spec-routed worker.  :meth:`stats` nests
    every worker's report, and :meth:`metrics_text` merges the
    frontend's and every worker's registry into one exposition.

    Parameters mirror :class:`InferenceService`, plus:

    procs:
        Worker process count.
    worker_threads:
        Queue-puller threads per worker — the per-worker concurrency
        ceiling (and therefore the largest micro-batch a worker can
        actually gather from relayed traffic).
    max_inflight_per_model:
        Frontend admission bound: in-flight requests per model beyond
        it are refused with :class:`QueueFull` (HTTP 503).  Defaults to
        ``2 * max_queue``.
    """

    def __init__(self, model, *, procs: int = 2, backend: str = "exact",
                 length: int = 64, kinds=None, pooling="max",
                 weight_bits=None, seed: int = 0, max_batch: int = 16,
                 max_wait_ms: float = 2.0, workers: int = 1,
                 max_queue: int = 1024, max_engines: int = 8,
                 warm: bool = True, worker_threads: int = 16,
                 max_inflight_per_model: int = None):
        if procs < 1:
            raise ValueError("procs must be >= 1")
        self.models = hosted_models(model)
        super().__init__(self.models, backend=backend, length=length,
                         kinds=kinds, pooling=pooling,
                         weight_bits=weight_bits, seed=seed)
        self.procs = int(procs)
        self.max_inflight_per_model = (2 * int(max_queue)
                                       if max_inflight_per_model is None
                                       else int(max_inflight_per_model))
        self._service_kwargs = {
            "backend": backend, "length": length, "kinds": kinds,
            "pooling": pooling, "weight_bits": weight_bits, "seed": seed,
            "max_batch": max_batch, "max_wait_ms": max_wait_ms,
            "workers": workers, "max_queue": max_queue,
            "max_engines": max_engines, "warm": warm,
        }
        self._worker_threads = int(worker_threads)

        # One copy of every warm plan, compiled before the first fork
        # so every worker inherits it.  Keys match the engine pool's
        # plan tier: (model digest, config digest, bits, length).
        self._plans = {}
        if warm:
            for name, model_obj in self.models.items():
                key, config, _ = self.resolver.resolve({"model": name})
                plan = compile_plan(build_graph(model_obj, config),
                                    weight_bits=key[3])
                self._plans[(model_digest(model_obj),
                             config_digest(config), key[3],
                             config.length)] = plan

        self._ctx = multiprocessing.get_context("fork")
        self._links = [None] * self.procs
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._pending = {}          # req_id -> _Pending
        self._inflight_by_model = {}
        self._closing = threading.Event()
        self._restarts = 0

        for i in range(self.procs):
            self._spawn(i)
        self._monitor = threading.Thread(target=self._watch_workers,
                                         name="serve-monitor", daemon=True)
        self._monitor.start()

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, index: int) -> None:
        """Start (or restart) worker ``index`` with fresh pipes.

        Each incarnation gets its own request/reply pipe pair: shared
        cross-process queue locks would be left permanently acquired by
        a worker killed at the wrong instant, wedging every later
        incarnation.  Pipes carry no shared lock.  The fork copies every
        frontend-side end into the child, which closes them on entry;
        the parent closes its copies of the worker-side ends right after
        the fork.  So each pipe end lives in exactly one process, and
        both a worker's death and the frontend's shutdown surface as EOF.
        """
        req_recv, req_send = self._ctx.Pipe(duplex=False)
        rep_recv, rep_send = self._ctx.Pipe(duplex=False)
        frontend_ends = [req_send, rep_recv] + [
            conn for link in self._links if link is not None
            for conn in (link.req_send, link.rep_recv)]
        proc = self._ctx.Process(
            target=_worker_main,
            args=(index, self.models, self._service_kwargs, self._plans,
                  req_recv, rep_send, self._worker_threads, frontend_ends),
            name=f"serve-worker-{index}", daemon=True)
        proc.start()
        # Closed before any later fork can inherit them, or reply-pipe
        # EOF would never fire when this worker dies.
        req_recv.close()
        rep_send.close()
        link = _WorkerLink(proc, req_send, rep_recv)
        link.reader = threading.Thread(
            target=self._read_replies, args=(rep_recv,),
            name=f"serve-replies-{index}", daemon=True)
        link.reader.start()
        self._links[index] = link

    def _send(self, index: int, msg) -> None:
        """Send to one worker; a broken pipe is left to the monitor,
        whose respawn resubmits everything pending on it."""
        link = self._links[index]
        try:
            with link.send_lock:
                link.req_send.send(msg)
        except (BrokenPipeError, OSError):
            pass

    def _watch_workers(self) -> None:
        """Respawn dead workers; resubmit their in-flight requests."""
        while not self._closing.is_set():
            sentinels = {link.proc.sentinel: i
                         for i, link in enumerate(self._links)
                         if link.proc.is_alive()}
            if not sentinels:
                if self._closing.wait(0.2):
                    return
                continue
            dead = connection.wait(list(sentinels), timeout=0.5)
            if self._closing.is_set():
                return
            for sentinel in dead:
                index = sentinels[sentinel]
                link = self._links[index]
                link.proc.join(timeout=1.0)
                link.close()
                self._restarts += 1
                obs.counter(_RESTARTS_TOTAL, _RESTARTS_HELP,
                            worker=str(index)).inc()
                # Back off on repeated instant deaths so a worker that
                # cannot even start does not become a respawn hot loop.
                if self._closing.wait(
                        min(0.1 * self._restarts, 2.0)):
                    return
                self._spawn(index)
                # Re-run everything the dead incarnation owed a reply
                # for — read or still in its pipe, we cannot tell, and
                # it does not matter: computing a request twice is safe
                # (deterministic, side-effect-free) and the first reply
                # wins; dropping one is not.
                with self._lock:
                    owed = [p.msg for p in self._pending.values()
                            if p.worker == index]
                for msg in owed:
                    self._send(index, msg)

    def _read_replies(self, rep_recv) -> None:
        """Per-incarnation reply pump; exits on the worker's EOF."""
        while True:
            try:
                item = rep_recv.recv()
            except (EOFError, OSError):
                return
            req_id, ok, payload = item
            with self._lock:
                pending = self._pending.pop(req_id, None)
            if pending is None:
                # duplicate reply after a respawn resubmission, or a
                # reply for a request the frontend already timed out
                continue
            if ok:
                pending.result = payload
            else:
                pending.error = _rebuild_error(*payload)
            pending.event.set()

    def _exchange(self, index: int, kind: str, args=(), timeout=None):
        """Send one message to worker ``index``; block for its reply.

        Raises the worker's error, or ``TimeoutError`` after
        ``timeout`` s.  Pending until then, so if the worker dies the
        monitor's respawn resubmits it.
        """
        req_id = next(self._ids)
        msg = (kind, req_id, *args)
        pending = _Pending(index, msg)
        with self._lock:
            self._pending[req_id] = pending
        try:
            self._send(index, msg)
            if not pending.event.wait(timeout):
                raise TimeoutError(
                    f"no reply from worker {index} within {timeout:.1f}s")
            if pending.error is not None:
                raise pending.error
            return pending.result
        finally:
            with self._lock:
                self._pending.pop(req_id, None)

    # ------------------------------------------------------------------
    # request execution (the lifecycle lives in ServiceBase)
    # ------------------------------------------------------------------
    def _route(self, key) -> int:
        """Deterministic worker index for a request group key.

        Same spec → same worker, so the worker's micro-batcher sees all
        of a spec's concurrent traffic and coalescing survives the
        process split.
        """
        model, backend, config, bits, seed = key
        basis = repr((model, backend, config_digest(config),
                      config.length, bits, seed))
        digest = hashlib.sha1(basis.encode("utf8")).hexdigest()
        return int(digest[:8], 16) % self.procs

    def _relay(self, request, key, kind: str, *payload):
        """Relay an admitted request to its spec-routed worker, under
        the per-model admission bound and the same absolute deadline."""
        model = key[0]
        with self._lock:
            inflight = self._inflight_by_model.get(model, 0)
            if inflight >= self.max_inflight_per_model:
                obs.counter("repro_serve_admission_rejects_total",
                            "Requests refused by frontend admission "
                            "control, by model.", model=model).inc()
                raise QueueFull(
                    f"model {model!r} has {inflight} requests in "
                    f"flight (admission limit "
                    f"{self.max_inflight_per_model}); retry shortly")
            self._inflight_by_model[model] = inflight + 1
        try:
            wait = (None if request.deadline is None
                    else request.remaining() + REPLY_SLACK_S)
            return self._exchange(
                self._route(key), kind,
                (*payload, request.deadline, request.overrides),
                timeout=wait)
        finally:
            with self._lock:
                self._inflight_by_model[model] -= 1

    def _serve_images(self, request, key, batch) -> list:
        return self._relay(request, key, "predict", batch)

    def _serve_scene(self, request, key, scene, stride, boxes, windows):
        # The whole scene travels as one message, so all its windows
        # land in one worker's micro-batcher and coalesce there; the
        # reply is that worker's SceneResult.
        return self._relay(request, key, "scene", scene, stride)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def _alive(self) -> int:
        return sum(1 for link in self._links if link.proc.is_alive())

    def _scrape_workers(self) -> list:
        """Every live worker's stats reply; a silent worker is skipped."""
        replies = []
        for index, link in enumerate(self._links):
            if not link.proc.is_alive():
                continue
            try:
                replies.append(self._exchange(index, "stats",
                                              timeout=CONTROL_TIMEOUT_S))
            except (RuntimeError, TimeoutError, ValueError):
                continue
        return replies

    def stats(self) -> dict:
        """Frontend telemetry plus every worker's own ``stats()``."""
        workers = self._scrape_workers()
        pool = {"engines": 0, "plans": 0, "hits": 0, "misses": 0,
                "plans_compiled": 0, "plans_rederived": 0}
        for reply in workers:
            for field in pool:
                pool[field] += reply["stats"]["pool"].get(field, 0)
        return {
            "draining": self._draining,
            "service": self.tracker.summary(),
            "procs": {
                "workers": self.procs,
                "alive": self._alive(),
                "restarts": self._restarts,
                "shared_plans": len(self._plans),
                "admission_limit_per_model": self.max_inflight_per_model,
            },
            "pool": pool,
            "workers": [{"worker": r["worker"], "pid": r["pid"],
                         **r["stats"]} for r in workers],
            "defaults": self.resolver.describe(),
        }

    def export_gauges(self) -> None:
        """Frontend gauges (worker gauges publish worker-side)."""
        super().export_gauges()
        obs.gauge("repro_serve_procs",
                  "Serve worker processes configured.").set(self.procs)
        obs.gauge("repro_serve_procs_alive",
                  "Serve worker processes currently alive.").set(
                      self._alive())
        obs.gauge("repro_serve_frontend_pending",
                  "Relayed requests awaiting a worker reply.").set(
                      len(self._pending))

    def metrics_text(self) -> str:
        """One exposition for the whole server: frontend + all workers.

        Counters and histograms sum across processes; summed gauges
        read as per-process totals (e.g. ``repro_pool_engines`` counts
        engines resident in *any* worker).
        """
        texts = [super().metrics_text()]
        texts += [reply["metrics"] for reply in self._scrape_workers()]
        return obs.merge(texts)

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop workers; fail any request still owed a reply
        (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._closing.set()
        # Our send ends are the only copies: closing them is each
        # worker's EOF, after which it closes its service and exits.
        for link in self._links:
            link.req_send.close()
        for index, link in enumerate(self._links):
            link.proc.join(timeout=JOIN_TIMEOUT_S)
            if link.proc.is_alive():
                link.proc.terminate()
                link.proc.join(timeout=1.0)
                obs.counter(_TERMINATIONS_TOTAL, _TERMINATIONS_HELP,
                            worker=str(index)).inc()
            link.close()
        self._monitor.join(timeout=2.0)
        for link in self._links:
            link.reader.join(timeout=2.0)
            link.proc.close()  # releases the process sentinel's fds
        # Every worker is gone: drop the frontend's copy of the plans.
        self._plans.clear()
        # No worker is left to answer: wake every caller still waiting.
        with self._lock:
            orphaned = list(self._pending.values())
        for pending in orphaned:
            pending.error = RuntimeError(
                "service closed before the worker replied")
            pending.event.set()
