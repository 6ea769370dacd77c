"""Regression tests for serve-layer bugs found in review.

Each test reproduces a latent bug — it fails against the pre-fix code
and pins the fixed behaviour:

* ``LatencyTracker._window_rate`` divided by the configured ``window_s``
  even after the completion ring saturated its ``maxlen`` and no longer
  covered the whole window, underreporting sustained-load rps;
* ``InferenceService.predict`` checked ``_draining`` *before* taking the
  ``_idle`` lock, so a request racing ``drain()`` + ``await_idle()``
  could be accepted yet invisible to the idle wait — now run against
  both frontends, since ``ProcServeFacade`` had the same unlocked check
  and also told its workers to drain, so a request the frontend had
  already accepted was refused by the worker it was relayed to;
* a request whose fan-out hit ``QueueFull`` partway lost the tickets it
  had already queued, which were then computed for nobody;
* ``EnginePool._plan_for`` never ``move_to_end``'d the sibling plan it
  re-derives from, so a family's canonical plan could be LRU-evicted
  while it was the live re-target source;
* ``MicroBatcher._take_batch`` keyed its quiescence gather state on
  ``id(head)``, which CPython reuses after the head ticket is freed —
  aliasing a new head onto a stale gather timestamp and flushing it
  before its quantum.
"""

import itertools
import threading
import time
import types

import numpy as np
import pytest

import repro.serve.batcher as batcher_mod
import repro.serve.service as service_mod
from repro.core.config import NetworkConfig, PoolKind
from repro.data.synthetic_mnist import to_bipolar
from repro.serve import (
    InferenceService,
    MicroBatcher,
    ProcServeFacade,
    QueueFull,
    ServiceDraining,
)
from repro.serve.pool import EnginePool
from repro.serve.stats import LatencyTracker


class FakeClock:
    def __init__(self, t=0.0):
        self.t = float(t)

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestWindowRateSaturation:
    """_window_rate must divide by the span the *retained* completions
    cover once the ring saturates, not the configured window_s."""

    def test_saturated_ring_uses_retained_span(self):
        clock = FakeClock()
        tracker = LatencyTracker(window=1024, window_s=30.0, clock=clock)
        maxlen = tracker._completions.maxlen
        # Server has been up far longer than the window.
        clock.advance(100.0)
        # Sustained burst at 200 rps: more completions than the ring
        # holds, all inside the 30 s window.
        for _ in range(maxlen + 200):
            clock.advance(0.005)
            tracker.record(0.001)
        rate = tracker.summary()["throughput_rps_window"]
        # The retained maxlen completions span maxlen * 5 ms; the true
        # offered rate is 200/s.  The pre-fix code divided by the full
        # 30 s window and reported ~maxlen/30 ≈ 34/s.
        assert rate == pytest.approx(200.0, rel=0.05), (
            f"window rate {rate} should track the ~200 rps burst, not "
            "divide the saturated ring by the whole window")

    def test_unsaturated_ring_keeps_window_semantics(self):
        clock = FakeClock()
        tracker = LatencyTracker(window=1024, window_s=30.0, clock=clock)
        clock.advance(100.0)
        for _ in range(60):
            clock.advance(1.0)
            tracker.record(0.001)
        # 60 completions, newest 30 within the window -> 1/s.
        assert tracker.summary()["throughput_rps_window"] == \
            pytest.approx(1.0, rel=0.05)

    def test_young_server_still_uses_uptime(self):
        clock = FakeClock()
        tracker = LatencyTracker(window=1024, window_s=30.0, clock=clock)
        for _ in range(10):
            clock.advance(0.2)
            tracker.record(0.001)
        # 10 completions over a 2 s lifetime -> 5/s, not 10/30.
        assert tracker.summary()["throughput_rps_window"] == \
            pytest.approx(5.0, rel=0.05)


@pytest.fixture(params=["inprocess", "procs"])
def frontend(request, tiny_trained_lenet):
    """Each serving frontend, over the one shared request lifecycle."""
    kwargs = dict(backend="float", length=32, max_wait_ms=1.0, warm=False)
    if request.param == "procs":
        service = ProcServeFacade(tiny_trained_lenet, procs=1, **kwargs)
    else:
        service = InferenceService(tiny_trained_lenet, **kwargs)
    yield service
    service.close()


class TestDrainAcceptRace:
    """A request that passed the draining check must be visible to
    await_idle() — the check and the inflight bump are atomic."""

    def test_accepted_request_never_invisible_to_await_idle(
            self, monkeypatch, frontend, small_dataset):
        _, _, x_test, _ = small_dataset
        image = to_bipolar(x_test)[0].reshape(-1)
        service = frontend
        blocked = threading.Event()
        release = threading.Event()
        outcome = {}
        real_monotonic = time.monotonic
        victim_holder = {}

        def shim_monotonic():
            # Park the victim thread in the race window (its first
            # monotonic call inside the shared admission path) while
            # the main thread drains; everything else passes through.
            if (threading.current_thread() is victim_holder.get("t")
                    and not blocked.is_set()):
                blocked.set()
                release.wait(10.0)
            return real_monotonic()

        monkeypatch.setattr(
            service_mod, "time",
            types.SimpleNamespace(monotonic=shim_monotonic))

        def victim():
            try:
                outcome["result"] = service.predict(image)
            except BaseException as exc:  # noqa: BLE001 - recorded
                outcome["error"] = exc

        victim_holder["t"] = thread = threading.Thread(target=victim)
        try:
            thread.start()
            assert blocked.wait(10.0)
            service.drain()
            idle = service.await_idle(timeout=1.0)
            release.set()
            thread.join(30.0)
            assert not thread.is_alive()
            if idle:
                # If the drain path already reported idle, the racing
                # request must have been refused — an accepted request
                # served *after* await_idle returned is a dropped-reply
                # hazard on SIGTERM.
                assert isinstance(outcome.get("error"), ServiceDraining), (
                    "await_idle() reported idle while an accepted "
                    f"request was still in flight (outcome: {outcome})")
            else:
                assert service.await_idle(timeout=30.0)
                assert "result" in outcome, outcome
        finally:
            release.set()
            thread.join(5.0)


class TestQueueFullMidFanOut:
    """A request refused halfway through its fan-out must cancel the
    tickets it already queued, not leave them to be computed for
    nobody."""

    def test_refused_request_tickets_never_reach_the_runner(
            self, tiny_trained_lenet, small_dataset):
        _, _, x_test, _ = small_dataset
        images = to_bipolar(x_test)[:12].reshape(12, -1)
        service = InferenceService(tiny_trained_lenet, backend="float",
                                   length=32, max_batch=1, max_queue=4,
                                   warm=False)
        real_runner = service.batcher._runner
        entered = threading.Event()
        gate = threading.Event()
        served = []

        def gated_runner(key, payloads):
            served.append(len(payloads))
            entered.set()
            gate.wait(10.0)
            return real_runner(key, payloads)

        service.batcher._runner = gated_runner
        holder = threading.Thread(target=service.predict,
                                  args=(images[0],))
        try:
            holder.start()
            # the single batcher worker is now held inside the runner
            assert entered.wait(10.0)
            with pytest.raises(QueueFull):
                service.predict(images[1:11])  # 10 images, 4 queue slots
            gate.set()
            holder.join(10.0)
            assert not holder.is_alive()
            # FIFO: the worker sheds the dead tickets before serving this
            service.predict(images[11])
            stats = service.batcher.stats()
            assert stats["shed_cancelled"] == 4
            assert served == [1, 1]
            assert stats["batched_requests"] == 2
            assert service.tracker.summary()["errors"] == 1
        finally:
            gate.set()
            holder.join(5.0)
            service.close()


def _cfg(length, kinds=("APC", "APC", "APC")):
    return NetworkConfig.from_kinds(PoolKind.MAX, length, kinds)


class TestSiblingPlanLRUTouch:
    """Re-deriving from a sibling plan must refresh its LRU position."""

    def test_retarget_source_survives_eviction(self, tiny_trained_lenet):
        pool = EnginePool(tiny_trained_lenet, max_engines=8, max_plans=2)
        canonical = pool.get(_cfg(256), backend="float").plan
        pool.get(_cfg(32, kinds=("MUX", "APC", "APC")), backend="float")
        # Re-derive a length variant: the canonical max-length plan is
        # the re-target source and must become most-recently-used, so
        # the insertion of the derived plan evicts the *other* family.
        pool.get(_cfg(128), backend="float")
        assert pool.stats()["plans_rederived"] == 1
        # A fresh engine at the canonical length must find the plan
        # still resident (exact hit) — pre-fix it was evicted and had
        # to be gratuitously re-derived.
        engine = pool.get(_cfg(256), backend="float", seed=1)
        stats = pool.stats()
        assert stats["plans_rederived"] == 1, (
            "canonical max-length plan was evicted while it was the "
            "live re-target source")
        assert engine.plan is canonical

    def test_exact_hit_still_touches(self, tiny_trained_lenet):
        """Plain plan hits keep their existing LRU refresh."""
        pool = EnginePool(tiny_trained_lenet, max_engines=8, max_plans=2)
        keep = pool.get(_cfg(64), backend="float").plan
        pool.get(_cfg(64, kinds=("MUX", "APC", "APC")), backend="float")
        pool.get(_cfg(64), backend="float", seed=1)     # plan hit
        pool.get(_cfg(64, kinds=("MUX", "MUX", "APC")),
                 backend="float")                        # evicts the MUX
        assert pool.get(_cfg(64), backend="float", seed=2).plan is keep


class TestQuiescenceKeying:
    """A recycled head id must not inherit a stale gather timestamp."""

    def test_aliased_head_id_does_not_flush_early(self, monkeypatch):
        # Fake the CPython id-reuse that triggers the bug: tickets 5 and
        # 6 (a cancelled head and the next group's head) report the same
        # id, exactly as a freed-and-reallocated ticket would.
        fake_ids = iter([None, None, None, None, 0x7afe, 0x7afe, None])

        class AliasedTicket(batcher_mod.Ticket):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                fake = next(fake_ids, None)
                if fake is not None:
                    self._fake_id = fake

        real_id = id
        monkeypatch.setattr(batcher_mod, "Ticket", AliasedTicket)
        monkeypatch.setattr(
            batcher_mod, "id",
            lambda obj: getattr(obj, "_fake_id", real_id(obj)),
            raising=False)

        batches = []
        a_started = threading.Event()
        lock = threading.Lock()

        def runner(key, payloads):
            if key == "A":
                a_started.set()
                time.sleep(1.2)
            with lock:
                batches.append((key, list(payloads)))
            return payloads

        batcher = MicroBatcher(runner, max_batch=4, max_wait_ms=1600.0,
                               workers=2, max_queue=64)
        try:
            quantum = batcher.quantum          # 200 ms
            for i in range(4):                 # full batch -> flushes now
                batcher.submit("A", f"a{i}")
            assert a_started.wait(5.0)
            # The free worker now gathers this head; its (id, size)
            # state is observed at ~t1.
            stale_head = batcher.submit("A", "a4")
            time.sleep(0.70 * quantum)
            stale_head.cancel()                # shed on next wakeup
            time.sleep(0.05 * quantum)
            t_b = batcher.submit("B", "b0")    # aliased id, same size
            time.sleep(0.25 * quantum)         # stale quantum expires
            t_c = batcher.submit("B", "b1")    # must coalesce with b0
            assert t_b.result(10.0) == "b0"
            assert t_c.result(10.0) == "b1"
        finally:
            batcher.close()
        b_batches = [p for key, p in batches if key == "B"]
        assert b_batches and b_batches[0] == ["b0", "b1"], (
            f"aliased head flushed early, splitting the batch: "
            f"{b_batches}")
