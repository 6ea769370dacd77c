"""Multi-process serving tier: routing, bit-identity, chaos, cleanup.

The bar carried over from the single-process tier: every exact-backend
reply is bit-identical to a dedicated single-request engine run no
matter which worker served it, no accepted request's reply is dropped
even when a worker is killed mid-flight, and shutting the facade down
leaves no shared-memory segment behind.
"""

import glob
import os
import threading
import time
from multiprocessing import resource_tracker

import numpy as np
import pytest

from repro.core.config import NetworkConfig, PoolKind
from repro.data.synthetic_mnist import to_bipolar
from repro.engine import Engine, build_graph, compile_plan
from repro.engine.plan import unpack_plan
from repro.serve import ProcServeFacade, QueueFull, ServiceDraining
from repro.serve.procpool import PlanArena

LENGTH = 32


def _cfg(length=LENGTH, kinds=("APC", "APC", "APC")):
    return NetworkConfig.from_kinds(PoolKind.MAX, length, kinds)


@pytest.fixture(scope="module")
def images(small_dataset):
    _, _, x_test, _ = small_dataset
    return to_bipolar(x_test)[:8].reshape(8, -1)


@pytest.fixture(scope="module")
def facade(tiny_trained_lenet):
    with ProcServeFacade(tiny_trained_lenet, procs=2, length=LENGTH,
                         max_wait_ms=1.0) as facade:
        yield facade


class TestPlanArena:
    def test_segments_hold_bit_identical_plans(self, tiny_trained_lenet):
        arena = PlanArena()
        try:
            config = _cfg()
            arena.add("default", tiny_trained_lenet, config, (None,) * 4)
            assert len(arena.segment_names()) == 1
            shm = arena._segments[0]
            graph = build_graph(tiny_trained_lenet, config)
            plan = unpack_plan(graph, shm.buf)
            fresh = compile_plan(graph)
            for a, b in zip(plan.layers, fresh.layers):
                np.testing.assert_array_equal(a.weights, b.weights)
            # release the zero-copy views before the segment closes
            del plan, a, b
        finally:
            arena.close(unlink=True)

    def test_close_unlinks_segments(self, tiny_trained_lenet):
        arena = PlanArena()
        arena.add("default", tiny_trained_lenet, _cfg(), (None,) * 4)
        paths = [f"/dev/shm/{name}" for name in arena.segment_names()]
        assert all(os.path.exists(p) for p in paths)
        arena.close(unlink=True)
        assert not any(os.path.exists(p) for p in paths)


class TestBitIdentity:
    def test_replies_match_dedicated_engine_across_specs(
            self, facade, tiny_trained_lenet, images):
        """Several specs (different seeds route to different workers):
        every reply must equal a dedicated single-request engine run."""
        specs = [{"seed": s} for s in range(4)]
        results = {}

        def go(index, spec):
            results[index] = facade.predict(images[index % len(images)],
                                            **spec)

        threads = [threading.Thread(target=go, args=(i, spec))
                   for i, spec in enumerate(specs * 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i, spec in enumerate(specs * 2):
            engine = Engine(tiny_trained_lenet, _cfg(), backend="exact",
                            seed=spec["seed"])
            expected = engine.predict(images[i % len(images)][None])[0]
            assert int(results[i][0]) == int(expected), \
                f"request {i} (spec {spec}) diverged from dedicated run"

    def test_batch_request_matches_per_image_dedicated_runs(
            self, facade, tiny_trained_lenet, images):
        preds = facade.predict(images[:4], seed=7)
        for img, pred in zip(images[:4], preds):
            engine = Engine(tiny_trained_lenet, _cfg(), backend="exact",
                            seed=7)
            assert int(pred) == int(engine.predict(img[None])[0])


class TestRouting:
    def test_same_spec_routes_to_one_worker(self, facade):
        key, _, _ = facade.resolver.resolve({})
        indices = {facade._route(key) for _ in range(10)}
        assert len(indices) == 1

    def test_route_is_stable_across_resolves(self, facade):
        a, _, _ = facade.resolver.resolve({"seed": 5})
        b, _, _ = facade.resolver.resolve({"seed": 5})
        assert facade._route(a) == facade._route(b)

    def test_distinct_specs_cover_both_workers(self, facade):
        indices = {facade._route(facade.resolver.resolve({"seed": s})[0])
                   for s in range(32)}
        assert indices == {0, 1}


class TestAdmissionControl:
    def test_admission_limit_refuses_with_queue_full(
            self, tiny_trained_lenet, images):
        with ProcServeFacade(tiny_trained_lenet, procs=1, length=LENGTH,
                             warm=False,
                             max_inflight_per_model=1) as facade:
            with facade._lock:
                facade._inflight_by_model["default"] = 1
            with pytest.raises(QueueFull, match="admission"):
                facade.predict(images[0])
            with facade._lock:
                facade._inflight_by_model["default"] = 0
            # below the limit requests flow again
            assert 0 <= facade.predict_one(images[0]) <= 9

    def test_bad_requests_rejected_frontend_side(self, facade, images):
        with pytest.raises(ValueError, match="unknown model"):
            facade.predict(images[0], model="nope")
        with pytest.raises(ValueError, match="unknown request fields"):
            facade.predict(images[0], bogus=1)
        # frontend rejections never consume a worker round-trip
        assert facade.stats()["service"]["errors"] >= 2


class TestWorkerChaos:
    def test_killed_worker_respawns_and_reply_arrives(
            self, tiny_trained_lenet, images, monkeypatch):
        """A worker killed mid-request is respawned and the request is
        resubmitted — the caller still gets the right answer."""
        monkeypatch.setenv(
            "REPRO_FAULTS", "site=serve.compute,action=kill,hits=1")
        facade = ProcServeFacade(tiny_trained_lenet, procs=2,
                                 length=LENGTH, max_wait_ms=1.0)
        try:
            # Workers armed the kill fault from the env at startup;
            # clear it so the *respawned* worker starts clean instead
            # of dying on the resubmitted request forever.
            monkeypatch.delenv("REPRO_FAULTS")
            pred = facade.predict_one(images[0], timeout=60.0)
            engine = Engine(tiny_trained_lenet, _cfg(), backend="exact",
                            seed=0)
            assert pred == int(engine.predict(images[0][None])[0])
            assert facade._restarts >= 1
            stats = facade.stats()
            assert stats["procs"]["restarts"] >= 1
            assert stats["procs"]["alive"] == 2
        finally:
            facade.close()

    def test_close_after_chaos_unlinks_shared_memory(
            self, tiny_trained_lenet, images, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS", "site=serve.compute,action=kill,hits=1")
        facade = ProcServeFacade(tiny_trained_lenet, procs=2,
                                 length=LENGTH, max_wait_ms=1.0)
        monkeypatch.delenv("REPRO_FAULTS")
        paths = [f"/dev/shm/{name}"
                 for name in facade.arena.segment_names()]
        facade.predict_one(images[1], timeout=60.0)
        facade.close()
        assert not any(os.path.exists(p) for p in paths)


class TestDrainAndStats:
    def test_drain_refuses_new_requests(self, tiny_trained_lenet, images):
        facade = ProcServeFacade(tiny_trained_lenet, procs=2,
                                 length=LENGTH, warm=False)
        try:
            facade.predict_one(images[0])
            facade.drain()
            assert facade.draining
            with pytest.raises(ServiceDraining):
                facade.predict(images[0])
            assert facade.await_idle(timeout=5.0)
        finally:
            facade.close()

    def test_await_idle_tracks_a_relayed_request(
            self, tiny_trained_lenet, images, monkeypatch):
        # Workers arm the slow batch from the env at startup.
        monkeypatch.setenv(
            "REPRO_FAULTS", "site=serve.compute,action=sleep,sleep_s=1.0,"
            "hits=1")
        facade = ProcServeFacade(tiny_trained_lenet, procs=1,
                                 length=LENGTH, warm=False)
        monkeypatch.delenv("REPRO_FAULTS")
        thread = threading.Thread(target=facade.predict_one,
                                  args=(images[0],))
        try:
            thread.start()
            deadline = time.monotonic() + 10.0
            while not facade._pending and time.monotonic() < deadline:
                time.sleep(0.01)
            assert facade._pending, "request never relayed"
            assert not facade.await_idle(timeout=0.1)
            thread.join(30.0)
            assert not thread.is_alive()
            assert facade.await_idle(timeout=5.0)
            assert facade.tracker.summary()["requests"] == 1
        finally:
            thread.join(5.0)
            facade.close()

    def test_stats_aggregates_workers(self, facade, images):
        for seed in range(4):
            facade.predict_one(images[seed], seed=seed)
        stats = facade.stats()
        assert stats["procs"]["workers"] == 2
        assert stats["procs"]["alive"] == 2
        assert len(stats["workers"]) == 2
        frontend = stats["service"]["requests"]
        worker_total = sum(w["service"]["requests"]
                           for w in stats["workers"])
        # every frontend-served request ran in some worker (chaos
        # resubmissions may add to, never subtract from, the total)
        assert worker_total >= 4
        assert frontend >= 4
        assert stats["pool"]["plans"] >= 1
        assert stats["defaults"]["backend"] == "exact"

    def test_metrics_text_merges_worker_registries(self, facade, images):
        facade.predict_one(images[0])
        text = facade.metrics_text()
        assert "repro_serve_procs 2" in text
        # worker-side counters present in the merged exposition
        assert "repro_serve_requests_total" in text
        assert "repro_pool_lookups_total" in text
        # merged totals cover every worker-served request
        stats = facade.stats()
        worker_total = sum(w["service"]["requests"]
                           for w in stats["workers"])
        served = sum(
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_serve_requests_total"))
        assert served >= worker_total


class TestShutdown:
    def test_close_is_prompt_and_workers_exit_cleanly(
            self, tiny_trained_lenet, images, monkeypatch):
        """Closing the send ends is an EOF every worker sees: none waits
        out the join timeout and gets SIGTERMed."""
        facade = ProcServeFacade(tiny_trained_lenet, procs=2,
                                 length=LENGTH, warm=False)
        facade.predict_one(images[0])
        exitcodes = []
        for link in facade._links:
            # close() releases each Process object, exit code included:
            # read the code just before that happens.
            def close(proc=link.proc, release=link.proc.close):
                exitcodes.append(proc.exitcode)
                release()
            monkeypatch.setattr(link.proc, "close", close)
        start = time.monotonic()
        facade.close()
        assert time.monotonic() - start < 1.0
        assert exitcodes == [0, 0]

    def test_lifecycle_cycles_leak_nothing(self, tiny_trained_lenet,
                                           images):
        def resources():
            return (len(os.listdir("/proc/self/fd")),
                    set(threading.enumerate()),
                    sorted(glob.glob("/dev/shm/repro-plan-*")))

        # The stdlib's process-wide shared-memory tracker holds one pipe
        # for the life of the process; start it before the baseline.
        resource_tracker.ensure_running()
        before = resources()
        for _ in range(3):
            with ProcServeFacade(tiny_trained_lenet, procs=2,
                                 length=LENGTH) as facade:
                facade.predict_one(images[0])
        assert resources() == before
