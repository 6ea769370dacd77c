"""Multi-process serving tier: routing, bit-identity, chaos, cleanup.

The bar carried over from the single-process tier: every exact-backend
reply is bit-identical to a dedicated single-request engine run no
matter which worker served it, no accepted request's reply is dropped
even when a worker is killed mid-flight, every worker — a respawned one
too — serves the warm plans it inherited from the frontend instead of
compiling its own, and no lifecycle (close, kill and respawn, drain)
leaves an fd or a thread behind.
"""

import glob
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.core.config import NetworkConfig, PoolKind
from repro.data.synthetic_mnist import to_bipolar
from repro.engine import Engine, build_graph, compile_plan
from repro.serve import ProcServeFacade, QueueFull, ServiceDraining
from repro.serve import procpool

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


class TestPlanInheritance:
    """Workers serve the plans the frontend compiled before forking."""

    @staticmethod
    def _assert_workers_inherited(facade):
        stats = facade.stats()
        assert stats["procs"]["shared_plans"] == 1
        assert len(stats["workers"]) == facade.procs
        for worker in stats["workers"]:
            assert worker["pool"]["plans"] >= 1, worker["pool"]
            assert worker["pool"]["plans_compiled"] == 0, worker["pool"]

    def test_warm_workers_compile_no_plan(self, facade, images):
        facade.predict_one(images[0])
        self._assert_workers_inherited(facade)

    def test_respawned_worker_inherits_plans(
            self, tiny_trained_lenet, images, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS", "site=serve.compute,action=kill,hits=1")
        with ProcServeFacade(tiny_trained_lenet, procs=2, length=LENGTH,
                             max_wait_ms=1.0) as facade:
            monkeypatch.delenv("REPRO_FAULTS")
            facade.predict_one(images[0], timeout=60.0)
            assert facade._restarts >= 1
            self._assert_workers_inherited(facade)

    def test_cold_facade_shares_no_plan(self, tiny_trained_lenet):
        with ProcServeFacade(tiny_trained_lenet, procs=1, length=LENGTH,
                             warm=False) as facade:
            assert facade.stats()["procs"]["shared_plans"] == 0


class TestPlanArena:
    """The frontend's plan arena: one ``{pool key: CompiledPlan}`` dict,
    compiled before the first fork and inherited by every worker — no
    shared-memory segment, no byte format."""

    def test_segments_hold_bit_identical_plans(
            self, facade, tiny_trained_lenet):
        assert len(facade._plans) == 1
        (plan,) = facade._plans.values()
        _, config, _ = facade.resolver.resolve({})
        fresh = compile_plan(build_graph(tiny_trained_lenet, config))
        assert len(plan.layers) == len(fresh.layers)
        for a, b in zip(plan.layers, fresh.layers):
            for field in ("weights", "dense_weights", "dense_bias",
                          "raw_weights", "raw_bias"):
                np.testing.assert_array_equal(getattr(a, field),
                                              getattr(b, field))

    def test_close_unlinks_segments(self, tiny_trained_lenet, images):
        before = sorted(glob.glob("/dev/shm/repro-plan-*"))
        facade = ProcServeFacade(tiny_trained_lenet, procs=2,
                                 length=LENGTH)
        try:
            facade.predict_one(images[0])
            assert len(facade._plans) == 1
            assert sorted(glob.glob("/dev/shm/repro-plan-*")) == before
        finally:
            facade.close()
        # the closed frontend lets go of its copy of the weights
        assert facade._plans == {}
        assert sorted(glob.glob("/dev/shm/repro-plan-*")) == before


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
        """Close after a kill and respawn reaps every incarnation and
        leaves no plan behind, in shared memory or in the frontend."""
        monkeypatch.setenv(
            "REPRO_FAULTS", "site=serve.compute,action=kill,hits=1")
        before = sorted(glob.glob("/dev/shm/repro-plan-*"))
        facade = ProcServeFacade(tiny_trained_lenet, procs=2,
                                 length=LENGTH, max_wait_ms=1.0)
        monkeypatch.delenv("REPRO_FAULTS")
        facade.predict_one(images[1], timeout=60.0)
        assert facade._restarts >= 1
        pids = {link.proc.pid for link in facade._links}
        facade.close()
        alive = {proc.pid for proc in multiprocessing.active_children()}
        assert not pids & alive
        assert facade._plans == {}
        assert sorted(glob.glob("/dev/shm/repro-plan-*")) == before


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

    def test_close_counts_forced_termination(
            self, tiny_trained_lenet, images, monkeypatch):
        """A worker held in a slow batch past the join timeout is
        terminated, counted, and its caller fails instead of hanging."""
        monkeypatch.setenv(
            "REPRO_FAULTS", "site=serve.compute,action=sleep,sleep_s=5.0,"
            "hits=1")
        monkeypatch.setattr(procpool, "JOIN_TIMEOUT_S", 0.2)
        errors = []

        def call():
            try:
                facade.predict_one(images[0])
            except RuntimeError as exc:
                errors.append(exc)

        with obs.scoped_registry() as registry:
            facade = ProcServeFacade(tiny_trained_lenet, procs=1,
                                     length=LENGTH, warm=False)
            monkeypatch.delenv("REPRO_FAULTS")
            thread = threading.Thread(target=call)
            thread.start()

            def computing():
                return any(w["batcher"]["inflight_batches"]
                           for w in facade.stats()["workers"])

            # Close only once the worker holds the request in its slow
            # batch: closed earlier, the worker sees EOF before the
            # request and exits in time.
            deadline = time.monotonic() + 30.0
            while not computing() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert computing(), "request never reached the worker"
            facade.close()
            thread.join(5.0)
            samples = registry.snapshot()[
                "repro_serve_forced_terminations_total"]["samples"]
        assert not thread.is_alive()
        assert sum(samples.values()) == 1
        assert len(errors) == 1 and "closed" in str(errors[0])

    def test_lifecycle_cycles_leak_nothing(self, tiny_trained_lenet,
                                           images, monkeypatch):
        def resources():
            return (len(os.listdir("/proc/self/fd")),
                    set(threading.enumerate()),
                    sorted(glob.glob("/dev/shm/repro-plan-*")))

        def plain():
            with ProcServeFacade(tiny_trained_lenet, procs=2,
                                 length=LENGTH) as facade:
                facade.predict_one(images[0])

        def kill_respawn():
            monkeypatch.setenv(
                "REPRO_FAULTS", "site=serve.compute,action=kill,hits=1")
            with ProcServeFacade(tiny_trained_lenet, procs=2,
                                 length=LENGTH) as facade:
                monkeypatch.delenv("REPRO_FAULTS")
                facade.predict_one(images[0], timeout=60.0)
                assert facade._restarts >= 1

        def drain():
            with ProcServeFacade(tiny_trained_lenet, procs=2,
                                 length=LENGTH) as facade:
                facade.predict_one(images[0])
                facade.drain()
                assert facade.await_idle(timeout=5.0)

        before = resources()
        for cycle in (plain, plain, plain, kill_respawn, drain):
            cycle()
            assert resources() == before, cycle.__name__
