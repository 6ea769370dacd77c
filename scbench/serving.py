"""Served workloads: ``python -m repro serve`` with its defaults.

The load generator side (:class:`Serving`) starts the server in its own
process, one per set-up, times spawn to the first 200 from ``/healthz``,
then runs one keep-alive closed-loop client per core.  Every reply is
checked against a dedicated engine in the load generator's process, and
the server must exit 0 on SIGTERM and leave no shared-memory plan
segment behind.

Run as a script (``python serving.py RECORDS -- serve ...``) this file is
the traced launcher: it installs the timing wrappers of
:mod:`tracing` in the server's process, runs the unchanged ``repro``
command line, and writes the records to ``RECORDS`` at exit.
"""

from __future__ import annotations

import atexit
import glob
import http.client
import json
import os
import pickle
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import measure
import tracing

POOL_IMAGES = 32
POOL_SCENES = 8
SCENE_STRIDE = 14
#: a 56x56 scene tiled by 28x28 windows at stride 14
WINDOWS_PER_SCENE = 9
WARMUP_REQUESTS = 1
#: mean client think time between a reply and the next request
THINK_MEAN_S = 1e-3
SHM_GLOB = "/dev/shm/repro-plan-*"
LISTENING = re.compile(r"listening on http://[\d.]+:(\d+)")
SETUP_TIMEOUT_S = 120


class Serving:
    """Load-generator side of ``serve-image`` / ``serve-scene``."""

    def __init__(self, ctx, kind: str):
        from repro.data.scenes import SceneGenerator
        from repro.data.synthetic_mnist import SyntheticMNIST, to_bipolar
        self.ctx = ctx
        self.kind = kind
        if kind == "image":
            images, _ = SyntheticMNIST(seed=20_000 + ctx.seed).batch(
                POOL_IMAGES)
            self.inputs = to_bipolar(images.reshape(POOL_IMAGES, -1))
            self.bodies = [json.dumps({"image": img.tolist()}).encode()
                           for img in self.inputs]
            self.images_per_request = 1
        else:
            self.inputs = SceneGenerator(seed=30_000 + ctx.seed).scenes(
                "cluttered", POOL_SCENES)
            self.bodies = [json.dumps({"scene": s.to_payload(),
                                       "stride": SCENE_STRIDE}).encode()
                           for s in self.inputs]
            self.images_per_request = WINDOWS_PER_SCENE
        self._expected = None

    # ------------------------------------------------------------------
    def expected(self) -> list:
        """Oracle replies for the input pool, from a dedicated engine."""
        if self._expected is None:
            import numpy as np
            from repro.engine.tiled import TiledInference
            engine = self.ctx.oracle_engine()
            if self.kind == "image":
                self._expected = [
                    int(np.argmax(engine.backend.forward_independent(
                        img[None])[0])) for img in self.inputs]
            else:
                tiled = TiledInference(engine, stride=SCENE_STRIDE)
                self._expected = []
                for scene in self.inputs:
                    res = tiled.infer(scene)
                    self._expected.append({
                        "kind": res.kind,
                        "cell_predictions": [int(p) for p in res.cell_preds],
                        "cell_windows": [int(i) for i in res.cell_windows],
                        "window_boxes": [list(b) for b in res.boxes],
                        "window_predictions": [int(p)
                                               for p in res.window_preds],
                    })
        return self._expected

    def failures(self, replies) -> int:
        check = (measure.image_reply_failures if self.kind == "image"
                 else measure.scene_reply_failures)
        return check(replies, self.expected())

    # ------------------------------------------------------------------
    def run(self, seconds: float, traced: bool) -> dict:
        """Set up one server process and measure it for ``seconds``."""
        records = self.ctx.run_dir / f"serve-{time.monotonic_ns()}.pkl"
        server = Server(self.ctx, records if traced else None)
        try:
            setup_s = server.start()
            warm = self.clients(server.port, 0.0)
            before = server.get("/stats")
            cpu0 = measure.cpu_seconds(server.pid)
            window = self.clients(server.port, seconds)
            cpu1 = measure.cpu_seconds(server.pid)
            after = server.get("/stats")
            peak_rss_mb = measure.peak_rss_mb(server.pid)
        finally:
            stopped_cleanly = server.stop()
        replies = warm["replies"] + window["replies"]
        result = {
            "setup_s": setup_s,
            # every reply, plus the clean exit of the server
            "attempted": len(replies) + 1,
            "failed": self.failures(replies) + (not stopped_cleanly),
            "images": len(window["replies"]) * self.images_per_request,
            "window_s": window["t1"] - window["t0"], "cpu_s": cpu1 - cpu0,
            "latencies_ms": window["latencies_ms"],
            "peak_rss_mb": peak_rss_mb,
        }
        if traced:
            with open(records, "rb") as fh:
                recs = pickle.load(fh)
            records.unlink()
            result["layers"] = self.layers(recs, window, (before, after))
        return result

    @staticmethod
    def layers(records, window: dict, stats: tuple) -> dict:
        """Per-layer metrics: the traced records plus the window's
        ``/stats`` difference and the client-side HTTP overhead."""
        out = tracing.summarize(records, window["t0"], window["t1"])
        before, after = stats
        batches = after["batcher"]["batches"] - before["batcher"]["batches"]
        batched = (after["batcher"]["batched_requests"]
                   - before["batcher"]["batched_requests"])
        pool = {k: after["pool"][k] - before["pool"][k]
                for k in ("hits", "misses")}
        lookups = pool["hits"] + pool["misses"]
        out.update({
            "serve.http_ms_p50": measure.percentile(window["http_ms"], 50),
            "serve.batch_size_mean": batched / batches if batches else 0.0,
            "serve.pool_hit_ratio": pool["hits"] / lookups if lookups else 0.0,
            "serve.pool_lookups": lookups,
            "serve.plans_compiled": after["pool"]["plans_compiled"],
        })
        return out

    # ------------------------------------------------------------------
    def clients(self, port: int, seconds: float) -> dict:
        """One closed-loop client per core for ``seconds`` (or, with 0,
        :data:`WARMUP_REQUESTS` requests each).  Each request follows a
        think time drawn from the seed."""
        import numpy as np
        n_clients = len(os.sched_getaffinity(0))
        per_client = [[] for _ in range(n_clients)]
        t0 = time.monotonic()
        deadline = t0 + seconds

        def client(i):
            rng = np.random.default_rng([self.ctx.seed, i, int(seconds)])
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            try:
                while (time.monotonic() < deadline if seconds
                       else len(per_client[i]) < WARMUP_REQUESTS):
                    time.sleep(rng.exponential(THINK_MEAN_S))
                    idx = int(rng.integers(len(self.bodies)))
                    start = time.perf_counter()
                    try:
                        conn.request("POST", "/predict", self.bodies[idx],
                                     {"Content-Type": "application/json"})
                        resp = conn.getresponse()
                        status, body = resp.status, json.loads(resp.read())
                    except (OSError, http.client.HTTPException,
                            ValueError):
                        # a failed request: counted, then a fresh connection
                        status, body = 0, {}
                        conn.close()
                    elapsed = time.perf_counter() - start
                    per_client[i].append((status, body, idx, elapsed))
            finally:
                conn.close()

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        t1 = time.monotonic()
        done = [r for rows in per_client for r in rows]
        return {
            "t0": t0, "t1": t1,
            "replies": [(status, body, idx) for status, body, idx, _ in done],
            "latencies_ms": [1e3 * s for _, _, _, s in done],
            "http_ms": [1e3 * s - body.get("latency_ms", 0.0)
                        for _, body, _, s in done],
        }


class Server:
    """One ``python -m repro serve`` process with its default settings."""

    def __init__(self, ctx, records: Path | None):
        self.ctx = ctx
        self.records = records
        self.proc = None
        self.reader = None
        self.port = None
        self.shm_before = set(glob.glob(SHM_GLOB))

    @property
    def pid(self) -> int:
        return self.proc.pid

    def start(self) -> float:
        """Spawn the server; returns seconds until ``/healthz`` said 200."""
        if self.records is None:
            cmd = [sys.executable, "-m", "repro"]
        else:
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   str(self.records), "--"]
        cmd += ["serve", "--port", "0"]
        start = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=self.ctx.root,
                                     env=self.ctx.env,
                                     stdout=subprocess.PIPE,
                                     stderr=self.ctx.log, text=True)
        lines = queue.Queue()
        # Keep draining stdout so the server can never block on it.
        self.reader = threading.Thread(
            target=lambda: [lines.put(x) for x in self.proc.stdout])
        self.reader.start()
        while self.port is None:
            try:
                match = LISTENING.search(lines.get(timeout=0.5))
            except queue.Empty:
                match = None
                self._check_alive(start)
            if match:
                self.port = int(match.group(1))
        while True:
            try:
                if self.get("/healthz", raw=True) == 200:
                    return time.monotonic() - start
            except OSError:
                self._check_alive(start)
            time.sleep(0.002)

    def _check_alive(self, start: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(
                f"server exited {self.proc.returncode} during set-up")
        if time.monotonic() - start > SETUP_TIMEOUT_S:
            raise RuntimeError("server set-up timed out")

    def get(self, path: str, raw: bool = False):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            body = resp.read()
        finally:
            conn.close()
        return resp.status if raw else json.loads(body)

    def stop(self) -> bool:
        """SIGTERM and wait; True when the server exited 0 and left no
        shared-memory plan segment."""
        if self.proc is None:
            return False
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            code = None
        if self.reader is not None:
            self.reader.join()
        self.proc.stdout.close()
        leaked = set(glob.glob(SHM_GLOB)) - self.shm_before
        return code == 0 and not leaked


def launcher_main(argv) -> int:
    """Traced server: ``serving.py RECORDS -- <repro command line>``."""
    records, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: serving.py RECORDS -- serve ...")
    recorder = tracing.install()
    atexit.register(recorder.dump, records)
    from repro.__main__ import main
    return main(args)


if __name__ == "__main__":
    sys.exit(launcher_main(sys.argv[1:]))
