"""Measurement helpers: percentiles, per-process CPU and memory, the host
calibration loop, provenance, and the correctness checks.

Everything here reads a process by pid from ``/proc``, so the figures
belong to the program's process and never to the load generator.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) by the nearest-rank method.

    Nearest rank always returns a measured sample, never an interpolated
    value between two of them.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(values, q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of process ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds used so far by process ``pid``."""
    with open(f"/proc/{pid}/stat") as fh:
        stat = fh.read()
    # the command name may hold spaces: fields resume after its ')'
    fields = stat[stat.rindex(")") + 2:].split()
    ticks = int(fields[11]) + int(fields[12])    # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


def calib_ms(reps: int = 5) -> float:
    """Median wall time of a fixed NumPy reference loop, in ms.

    The loop never changes with the program, so a shift in it between two
    sets of runs is host drift, not a program change.  It mixes a
    cache-resident matrix product with a gather, prefix sum and argmax
    over an array several MiB wide (the access pattern of the engine's
    pooling stage), so it feels memory-bandwidth contention as well as
    clock speed.
    """
    import numpy as np
    rng = np.random.default_rng(12345)
    a = rng.random((256, 256))
    counts = rng.integers(0, 64, size=(6, 8, 576, 64), dtype=np.int16)
    windows = rng.permutation(576).reshape(144, 4)
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(8):
            a @ a
        grouped = counts[:, :, windows, :]
        np.cumsum(grouped, axis=-1).argmax(axis=-2)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def source_digest(root: Path) -> str:
    """sha1 over the program's sources (``src/``), path and content."""
    digest = hashlib.sha1()
    for path in sorted((root / "src").rglob("*")):
        if path.suffix in (".py", ".c", ".h") and path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path, native_status: dict) -> dict:
    """Where and on what a run was measured."""
    import numpy as np
    commit = None
    if (root / ".git").exists():     # a plain source checkout has none
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "commit": commit,
        "source_sha1": source_digest(root),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "native": {k: native_status.get(k)
                   for k in ("available", "enabled", "reason", "override")},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# ----------------------------------------------------------------------
# correctness checks: each returns the number of failed operations
# ----------------------------------------------------------------------

def logits_mismatches(got, expected) -> int:
    """Batches whose logits differ from the oracle in any bit."""
    import numpy as np
    return sum(1 for g, e in zip(got, expected)
               if np.asarray(g).shape != np.asarray(e).shape
               or np.asarray(g).tobytes() != np.asarray(e).tobytes())


def image_reply_failures(replies, expected) -> int:
    """Served single-image replies that are not a 200 with the oracle's
    prediction.  ``replies`` holds ``(status, body, pool index)``."""
    return sum(1 for status, body, idx in replies
               if status != 200 or body.get("prediction") != expected[idx])


def scene_reply_failures(replies, expected) -> int:
    """Served scene replies that differ from the oracle's
    :class:`repro.engine.tiled.SceneResult` rendering in any field."""
    return sum(1 for status, body, idx in replies
               if status != 200 or any(body.get(k) != v
                                       for k, v in expected[idx].items()))
