"""Tests of the benchmark's own helpers (no program run needed)."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import measure  # noqa: E402
import run  # noqa: E402
import serving  # noqa: E402
import tracing  # noqa: E402


# ----------------------------------------------------------------------
# percentile helper
# ----------------------------------------------------------------------

def test_percentile_nearest_rank():
    values = list(range(1, 11))
    assert measure.percentile(values, 50) == 5
    assert measure.percentile(values, 90) == 9
    assert measure.percentile(values, 100) == 10
    assert measure.percentile(values, 0) == 1
    assert measure.percentile([7.5], 90) == 7.5
    assert measure.percentile(list(reversed(values)), 50) == 5


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        measure.percentile([], 50)
    with pytest.raises(ValueError):
        measure.percentile([1.0], 101)


def test_samples_beyond_p90():
    assert measure.beyond(list(range(100)), 90) == 10
    assert measure.beyond(list(range(10)), 90) == 1


# ----------------------------------------------------------------------
# the printed metric names are the ones BENCHMARK.json declares
# ----------------------------------------------------------------------

def _declared(key):
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def test_metric_names_match_benchmark_json():
    assert run.END_TO_END == _declared("end_to_end")
    assert run.PER_LAYER == _declared("per_layer")


def test_workloads_match_benchmark_json():
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_layer_summaries_cover_per_layer_metrics():
    stats = {"batcher": {"batches": 0, "batched_requests": 0},
             "pool": {"hits": 0, "misses": 0, "plans_compiled": 1}}
    layers = serving.Serving.layers(
        [], {"t0": 0.0, "t1": 1.0, "http_ms": [1.0]}, (stats, stats))
    names = set(layers) | {"host.calib_ms", "trace.overhead_ratio"}
    assert names == set(run.PER_LAYER)
    assert set(tracing.summarize([], 0.0, 1.0)) <= set(run.PER_LAYER)


def test_metric_block_requires_every_metric():
    values = {name: 1.0 for name in run.END_TO_END}
    block = run.metric_block(values, run.END_TO_END)
    assert block["setup_s"] == {"value": 1.0, "unit": "s"}
    del values["peak_rss_mb"]
    with pytest.raises(ValueError):
        run.metric_block(values, run.END_TO_END)


def test_forward_children_add_up_to_forward():
    records = [
        ("engine.forward", 1.0, 0.5, None, 16),
        ("native.apc_counts", 1.1, 0.2, "engine.forward", 0),
        ("blocks.pool", 1.3, 0.1, "engine.forward", 0),
        # nested below another child: counted once, in its parent
        ("sc.pack", 1.31, 0.05, "blocks.pool", 0),
        ("engine.forward", 9.0, 0.5, None, 16),     # outside the window
    ]
    out = tracing.summarize(records, 0.5, 2.0)
    assert out["engine.forward_ms"] == pytest.approx(500.0)
    assert out["native.apc_counts_ms"] == pytest.approx(200.0)
    assert out["sc.pack_ms"] == 0.0
    assert out["engine.unattributed_ms"] == pytest.approx(200.0)
    assert out["engine.batch_images_mean"] == 16


# ----------------------------------------------------------------------
# a corrupted logit or reply counts as a failed operation
# ----------------------------------------------------------------------

def test_corrupted_logit_is_a_failure():
    rng = np.random.default_rng(0)
    expected = [rng.standard_normal((16, 10)) for _ in range(3)]
    got = [e.copy() for e in expected]
    assert measure.logits_mismatches(got, expected) == 0
    got[1][4, 7] = np.nextafter(got[1][4, 7], np.inf)   # one ulp
    assert measure.logits_mismatches(got, expected) == 1


def test_corrupted_image_reply_is_a_failure():
    expected = [3, 8]
    replies = [(200, {"prediction": 3}, 0), (200, {"prediction": 8}, 1)]
    assert measure.image_reply_failures(replies, expected) == 0
    replies.append((200, {"prediction": 2}, 1))
    replies.append((503, {"error": "draining"}, 0))
    assert measure.image_reply_failures(replies, expected) == 2


def test_corrupted_scene_reply_is_a_failure():
    expected = [{"kind": "cluttered", "cell_predictions": [4],
                 "window_predictions": [4, 1, 1]}]
    good = dict(expected[0], latency_ms=3.0)
    bad = dict(good, window_predictions=[4, 1, 2])
    assert measure.scene_reply_failures([(200, good, 0)], expected) == 0
    assert measure.scene_reply_failures(
        [(200, good, 0), (200, bad, 0)], expected) == 1


# ----------------------------------------------------------------------
# peak memory is read from the program's process
# ----------------------------------------------------------------------

def _holder(mib: int):
    code = ("import sys; b = bytearray(%d << 20); b[::4096] = b'x' * len("
            "b[::4096]); print('ready', flush=True); sys.stdin.read()") % mib
    proc = subprocess.Popen([sys.executable, "-c", code],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    assert proc.stdout.readline().strip() == "ready"
    return proc


def test_peak_rss_reads_the_given_process():
    big, small = _holder(200), _holder(0)
    try:
        big_mb = measure.peak_rss_mb(big.pid)
        small_mb = measure.peak_rss_mb(small.pid)
    finally:
        for proc in (big, small):
            proc.communicate(timeout=30)
    assert big_mb >= 200
    assert small_mb < big_mb - 150
