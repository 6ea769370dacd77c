"""Measured FEB transfer curves and noise magnitudes (surrogate inputs).

The calibrated surrogate backend evaluates the network in float
arithmetic, replacing each layer's ``tanh(pool(·))`` with a transfer
curve *measured from the real bit-level blocks*:

1. For every (FEB kind, pooling, input size, stream length) appearing in
   the network, run the bit-level feature extraction block on a few
   hundred synthetic receptive fields whose true pooled pre-activations
   sweep the operating range, and record ``(reference, hardware output)``
   pairs.
2. Bin by reference value and keep the per-bin mean (the block's
   *transfer curve*, capturing systematic effects: MUX down-scaling,
   max-pool under-counting, Btanh gain) and standard deviation (the
   stochastic noise).

:func:`measured_stage_sigma` distills the same measurements into a single
Gaussian sigma per block — the paper's own network-evaluation
methodology (inaccuracy injected as zero-mean noise), consumed by the
``noise`` backend.  Both artifact families are disk-cached under
:func:`repro.data.cache.cache_dir`.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import numpy as np

from repro.core.config import FEBKind
from repro.core.feature_extraction import make_feb
from repro.core.state_numbers import btanh_states_apc_max, stanh_states_mux_avg
from repro.data.cache import cache_dir
from repro.sc import activation
from repro.sc.adders import apc_count, mux_add
from repro.sc.encoding import Encoding
from repro.sc.ops import popcount as ops_popcount
from repro.sc.ops import xnor_
from repro.sc.rng import StreamFactory
from repro.utils.seeding import spawn_rng

__all__ = [
    "TARGET_RANGE",
    "N_BINS",
    "FEBCalibration",
    "calibrate_feb",
    "measured_stage_sigma",
]

TARGET_RANGE = 3.0   # pooled pre-activations of the trained net stay within
N_BINS = 25


def _atomic_savez(path, **arrays) -> None:
    """Write an ``.npz`` atomically (write-temp + rename).

    The calibration disk cache is shared by every process on the
    machine; the DSE runner's worker pool can race two processes onto
    one cache key (they compute identical artifacts).  A plain
    ``np.savez`` would let one process load the other's half-written
    file; ``os.replace`` makes the publish atomic on POSIX.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp.npz")
    np.savez(tmp, **arrays)
    os.replace(tmp, path)


class FEBCalibration:
    """A measured transfer curve: per-bin mean and noise of a block."""

    def __init__(self, centers: np.ndarray, mean: np.ndarray,
                 std: np.ndarray):
        self.centers = np.asarray(centers, dtype=np.float64)
        self.mean = np.asarray(mean, dtype=np.float64)
        self.std = np.asarray(std, dtype=np.float64)

    def apply(self, values: np.ndarray, rng: np.random.Generator | None = None
              ) -> np.ndarray:
        """Map true pooled values through the measured transfer + noise."""
        v = np.asarray(values, dtype=np.float64)
        out = np.interp(v, self.centers, self.mean)
        if rng is not None:
            sigma = np.interp(v, self.centers, self.std)
            out = out + rng.normal(0.0, 1.0, v.shape) * sigma
        return np.clip(out, -1.0, 1.0)

    def save(self, path) -> None:
        _atomic_savez(path, centers=self.centers, mean=self.mean,
                      std=self.std)

    @classmethod
    def load(cls, path) -> "FEBCalibration":
        data = np.load(path)
        return cls(data["centers"], data["mean"], data["std"])


def _window_inputs(targets: np.ndarray, n: int, rng: np.random.Generator):
    """Construct (x, w) whose per-window inner products hit ``targets``.

    ``targets`` has shape ``(samples, windows)``.  x is random in
    [-1, 1]; w is the along-x component achieving the target plus a small
    orthogonal perturbation for realism, clipped into [-1, 1] (the clip
    perturbs extreme targets by a negligible amount for n ≥ 16).
    """
    samples, windows = targets.shape
    x = rng.uniform(-1.0, 1.0, (samples, windows, n))
    norms = (x ** 2).sum(axis=-1, keepdims=True)
    alpha = targets[..., None] / np.maximum(norms, 1e-9)
    r = rng.uniform(-1.0, 1.0, (samples, windows, n)) * 0.2
    proj = (r * x).sum(axis=-1, keepdims=True) / np.maximum(norms, 1e-9)
    w = alpha * x + (r - proj * x)
    return x, np.clip(w, -1.0, 1.0)


def _measure_feb(kind_key: str, n: int, length: int, samples: int,
                 seed: int, target_range: float = TARGET_RANGE):
    """Run the bit-level FEB on target-swept inputs; return (ref, hw)."""
    rng = spawn_rng(seed, "feb-calibration", kind_key, n, length)
    feb = make_feb(kind_key, n, length, seed=seed + 1)
    refs = np.empty(samples)
    hw = np.empty(samples)
    base = rng.uniform(-target_range, target_range, samples)
    spread = rng.uniform(0.0, 1.0, (samples, 4))
    targets = base[:, None] - spread
    x, w = _window_inputs(targets, n, rng)
    batch = max(1, min(samples, (1 << 24) // max(4 * n * length // 8, 1)))
    for start in range(0, samples, batch):
        stop = min(start + batch, samples)
        refs[start:stop] = feb.reference(x[start:stop], w[start:stop])
        hw[start:stop] = feb.forward(x[start:stop], w[start:stop])
    return refs, hw


def _measure_fc(kind: FEBKind, n: int, length: int, samples: int,
                seed: int, target_range: float = TARGET_RANGE):
    """Measure the FC stage: inner product + activation, no pooling."""
    rng = spawn_rng(seed, "fc-calibration", kind.value, n, length)
    factory = StreamFactory(seed=seed + 2, encoding=Encoding.BIPOLAR)
    targets = rng.uniform(-target_range, target_range, (samples, 1))
    x, w = _window_inputs(targets, n, rng)
    x = x[:, 0, :]
    w = w[:, 0, :]
    refs = np.tanh((x * w).sum(axis=-1))
    xs = factory.packed(x, length)
    ws = factory.packed(w, length)
    products = xnor_(xs, ws, length)
    if kind is FEBKind.APC:
        counts = apc_count(products, length)
        k = btanh_states_apc_max(n)
        bits = activation.btanh_counts(counts, n, k)
        hw = 2.0 * bits.mean(axis=-1) - 1.0
    else:
        select = factory.select_signal(n, length)
        ips = mux_add(products, select, length)
        k = stanh_states_mux_avg(length, n)
        # Packed-domain Stanh + word popcount: bit-identical to running
        # the FSM on unpacked bits and averaging them.
        out = activation.stanh_packed(ips, length, k)
        hw = 2.0 * ops_popcount(out, length) / length - 1.0
    return refs, hw


def _fit(refs: np.ndarray, hw: np.ndarray,
         target_range: float = TARGET_RANGE) -> FEBCalibration:
    """Bin (reference, output) pairs into a monotone-tabulated curve."""
    edges = np.linspace(-target_range, target_range, N_BINS + 1)
    centers = (edges[:-1] + edges[1:]) / 2.0
    mean = np.empty(N_BINS)
    std = np.empty(N_BINS)
    which = np.clip(np.digitize(refs, edges) - 1, 0, N_BINS - 1)
    for b in range(N_BINS):
        sel = which == b
        if sel.sum() >= 2:
            mean[b] = hw[sel].mean()
            std[b] = hw[sel].std()
        else:
            mean[b] = np.nan
            std[b] = np.nan
    # Fill sparse bins by interpolation from populated neighbours.
    good = ~np.isnan(mean)
    if not good.any():
        raise RuntimeError("calibration produced no populated bins")
    mean = np.interp(centers, centers[good], mean[good])
    std = np.interp(centers, centers[good], std[good])
    return FEBCalibration(centers, mean, std)


def calibrate_feb(kind_key: str, n: int, length: int, samples: int = 240,
                  seed: int = 0, use_cache: bool = True,
                  target_range: float = TARGET_RANGE) -> FEBCalibration:
    """Measure (or load) the transfer curve of one block configuration.

    ``kind_key`` is a FEB key (``"apc-max"`` …) or ``"fc-apc"`` /
    ``"fc-mux"`` for the pooling-free fully-connected stage.
    ``target_range`` widens the swept pooled-value range (MUX stages with
    gain compensation see scaled pre-activations).
    """
    tag = (f"febcal_{kind_key}_{n}_{length}_{samples}_{seed}_"
           f"{target_range:g}")
    digest = hashlib.sha1(tag.encode()).hexdigest()[:16]
    path = cache_dir() / f"{digest}.npz"
    if use_cache and path.exists():
        return FEBCalibration.load(path)
    if kind_key.startswith("fc-"):
        kind = FEBKind.APC if kind_key == "fc-apc" else FEBKind.MUX
        refs, hw = _measure_fc(kind, n, length, samples, seed, target_range)
    else:
        refs, hw = _measure_feb(kind_key, n, length, samples, seed,
                                target_range)
    cal = _fit(refs, hw, target_range)
    if use_cache:
        cal.save(path)
    return cal


def measured_stage_sigma(kind_key: str, n: int, length: int,
                         samples: int, seed: int,
                         use_cache: bool = True) -> float:
    """Measured FEB absolute inaccuracy (as a Gaussian sigma), cached.

    Runs the bit-level block against its software reference on random
    operating-range inputs and converts the mean absolute error to a
    standard deviation (×√(π/2), exact for Gaussian residuals).
    """
    tag = f"febsigma_{kind_key}_{n}_{length}_{samples}_{seed}"
    digest = hashlib.sha1(tag.encode()).hexdigest()[:16]
    path = cache_dir() / f"{digest}.npz"
    if use_cache and path.exists():
        return float(np.load(path)["sigma"])
    if kind_key.startswith("fc-"):
        kind = FEBKind.APC if kind_key == "fc-apc" else FEBKind.MUX
        refs, hw = _measure_fc(kind, n, length, samples, seed)
    else:
        refs, hw = _measure_feb(kind_key, n, length, samples, seed)
    sigma = float(np.abs(hw - refs).mean() * np.sqrt(np.pi / 2.0))
    if use_cache:
        _atomic_savez(path, sigma=sigma)
    return sigma
