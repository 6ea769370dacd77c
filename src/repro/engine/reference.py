"""Frozen pre-engine bit-level simulator: the regression oracle.

This is the single-image bit-level simulator exactly as it stood
before the layer-graph engine refactor (one stream-factory call per
image, one APC kernel invocation per output channel).  It is kept — and
must not be "optimized" — so that:

* ``tests/test_engine`` can assert the exact backend's batched outputs
  are **bit-identical** to the pre-refactor implementation on fixed
  seeds, forever, without golden files;
* ``benchmarks/bench_engine.py`` can measure the batched engine against
  genuine sequential legacy calls.

Production code should use :class:`repro.engine.engine.Engine` with the
``exact`` backend.
"""

from __future__ import annotations

import numpy as np

from repro.blocks.pooling import (
    DEFAULT_SEGMENT,
    apc_average_pool,
    apc_max_pool,
    average_pool,
    hardware_max_pool,
)
from repro.core.config import FEBKind, NetworkConfig, PoolKind
from repro.core.state_numbers import (
    btanh_states_apc_avg,
    btanh_states_apc_max,
    stanh_states_mux_avg,
    stanh_states_mux_max,
)
from repro.engine.plan import layer_gain_compensation, pool_window_indices
from repro.nn.conv import Conv2D, im2col_indices
from repro.nn.dense import Dense
from repro.sc import activation, adders, ops
from repro.sc.encoding import Encoding
from repro.sc.rng import StreamFactory
from repro.storage.quantization import dequantize_codes, quantize_weights

__all__ = ["ReferenceSCNetwork"]


class _LayerPlan:
    """Resolved per-layer simulation parameters (frozen legacy form)."""

    def __init__(self, name: str, kind: FEBKind, n_inputs: int,
                 n_states: int, weights: np.ndarray, has_pool: bool,
                 geometry=None):
        self.name = name
        self.kind = kind
        self.n_inputs = n_inputs      # including the bias input
        self.n_states = n_states
        self.weights = weights        # (units, n_inputs) with bias folded
        self.has_pool = has_pool
        self.geometry = geometry      # conv: (channels, in_hw, out_hw)


class ReferenceSCNetwork:
    """Pre-engine bit-level SC simulator of a trained LeNet-5 (frozen)."""

    def __init__(self, model, config: NetworkConfig, seed: int = 0,
                 weight_bits=None, segment: int = DEFAULT_SEGMENT,
                 chunk_budget: int = 1 << 26):
        self.config = config
        self.length = config.length
        self.segment = segment
        self.chunk_budget = int(chunk_budget)
        self.factory = StreamFactory(seed=seed, encoding=Encoding.BIPOLAR)
        self._plans = self._build_plans(model, weight_bits)
        self._weight_streams = [
            self.factory.packed(np.clip(plan.weights, -1.0, 1.0), self.length)
            for plan in self._plans
        ]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_plans(self, model, weight_bits):
        convs = [l for l in model.layers if isinstance(l, Conv2D)]
        denses = [l for l in model.layers if isinstance(l, Dense)]
        if len(convs) != 2 or len(denses) != 2:
            raise ValueError(
                "ReferenceSCNetwork expects the paper's LeNet-5 (2 conv + "
                f"2 dense layers); got {len(convs)} conv, {len(denses)} dense"
            )
        bits = self._normalize_bits(weight_bits)
        kinds = [layer.ip_kind for layer in self.config.layers] + [FEBKind.APC]
        geometries = [
            (convs[0].out_channels, (28, 28), (24, 24)),
            (convs[1].out_channels, (12, 12), (8, 8)),
            None,
            None,
        ]
        names = ["Layer0", "Layer1", "Layer2", "Output"]
        plans = []
        self.gain_deficits = []
        deficit = 1.0
        for stage, layer in enumerate(convs + denses):
            kind = kinds[stage]
            n = (layer.fan_in if isinstance(layer, Conv2D)
                 else layer.in_features) + 1
            pooled = stage < 2
            n_states = (self._states_for(kind, n, pooled=pooled)
                        if stage < 3 else 2)
            w, b, deficit, _ = layer_gain_compensation(
                layer.weight.value, layer.bias.value, kind, n, n_states,
                incoming_deficit=deficit,
            )
            folded = np.concatenate([w, b[:, None]], axis=1)
            if bits[stage] is not None:
                folded = dequantize_codes(
                    quantize_weights(folded, bits[stage]), bits[stage]
                )
            plans.append(_LayerPlan(names[stage], kind, n, n_states,
                                    folded, has_pool=pooled,
                                    geometry=geometries[stage]))
            self.gain_deficits.append(deficit)
        return plans

    @staticmethod
    def _normalize_bits(weight_bits):
        if weight_bits is None:
            return (None, None, None, None)
        if isinstance(weight_bits, int):
            return (weight_bits,) * 4
        bits = tuple(int(b) for b in weight_bits)
        if len(bits) == 3:
            return bits + (bits[-1],)
        if len(bits) != 4:
            raise ValueError("weight_bits must be an int, 3- or 4-tuple")
        return bits

    def _states_for(self, kind: FEBKind, n: int, pooled: bool) -> int:
        avg = self.config.pooling is PoolKind.AVG
        if kind is FEBKind.MUX:
            if pooled and not avg:
                return stanh_states_mux_max(self.length, n)
            return stanh_states_mux_avg(self.length, n)
        if pooled and avg:
            return btanh_states_apc_avg(n)
        return btanh_states_apc_max(n)

    # ------------------------------------------------------------------
    # stream-level building blocks
    # ------------------------------------------------------------------
    def _ones_column(self, rows: int) -> np.ndarray:
        """Packed constant-1 streams (the bias input), ``(rows, nbytes)``."""
        mask = ops.pad_mask(self.length)
        return np.broadcast_to(mask, (rows, mask.shape[0])).copy()

    def _apc_counts(self, x_patch: np.ndarray, w_streams: np.ndarray
                    ) -> np.ndarray:
        """APC counts for every (unit, position), one channel at a time."""
        P, n, nbytes = x_patch.shape
        C = w_streams.shape[0]
        L = self.length
        counts = np.empty((C, P, L), dtype=np.int16)
        for c in range(C):
            prod = ops.xnor_(x_patch, w_streams[c][None, :, :], L)
            counts[c] = adders.apc_count(prod, L,
                                         chunk_budget=self.chunk_budget)
        return counts

    def _mux_ip_streams(self, x_patch: np.ndarray, w_streams: np.ndarray,
                        n: int) -> np.ndarray:
        """MUX inner-product output streams, packed ``(C, P, nbytes)``."""
        L = self.length
        select = self.factory.select_signal(n, L)
        x_sel = ops.mux_select(x_patch, select, L)       # (P, nbytes)
        w_sel = ops.mux_select(w_streams, select, L)     # (C, nbytes)
        return ops.xnor_(x_sel[None, :, :], w_sel[:, None, :], L)

    # ------------------------------------------------------------------
    # layer execution
    # ------------------------------------------------------------------
    def _run_conv_layer(self, plan: _LayerPlan, x_streams: np.ndarray,
                        w_streams: np.ndarray) -> np.ndarray:
        """One conv+pool+activation stage on packed input streams."""
        channels_out, (in_h, in_w), (conv_h, conv_w) = plan.geometry
        kernel = 5
        rows, cols = im2col_indices(in_h, in_w, kernel)
        flat = rows * in_w + cols                        # (P, k·k)
        channels_in = (plan.n_inputs - 1) // (kernel * kernel)
        per_channel = [x_streams[c * in_h * in_w + flat]
                       for c in range(channels_in)]
        x_patch = np.concatenate(per_channel, axis=1)    # (P, n-1, nbytes)
        P = x_patch.shape[0]
        x_patch = np.concatenate(
            [x_patch, self._ones_column(P)[:, None, :]], axis=1
        )

        windows = pool_window_indices(conv_h // 2, conv_w // 2)
        avg = self.config.pooling is PoolKind.AVG

        if plan.kind is FEBKind.APC:
            counts = self._apc_counts(x_patch, w_streams)  # (C, P, L)
            grouped = counts[:, windows, :]                # (C, W, 4, L)
            del counts
            if avg:
                pooled = apc_average_pool(
                    np.moveaxis(grouped, 2, -2)
                )
            else:
                pooled = apc_max_pool(
                    np.moveaxis(grouped, 2, -2), self.segment
                )
            del grouped
            out_bits = activation.btanh_counts(pooled, plan.n_inputs,
                                               plan.n_states)
            out = ops.pack_bits(out_bits)
        else:
            ips = self._mux_ip_streams(x_patch, w_streams, plan.n_inputs)
            grouped = ips[:, windows, :]                   # (C, W, 4, nbytes)
            del ips
            if avg:
                select = self.factory.select_signal(4, self.length)
                pooled = average_pool(grouped, select, self.length)
                threshold = None
            else:
                pooled = hardware_max_pool(grouped, self.length,
                                           self.segment)
                threshold = max(int(round(plan.n_states / 5.0)), 1)
            del grouped
            out = activation.stanh_packed(pooled, self.length,
                                          plan.n_states, threshold=threshold)
        return out.reshape(-1, out.shape[-1])

    def _run_fc_layer(self, plan: _LayerPlan, x_streams: np.ndarray,
                      w_streams: np.ndarray, final: bool):
        """Fully-connected stage.  ``final=True`` returns float logits."""
        x_with_bias = np.concatenate(
            [x_streams, self._ones_column(1)], axis=0
        )[None, :, :]                                     # (1, n, nbytes)
        n = plan.n_inputs
        if plan.kind is FEBKind.APC or final:
            counts = self._apc_counts(x_with_bias, w_streams)[:, 0, :]
            if final:
                total = counts.sum(axis=-1, dtype=np.int64)
                return (2.0 * total - n * self.length) / self.length
            out_bits = activation.btanh_counts(counts, n, plan.n_states)
            return ops.pack_bits(out_bits)
        ips = self._mux_ip_streams(x_with_bias, w_streams, n)[:, 0, :]
        return activation.stanh_packed(ips, self.length, plan.n_states)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def forward_image(self, image: np.ndarray) -> np.ndarray:
        """Simulate one image; returns the 10 decoded output values."""
        img = np.asarray(image, dtype=np.float64).reshape(-1)
        if img.size != 784:
            raise ValueError(f"expected a 28×28 image, got {image.shape}")
        if np.max(np.abs(img)) > 1.0:
            raise ValueError("image values must lie in [-1, 1] "
                             "(use repro.data.to_bipolar)")
        x = self.factory.packed(img, self.length)         # (784, nbytes)
        x = self._run_conv_layer(self._plans[0], x, self._weight_streams[0])
        x = self._run_conv_layer(self._plans[1], x, self._weight_streams[1])
        x = self._run_fc_layer(self._plans[2], x, self._weight_streams[2],
                               final=False)
        return self._run_fc_layer(self._plans[3], x, self._weight_streams[3],
                                  final=True)

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Argmax predictions, one sequential single-image call each."""
        images = np.asarray(images, dtype=np.float64)
        return np.array([int(np.argmax(self.forward_image(img)))
                         for img in images])
