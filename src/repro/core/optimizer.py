"""Holistic SC-DCNN optimization (Section 6.3).

The paper's procedure: start every candidate configuration at the maximum
bit-stream length (1024); for configurations that meet the network
accuracy target (error-rate degradation over the software baseline at
most 1.5%), halve the bit-stream length to cut energy; drop configurations
that fail; iterate until no configuration is left.  The surviving
(configuration, length) points — costed with the hardware model — are the
rows of Table 6.

:class:`HolisticOptimizer` is now a thin facade over the
:mod:`repro.dse` subsystem: :meth:`HolisticOptimizer.run` delegates to
:class:`repro.dse.runner.ParallelRunner` (gaining process parallelism,
surrogate pre-screening and resumable stores with the same return
shape), while :meth:`HolisticOptimizer.run_sequential` keeps the
original in-process loop as the regression oracle the conformance suite
compares against bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import itertools

from repro.core.config import FEBKind, LayerConfig, NetworkConfig, PoolKind
from repro.engine.engine import Engine
from repro.engine.graph import build_graph
from repro.engine.plan import compile_plan
from repro.hw.network_cost import NetworkCost, graph_network_cost

__all__ = ["DesignPoint", "HolisticOptimizer"]

ACCURACY_THRESHOLD_PCT = 1.5
MAX_STREAM_LENGTH = 1024
MIN_STREAM_LENGTH = 64


@dataclasses.dataclass
class DesignPoint:
    """One evaluated (configuration, stream length) point."""

    config: NetworkConfig
    error_pct: float
    degradation_pct: float
    cost: NetworkCost

    def summary(self) -> str:
        return (f"{self.config.describe():34s} err={self.error_pct:5.2f}% "
                f"area={self.cost.area_mm2:6.2f}mm² "
                f"power={self.cost.power_w:5.2f}W "
                f"energy={self.cost.energy_uj:6.2f}µJ")


class HolisticOptimizer:
    """Design-space exploration over layer FEB kinds and stream lengths.

    Parameters
    ----------
    trained:
        A :class:`repro.data.cache.TrainedModel` (model + test data +
        software baseline error).
    threshold_pct:
        Maximum allowed error-rate degradation vs the software baseline
        (the paper uses 1.5%).
    eval_images:
        Test-subset size for each accuracy evaluation.
    seed:
        Evaluation seed.
    restrict_layer2_to_apc:
        A MUX inner product over 800 inputs scales its output by 1/800 —
        hopeless; the paper's Table 6 always uses APC at Layer 2.  For
        any model the restriction pins the *last hidden* layer (the
        wide pre-logit stage) to APC.  Set False to let the accuracy
        filter demonstrate that itself.
    evaluator:
        ``"noise"`` (default) — the paper's methodology: measured block
        inaccuracy injected as zero-mean noise (the engine's ``noise``
        backend);
        ``"surrogate"`` — the calibrated transfer-curve surrogate that
        also carries each block's systematic distortion (the engine's
        ``surrogate`` backend).
    """

    def __init__(self, trained, threshold_pct: float = ACCURACY_THRESHOLD_PCT,
                 eval_images: int = 400, seed: int = 0,
                 restrict_layer2_to_apc: bool = True,
                 weight_bits=None, evaluator: str = "noise"):
        if evaluator not in ("noise", "surrogate"):
            raise ValueError(
                f"evaluator must be 'noise' or 'surrogate', got {evaluator!r}"
            )
        self.trained = trained
        self.threshold_pct = threshold_pct
        self.eval_images = eval_images
        self.seed = seed
        self.restrict_layer2_to_apc = restrict_layer2_to_apc
        # Default storage precision: 8 bits.  The paper quotes w = 7 for
        # its MNIST-trained model; our synthetic-data model's conv2
        # weights are smaller, moving the Figure-13 knee one bit right.
        self.weight_bits = weight_bits if weight_bits is not None else 8
        self.evaluator = evaluator

    @property
    def _hidden_layers(self) -> int:
        """Configurable FEB layers of the trained model (ex output)."""
        from repro.nn.zoo import hidden_layer_count
        return hidden_layer_count(self.trained.model)

    def _candidate_kind_combos(self):
        kinds = (FEBKind.MUX, FEBKind.APC)
        hidden = self._hidden_layers
        last_choices = ((FEBKind.APC,) if self.restrict_layer2_to_apc
                        else kinds)
        return [combo for combo in itertools.product(
            *([kinds] * (hidden - 1) + [last_choices]))]

    #: engine backend per evaluator methodology.
    _BACKENDS = {"noise": "noise", "surrogate": "surrogate"}
    #: backend options per evaluator: 96 bit-level samples per noise
    #: sigma, 240 per surrogate transfer curve.
    _BACKEND_OPTS = {"noise": {"samples": 96}, "surrogate": {"samples": 240}}

    def evaluate(self, config: NetworkConfig, plan=None) -> DesignPoint:
        """Evaluate one configuration with the calibrated fast model.

        ``plan`` optionally supplies a pre-compiled engine plan (the
        halving loop passes re-targeted plans so weights are quantized
        and state numbers derived only when they actually change).
        """
        x = self.trained.bipolar_test_images()[: self.eval_images]
        y = self.trained.y_test[: self.eval_images]
        source = ({"plan": plan} if plan is not None
                  else {"weight_bits": self.weight_bits})
        engine = Engine(self.trained.model, config,
                        backend=self._BACKENDS[self.evaluator],
                        seed=self.seed, **source,
                        **self._BACKEND_OPTS[self.evaluator])
        # Sampled-noise draws depend on the chunking: 256-image chunks
        # keep them identical to the Table 6 bench and the DSE runner.
        error = engine.error_rate(x, y, batch_size=256)
        graph = (plan.graph if plan is not None
                 else build_graph(self.trained.model, config))
        return DesignPoint(
            config=config,
            error_pct=error,
            degradation_pct=error - self.trained.software_error_pct,
            cost=graph_network_cost(graph, weight_bits=self.weight_bits),
        )

    def run(self, max_length: int = MAX_STREAM_LENGTH,
            min_length: int = MIN_STREAM_LENGTH, verbose: bool = False,
            workers: int = 1, screen=None, store=None,
            **runner_kwargs) -> list:
        """Run the Section 6.3 procedure; returns passing design points.

        The returned list contains every (configuration, length) point
        that met the accuracy target, across all halving iterations,
        sorted by energy — bit-identical to
        :meth:`run_sequential` at any ``workers`` count (asserted by the
        conformance suite).  Since the DSE subsystem the work delegates
        to, the search can fan evaluations across ``workers`` processes,
        pre-screen candidates (``screen=True`` or a
        :class:`repro.dse.screen.ScreenPolicy`) and persist/resume
        through a :class:`repro.dse.store.ResultStore` (``store=``);
        see :class:`repro.dse.runner.ParallelRunner` for the full
        result object.
        """
        from repro.dse.runner import ParallelRunner
        from repro.dse.space import SearchSpace
        space = SearchSpace.from_trained(
            self.trained, weight_bits=(self.weight_bits,),
            max_length=max_length, min_length=min_length,
            restrict_last_to_apc=self.restrict_layer2_to_apc)
        runner = ParallelRunner(
            self.trained, space, threshold_pct=self.threshold_pct,
            eval_images=self.eval_images, seed=self.seed,
            evaluator=self.evaluator, workers=workers, screen=screen,
            store=store, verbose=verbose, **runner_kwargs)
        return runner.run().passing

    def run_sequential(self, max_length: int = MAX_STREAM_LENGTH,
                       min_length: int = MIN_STREAM_LENGTH,
                       verbose: bool = False) -> list:
        """The original in-process halving loop (the regression oracle).

        Each kind-combo's plan is compiled once at ``max_length`` and
        kept as the *canonical* cache entry; every halving step
        re-targets it with
        :meth:`repro.engine.plan.CompiledPlan.with_length`, re-deriving
        only length-dependent pieces (for all-APC combos the layer plans
        are reused outright — their state numbers never involve ``L``).
        Re-targeting always starts from the max-length plan — the cache
        must never be overwritten with a shorter re-target, or a combo
        revisited by a later scenario would derive from a stale length
        (pinned by a regression test).
        """
        pooling = PoolKind.MAX if self.trained.pooling == "max" else PoolKind.AVG
        survivors = self._candidate_kind_combos()
        passing = []
        plans = {}
        length = max_length
        while survivors and length >= min_length:
            next_round = []
            for combo in survivors:
                config = NetworkConfig(
                    pooling=pooling, length=length,
                    layers=tuple(LayerConfig(k) for k in combo),
                    name=f"{'-'.join(k.value for k in combo)}@{length}",
                )
                base = plans.get(combo)
                if base is None:
                    base = plans[combo] = compile_plan(
                        self.trained.model, config,
                        weight_bits=self.weight_bits)
                plan = base.with_length(length, name=config.name)
                point = self.evaluate(config, plan=plan)
                ok = point.degradation_pct <= self.threshold_pct
                if verbose:  # pragma: no cover - console output
                    print(f"{point.summary()}  "
                          f"{'PASS' if ok else 'FAIL'}")
                if ok:
                    passing.append(point)
                    next_round.append(combo)
            survivors = next_round
            length //= 2
        passing.sort(key=lambda p: p.cost.energy_uj)
        return passing

    @staticmethod
    def pareto_front(points) -> list:
        """Points not dominated on (error, area, energy).

        Kept on the optimizer for backwards compatibility; the
        generalized four-metric frontier (adding power) lives in
        :mod:`repro.dse.frontier`.
        """
        from repro.dse.frontier import LEGACY_METRICS
        from repro.dse.frontier import pareto_front as generalized
        return generalized(points, metrics=LEGACY_METRICS)
