"""Fault-injection campaigns: repeated trials with accuracy collection.

A campaign fixes a model + evaluation closure, then for each fault
configuration runs K independent trials (fresh fault sites each time),
recording the accuracy under fault.  The resulting distributions are the
raw material of the paper's Fig. 5 (distribution) and Fig. 6 (means).

Trials are scheduled through an executor (:mod:`repro.fault.parallel`):
``workers=0`` runs them serially in-process, ``workers=N`` fans them out
over a process pool.  Per-trial seeds are derived up front from the
campaign seed, so both backends produce bit-identical results.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from contextlib import closing
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import CampaignInterrupted, ConfigurationError
from repro.fault.fault_model import BitFlipFaultModel, FaultModel
from repro.fault.injector import FaultInjector
from repro.fault.parallel import (
    GroupTrialRunner,
    TrialExecutor,
    TrialOutcome,
    TrialWork,
    group_works,
    make_executor,
)
from repro.obs.trace import span
from repro.utils.logging import get_logger
from repro.utils.rng import derive_seed

if TYPE_CHECKING:
    from repro.store import CampaignStore

__all__ = [
    "AUTO_REPLICAS",
    "CampaignAggregator",
    "CampaignResult",
    "EarlyStop",
    "FaultCampaign",
    "SweepResult",
]

_logger = get_logger("fault.campaign")

#: Replica-group width used by ``replicas="auto"``.  Wide enough to
#: amortise the shared clean-prefix forward, small enough that a pooled
#: executor still has groups to balance across workers.
AUTO_REPLICAS = 8


@dataclass
class CampaignResult:
    """Accuracy distribution from one fault configuration.

    ``accuracies`` has one entry per trial; ``flip_counts`` records how
    many bits actually flipped in each trial (Binomial draws vary).
    """

    fault_model: FaultModel
    accuracies: np.ndarray
    flip_counts: np.ndarray

    @property
    def trials(self) -> int:
        return int(self.accuracies.size)

    @property
    def mean(self) -> float:
        return float(self.accuracies.mean())

    @property
    def std(self) -> float:
        return float(self.accuracies.std())

    @property
    def median(self) -> float:
        return float(np.median(self.accuracies))

    @property
    def min(self) -> float:
        return float(self.accuracies.min())

    @property
    def max(self) -> float:
        return float(self.accuracies.max())

    def quantile(self, q: float) -> float:
        return float(np.quantile(self.accuracies, q))

    def box_stats(self) -> dict[str, float]:
        """Five-number summary backing a Fig. 5-style box plot."""
        return {
            "min": self.min,
            "q1": self.quantile(0.25),
            "median": self.median,
            "q3": self.quantile(0.75),
            "max": self.max,
        }

    def summary(self) -> str:
        return (
            f"{self.fault_model.describe()}: mean={self.mean:.2%} "
            f"median={self.median:.2%} std={self.std:.2%} "
            f"[{self.min:.2%}, {self.max:.2%}] over {self.trials} trials"
        )


@dataclass
class SweepResult:
    """Campaign results across a fault-rate sweep (one Fig. 5/6 panel)."""

    rates: tuple[float, ...]
    results: dict[float, CampaignResult] = field(default_factory=dict)

    def mean_curve(self) -> list[float]:
        """Average accuracy per rate — one line of Fig. 6."""
        return [self[rate].mean for rate in self.rates]

    def __getitem__(self, rate: float) -> CampaignResult:
        # Raw float equality is too brittle for recomputed rates
        # (3 * 1e-6 != 3e-6); resolve near-misses with isclose.
        result = self.results.get(rate)
        if result is not None:
            return result
        for stored, value in self.results.items():
            if math.isclose(rate, stored, rel_tol=1e-9, abs_tol=0.0):
                return value
        available = ", ".join(f"{r:g}" for r in sorted(self.results))
        raise KeyError(
            f"fault rate {rate:g} not in sweep (available rates: {available})"
        )

    def __contains__(self, rate: float) -> bool:
        try:
            self[rate]
        except KeyError:
            return False
        return True


@dataclass(frozen=True)
class EarlyStop:
    """Stop a campaign once its mean-accuracy CI is tight enough.

    After each trial (in trial-index order — identical on every
    backend), the Student-t confidence interval of the running mean is
    checked; the campaign stops when its half-width drops to
    ``ci_halfwidth`` or below, but never before ``min_trials``.
    """

    ci_halfwidth: float
    confidence: float = 0.95
    min_trials: int = 8

    def __post_init__(self) -> None:
        if self.ci_halfwidth <= 0.0:
            raise ConfigurationError(
                f"ci_halfwidth must be > 0, got {self.ci_halfwidth}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise ConfigurationError(
                f"confidence must be in (0, 1), got {self.confidence}"
            )
        if self.min_trials < 2:
            raise ConfigurationError(
                f"min_trials must be >= 2, got {self.min_trials}"
            )


class CampaignAggregator:
    """Streaming accumulator of trial outcomes.

    Consumes :class:`~repro.fault.parallel.TrialOutcome`s as they arrive
    (in trial-index order), keeps running statistics for convergence
    checks, and materialises the final :class:`CampaignResult` arrays.
    """

    def __init__(self) -> None:
        self._accuracies: list[float] = []
        self._flips: list[int] = []

    def add(self, outcome: TrialOutcome) -> None:
        if outcome.index != len(self._accuracies):
            raise ConfigurationError(
                f"out-of-order trial outcome: expected index "
                f"{len(self._accuracies)}, got {outcome.index}"
            )
        self._accuracies.append(outcome.accuracy)
        self._flips.append(outcome.flips)

    @property
    def trials(self) -> int:
        return len(self._accuracies)

    @property
    def mean(self) -> float:
        if not self._accuracies:
            raise ConfigurationError("no trial outcomes aggregated yet")
        return float(np.mean(self._accuracies))

    def ci_halfwidth(self, confidence: float = 0.95) -> float:
        """Half-width of the running mean's Student-t CI (inf below n=2)."""
        if self.trials < 2:
            return math.inf
        from repro.fault.statistics import mean_confidence_interval

        low, high = mean_confidence_interval(self._accuracies, confidence)
        return (high - low) / 2.0

    def converged(self, early_stop: EarlyStop) -> bool:
        return (
            self.trials >= early_stop.min_trials
            and self.ci_halfwidth(early_stop.confidence) <= early_stop.ci_halfwidth
        )

    def result(self, fault_model: FaultModel) -> CampaignResult:
        if not self._accuracies:
            raise ConfigurationError("campaign produced no trial outcomes")
        return CampaignResult(
            fault_model,
            np.asarray(self._accuracies, dtype=np.float64),
            np.asarray(self._flips, dtype=np.int64),
        )


class FaultCampaign:
    """Run repeated fault-injection trials against a fixed model.

    Parameters
    ----------
    injector:
        A :class:`FaultInjector` wrapping the (quantised) model.
    evaluate:
        Zero-argument closure returning accuracy in [0, 1] of the model in
        its *current* (possibly faulty) state.  For ``workers > 1`` under
        a ``spawn`` start method it must be picklable
        (:meth:`repro.eval.Evaluator.bind` is).
    trials:
        Number of independent trials per fault configuration.
    seed:
        Base seed; trial t of configuration c derives its own stream, so
        two campaigns with the same seed see identical fault patterns —
        the paper's protection schemes are compared on equal footing.
    workers:
        Trial-execution backend: ``0``/``1`` runs serially in-process,
        ``N >= 2`` fans trials out over an N-process pool
        (bit-identical results either way).  A ready-made
        :class:`~repro.fault.parallel.TrialExecutor` is also accepted.
    start_method:
        Multiprocessing start method override (``fork``/``spawn``/…).
    shard:
        ``(i, n)`` restricts this campaign instance to trial indices
        ``t % n == i`` — the deterministic partition that lets N hosts
        run disjoint slices of one campaign (each into its own
        :class:`~repro.store.CampaignStore`) and merge the stores into a
        result bit-identical to the unsharded run.  Trial seeds depend
        only on the trial index, never on the shard, so slices compose
        exactly.
    replicas:
        Replica-batched evaluation: ``R >= 2`` schedules trials in
        groups of R lanes whose clean forward work is shared
        (:meth:`ReplicaPlan <repro.runtime.ReplicaPlan>` share-until-
        diverge), requiring ``evaluate`` to expose the
        ``lane_accuracies(injector, site_sets)`` hook
        (:meth:`repro.eval.BoundAccuracy.lane_accuracies`).  ``"auto"``
        picks a default group width when the hook is present and falls
        back to per-trial execution when it is not;
        ``None``/``"off"``/``0``/``1`` forces per-trial execution:
        width-1 groups on the literal path, each trial one
        ``injector.inject(sites)`` around one ``evaluate()`` call, with
        the hook never called.  Either way results are bit-identical —
        grouping is purely a scheduling decision.
    """

    def __init__(
        self,
        injector: FaultInjector,
        evaluate: Callable[[], float],
        trials: int = 20,
        seed: int = 0,
        workers: int | TrialExecutor | None = 0,
        start_method: str | None = None,
        shard: tuple[int, int] | None = None,
        replicas: int | str | None = None,
    ) -> None:
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        self.injector = injector
        self.evaluate = evaluate
        self.trials = int(trials)
        self.seed = int(seed)
        self.shard = self._validated_shard(shard)
        self.replicas = self._resolved_replicas(replicas, evaluate)
        self.executor = make_executor(workers, start_method=start_method)
        # One runner for the campaign's lifetime: process pools key their
        # worker state on it, so a sweep reuses one pool across rates.
        self._runner = GroupTrialRunner(
            injector, evaluate, width=max(1, self.replicas)
        )

    @staticmethod
    def _resolved_replicas(
        replicas: int | str | None, evaluate: Callable[[], float]
    ) -> int:
        """Resolve the ``replicas`` knob to a replica width (0 = per-trial)."""
        if replicas is None or replicas == "off":
            return 0
        has_hook = callable(getattr(evaluate, "lane_accuracies", None))
        if replicas == "auto":
            return AUTO_REPLICAS if has_hook else 0
        try:
            width = int(replicas)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"replicas must be an integer, 'auto', or 'off', "
                f"got {replicas!r}"
            )
        if width < 0:
            raise ConfigurationError(f"replicas must be >= 0, got {width}")
        if width <= 1:
            return 0
        if not has_hook:
            raise ConfigurationError(
                f"replicas={width} requires an evaluation callable with a "
                "lane_accuracies(injector, site_sets) hook "
                "(Evaluator.bind provides one); got "
                f"{type(evaluate).__name__}"
            )
        return width

    @staticmethod
    def _validated_shard(
        shard: tuple[int, int] | None,
    ) -> tuple[int, int] | None:
        if shard is None:
            return None
        try:
            index, count = shard
            index, count = int(index), int(count)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"shard must be an (index, count) pair, got {shard!r}"
            )
        if count < 1 or not 0 <= index < count:
            raise ConfigurationError(
                f"shard index must satisfy 0 <= index < count, "
                f"got ({index}, {count})"
            )
        return (index, count)

    @property
    def workers(self) -> int:
        """Worker processes behind this campaign (0 = serial)."""
        return self.executor.workers

    def close(self) -> None:
        """Release pooled workers (serial campaigns: no-op)."""
        self.executor.shutdown()

    def __enter__(self) -> "FaultCampaign":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def trial_plan(self) -> list[int]:
        """Trial indices this campaign instance runs, in consumption order.

        The full range without ``shard``; the shard's deterministic
        slice (``t % n == i``) with it.
        """
        if self.shard is None:
            return list(range(self.trials))
        index, count = self.shard
        return list(range(index, self.trials, count))

    def trial_seeds(self, fault_model: FaultModel, tag: str = "") -> list[int]:
        """Derive every trial's seed up front (the determinism contract).

        Seeds depend only on ``(seed, tag, fault_model.describe(), t)``
        — never on scheduling — so any executor reproduces the serial
        fault patterns exactly.
        """
        return self._seeds(fault_model, tag, range(self.trials))

    def _seeds(
        self, fault_model: FaultModel, tag: str, indices: Sequence[int]
    ) -> list[int]:
        """The :meth:`trial_seeds` entries of exactly ``indices``."""
        description = fault_model.describe()
        return [
            derive_seed(self.seed, "trial", tag, description, trial)
            for trial in indices
        ]

    def _site_metadata(self, sites) -> list[tuple[int, int]]:
        """Applied-site ``(layer, bit)`` pairs for the store journal.

        Injectors without the hook (custom fault spaces) journal trials
        without site attribution — resume still works, the atlas just
        has nothing to aggregate for them.
        """
        metadata = getattr(self.injector, "site_metadata", None)
        if metadata is None:
            return []
        return metadata(sites)

    def _sampled_works(
        self, fault_model: FaultModel, tag: str, indices: Sequence[int]
    ) -> list[TrialWork]:
        """Sample fault sites for exactly ``indices``, in the parent.

        Each trial's seed is independent, so any subset — a resume's
        missing tail, a coord worker's claimed range — skips the seed
        derivation and fault-space-sized sampling of every other trial,
        and workers only ever see concrete site arrays: fault models
        (with their possibly unpicklable ``param_filter``s) never cross
        a process boundary.
        """
        seeds = self._seeds(fault_model, tag, indices)
        return [
            TrialWork(index=trial, sites=self.injector.sample(fault_model, rng=seed))
            for trial, seed in zip(indices, seeds)
        ]

    def iter_range(
        self,
        fault_model: FaultModel,
        indices: Sequence[int],
        tag: str = "",
    ) -> Iterator[tuple[TrialOutcome, list[tuple[int, int]]]]:
        """Evaluate exactly ``indices`` of one configuration, streaming.

        The single dispatch path: :meth:`run` layers replay, budget and
        early stop on top of it, and the coordination layer
        (:mod:`repro.coord`) calls it directly for each claimed trial
        range.  Yields ``(outcome, sites)`` pairs in ascending trial
        order — ``sites`` being the journal-ready applied-site metadata
        — with duplicates collapsed.  Trial seeds depend only on the
        trial index, never on scheduling, so any partition of the trial
        space (static shards, stolen ranges, a serial run) produces
        bit-identical per-trial results.

        Exhausting the generator steps the executor stream past its
        last outcome, so a pooled executor stays warm for the next
        call.  Closing it early (an early stop, a lost fence check, a
        worker shutting down) closes the executor stream, which
        terminates any speculative pooled work.
        """
        plan = sorted({int(trial) for trial in indices})
        if plan and not 0 <= plan[0] <= plan[-1] < self.trials:
            raise ConfigurationError(
                f"trial indices must lie in [0, {self.trials}), "
                f"got {plan[0]}..{plan[-1]}"
            )
        pending = self._sampled_works(fault_model, tag, plan)
        groups = group_works(pending, self._runner.width)
        outcomes = self.executor.run_groups(self._runner, groups)
        try:
            # strict: a stream longer or shorter than the works is an
            # executor fault, and the final length check steps the
            # stream to its normal end.
            for work, outcome in zip(pending, outcomes, strict=True):
                if outcome.index != work.index:
                    raise ConfigurationError(
                        f"executor yielded trial {outcome.index} where "
                        f"{work.index} was scheduled"
                    )
                yield outcome, self._site_metadata(work.sites)
        finally:
            close = getattr(outcomes, "close", None)
            if close is not None:
                close()

    def run(
        self,
        fault_model: FaultModel,
        tag: str = "",
        early_stop: EarlyStop | None = None,
        store: "CampaignStore | None" = None,
    ) -> CampaignResult:
        """Run all trials for one fault configuration.

        With ``early_stop``, trials are consumed in index order and the
        campaign stops as soon as the accuracy CI converges; because the
        decision stream is order-deterministic, serial and parallel runs
        stop after the same trial with identical results.

        With ``store``, every fresh outcome is journaled to disk as it
        completes, and trials the store already holds are *replayed*
        from the journal instead of re-evaluated — an interrupted
        campaign resumed against its store is bit-identical to an
        uninterrupted run, because trial seeds are schedule-independent
        and journaled floats round-trip exactly.  A configuration the
        store marks as EarlyStop-converged is never re-opened: its
        journaled trials are replayed and the same converged result
        returned without any evaluation.

        Fresh trials are evaluated through :meth:`iter_range` only.
        """
        with span("campaign.config", tag=tag, trials=self.trials):
            return self._run(fault_model, tag, early_stop, store)

    def _run(
        self,
        fault_model: FaultModel,
        tag: str,
        early_stop: EarlyStop | None,
        store: "CampaignStore | None",
    ) -> CampaignResult:
        if early_stop is not None and self.shard is not None:
            raise ConfigurationError(
                "early_stop cannot be combined with shard: CI convergence "
                "consumes the full in-order trial stream, which no single "
                "shard sees"
            )
        plan = self.trial_plan()
        key: str | None = None
        journal: dict[int, TrialOutcome] = {}
        if store is not None:
            key = store.open_config(fault_model, tag=tag)
            journal = store.journaled(key)
            converged_at = store.converged_at(key)
            if converged_at is not None:
                plan = [trial for trial in plan if trial < converged_at]
                absent = [trial for trial in plan if trial not in journal]
                if absent:
                    raise ConfigurationError(
                        f"store marks config {key!r} converged after "
                        f"{converged_at} trials but its journal is missing "
                        f"{len(absent)} of them"
                    )
        missing = [trial for trial in plan if trial not in journal]
        if store is not None:
            # Don't evaluate what the budget forbids journaling: cap the
            # evaluated trials so a pooled executor never burns cores on
            # over-budget speculative trials, and raise *before* the
            # first un-journalable evaluation instead of after it.
            budget = store.remaining_budget()
            if budget is not None:
                missing = missing[:budget]
        aggregator = CampaignAggregator()
        with closing(self.iter_range(fault_model, missing, tag)) as fresh:
            for position, trial in enumerate(plan):
                outcome = journal.get(trial)
                if outcome is None:
                    evaluated = next(fresh, None)
                    if evaluated is None:
                        raise CampaignInterrupted(
                            f"store reached its new-trial budget before "
                            f"trial {trial}; resume to continue"
                        )
                    outcome, sites = evaluated
                    if store is not None and key is not None:
                        store.record(key, outcome, sites)
                if outcome.index != position:
                    # Sharded plans skip indices; the aggregator consumes
                    # a dense stream, so renumber to the slice position.
                    outcome = replace(outcome, index=position)
                aggregator.add(outcome)
                if early_stop is not None and aggregator.converged(early_stop):
                    if store is not None and key is not None:
                        store.mark_converged(key, aggregator.trials)
                    _logger.info(
                        "campaign %s converged after %d/%d trials "
                        "(CI half-width <= %g)",
                        tag,
                        aggregator.trials,
                        self.trials,
                        early_stop.ci_halfwidth,
                    )
                    break
            else:
                # Exhaust the stream so the executor observes normal
                # completion and a pooled executor stays warm.
                next(fresh, None)
        result = aggregator.result(fault_model)
        _logger.info("campaign %s %s", tag, result.summary())
        return result

    def run_sweep(
        self,
        rates: Sequence[float],
        tag: str = "",
        allowed_bits: tuple[int, ...] | None = None,
        param_filter: Callable[[str], bool] | None = None,
        early_stop: EarlyStop | None = None,
        store: "CampaignStore | None" = None,
    ) -> SweepResult:
        """Run a campaign at each fault rate (a full Fig. 5/6 panel)."""
        sweep = SweepResult(rates=tuple(rates))
        fault_models = [
            BitFlipFaultModel.at_rate(
                rate, allowed_bits=allowed_bits, param_filter=param_filter
            )
            for rate in rates
        ]
        if store is not None:
            # Register the whole sweep in the manifest before any trial
            # runs: a campaign killed between rates then shows the later
            # configurations as missing work, not as a complete store.
            for fault_model in fault_models:
                store.open_config(fault_model, tag=tag)
        for rate, fault_model in zip(rates, fault_models):
            sweep.results[rate] = self.run(
                fault_model, tag=tag, early_stop=early_stop, store=store
            )
        return sweep
