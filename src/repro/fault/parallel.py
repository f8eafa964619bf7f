"""Parallel execution backends for fault-injection campaigns.

A campaign is an embarrassingly parallel workload: every trial is fully
determined by its seed-derived fault sites, and evaluates the model
under those faults independently of every other trial.  Trials travel
in groups of consecutive indices (:class:`TrialGroup`), evaluated by
the one work function :class:`GroupTrialRunner`: a width-1 group is the
literal per-trial evaluation (inject, evaluate, restore), a wider group
shares each batch's clean forward across its lanes.  This module
provides the executor abstraction :class:`FaultCampaign` schedules
groups through:

- :class:`SerialExecutor` — the in-process loop (the historic behaviour);
- :class:`ProcessExecutor` — a ``multiprocessing`` worker pool that ships
  the read-only campaign state (the injector's quantised parameter
  words, the materialised evaluation batches) to each worker once, then
  streams small per-group messages in chunks.  The pool persists across
  ``run()`` calls, so a full fault-rate sweep pays the worker start-up
  cost once.

Determinism is preserved by construction: fault sites are sampled in the
parent from seeds derived before any work is scheduled, each worker runs
trials against its own private copy of the model, and results are
consumed in trial-index order regardless of which worker finished
first.  A parallel campaign is therefore bit-identical to a serial one
with the same seed.

Workers are started with the platform's ``fork`` method when available
(state is inherited, nothing needs to pickle); under ``spawn`` the
campaign state is pickled instead, which requires the evaluation
callable to be picklable (lambdas are not —
:meth:`repro.eval.Evaluator.bind` is).  Fault models never cross the
process boundary — sampling happens in the parent — so lambda
``param_filter``s work on every backend.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError
from repro.fault.sites import FaultSites
from repro.obs.trace import span
from repro.utils.logging import get_logger

if TYPE_CHECKING:
    from multiprocessing.pool import Pool

    from repro.fault.injector import FaultInjector

__all__ = [
    "GroupTrialRunner",
    "ProcessExecutor",
    "SerialExecutor",
    "TrialExecutor",
    "TrialGroup",
    "TrialOutcome",
    "TrialWork",
    "available_workers",
    "default_start_method",
    "group_works",
    "make_executor",
]

_logger = get_logger("fault.parallel")


@dataclass(frozen=True)
class TrialWork:
    """One schedulable unit of campaign work.

    ``sites`` are sampled in the parent from the trial's derived seed,
    so the fault pattern of trial ``index`` is independent of how trials
    are distributed over workers — and fault models (with their possibly
    unpicklable ``param_filter``s) never travel to workers at all.
    """

    index: int
    sites: FaultSites


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one trial: accuracy under fault and the realised flips.

    ``seconds`` is the trial's wall-clock (inject + evaluate + restore),
    excluded from equality — campaign results are identified by their
    accuracy/flip streams, never by timing, so replayed and re-executed
    outcomes compare equal.  Stores journal it for throughput/ETA
    reporting (``repro campaign status``).
    """

    index: int
    accuracy: float
    flips: int
    seconds: float = field(default=0.0, compare=False)


def group_works(works: "Sequence[TrialWork]", width: int) -> list["TrialGroup"]:
    """Pack an ordered work list into groups of ``width`` lanes.

    The single grouping policy shared by every dispatch path (full runs,
    resumes, and the coord layer's dynamic ranges): consecutive works
    become lanes of one group, the last group holding the remainder.
    Width 1 is the per-trial schedule.  Grouping is scheduling only —
    outcomes stream back flattened in the original order.
    """
    if width < 1:
        raise ConfigurationError(f"trial group width must be >= 1, got {width}")
    return [
        TrialGroup(works=tuple(works[at : at + width]))
        for at in range(0, len(works), width)
    ]


@dataclass(frozen=True)
class TrialGroup:
    """Consecutive trials evaluated by one runner call.

    Groups carry ordinary :class:`TrialWork` units — the same sites
    every schedule injects — so grouping is purely a scheduling
    decision; lane outcomes are attributed back to the original trial
    indices and must be bit-identical to the per-trial evaluation.
    """

    works: tuple[TrialWork, ...]


class GroupTrialRunner:
    """The picklable work function shared by all backends.

    Bundles the injector and the evaluation callable — the read-only
    campaign state — into one object, so a worker pool receives it in a
    single initializer payload (pickle preserves the
    injector-module/evaluator-model aliasing across that payload) and
    can keep serving groups for every fault configuration the campaign
    runs.

    ``width`` is the campaign's group width.  Width 1 is the literal
    per-trial path: each lane is ``injector.inject(sites)`` around one
    ``evaluate()`` call, the flip count taken from ``inject`` — the
    reference every other schedule is compared against.  Width ``>= 2``
    requires an evaluation callable exposing
    ``lane_accuracies(injector, site_sets)`` — the replicated-evaluation
    hook (:meth:`repro.eval.BoundAccuracy.lane_accuracies`), which
    shares each batch's clean forward across the group's lanes and
    returns one accuracy per site set, in order, bit-identical to the
    literal path.  The path follows the campaign's width, not a group's
    length: the one-lane tail group of a replica campaign still reuses
    the campaign-wide cached clean prefix instead of a full forward.
    """

    __slots__ = ("injector", "evaluate", "width")

    def __init__(
        self, injector: "FaultInjector", evaluate: Callable[[], float], width: int = 1
    ) -> None:
        self.injector = injector
        self.evaluate = evaluate
        self.width = width

    def __call__(self, group: TrialGroup) -> tuple[TrialOutcome, ...]:
        works = group.works
        with span("campaign.group", trials=len(works)):
            # Group wall time split evenly over lanes: shared work has no
            # per-trial attribution.  Raw clock reads: the duration feeds
            # only TrialOutcome.seconds, which is outside result identity.
            started = time.perf_counter()  # repro-lint: disable=RPL009
            if self.width == 1:
                accuracies, flips = [], []
                for work in works:
                    with self.injector.inject(work.sites) as count:
                        accuracies.append(self.evaluate())
                    flips.append(count)
            else:
                accuracies = self.evaluate.lane_accuracies(
                    self.injector, [work.sites for work in works]
                )
                flips = [len(work.sites) for work in works]
            seconds = time.perf_counter() - started  # repro-lint: disable=RPL009
        if len(accuracies) != len(works):  # pragma: no cover - defensive
            raise ConfigurationError(
                f"lane_accuracies returned {len(accuracies)} accuracies "
                f"for {len(works)} lanes"
            )
        per_lane = seconds / len(works) if works else 0.0
        return tuple(
            TrialOutcome(
                index=work.index,
                accuracy=float(accuracy),
                flips=int(count),
                seconds=per_lane,
            )
            for work, accuracy, count in zip(works, accuracies, flips)
        )


class TrialExecutor:
    """Strategy interface: run trial groups, yield outcomes in index order.

    Implementations must yield :class:`TrialOutcome`s ordered by
    ``work.index`` so streaming consumers (incremental aggregation,
    CI-convergence early stop) make identical decisions on every
    backend.  Consumers may stop iterating early; executors must not
    leave abandoned work occupying their resources when that happens.
    """

    #: Worker processes backing this executor (0 = in-process).
    workers: int = 0

    def run_groups(
        self, runner: GroupTrialRunner, groups: Iterable[TrialGroup]
    ) -> Iterator[TrialOutcome]:
        """Run trial groups, yielding a flat trial-index-ordered stream.

        Groups hold consecutive trial indices and outcomes stream back
        flattened in that order, so consumers are oblivious to grouping.
        The default evaluates groups in the calling process (correct for
        any backend); pooled executors override it.
        """
        for group in groups:
            yield from runner(group)

    def shutdown(self, terminate: bool = False) -> None:
        """Release any pooled resources (no-op for in-process backends)."""

    def describe(self) -> str:
        return type(self).__name__


class SerialExecutor(TrialExecutor):
    """Run every group in the calling process (the historic behaviour)."""

    workers = 0

    def describe(self) -> str:
        return "serial"


def default_start_method() -> str:
    """``fork`` where the platform offers it, else ``spawn``.

    Fork inherits the campaign state by copy-on-write — no pickling, no
    per-worker re-materialisation — and is the only method that supports
    closure-based ``evaluate`` callables.
    """
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


# Worker-global campaign state, installed once per worker by the pool
# initializer (inherited via fork, or unpickled once under spawn).
_WORKER_RUNNER: GroupTrialRunner | None = None


def _initialize_worker(runner: GroupTrialRunner) -> None:
    global _WORKER_RUNNER
    _WORKER_RUNNER = runner


def _execute_group(group: TrialGroup) -> tuple[TrialOutcome, ...]:
    if _WORKER_RUNNER is None:  # pragma: no cover - defensive
        raise ConfigurationError("worker pool was not initialised with a runner")
    return _WORKER_RUNNER(group)


class ProcessExecutor(TrialExecutor):
    """Run trial groups on a persistent ``multiprocessing`` pool.

    The pool is created lazily on the first ``run_groups`` call and
    reused for every later call with the same runner — a fault-rate
    sweep amortises worker start-up over all of its campaigns.  Call
    :meth:`shutdown` (or use the owning campaign as a context manager)
    to release the workers.

    Parameters
    ----------
    workers:
        Worker process count (>= 2; use :class:`SerialExecutor` below
        that).  May exceed the machine's core count, though that rarely
        helps CPU-bound evaluation.
    start_method:
        ``"fork"`` / ``"spawn"`` / ``"forkserver"``; default picks
        :func:`default_start_method`.
    chunk_size:
        Groups handed to a worker per scheduling round.  Default
        balances scheduling overhead against tail latency:
        ``max(1, groups // (workers * 4))``.
    """

    def __init__(
        self,
        workers: int,
        start_method: str | None = None,
        chunk_size: int | None = None,
    ) -> None:
        if workers < 2:
            raise ConfigurationError(
                f"ProcessExecutor needs >= 2 workers, got {workers}; "
                "use SerialExecutor (workers=0) for in-process runs"
            )
        if start_method is not None:
            available = multiprocessing.get_all_start_methods()
            if start_method not in available:
                raise ConfigurationError(
                    f"start method {start_method!r} unavailable on this "
                    f"platform (have: {', '.join(available)})"
                )
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        self.workers = int(workers)
        self.start_method = start_method
        self.chunk_size = chunk_size
        self._pool: "Pool | None" = None
        self._pool_runner: GroupTrialRunner | None = None

    def _resolve_chunk(self, n_groups: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, n_groups // (self.workers * 4))

    def _ensure_pool(self, runner: GroupTrialRunner) -> "Pool":
        if self._pool is not None and self._pool_runner is runner:
            return self._pool
        self.shutdown()
        method = self.start_method or default_start_method()
        context = multiprocessing.get_context(method)
        _logger.info("starting campaign pool: %d workers (%s)", self.workers, method)
        self._pool = context.Pool(
            processes=self.workers,
            initializer=_initialize_worker,
            initargs=(runner,),
        )
        self._pool_runner = runner
        return self._pool

    def run_groups(
        self, runner: GroupTrialRunner, groups: Iterable[TrialGroup]
    ) -> Iterator[TrialOutcome]:
        groups = list(groups)
        if not groups:
            return
        pool = self._ensure_pool(runner)
        completed = 0
        try:
            # Ordered imap, one group per message: outcomes stream back
            # in trial-index order even when later groups finish first
            # on another worker.
            for outcomes in pool.imap(
                _execute_group, groups, chunksize=self._resolve_chunk(len(groups))
            ):
                yield from outcomes
                completed += 1
        finally:
            if completed < len(groups):
                # Abandoned mid-stream (early stop, worker error): kill
                # the speculative groups instead of letting them occupy
                # the pool; the next run lazily restarts it.
                self.shutdown(terminate=True)

    def shutdown(self, terminate: bool = False) -> None:
        pool, self._pool, self._pool_runner = self._pool, None, None
        if pool is None:
            return
        if terminate:
            pool.terminate()
        else:
            pool.close()
        pool.join()

    def __del__(self) -> None:  # best-effort; shutdown() is the real API
        try:
            self.shutdown(terminate=True)
        except Exception:  # pragma: no cover - interpreter teardown
            pass

    def describe(self) -> str:
        return f"process[{self.workers}]"


def available_workers() -> int:
    """Usable CPU count (CPU affinity aware), minimum 1."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # platforms without sched_getaffinity
        return max(1, os.cpu_count() or 1)


def make_executor(
    workers: int | TrialExecutor | None,
    start_method: str | None = None,
    chunk_size: int | None = None,
) -> TrialExecutor:
    """Resolve a ``workers`` knob into an executor.

    ``None``/``0``/``1`` → serial; ``N >= 2`` → a process pool of N; a
    ready-made :class:`TrialExecutor` passes through unchanged (custom
    backends — threads, remote workers — plug in here).
    """
    if isinstance(workers, TrialExecutor):
        return workers
    if workers is None:
        workers = 0
    workers = int(workers)
    if workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers}")
    if workers <= 1:
        return SerialExecutor()
    return ProcessExecutor(workers, start_method=start_method, chunk_size=chunk_size)
