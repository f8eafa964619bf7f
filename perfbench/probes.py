"""Timing wrappers around the program's public layer functions.

Traced runs only.  :class:`Probes` replaces each probed function with a
wrapper that records one span per call into a
:class:`~spans.SpanRecorder`; :meth:`Probes.uninstall` puts the originals
back.
The wrappers live here, in the benchmark's own files: the program is not
edited and ``repro.obs`` is not used.

:data:`LAYER_METRICS` is the catalogue of per-layer numbers a traced run
reports, each with the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import functools
import threading
from collections.abc import Callable

from spans import SpanRecorder

__all__ = ["LAYER_METRICS", "Probes", "layer_metrics"]

CAMPAIGN_LAYERS = "campaign-lenet-coord/throughput_per_s"
RUNTIME_LAYERS = "campaign-resnet18/throughput_per_s,peak_rss_mb"
SERVE_LAYERS = "serve-lenet/p50_ms,throughput_per_s"
PROTECT_LAYERS = "protect-resnet18/throughput_per_s,peak_rss_mb"
SETUP_LAYERS = "campaign-resnet18/setup_s,campaign-lenet-coord/setup_s"

#: Span name -> the workload/metric it should move.  Every span reports
#: ``<name>.calls``, ``<name>.busy_s`` (inclusive), ``<name>.self_s``
#: (busy minus the time its child spans cover) and ``<name>.share`` (busy
#: over the traced wall time).
SPANS: dict[str, str] = {
    "store.scan_progress": CAMPAIGN_LAYERS,
    "store.record": CAMPAIGN_LAYERS,
    "coord.next_claim": CAMPAIGN_LAYERS,
    "coord.verify": CAMPAIGN_LAYERS,
    "coord.lease_beat": CAMPAIGN_LAYERS,
    "fault.trial_seeds": CAMPAIGN_LAYERS,
    "fault.sample": CAMPAIGN_LAYERS,
    "fault.site_metadata": CAMPAIGN_LAYERS,
    "runtime.prepare": RUNTIME_LAYERS,
    "runtime.lane_forward": RUNTIME_LAYERS,
    "runtime.forward": RUNTIME_LAYERS,
    "eval.lane_accuracies": RUNTIME_LAYERS,
    "fault.apply": RUNTIME_LAYERS,
    "fault.restore": RUNTIME_LAYERS,
    "runtime.compile_model": SETUP_LAYERS,
    "serve.decode": SERVE_LAYERS,
    "serve.admit": SERVE_LAYERS,
    "serve.encode": SERVE_LAYERS,
    "serve.handle": SERVE_LAYERS,
    "serve.forward": SERVE_LAYERS,
    "serve.queue_wait": SERVE_LAYERS,
    "core.profile_activations": PROTECT_LAYERS,
    "core.replace_activations": PROTECT_LAYERS,
    "autograd.forward": PROTECT_LAYERS,
    "autograd.backward": PROTECT_LAYERS,
    "optim.step": PROTECT_LAYERS,
    "post_training.clean_probe": PROTECT_LAYERS,
    "post_training.epochs": PROTECT_LAYERS,
}

#: Derived per-layer numbers: name -> (unit, better, moves).
DERIVED: dict[str, tuple[str, str, str]] = {
    "coord.fenced": ("count", "lower", CAMPAIGN_LAYERS),
    "coord.steals": ("count", "lower", CAMPAIGN_LAYERS),
    "runtime.suffix_frac": ("ratio", "lower", RUNTIME_LAYERS),
    "eval.lanes_per_call": ("count", "higher", RUNTIME_LAYERS),
    "eval.zero_flip_frac": ("ratio", "higher", RUNTIME_LAYERS),
    "fault.flips_per_trial": ("count", "lower", RUNTIME_LAYERS),
    "serve.rows_per_forward": ("count", "higher", SERVE_LAYERS),
    "serve.server_batches": ("count", "lower", SERVE_LAYERS),
    "serve.server_mean_batch": ("count", "higher", SERVE_LAYERS),
    "serve.server_errors": ("count", "lower", SERVE_LAYERS),
    "wall_s": ("s", "lower", "every workload/throughput_per_s"),
    "unattributed_s": ("s", "lower", "every workload/throughput_per_s"),
    "trace_overhead_per_s": ("1/s", "lower", "every workload/throughput_per_s"),
}

_SPAN_FIELDS = (
    ("calls", "count", "lower"),
    ("busy_s", "s", "lower"),
    ("self_s", "s", "lower"),
    ("share", "ratio", "lower"),
)


def layer_metrics() -> list[tuple[str, str, str, str]]:
    """``(name, unit, better, moves)`` for every per-layer metric, in order."""
    rows = [
        (f"{span}.{field}", unit, better, moves)
        for span, moves in SPANS.items()
        for field, unit, better in _SPAN_FIELDS
    ]
    rows += [(name, unit, better, moves) for name, (unit, better, moves) in DERIVED.items()]
    return rows


LAYER_METRICS = layer_metrics()


class Probes:
    """Installs and removes the timing wrappers for one recorder."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Wrapping primitives
    # ------------------------------------------------------------------
    def _timed(
        self, name: str | None, function: Callable, after: Callable | None = None
    ) -> Callable:
        """Wrap ``function``: one span per call (none if ``name`` is None),
        then ``after(result, *args, **kwargs)`` to update counters."""
        recorder = self.recorder

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            token = recorder.open(name) if name is not None else None
            try:
                result = function(*args, **kwargs)
            finally:
                if token is not None:
                    recorder.close(token)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def method(
        self, owner: type, attr: str, name: str | None, after: Callable | None = None
    ) -> None:
        """Time ``owner.attr`` (plain, class- or static method)."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            patched: object = classmethod(self._timed(name, raw.__func__, after))
        elif isinstance(raw, staticmethod):
            patched = staticmethod(self._timed(name, raw.__func__, after))
        else:
            patched = self._timed(name, raw, after)
        setattr(owner, attr, patched)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def function(self, module: object, attr: str, name: str) -> None:
        """Time the module-level function ``module.attr``."""
        raw = getattr(module, attr)
        setattr(module, attr, self._timed(name, raw))
        self._undo.append(lambda: setattr(module, attr, raw))

    def instance(self, obj: object, attr: str, name: str) -> None:
        """Time one object's bound method (e.g. a model's ``forward``)."""
        raw = getattr(obj, attr)
        setattr(obj, attr, self._timed(name, raw))
        self._undo.append(lambda: delattr(obj, attr))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    # Layer groups
    # ------------------------------------------------------------------
    def install_campaign(self) -> None:
        """fault, eval, runtime, store and coord probes (in-process)."""
        import repro.runtime
        import repro.runtime.plan
        from repro.coord.lease import WorkerLease
        from repro.coord.scheduler import ClaimHandle, RangeScheduler
        from repro.eval.evaluator import Evaluator
        from repro.fault.campaign import FaultCampaign
        from repro.fault.injector import FaultInjector
        from repro.runtime.plan import InferencePlan
        from repro.runtime.replica import ReplicaPlan
        from repro.store.store import CampaignStore

        add = self.recorder.add
        self.method(CampaignStore, "scan_progress", "store.scan_progress")
        self.method(CampaignStore, "record", "store.record")
        self.method(RangeScheduler, "next_claim", "coord.next_claim")
        self.method(
            ClaimHandle,
            "verify",
            "coord.verify",
            after=lambda ok, *_a, **_k: None if ok else add("coord.fenced"),
        )
        # The heartbeat thread rewrites the lease file directly; every
        # rewrite is one beat.
        self.method(WorkerLease, "_write", "coord.lease_beat")
        self.method(
            WorkerLease, "note_steal", None, after=lambda *_a, **_k: add("coord.steals")
        )
        self.method(FaultCampaign, "trial_seeds", "fault.trial_seeds")
        self.method(
            FaultInjector,
            "sample",
            "fault.sample",
            after=lambda sites, *_a, **_k: add("fault.sampled_flips", len(sites)),
        )
        self.method(FaultInjector, "site_metadata", "fault.site_metadata")
        self.method(FaultInjector, "apply", "fault.apply")
        self.method(FaultInjector, "restore", "fault.restore")

        def lanes(_result, _self, _model, _injector, site_sets):
            add("eval.lanes", len(site_sets))
            add("eval.zero_flip_lanes", sum(1 for sites in site_sets if len(sites) == 0))

        self.method(Evaluator, "lane_accuracies", "eval.lane_accuracies", after=lanes)
        self.method(ReplicaPlan, "prepare", "runtime.prepare")

        def suffix(_result, replica, _key, _inputs, params):
            steps = len(replica.plan.steps)
            add("runtime.suffix_steps", (steps - replica.lane_start(params)) / steps)
            add("runtime.suffix_lanes")

        self.method(ReplicaPlan, "lane_forward", "runtime.lane_forward", after=suffix)
        self.method(InferencePlan, "__call__", "runtime.forward")
        self.function(repro.runtime, "compile_model", "runtime.compile_model")
        self.function(repro.runtime.plan, "compile_model", "runtime.compile_model")

    def install_protect(self, model: object) -> None:
        """core, autograd, optim and post-training probes."""
        import repro.core.protection
        from repro.autograd.tensor import Tensor
        from repro.core.post_training import BoundPostTrainer
        from repro.optim.optimizer import Optimizer

        recorder = self.recorder
        for name in ("profile_activations", "replace_activations"):
            self.function(repro.core.protection, name, f"core.{name}")
        self.instance(model, "forward", "autograd.forward")
        self.method(Tensor, "backward", "autograd.backward")
        self.method(Optimizer, "step", "optim.step")
        raw_probe = BoundPostTrainer.__dict__["_clean_accuracy_probe"]
        timed = self._timed

        def probe(trainer, eval_loader):
            return timed("post_training.clean_probe", raw_probe(trainer, eval_loader))

        BoundPostTrainer._clean_accuracy_probe = probe
        self._undo.append(
            lambda: setattr(BoundPostTrainer, "_clean_accuracy_probe", raw_probe)
        )
        raw_run = BoundPostTrainer.__dict__["run"]

        def run(trainer, train_loader, *args, **kwargs):
            return raw_run(trainer, EpochSpans(train_loader, recorder), *args, **kwargs)

        BoundPostTrainer.run = run
        self._undo.append(lambda: setattr(BoundPostTrainer, "run", raw_run))

    def install_serve(self) -> None:
        """serve probes, installed inside the server process."""
        import repro.serve.routes
        from repro.serve.admission import AdmissionController
        from repro.serve.http import ServeApp
        from repro.serve.protocol import PredictRequest, PredictResponse
        from repro.serve.registry import ServedModel
        from repro.serve.routes import Router

        recorder = self.recorder
        self.method(PredictRequest, "from_payload", "serve.decode")
        self.method(AdmissionController, "admit", "serve.admit")
        self.method(PredictResponse, "to_payload", "serve.encode")
        self.function(repro.serve.routes, "dump_payload", "serve.encode")
        self.method(Router, "handle", "serve.handle")
        raw_forward = ServedModel.__dict__["forward"]
        batcher = threading.local()

        def forward(entry, inputs):
            token = recorder.open("serve.forward")
            try:
                return raw_forward(entry, inputs)
            finally:
                batcher.forward_s = recorder.close(token, rows=len(inputs)).duration

        ServedModel.forward = forward
        self._undo.append(lambda: setattr(ServedModel, "forward", raw_forward))
        raw_submit = ServeApp.__dict__["submit_predict"]

        def submit_predict(app, inputs, model=None):
            submitted = recorder.clock()
            name, future = raw_submit(app, inputs, model=model)

            def done(_future):
                # The batcher thread resolves a batch's futures right after
                # its forward, so the forward that served this request is
                # the last one on this thread.  Queue wait is the rest.
                wait = recorder.clock() - submitted - getattr(batcher, "forward_s", 0.0)
                recorder.add_span("serve.queue_wait", submitted, submitted + max(0.0, wait))

            future.add_done_callback(done)
            return name, future

        ServeApp.submit_predict = submit_predict
        self._undo.append(lambda: setattr(ServeApp, "submit_predict", raw_submit))


class EpochSpans:
    """A loader whose every full iteration is one ``post_training.epochs`` span."""

    def __init__(self, loader: object, recorder: SpanRecorder) -> None:
        self.loader = loader
        self.recorder = recorder

    def __len__(self) -> int:
        return len(self.loader)

    def __iter__(self):
        token = self.recorder.open("post_training.epochs")
        try:
            yield from self.loader
        finally:
            self.recorder.close(token)
