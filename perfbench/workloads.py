"""The four benchmark workloads.

Each workload is fixed work derived from ``--seconds`` and made from one
seeded generator; none is time-boxed.  A workload has three phases:

- ``setup``: everything before the first timed operation (model build,
  quantisation, plan compile with warm-up, store creation; for serve, a
  server launch up to its ready line).  It runs several times per run and
  the median is reported, so one slow set-up does not move ``setup_s``.
- ``measure``: the timed operation, returning units of work, the elapsed
  time and per-operation latencies.
- ``check``: outside the timed region, verifies every output and counts
  failures against attempts.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from loadgen import closed_loop, lateness_ms, latencies_ms, open_loop, percentile, request

__all__ = ["WORKLOADS", "Measured", "Workload", "derive_seeds"]

#: ``--seconds`` at which every workload runs its reference size.
REFERENCE_SECONDS = 15.0
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fault rates of both campaign workloads: ~2 flips per resnet18 trial
#: (replica lanes share the clean prefix, many lanes flip nothing) and
#: ~66 (every lane diverges early, so sharing is bypassed).
RATES = (1e-7, 3e-6)
#: Open-loop rate of the serve workload, well under the closed-loop
#: capacity (about 130 req/s on 2 cores), so latency is read below the
#: knee.  Below the knee p50 does not depend on the rate (11.0-11.4 ms
#: from 25 to 65 req/s).
SERVE_RATE = 50.0


#: Seed of every campaign's fault schedule.  A trial's cost depends on
#: where its first flip lands (resnet18 at 3e-6: about 60% of lanes start
#: in layer1, the rest in layer2), and with 16 trials a schedule drawn
#: from ``--seed`` moved the median per-trial latency between 0.57 and
#: 1.01 s.  A fixed schedule keeps the work identical from run to run;
#: ``--seed`` varies the weights, the test set and which trials the check
#: re-runs.
FAULT_SEED = 0


def derive_seeds(seed: int) -> dict[str, int]:
    """Independent model, data and request seeds from ``--seed``."""
    model, data, requests = np.random.SeedSequence(seed).generate_state(3)
    return {
        "model": int(model) % 2**31,
        "data": int(data) % 2**31,
        "requests": int(requests) % 2**31,
    }


def scaled(reference: int, seconds: float, minimum: int) -> int:
    """A work size proportional to ``seconds``, fixed for given arguments."""
    return max(minimum, round(reference * seconds / REFERENCE_SECONDS))


def first_quartile(values: list[float]) -> float:
    """Nearest-rank first quartile: the lowest of 3, the third of 10.

    Each value times the same block of work.  A neighbouring tenant that
    takes the machine for part of a run slows some blocks; the quickest
    quarter shows the program's own speed.
    """
    return percentile(values, 25.0)


@dataclass
class Measured:
    """One measured pass: work units, seconds and per-operation latencies."""

    units: int
    elapsed: float
    latencies_ms: list[float]
    extra: dict[str, float] = field(default_factory=dict)
    #: Seconds of each equal block of work, where the run has blocks.
    blocks: list[float] = field(default_factory=list)
    #: Reported median latency, if not that of ``latencies_ms``.
    p50: float | None = None

    @property
    def p50_ms(self) -> float:
        if self.p50 is not None:
            return self.p50
        return percentile(self.latencies_ms, 50.0)

    @property
    def throughput(self) -> float:
        return self.units / self.elapsed


class Workload:
    """Base: subclasses define setup/measure/check for one workload."""

    name = ""
    why = ""
    in_process = True
    #: Program modules the workload's set-up uses; run.py imports them
    #: once and counts that time toward ``setup_s``.
    modules: tuple[str, ...] = ()

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.seeds = derive_seeds(seed)

    def prepare(self) -> None:
        """Untimed, once per run: inputs every set-up shares."""

    def setup(self, probes=None):
        raise NotImplementedError

    def measure(self, state) -> Measured:
        raise NotImplementedError

    def check(self, state, measured: Measured) -> tuple[int, int, list[str]]:
        """``(attempted, failed, problems)`` for one measured pass."""
        raise NotImplementedError

    def teardown(self, state) -> None:
        pass

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layer_metrics(self, state) -> dict[str, float]:
        """Counters the workload reads from the program after a traced pass."""
        return {}


# ----------------------------------------------------------------------
# Campaigns
# ----------------------------------------------------------------------
class TrialTimer:
    """The campaign's fault injector, timing every trial it injects.

    A trial's latency runs from flipping its bits to restoring them: its
    evaluation over the whole test set, whether it runs alone or as one
    lane of a replica group.  Lanes that flip nothing replay the shared
    clean pass and are not timed.  Everything else is the wrapped
    :class:`~repro.fault.FaultInjector`.
    """

    def __init__(self, injector) -> None:
        self.injector = injector
        self.latencies_ms: list[float] = []

    def __getattr__(self, name: str):
        if name == "injector":  # not yet set (copy/pickle probes)
            raise AttributeError(name)
        return getattr(self.injector, name)

    @contextmanager
    def inject(self, sites):
        start = time.perf_counter()
        with self.injector.inject(sites) as count:
            yield count
        self.latencies_ms.append((time.perf_counter() - start) * 1e3)


@dataclass
class CampaignState:
    campaign: object
    evaluator: object
    model: object
    timer: TrialTimer
    fault_models: list
    clean: float
    #: Every store made so far; the last is the one being drained.
    store_paths: list[Path] = field(default_factory=list)

    @property
    def store_path(self) -> Path:
        return self.store_paths[-1]


class CampaignWorkload(Workload):
    modules = (
        "repro.coord",
        "repro.data",
        "repro.eval",
        "repro.fault",
        "repro.models",
        "repro.quant",
        "repro.runtime",
        "repro.store",
    )
    model_name = ""
    image_size = 32
    width = 1.0
    reference_trials = 16
    minimum_trials = 2
    #: Sampled trials per rate re-run on the per-trial path in check().
    verify_per_rate = 2

    @property
    def trials(self) -> int:
        return scaled(self.reference_trials, self.seconds, self.minimum_trials)

    def setup(self, probes=None) -> CampaignState:
        from repro.data.loader import DataLoader
        from repro.data.synthetic import SYNTH_MEAN, SYNTH_STD, SyntheticImageDataset
        from repro.data.transforms import Normalize
        from repro.eval.evaluator import Evaluator
        from repro.fault import BitFlipFaultModel, FaultCampaign, FaultInjector
        from repro.models.registry import build_model
        from repro.quant import quantize_module
        from repro.runtime import RuntimeConfig
        from repro.store import CampaignStore

        if probes is not None:
            probes.install_campaign()
        model = quantize_module(
            build_model(
                self.model_name,
                num_classes=10,
                scale=self.width,
                image_size=self.image_size,
                seed=self.seeds["model"],
            )
        )
        dataset = SyntheticImageDataset(
            num_classes=10,
            num_samples=256,
            image_size=self.image_size,
            seed=self.seeds["data"],
            split="test",
        )
        evaluator = Evaluator(
            DataLoader(dataset, batch_size=128, transform=Normalize(SYNTH_MEAN, SYNTH_STD)),
            config=RuntimeConfig(enabled=True),
        )
        timer = TrialTimer(FaultInjector(model))
        campaign = FaultCampaign(
            timer,
            evaluator.bind(model),
            trials=self.trials,
            seed=FAULT_SEED,
            replicas="auto",
        )
        # The clean baseline every campaign records; its forward compiles
        # the plan (with warm-up) the trials will run on.
        clean = evaluator.accuracy(model)
        fault_models = [BitFlipFaultModel.at_rate(rate) for rate in RATES]
        state = CampaignState(campaign, evaluator, model, timer, fault_models, clean)
        self.new_store(state)
        return state

    def new_store(self, state: CampaignState) -> None:
        """Create and register a fresh, empty store for the next drain."""
        from repro.store import CampaignStore

        store_path = self.workdir / f"store-{self.name}-{len(state.store_paths)}"
        shutil.rmtree(store_path, ignore_errors=True)
        with CampaignStore.for_campaign(
            store_path, state.campaign, meta={"clean_accuracy": state.clean}
        ) as store:
            store.register_configs(state.fault_models)
        state.store_paths.append(store_path)

    def latencies(self, state: CampaignState) -> list[float]:
        """Per-trial latencies at the high rate.

        Both campaign loops evaluate the configurations in registration order,
        so the timed trials of the low rate come first; the journal says
        how many of them flipped a bit.  At 1e-7 a resnet18 lane re-runs
        only a short suffix, so pooling both rates would put the median
        on the boundary between two populations.
        """
        from repro.store import CampaignStore, config_key

        with CampaignStore.open(state.store_path) as store:
            flipped = [
                sum(1 for record in store.records(config_key("", model.describe())).values()
                    if record.flips > 0)
                for model in state.fault_models
            ]
        recorded = state.timer.latencies_ms
        if sum(flipped) != len(recorded):
            raise RuntimeError(
                f"timed {len(recorded)} trials, the journal holds {sum(flipped)} with flips"
            )
        return recorded[flipped[0] :]

    def teardown(self, state: CampaignState) -> None:
        state.campaign.close()
        for store_path in state.store_paths:
            shutil.rmtree(store_path, ignore_errors=True)

    def check(self, state: CampaignState, measured: Measured) -> tuple[int, int, list[str]]:
        """In every store, every trial journaled exactly once; a seeded
        sample re-run on the per-trial path gives bit-identical accuracies."""
        from repro.fault import FaultCampaign
        from repro.store import CampaignStore, config_key

        trials = self.trials
        rng = np.random.default_rng(self.seed)
        reference = FaultCampaign(
            state.campaign.injector,
            state.evaluator.bind(state.model),
            trials=trials,
            seed=FAULT_SEED,
            replicas="off",
        )
        keys = [config_key("", model.describe()) for model in state.fault_models]
        attempted = failed = 0
        problems: list[str] = []
        for store_path in state.store_paths:
            attempted += trials * len(keys)
            bad: set[tuple[str, int]] = set()
            progress = CampaignStore.scan_progress(store_path)
            records = sum(progress.segments.values())
            for key in keys:
                missing = set(range(trials)) - progress.indices.get(key, set())
                bad.update((key, index) for index in missing)
                if missing:
                    problems.append(f"{key}: {len(missing)} trials never journaled")
            if records != trials * len(keys):
                problems.append(f"{records} journal records for {trials * len(keys)} trials")
            with CampaignStore.open(store_path) as store:
                for key, fault_model in zip(keys, state.fault_models):
                    size = min(self.verify_per_rate, trials)
                    sample = sorted(rng.choice(trials, size=size, replace=False))
                    stored = store.records(key)
                    for outcome, _sites in reference.iter_range(fault_model, sample):
                        record = stored.get(outcome.index)
                        if record is None or record.accuracy != outcome.accuracy:
                            bad.add((key, outcome.index))
                            problems.append(f"{key} trial {outcome.index}: accuracy differs")
            # Missing and mismatched trials are in ``bad``; records beyond
            # one per trial are duplicates.
            failed += min(len(bad) + max(0, records - trials * len(keys)), trials * len(keys))
        return attempted, failed, problems


class CampaignResnet18(CampaignWorkload):
    name = "campaign-resnet18"
    why = (
        "runtime-heavy store-backed run_sweep: ReplicaPlan prepare+lane_forward "
        "are ~90% of wall; rate 1e-7 loads replica sharing, 3e-6 bypasses it; "
        "store/coord/seeds stay under 10%"
    )
    model_name = "resnet18"
    image_size = 32
    width = 0.25
    reference_trials = 16

    def measure(self, state: CampaignState) -> Measured:
        from repro.store import CampaignStore

        store = CampaignStore.open(state.store_path)
        start = time.perf_counter()
        with store:
            state.campaign.run_sweep(RATES, store=store)
        elapsed = time.perf_counter() - start
        return Measured(self.trials * len(RATES), elapsed, self.latencies(state))


class CampaignLenetCoord(CampaignWorkload):
    name = "campaign-lenet-coord"
    why = (
        "control-plane-heavy: one CampaignWorker drains 3 fresh registered stores "
        "(scan_progress, next_claim, verify, record, trial_seeds); lenet barely "
        "loads the runtime"
    )
    model_name = "lenet"
    image_size = 16
    width = 1.0
    verify_per_rate = 8
    #: Fresh stores drained one after another in a run.
    rounds = 3
    #: Each drain runs as this many equal ``max_trials`` slices per rate.
    slices_per_rate = 8

    @property
    def slice_trials(self) -> int:
        """Trials per slice: a whole number of default-size claims."""
        from repro.coord.worker import DEFAULT_CHUNK

        return scaled(12, self.seconds, 1) * DEFAULT_CHUNK

    @property
    def trials(self) -> int:
        return self.slices_per_rate * self.slice_trials

    def drain(self, state: CampaignState) -> list[float]:
        """Drain the current store in budgeted slices; seconds per slice.

        Each slice is a fresh worker run with ``max_trials`` set.  The
        worker walks the configurations in registration order and a slice
        is a whole number of claims, so every slice lies within one rate.
        """
        from repro.coord import CampaignWorker

        slice_s: list[float] = []
        for _ in range(self.slices_per_rate * len(RATES)):
            worker = CampaignWorker(
                state.campaign,
                state.store_path,
                state.fault_models,
                worker_id="bench",
                max_trials=self.slice_trials,
            )
            start = time.perf_counter()
            report = worker.run()
            slice_s.append(time.perf_counter() - start)
            if report["trials"] != self.slice_trials:
                raise RuntimeError(
                    f"a slice journaled {report['trials']} trials, not {self.slice_trials}"
                )
        return slice_s

    def measure(self, state: CampaignState) -> Measured:
        """The same drain ``rounds`` times, each into a fresh store.

        A slice costs more as the journals grow (each claim re-scans
        them), so slices are compared only with the same slice of the
        other rounds: each is charged its fastest round (nearest-rank
        first quartile).  A neighbour that takes the machine for a few
        seconds slows one round's slices, not all three.
        """
        rounds: list[list[float]] = []
        latencies: list[float] = []
        for index in range(self.rounds):
            if index:
                self.new_store(state)
            state.timer.latencies_ms = []
            rounds.append(self.drain(state))
            latencies += self.latencies(state)
        elapsed = sum(first_quartile(list(times)) for times in zip(*rounds))
        return Measured(
            self.trials * len(RATES),
            elapsed,
            latencies,
            {"drain_s": sum(map(sum, rounds)) / self.rounds},
            [t for times in rounds for t in times],
        )


# ----------------------------------------------------------------------
# Serve
# ----------------------------------------------------------------------
@dataclass
class Server:
    process: subprocess.Popen
    url: str


class ServeLenet(Workload):
    name = "serve-lenet"
    why = (
        "repro serve CLI defaults (--runtime --preload), 8x3x16x16 lenet requests: "
        "10 rounds of 100 open-loop at 50 req/s (p50) and 100 from 2 closed-loop "
        "callers; loads repro.serve, not store/coord"
    )
    in_process = False
    samples_per_request = 8
    distinct_bodies = 16

    #: Requests per open-loop latency window and per closed-loop block.
    block_requests = 100

    @property
    def blocks(self) -> int:
        """Open-loop windows, and closed-loop blocks, per run."""
        return scaled(10, self.seconds, 2)

    def prepare(self) -> None:
        """Checkpoint, pre-encoded bodies and the local reference logits."""
        from repro.core.checkpoint import save_protected
        from repro.models.registry import build_model
        from repro.runtime import RuntimeConfig
        from repro.serve import ModelRegistry
        from repro.serve.protocol import PredictRequest, dump_payload

        meta = {
            "model": "lenet",
            "num_classes": 10,
            "scale": 1.0,
            "image_size": 16,
            "seed": self.seeds["model"],
            "format": "Q15.16",
        }
        model = build_model(
            "lenet", num_classes=10, image_size=16, seed=self.seeds["model"]
        )
        self.checkpoint = save_protected(str(self.workdir / "lenet.npz"), model, meta=meta)
        rng = np.random.default_rng(self.seeds["requests"])
        registry = ModelRegistry(capacity=1, config=RuntimeConfig(enabled=True))
        registry.register("lenet", self.checkpoint)
        entry = registry.get("lenet")
        self.bodies: list[bytes] = []
        self.expected: list[list[list[float]]] = []
        for _ in range(self.distinct_bodies):
            inputs = rng.standard_normal(
                (self.samples_per_request, 3, 16, 16)
            ).astype(np.float32)
            request = PredictRequest(inputs=inputs, model="lenet", return_logits=True)
            self.bodies.append(dump_payload(request.to_payload()))
            logits = np.asarray(entry.forward(inputs))
            self.expected.append([[float(v) for v in row] for row in logits])

    def _command(self, spans_path: Path | None) -> list[str]:
        serve_args = [
            "serve",
            "--checkpoint",
            f"lenet={self.checkpoint}",
            "--port",
            "0",
            "--runtime",
            "--preload",
        ]
        if spans_path is None:
            return [sys.executable, "-m", "repro.cli", *serve_args]
        launcher = Path(__file__).resolve().parent / "serve_launcher.py"
        return [sys.executable, str(launcher), "--spans", str(spans_path), *serve_args]

    def setup(self, probes=None) -> Server:
        """Launch ``repro serve``; set-up ends at its ready line."""
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), *filter(None, [env.get("PYTHONPATH")])]
        )
        spans_path = self.workdir / "server-spans.json" if probes is not None else None
        log = open(self.workdir / "server.log", "ab")
        process = subprocess.Popen(
            self._command(spans_path),
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
        )
        log.close()
        url = None
        for line in process.stdout:
            if line.startswith("serving ") and " on http://" in line:
                url = line.split(" on ", 1)[1].split()[0]
                break
        if url is None:
            process.wait(timeout=60)
            raise RuntimeError(
                f"repro serve exited with {process.returncode} before it was ready"
            )
        return Server(process, url)

    @staticmethod
    def _address(state: Server) -> tuple[str, int]:
        host, port = state.url.removeprefix("http://").rsplit(":", 1)
        return host, int(port)

    def measure(self, state: Server) -> Measured:
        """Warm up, then alternate an open-loop window (latency) with a
        closed-loop block (throughput), ``block_requests`` each.

        ``p50_ms`` is the first quartile of the windows' p50s and
        throughput is a block's requests over the first-quartile block
        time.  Alternating spreads both phases over the whole run, so a
        neighbour that takes the machine for a few seconds slows a few
        windows and blocks of each, not a whole phase.
        """
        host, port = self._address(state)

        def send(body: bytes) -> tuple[int, bytes]:
            return request(host, port, "/v1/predict", body)

        # Lazy first-request costs are paid once per server, not per
        # request: warm up before any clock starts.
        _elapsed, warmup = closed_loop(send, self.bodies, 4 * len(self.bodies))
        opened: list = []
        closed: list = []
        window_p50s: list[float] = []
        block_s: list[float] = []
        started = time.perf_counter()
        for _ in range(self.blocks):
            window = open_loop(send, self.bodies, SERVE_RATE, self.block_requests)
            window_p50s.append(percentile(latencies_ms(window), 50.0))
            opened += window
            elapsed, block = closed_loop(send, self.bodies, self.block_requests)
            block_s.append(elapsed)
            closed += block
        ended = time.perf_counter()
        self._exchanges = warmup + opened + closed
        return Measured(
            self.block_requests,
            first_quartile(block_s),
            latencies_ms(opened),
            {
                "window_start": started,
                "window_end": ended,
                **lateness_ms(opened),
                "open_requests": float(len(opened)),
                "open_failed": float(sum(ex.status != 200 for ex in opened)),
                "closed_s": sum(block_s),
            },
            block_s,
            first_quartile(window_p50s),
        )

    def check(self, state: Server, measured: Measured) -> tuple[int, int, list[str]]:
        """Every 200 reply equals the local compiled forward of its input."""
        failed = 0
        problems: list[str] = []
        for ex in self._exchanges:
            if ex.status != 200:
                failed += 1
                if len(problems) < 5:
                    problems.append(f"request {ex.index}: HTTP {ex.status}")
                continue
            logits = json.loads(ex.body).get("logits")
            if logits != self.expected[ex.index % len(self.bodies)]:
                failed += 1
                if len(problems) < 5:
                    problems.append(f"request {ex.index}: logits differ from local forward")
        return len(self._exchanges), failed, problems

    def layer_metrics(self, state: Server) -> dict[str, float]:
        """The server's own batch-size histogram and error count."""
        _status, body = request(*self._address(state), "/v1/metrics", None)
        snapshot = json.loads(body)
        sizes = snapshot["batches"]["sizes"]
        return {
            "serve.server_batches": float(sizes["count"]),
            "serve.server_mean_batch": float(sizes["mean"]),
            "serve.server_errors": float(snapshot["requests"]["errors"]),
        }

    def teardown(self, state: Server) -> None:
        process = state.process
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()

    def peak_rss_mb(self) -> float:
        """``ru_maxrss`` of the largest waited-for server process."""
        import resource

        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Protect
# ----------------------------------------------------------------------
class StepTimer:
    """A training loader that times each post-training step.

    A step runs from the moment its batch is handed out until the trainer
    asks for the next one (forward, loss, backward, Adam step, bound
    projection).
    """

    def __init__(self, loader) -> None:
        self.loader = loader
        self.latencies_ms: list[float] = []

    def __len__(self) -> int:
        return len(self.loader)

    def __iter__(self):
        for batch in self.loader:
            start = time.perf_counter()
            yield batch
            self.latencies_ms.append((time.perf_counter() - start) * 1e3)


@dataclass
class ProtectState:
    model: object
    train_loader: object
    eval_loader: object
    trainer: object = None
    report: object = None


class ProtectResnet18(Workload):
    name = "protect-resnet18"
    why = (
        "protect_model(fitact) + BoundPostTrainer.run on untrained resnet18: the "
        "only load on autograd, optim, profiler, surgery and post-training; "
        "no runtime campaign or store"
    )
    modules = ("repro.core", "repro.data", "repro.eval", "repro.models")
    batch_size = 32
    bound_floor = 1e-3
    delta = 0.01

    @property
    def train_samples(self) -> int:
        return scaled(128, self.seconds, self.batch_size)

    @property
    def epochs(self) -> int:
        return scaled(4, self.seconds, 1)

    def setup(self, probes=None) -> ProtectState:
        from repro.data.loader import DataLoader
        from repro.data.synthetic import SYNTH_MEAN, SYNTH_STD, SyntheticImageDataset
        from repro.data.transforms import Normalize
        from repro.models.registry import build_model

        model = build_model(
            "resnet18", num_classes=10, scale=0.25, image_size=32, seed=self.seeds["model"]
        )
        if probes is not None:
            probes.install_protect(model)
        normalize = Normalize(SYNTH_MEAN, SYNTH_STD)
        train = SyntheticImageDataset(
            num_classes=10,
            num_samples=self.train_samples,
            image_size=32,
            seed=self.seeds["data"],
            split="train",
        )
        test = SyntheticImageDataset(
            num_classes=10,
            num_samples=128,
            image_size=32,
            seed=self.seeds["data"],
            split="test",
        )
        return ProtectState(
            model,
            DataLoader(train, batch_size=self.batch_size, transform=normalize),
            DataLoader(test, batch_size=128, transform=normalize),
        )

    def measure(self, state: ProtectState) -> Measured:
        from repro.core import ProtectionConfig, protect_model
        from repro.core.post_training import BoundPostTrainer, PostTrainingConfig

        steps = StepTimer(state.train_loader)
        start = time.perf_counter()
        protect_model(
            state.model,
            state.train_loader,
            ProtectionConfig(method="fitact", bound_floor=self.bound_floor),
        )
        state.trainer = BoundPostTrainer(
            state.model,
            PostTrainingConfig(
                epochs=self.epochs, delta=self.delta, bound_floor=self.bound_floor
            ),
        )
        state.report = state.trainer.run(steps, state.eval_loader)
        elapsed = time.perf_counter() - start
        samples = self.train_samples * (1 + self.epochs)
        return Measured(samples, elapsed, steps.latencies_ms)

    def check(self, state: ProtectState, measured: Measured) -> tuple[int, int, list[str]]:
        """Bounds finite and >= bound_floor; the δ constraint holds or the
        trainer rolled back."""
        problems: list[str] = []
        for index, bound in enumerate(state.trainer.bound_parameters):
            data = np.asarray(bound.data)
            if not np.isfinite(data).all():
                problems.append(f"bound tensor {index} is not finite")
            elif (data < self.bound_floor).any():
                problems.append(f"bound tensor {index} drops below bound_floor")
        report = state.report
        if report.epochs_run != self.epochs:
            problems.append(f"ran {report.epochs_run} of {self.epochs} epochs")
        drop = report.reference_accuracy - report.final_accuracy
        if drop >= self.delta and not report.rolled_back:
            problems.append(f"clean accuracy dropped {drop:.4f} without a rollback")
        attempted = len(measured.latencies_ms)
        return attempted, attempted if problems else 0, problems


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (CampaignResnet18, CampaignLenetCoord, ServeLenet, ProtectResnet18)
}

