"""The parallel campaign engine: executors, determinism, early stop."""

import pickle

import numpy as np
import pytest

from repro import nn
from repro.errors import ConfigurationError
from repro.fault import (
    BitFlipFaultModel,
    CampaignAggregator,
    EarlyStop,
    FaultCampaign,
    FaultInjector,
    GroupTrialRunner,
    ProcessExecutor,
    SerialExecutor,
    TrialGroup,
    TrialOutcome,
    TrialWork,
    make_executor,
)
from repro.fault.parallel import group_works
from repro.quant import quantize_module
from repro.runtime import RuntimeConfig
from repro.store import CampaignStore, config_key


def _model():
    return quantize_module(
        nn.Sequential(nn.Linear(4, 8, rng=0), nn.ReLU(), nn.Linear(8, 2, rng=1))
    )


class _ParamHealth:
    """Picklable accuracy proxy: fraction of parameter values in range.

    Deterministic in the injected fault pattern, so campaigns built on
    it are bit-reproducible across execution backends (including spawn,
    where lambdas cannot travel).
    """

    def __init__(self, model):
        self.model = model

    def __call__(self) -> float:
        total, bad = 0, 0
        for param in self.model.parameters():
            total += param.size
            bad += int((np.abs(param.data) > 100).sum())
        return 1.0 - bad / total


class _LaneRefusing(_ParamHealth):
    """Exposes the lane hook, and fails any trial that calls it."""

    def lane_accuracies(self, injector, site_sets):
        raise AssertionError("lane_accuracies called on the per-trial path")


def _campaign(workers=0, trials=8, seed=0, evaluate=_ParamHealth, **kwargs):
    model = _model()
    injector = FaultInjector(model)
    return FaultCampaign(
        injector,
        evaluate(model),
        trials=trials,
        seed=seed,
        workers=workers,
        **kwargs,
    )


class TestExecutorSelection:
    def test_zero_one_none_are_serial(self):
        for workers in (0, 1, None):
            assert isinstance(make_executor(workers), SerialExecutor)

    def test_many_is_process_pool(self):
        executor = make_executor(4)
        assert isinstance(executor, ProcessExecutor)
        assert executor.workers == 4

    def test_executor_instance_passes_through(self):
        executor = SerialExecutor()
        assert make_executor(executor) is executor

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            make_executor(-1)

    def test_process_executor_needs_two_workers(self):
        with pytest.raises(ConfigurationError):
            ProcessExecutor(1)

    def test_unknown_start_method_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessExecutor(2, start_method="teleport")

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessExecutor(2, chunk_size=0)

    def test_campaign_workers_property(self):
        assert _campaign(workers=0).workers == 0
        assert _campaign(workers=4).workers == 4


class TestParallelDeterminism:
    def test_parallel_matches_serial_bit_exactly(self):
        """The tentpole contract: workers=4 == workers=0, bit for bit."""
        spec = BitFlipFaultModel.at_rate(5e-3)
        serial = _campaign(workers=0, seed=11).run(spec, tag="det")
        parallel = _campaign(workers=4, seed=11).run(spec, tag="det")
        np.testing.assert_array_equal(serial.accuracies, parallel.accuracies)
        np.testing.assert_array_equal(serial.flip_counts, parallel.flip_counts)

    def test_sweep_parallel_matches_serial(self):
        rates = (1e-3, 5e-3)
        serial = _campaign(workers=0, seed=2).run_sweep(rates, tag="s")
        parallel = _campaign(workers=2, seed=2).run_sweep(rates, tag="s")
        for rate in rates:
            np.testing.assert_array_equal(
                serial[rate].accuracies, parallel[rate].accuracies
            )
            np.testing.assert_array_equal(
                serial[rate].flip_counts, parallel[rate].flip_counts
            )

    def test_trial_seeds_are_schedule_independent(self):
        spec = BitFlipFaultModel.exact(3)
        a = _campaign(seed=4).trial_seeds(spec, tag="t")
        b = _campaign(seed=4, workers=4).trial_seeds(spec, tag="t")
        assert a == b
        assert len(set(a)) == len(a)

    def test_exact_flip_counts_across_pool(self):
        result = _campaign(workers=2, trials=5).run(BitFlipFaultModel.exact(3))
        assert (result.flip_counts == 3).all()
        assert result.trials == 5

    @pytest.mark.skipif(
        "spawn" not in __import__("multiprocessing").get_all_start_methods(),
        reason="platform has no spawn start method",
    )
    def test_spawn_backend_matches_serial(self):
        """Spawn pickles the whole campaign state — the portable path."""
        spec = BitFlipFaultModel.exact(4)
        serial = _campaign(workers=0, trials=2, seed=6).run(spec, tag="sp")
        spawned = _campaign(
            workers=2, trials=2, seed=6, start_method="spawn"
        ).run(spec, tag="sp")
        np.testing.assert_array_equal(serial.accuracies, spawned.accuracies)
        np.testing.assert_array_equal(serial.flip_counts, spawned.flip_counts)

    def test_runtime_evaluator_matches_across_pool(self):
        """The compiled-runtime snapshot path: workers recompile plans
        after transport and still reproduce the serial stream exactly."""
        from repro.data.loader import DataLoader
        from repro.data.synthetic import (
            SYNTH_MEAN,
            SYNTH_STD,
            SyntheticImageDataset,
        )
        from repro.data.transforms import Normalize
        from repro.eval.evaluator import Evaluator
        from repro.models.registry import build_model

        def campaign(workers, **kwargs):
            model = quantize_module(
                build_model(
                    "lenet", num_classes=10, scale=0.25, image_size=16, seed=0
                )
            )
            dataset = SyntheticImageDataset(
                num_classes=10, num_samples=128, image_size=16, seed=0, split="test"
            )
            evaluator = Evaluator(
                DataLoader(
                    dataset,
                    batch_size=64,
                    transform=Normalize(SYNTH_MEAN, SYNTH_STD),
                ),
                config=RuntimeConfig(enabled=True),
            )
            # A clean-accuracy pass first, as `repro evaluate --runtime`
            # does: compiles (and registers) a plan on the model in the
            # parent *before* the pool pickles the campaign state.
            evaluator.accuracy(model)
            return FaultCampaign(
                FaultInjector(model),
                evaluator.bind(model),
                trials=3,
                seed=5,
                workers=workers,
                **kwargs,
            )

        spec = BitFlipFaultModel.at_rate(1e-4)
        serial = campaign(0).run(spec, tag="rt")
        with campaign(2) as pooled_campaign:
            pooled = pooled_campaign.run(spec, tag="rt")
        np.testing.assert_array_equal(serial.accuracies, pooled.accuracies)
        np.testing.assert_array_equal(serial.flip_counts, pooled.flip_counts)
        # Spawn pickles the model after plan compilation — the path that
        # used to die on the plan registry's weakrefs.
        with campaign(2, start_method="spawn") as spawn_campaign:
            spawned = spawn_campaign.run(spec, tag="rt")
        np.testing.assert_array_equal(serial.accuracies, spawned.accuracies)
        np.testing.assert_array_equal(serial.flip_counts, spawned.flip_counts)


class TestPoolLifecycle:
    def test_pool_persists_across_runs(self):
        """A sweep pays worker start-up once, not once per rate."""
        campaign = _campaign(workers=2, trials=3)
        campaign.run(BitFlipFaultModel.exact(1), tag="a")
        pool = campaign.executor._pool
        assert pool is not None
        campaign.run(BitFlipFaultModel.exact(2), tag="b")
        assert campaign.executor._pool is pool
        campaign.close()
        assert campaign.executor._pool is None

    def test_context_manager_releases_pool(self):
        with _campaign(workers=2, trials=2) as campaign:
            campaign.run(BitFlipFaultModel.exact(1))
            assert campaign.executor._pool is not None
        assert campaign.executor._pool is None

    def test_early_stop_discards_speculative_pool(self):
        campaign = _campaign(workers=2, trials=10)
        result = campaign.run(
            BitFlipFaultModel.exact(1),
            early_stop=EarlyStop(ci_halfwidth=1.0, min_trials=2),
        )
        assert result.trials == 2
        # The abandoned trials were terminated with their pool; the next
        # run transparently restarts one and stays deterministic.
        assert campaign.executor._pool is None
        full = campaign.run(BitFlipFaultModel.exact(1))
        np.testing.assert_array_equal(full.accuracies[:2], result.accuracies)
        campaign.close()

    def test_store_replay_interleaves_on_a_warm_pool(self, tmp_path):
        """Journaled trials replay between fresh ones in index order,
        and a store-backed sweep keeps the pool it started with."""
        rates = (1e-3, 5e-3)
        reference = _campaign(workers=0, seed=3).run_sweep(rates, tag="i")
        campaign = _campaign(workers=2, seed=3)
        with CampaignStore.for_campaign(tmp_path / "s", campaign) as store:
            keys = store.register_configs(
                [BitFlipFaultModel.at_rate(rate) for rate in rates], tag="i"
            )
            seeding = _campaign(workers=0, seed=3)
            for rate, key in zip(rates, keys):
                model = BitFlipFaultModel.at_rate(rate)
                for outcome, sites in seeding.iter_range(model, [0, 2, 5], tag="i"):
                    store.record(key, outcome, sites)
            campaign.run(BitFlipFaultModel.exact(1))
            pool = campaign.executor._pool
            assert pool is not None
            swept = campaign.run_sweep(rates, tag="i", store=store)
            assert campaign.executor._pool is pool
            assert store.appended == 6 + len(rates) * 5
            for rate, key in zip(rates, keys):
                assert sorted(store.journaled(key)) == list(range(8))
                np.testing.assert_array_equal(
                    reference[rate].accuracies, swept[rate].accuracies
                )
                np.testing.assert_array_equal(
                    reference[rate].flip_counts, swept[rate].flip_counts
                )
        campaign.close()

    def test_early_stop_with_store_marks_converged_and_discards_pool(
        self, tmp_path
    ):
        spec = BitFlipFaultModel.exact(1)
        campaign = _campaign(workers=2, trials=10)
        with CampaignStore.for_campaign(tmp_path / "s", campaign) as store:
            result = campaign.run(
                spec,
                early_stop=EarlyStop(ci_halfwidth=1.0, min_trials=2),
                store=store,
            )
            assert store.converged_at(config_key("", spec.describe())) == 2
        assert result.trials == 2
        assert campaign.executor._pool is None
        campaign.close()

    def test_serial_close_is_noop(self):
        campaign = _campaign(workers=0, trials=2)
        campaign.run(BitFlipFaultModel.exact(1))
        campaign.close()


class TestPerTrialPath:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_replicas_off_never_calls_lane_accuracies(self, workers):
        spec = BitFlipFaultModel.at_rate(5e-3)
        reference = _campaign(seed=7).run(spec)
        with _campaign(
            workers=workers, seed=7, evaluate=_LaneRefusing, replicas="off"
        ) as campaign:
            result = campaign.run(spec)
        np.testing.assert_array_equal(reference.accuracies, result.accuracies)
        np.testing.assert_array_equal(reference.flip_counts, result.flip_counts)

    def test_the_lane_hook_is_called_when_grouping(self):
        """Control for the test above: the refusing hook is reachable."""
        with pytest.raises(AssertionError, match="per-trial path"):
            _campaign(evaluate=_LaneRefusing, replicas=2).run(
                BitFlipFaultModel.exact(1)
            )

    def test_group_width_must_be_positive(self):
        with pytest.raises(ConfigurationError, match=">= 1"):
            group_works([], 0)


class TestEarlyStop:
    def test_stops_at_min_trials_when_converged(self):
        campaign = _campaign(trials=20)
        result = campaign.run(
            BitFlipFaultModel.exact(1),
            early_stop=EarlyStop(ci_halfwidth=1.0, min_trials=3),
        )
        assert result.trials == 3

    def test_serial_and_parallel_stop_identically(self):
        spec = BitFlipFaultModel.at_rate(5e-3)
        stop = EarlyStop(ci_halfwidth=0.5, min_trials=2)
        serial = _campaign(workers=0, trials=12, seed=9).run(
            spec, tag="es", early_stop=stop
        )
        parallel = _campaign(workers=4, trials=12, seed=9).run(
            spec, tag="es", early_stop=stop
        )
        assert serial.trials == parallel.trials
        np.testing.assert_array_equal(serial.accuracies, parallel.accuracies)

    def test_tight_tolerance_runs_everything(self):
        result = _campaign(trials=5).run(
            BitFlipFaultModel.at_rate(5e-3),
            early_stop=EarlyStop(ci_halfwidth=1e-12, min_trials=2),
        )
        # Noisy accuracies under a microscopic tolerance: no early exit
        # unless the CI degenerates (all-equal accuracies).
        assert result.trials == 5 or result.std == 0.0

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            EarlyStop(ci_halfwidth=0.0)
        with pytest.raises(ConfigurationError):
            EarlyStop(ci_halfwidth=0.1, confidence=1.5)
        with pytest.raises(ConfigurationError):
            EarlyStop(ci_halfwidth=0.1, min_trials=1)


class TestAggregator:
    def test_accumulates_in_order(self):
        agg = CampaignAggregator()
        agg.add(TrialOutcome(0, 0.9, 3))
        agg.add(TrialOutcome(1, 0.7, 2))
        assert agg.trials == 2
        assert agg.mean == pytest.approx(0.8)
        result = agg.result(BitFlipFaultModel.exact(1))
        np.testing.assert_array_equal(result.accuracies, [0.9, 0.7])
        np.testing.assert_array_equal(result.flip_counts, [3, 2])

    def test_out_of_order_outcome_rejected(self):
        agg = CampaignAggregator()
        with pytest.raises(ConfigurationError):
            agg.add(TrialOutcome(3, 0.9, 1))

    def test_halfwidth_infinite_below_two_trials(self):
        agg = CampaignAggregator()
        agg.add(TrialOutcome(0, 0.9, 1))
        assert agg.ci_halfwidth() == float("inf")

    def test_empty_aggregator_has_no_result(self):
        with pytest.raises(ConfigurationError):
            CampaignAggregator().result(BitFlipFaultModel.exact(1))


class TestWorkerTransport:
    def test_width_one_group_runner_pickle_roundtrip(self):
        """The spawn payload: one pickle, shared model reference intact."""
        model = _model()
        injector = FaultInjector(model)
        runner = GroupTrialRunner(injector, _ParamHealth(model))
        clone = pickle.loads(pickle.dumps(runner))
        assert clone.evaluate.model is clone.injector.module
        assert clone.width == 1
        group = TrialGroup(
            works=(
                TrialWork(
                    index=0, sites=injector.sample(BitFlipFaultModel.exact(5), rng=42)
                ),
            )
        )
        assert runner(group) == clone(group)
        (outcome,) = clone(group)
        assert outcome.index == 0 and outcome.flips == 5

    def test_active_injector_refuses_pickle(self):
        injector = FaultInjector(_model())
        injector.apply(injector.sample(BitFlipFaultModel.exact(1), rng=0))
        with pytest.raises(ConfigurationError):
            pickle.dumps(injector)
        injector.restore()
        pickle.dumps(injector)

    def test_injector_pickle_rebuilds_clean_state(self):
        injector = FaultInjector(_model())
        clone = pickle.loads(pickle.dumps(injector))
        assert clone.total_words == injector.total_words
        for mine, theirs in zip(injector._clean, clone._clean):
            np.testing.assert_array_equal(mine, theirs)
        # The rebuilt injector is fully operational.
        sites = clone.sample(BitFlipFaultModel.exact(2), rng=1)
        with clone.inject(sites) as count:
            assert count == 2
