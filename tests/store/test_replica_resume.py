"""Durability contract under replica batching: same store bytes.

``replicas`` is scheduling, not identity — a journal written by a
replica-batched campaign must match the per-trial journal record for
record (the trailing ``"sec"`` wall-time field is the one sanctioned
difference), resumes may switch the knob freely mid-campaign, shard
merges are width-agnostic, and the rendered atlas is byte-identical.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.data.loader import DataLoader
from repro.data.synthetic import SYNTH_MEAN, SYNTH_STD, SyntheticImageDataset
from repro.data.transforms import Normalize
from repro.eval.evaluator import Evaluator
from repro.fault import BitFlipFaultModel, FaultCampaign, FaultInjector
from repro.models.registry import build_model
from repro.quant import quantize_module
from repro.runtime import RuntimeConfig
from repro.store import CampaignInterrupted, CampaignStore, build_atlas
from repro.store.encoding import exact_json_dumps

RATES = (1e-6, 5e-6)
SPEC = BitFlipFaultModel.at_rate(5e-6)


def make_campaign(replicas="off", workers=0, trials=8, shard=None):
    model = quantize_module(
        build_model("lenet", num_classes=10, scale=0.5, image_size=16, seed=0)
    )
    dataset = SyntheticImageDataset(
        num_classes=10, num_samples=128, image_size=16, seed=0, split="test"
    )
    evaluator = Evaluator(
        DataLoader(dataset, batch_size=64, transform=Normalize(SYNTH_MEAN, SYNTH_STD)),
        config=RuntimeConfig(enabled=True),
    )
    return FaultCampaign(
        FaultInjector(model),
        evaluator.bind(model),
        trials=trials,
        seed=11,
        workers=workers,
        shard=shard,
        replicas=replicas,
    )


def _journal(store_dir):
    """Journal records with the sanctioned wall-time field stripped."""
    lines = (store_dir / "trials.jsonl").read_text().splitlines()
    return [
        {k: v for k, v in json.loads(line).items() if k != "sec"} for line in lines
    ]


def _atlas_bytes(path):
    store = CampaignStore.open(path)
    try:
        atlas = build_atlas(store, baseline=1.0, tolerance=0.01)
    finally:
        store.close()
    return exact_json_dumps(atlas, indent=2, sort_keys=True)


def _run_store(tmp_path, name, replicas, interrupt_at=None):
    store_dir = tmp_path / name
    with make_campaign(replicas=replicas) as campaign:
        with CampaignStore.for_campaign(store_dir, campaign) as store:
            if interrupt_at is not None:
                store.max_new_records = interrupt_at
                with pytest.raises(CampaignInterrupted):
                    campaign.run_sweep(RATES, tag="r", store=store)
                return store_dir
            campaign.run_sweep(RATES, tag="r", store=store)
    return store_dir


class TestReplicaStoreIdentity:
    def test_journal_and_atlas_bytes_match_per_trial_path(self, tmp_path):
        off = _run_store(tmp_path, "off", "off")
        on = _run_store(tmp_path, "on", 3)
        assert _journal(off) == _journal(on)
        assert _atlas_bytes(off) == _atlas_bytes(on)

    def test_interrupted_replica_run_resumes_to_identical_store(self, tmp_path):
        reference = _run_store(tmp_path, "straight", "off")
        resumed_dir = _run_store(tmp_path, "resumed", 4, interrupt_at=5)
        # Resume with the opposite knob: off-written prefix + replica
        # completion must still byte-match (scheduling never journals).
        with make_campaign(replicas=4) as campaign:
            with CampaignStore.for_campaign(resumed_dir, campaign) as store:
                campaign.run_sweep(RATES, tag="r", store=store)
                assert store.appended == len(RATES) * 8 - 5
        assert _journal(reference) == _journal(resumed_dir)
        assert _atlas_bytes(reference) == _atlas_bytes(resumed_dir)

    def test_cross_width_resume_is_not_an_identity_mismatch(self, tmp_path):
        """A store written with replicas off re-opens under auto."""
        store_dir = _run_store(tmp_path, "cross", "off", interrupt_at=3)
        with make_campaign(replicas="auto") as campaign:
            with CampaignStore.for_campaign(store_dir, campaign) as store:
                resumed = campaign.run_sweep(RATES, tag="r", store=store)
        straight = make_campaign(replicas="off")
        with straight:
            reference = straight.run_sweep(RATES, tag="r")
        for rate in RATES:
            np.testing.assert_array_equal(
                reference[rate].accuracies, resumed[rate].accuracies
            )

    def test_shard_merge_is_width_agnostic(self, tmp_path):
        with make_campaign(replicas="off") as campaign:
            reference = campaign.run_sweep(RATES, tag="s")

        shard_dirs = []
        for index in range(2):
            shard_dir = tmp_path / f"shard{index}"
            with make_campaign(replicas=3, shard=(index, 2)) as campaign:
                with CampaignStore.for_campaign(shard_dir, campaign) as store:
                    campaign.run_sweep(RATES, tag="s", store=store)
            shard_dirs.append(shard_dir)

        merged = CampaignStore.merge(tmp_path / "merged", shard_dirs)
        try:
            for rate, key in zip(RATES, merged.config_keys()):
                result = merged.result(key)
                np.testing.assert_array_equal(
                    reference[rate].accuracies, result.accuracies
                )
                np.testing.assert_array_equal(
                    reference[rate].flip_counts, result.flip_counts
                )
        finally:
            merged.close()

    def test_replica_groups_respect_the_journal_budget(self, tmp_path):
        """A group wider than the remaining budget must not evaluate
        (or journal) past it: pending work is truncated before grouping."""
        store_dir = tmp_path / "budget"
        with make_campaign(replicas=8) as campaign:
            with CampaignStore.for_campaign(store_dir, campaign) as store:
                store.max_new_records = 3
                with pytest.raises(CampaignInterrupted):
                    campaign.run(SPEC, tag="b", store=store)
                assert store.appended == 3
