"""Replica-batched campaigns: bit-identity with the per-trial path.

``FaultCampaign(replicas=R)`` is a pure scheduling knob: trials are
evaluated in lane groups that share one compiled clean-prefix forward,
but the accuracy/SDC stream must be *bit-identical* — same float32
accuracies, same flip counts, same order — to ``replicas="off"``.  The
suite pins that across registry architectures, the auto default, the
unquantised first-group fallback, and the knob's validation surface.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.loader import DataLoader
from repro.data.synthetic import SYNTH_MEAN, SYNTH_STD, SyntheticImageDataset
from repro.data.transforms import Normalize
from repro.errors import ConfigurationError
from repro.eval.evaluator import Evaluator
from repro.fault import AUTO_REPLICAS, BitFlipFaultModel, FaultCampaign, FaultInjector
from repro.models.registry import build_model
from repro.quant import quantize_module
from repro.runtime import RuntimeConfig

ARCHS = ["lenet", "alexnet", "resnet18", "resnet50"]
SPEC = BitFlipFaultModel.at_rate(3e-6)


def _campaign(name, replicas, trials=6, quantize=True, scale=None):
    if scale is None:
        scale = 0.5 if name == "lenet" else 0.125
    model = build_model(name, num_classes=10, scale=scale, image_size=16, seed=0)
    if quantize:
        model = quantize_module(model)
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
        seed=0,
        replicas=replicas,
    )


@pytest.mark.parametrize("name", ARCHS)
def test_replica_batched_stream_bit_identical(name):
    """The tentpole acceptance, per architecture: same bytes, any width."""
    serial = _campaign(name, replicas="off").run(SPEC)
    batched = _campaign(name, replicas=3).run(SPEC)
    assert serial.accuracies.tobytes() == batched.accuracies.tobytes()
    assert serial.flip_counts.tobytes() == batched.flip_counts.tobytes()


def test_auto_matches_serial_and_group_width_is_default():
    campaign = _campaign("lenet", replicas="auto")
    assert campaign.replicas == AUTO_REPLICAS
    serial = _campaign("lenet", replicas="off").run(SPEC)
    batched = campaign.run(SPEC)
    assert serial.accuracies.tobytes() == batched.accuracies.tobytes()
    assert serial.flip_counts.tobytes() == batched.flip_counts.tobytes()


def test_unquantised_model_first_group_fallback_is_identical():
    """Before the first restore an unquantised model's live params are
    not canonically clean (decode∘encode is lossy), so the first group
    must take the exact per-trial loop — and still match serially."""
    serial = _campaign("lenet", replicas="off", quantize=False).run(SPEC)
    batched = _campaign("lenet", replicas=4, quantize=False).run(SPEC)
    assert serial.accuracies.tobytes() == batched.accuracies.tobytes()
    assert serial.flip_counts.tobytes() == batched.flip_counts.tobytes()


def test_zero_flip_trials_replay_clean_accuracy():
    """at_rate draws zero flips for some trials; the replica path must
    serve those lanes from the shared clean pass, not skip them."""
    result = _campaign("lenet", replicas=4, trials=8).run(SPEC)
    assert (result.flip_counts == 0).any()
    clean = _campaign("lenet", replicas="off", trials=8).run(SPEC)
    assert result.accuracies.tobytes() == clean.accuracies.tobytes()


class TestReplicasKnob:
    def _lambda_campaign(self, replicas):
        from repro import nn

        model = quantize_module(
            nn.Sequential(nn.Linear(4, 8, rng=0), nn.ReLU(), nn.Linear(8, 2, rng=1))
        )
        return FaultCampaign(
            FaultInjector(model), lambda: 1.0, trials=2, seed=0, replicas=replicas
        )

    def test_auto_without_lane_hook_falls_back_to_per_trial(self):
        campaign = self._lambda_campaign("auto")
        assert campaign.replicas == 0
        assert campaign.run(SPEC).trials == 2

    def test_explicit_width_without_lane_hook_is_an_error(self):
        with pytest.raises(ConfigurationError, match="lane_accuracies"):
            self._lambda_campaign(4)

    def test_width_one_means_off(self):
        assert _campaign("lenet", replicas=1).replicas == 0

    def test_negative_width_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 0"):
            self._lambda_campaign(-2)

    def test_garbage_spelling_rejected(self):
        with pytest.raises(ConfigurationError, match="integer"):
            self._lambda_campaign("many")


def test_lane_accuracies_matches_inject_loop_directly():
    """The Evaluator hook itself (no campaign): lanes == serial loop."""
    model = quantize_module(
        build_model("alexnet", num_classes=10, scale=0.25, image_size=16, seed=0)
    )
    dataset = SyntheticImageDataset(
        num_classes=10, num_samples=64, image_size=16, seed=1, split="test"
    )
    evaluator = Evaluator(
        DataLoader(dataset, batch_size=32, transform=Normalize(SYNTH_MEAN, SYNTH_STD)),
        config=RuntimeConfig(enabled=True),
    )
    injector = FaultInjector(model)
    site_sets = [injector.sample(BitFlipFaultModel.exact(2), rng=lane) for lane in range(3)]
    site_sets.append(injector.sample(BitFlipFaultModel.exact(0), rng=9))

    bound = evaluator.bind(model)
    lanes = bound.lane_accuracies(injector, site_sets)

    serial = []
    for sites in site_sets:
        with injector.inject(sites):
            serial.append(bound())
    assert np.asarray(lanes).tobytes() == np.asarray(serial).tobytes()
