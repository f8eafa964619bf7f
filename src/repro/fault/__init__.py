"""Fault injection into parameter and activation memory (paper §VI-A2).

The offline equivalent of the paper's PyTorch fault-injection tool:
fault models (uniform bit-flips, stuck-at cells, multi-bit bursts,
whole-word replacement), uniform site sampling, an exact-restore
injector, transient activation faults, a SEC-DED ECC memory model,
campaign runners, and vulnerability statistics.
"""

from repro.fault.activation import (
    ActivationFaultCampaign,
    ActivationFaultInjector,
    ActivationFaultLayer,
    ActivationFaultModel,
)
from repro.fault.burst import BurstFaultModel, expand_bursts
from repro.fault.campaign import (
    AUTO_REPLICAS,
    CampaignAggregator,
    CampaignResult,
    EarlyStop,
    FaultCampaign,
    SweepResult,
)
from repro.fault.ecc import (
    ECCOutcome,
    ECCProtectedInjector,
    SECDEDCode,
    ecc_memory_bytes,
)
from repro.fault.fault_model import PAPER_FAULT_RATES, BitFlipFaultModel, FaultModel
from repro.fault.injector import FaultInjector
from repro.fault.parallel import (
    GroupTrialRunner,
    ProcessExecutor,
    SerialExecutor,
    TrialExecutor,
    TrialGroup,
    TrialOutcome,
    TrialWork,
    available_workers,
    make_executor,
)
from repro.fault.sites import FaultSites, sample_distinct, sample_sites
from repro.fault.statistics import (
    OutcomeBreakdown,
    accuracy_drop,
    bit_position_vulnerability,
    classify_outcomes,
    critical_bit_threshold,
    mean_confidence_interval,
    parameter_group_vulnerability,
    sdc_probability,
    wilson_interval,
)
from repro.fault.stuck_at import StuckAtFaultModel, active_stuck_sites
from repro.fault.word import WordFaultModel, replacement_flips

__all__ = [
    "AUTO_REPLICAS",
    "PAPER_FAULT_RATES",
    "ActivationFaultCampaign",
    "ActivationFaultInjector",
    "ActivationFaultLayer",
    "ActivationFaultModel",
    "BitFlipFaultModel",
    "BurstFaultModel",
    "CampaignAggregator",
    "CampaignResult",
    "ECCOutcome",
    "ECCProtectedInjector",
    "EarlyStop",
    "FaultCampaign",
    "FaultInjector",
    "FaultModel",
    "FaultSites",
    "GroupTrialRunner",
    "OutcomeBreakdown",
    "ProcessExecutor",
    "SECDEDCode",
    "SerialExecutor",
    "StuckAtFaultModel",
    "SweepResult",
    "TrialExecutor",
    "TrialGroup",
    "TrialOutcome",
    "TrialWork",
    "WordFaultModel",
    "accuracy_drop",
    "active_stuck_sites",
    "available_workers",
    "bit_position_vulnerability",
    "classify_outcomes",
    "critical_bit_threshold",
    "ecc_memory_bytes",
    "expand_bursts",
    "make_executor",
    "mean_confidence_interval",
    "parameter_group_vulnerability",
    "replacement_flips",
    "sample_distinct",
    "sample_sites",
    "sdc_probability",
    "wilson_interval",
]
