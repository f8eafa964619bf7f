"""Evaluation harness: metrics, fast evaluators, overhead measurement,
text reporting, machine-readable export, and the per-figure experiment
runners."""

from repro.eval.evaluator import BoundAccuracy, Evaluator, forward_logits
from repro.eval.export import result_to_dict, save_csv, save_json
from repro.eval.metrics import (
    class_accuracy,
    confusion_matrix,
    top1_accuracy,
    topk_accuracy,
)
from repro.eval.overhead import (
    OverheadReport,
    measure_inference_seconds,
    measure_overhead,
)
from repro.eval.reporting import format_curves, format_table, percent, text_histogram
from repro.core import post_training as _post_training


def _compiled_clean_accuracy(model, eval_loader):
    from repro.runtime import RuntimeConfig

    return Evaluator(eval_loader, config=RuntimeConfig(enabled=True)).bind(model)


# Dependency inversion across the layer DAG: core's bound post-training
# cannot import the compiled runtime (RPL006), so the fast clean-accuracy
# probe is installed from here — any code path that touches the eval
# harness upgrades post-training's per-epoch δ-probe to compiled-plan
# forwards (bit-identical to the module forward by the plan contract).
_post_training.install_clean_accuracy_factory(_compiled_clean_accuracy)

__all__ = [
    "BoundAccuracy",
    "Evaluator",
    "OverheadReport",
    "class_accuracy",
    "confusion_matrix",
    "format_curves",
    "format_table",
    "forward_logits",
    "measure_inference_seconds",
    "measure_overhead",
    "percent",
    "result_to_dict",
    "save_csv",
    "save_json",
    "text_histogram",
    "top1_accuracy",
    "topk_accuracy",
]
