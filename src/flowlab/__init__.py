"""Flow metering and early-detection evaluation toolkit.

Turns packet traces into complete and partial (early-stage) bidirectional
flow datasets, labels them from ground-truth rules, and measures how a
random forest detector degrades when trained on complete flows but tested
on partial ones.
"""

import importlib

from .errors import (
    DatasetIOError,
    EmptyDatasetError,
    EmptyInputError,
    FlowLabError,
    InvalidSpecError,
    LengthMismatchError,
    MalformedHeaderError,
    SchemaMismatchError,
    TrainConfig,
    UnreadableFileError,
    UnsortedTraceError,
)
from .labeling import LabelRule, RuleSet, label_flow
from .meter import (
    FEATURE_NAMES,
    FeatureVector,
    FlowId,
    FlowKey,
    FlowRecord,
    FlowSnapshot,
    MeterConfig,
    SnapshotBlock,
    Trigger,
    flow_hash,
    meter,
)
from .trace_io import PacketTrace, RawPacket, dedup, read_trace, reorder, write_trace

# Public names of the modules imported on first use, so that ``import flowlab`` and
# the trace stages never load numpy; ``dataset`` needs it only for ``read_csv`` and views.
_LAZY = {
    **dict.fromkeys(
        (
            "AuditReport",
            "Dataset",
            "DistributionSummary",
            "align",
            "audit",
            "build_cf",
            "build_pf",
            "distribution",
            "read_csv",
            "write_csv",
        ),
        "dataset",
    ),
    **dict.fromkeys(
        ("Metrics", "Report", "Split", "compute_metrics", "split_keys", "sweep"), "evaluation"
    ),
    **dict.fromkeys(
        ("RandomForest", "load_model", "predict", "save_model", "train"),
        "forest",
    ),
    **dict.fromkeys(("FlowTemplate", "SynthSpec", "derive_rules", "synth_trace"), "synth"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())


__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "Dataset",
    "DatasetIOError",
    "DistributionSummary",
    "EmptyDatasetError",
    "EmptyInputError",
    "FEATURE_NAMES",
    "FeatureVector",
    "FlowId",
    "FlowKey",
    "FlowLabError",
    "FlowRecord",
    "FlowSnapshot",
    "FlowTemplate",
    "InvalidSpecError",
    "LabelRule",
    "LengthMismatchError",
    "MalformedHeaderError",
    "Metrics",
    "MeterConfig",
    "PacketTrace",
    "RandomForest",
    "RawPacket",
    "Report",
    "RuleSet",
    "SchemaMismatchError",
    "SnapshotBlock",
    "Split",
    "SynthSpec",
    "TrainConfig",
    "Trigger",
    "UnreadableFileError",
    "UnsortedTraceError",
    "align",
    "audit",
    "build_cf",
    "build_pf",
    "compute_metrics",
    "dedup",
    "derive_rules",
    "distribution",
    "flow_hash",
    "label_flow",
    "load_model",
    "meter",
    "predict",
    "read_csv",
    "read_trace",
    "reorder",
    "save_model",
    "split_keys",
    "sweep",
    "synth_trace",
    "train",
    "write_csv",
    "write_trace",
]
