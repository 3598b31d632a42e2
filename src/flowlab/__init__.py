"""Flow metering and early-detection evaluation toolkit.

Turns packet traces into complete and partial (early-stage) bidirectional
flow datasets, labels them from ground-truth rules, and measures how a
random forest detector degrades when trained on complete flows but tested
on partial ones.
"""

from .dataset import (
    AuditReport,
    Dataset,
    DistributionSummary,
    align,
    audit,
    build_cf,
    build_pf,
    distribution,
    read_csv,
    write_csv,
)
from .errors import (
    DatasetIOError,
    EmptyDatasetError,
    EmptyInputError,
    EmptySideError,
    FlowLabError,
    InvalidSpecError,
    LengthMismatchError,
    MalformedHeaderError,
    SchemaMismatchError,
    UnreadableFileError,
    UnsortedTraceError,
)
from .evaluation import (
    Metrics,
    Report,
    Scenario,
    Split,
    compute_metrics,
    run_scenario,
    split_keys,
    sweep,
)
from .forest import (
    RandomForest,
    TrainConfig,
    load_model,
    predict,
    save_model,
    train,
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
    Trigger,
    flow_hash,
    meter,
)
from .synth import FlowTemplate, SynthSpec, derive_rules, synth_trace
from .trace_io import PacketTrace, RawPacket, dedup, read_trace, reorder, write_trace

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "Dataset",
    "DatasetIOError",
    "DistributionSummary",
    "EmptyDatasetError",
    "EmptyInputError",
    "EmptySideError",
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
    "Scenario",
    "SchemaMismatchError",
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
    "run_scenario",
    "save_model",
    "split_keys",
    "sweep",
    "synth_trace",
    "train",
    "write_csv",
    "write_trace",
]
