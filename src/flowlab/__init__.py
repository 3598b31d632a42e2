"""Flow metering and early-detection evaluation toolkit.

Turns packet traces into complete and partial (early-stage) bidirectional
flow datasets, labels them from ground-truth rules, and measures how a
random forest detector degrades when trained on complete flows but tested
on partial ones.
"""

import importlib
import types

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
    MeterConfig,
    SnapshotBlock,
    Trigger,
    flow_hash,
    meter,
)
from .trace_io import PacketColumns, PacketTrace, RawPacket, dedup, read_trace, reorder, write_trace

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

# The names imported above and the lazy ones; the submodules that the
# imports bind here are not public names.
__all__ = sorted(
    [
        name
        for name, value in list(globals().items())
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    + list(_LAZY)
)
