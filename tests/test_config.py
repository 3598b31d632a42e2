"""Every config document either loads or is rejected with ValueError or
FlowLabError, whatever JSON value stands in for one of its fields."""

from __future__ import annotations

import copy
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowlab import synth
from flowlab.cli import PipelineConfig
from flowlab.dataset import read_csv
from flowlab.errors import STR, Field, FlowLabError, checked
from flowlab.forest import RandomForest, TrainConfig, load_model
from flowlab.labeling import LabelRule, PortSet, RuleSet
from flowlab.meter import MeterConfig, Trigger
from flowlab.trace_io import read_trace

from conftest import corpus_path

_PIPELINE = {
    "meter": {"idle_timeout_s": 60, "pc_triggers": [2, 3], "fd_triggers_ms": [100]},
    "rules_path": "rules.json",
    "min_class_count": 50,
    "split": {"ratio": 0.7, "seed": 0},
    "train": {"n_trees": 10, "max_features": "sqrt", "max_depth": None, "seed": 0},
    "output_dir": "out",
}
_METER = {
    "idle_timeout_s": 60,
    "active_timeout_s": 18000.0,
    "fin_rst_expiration": True,
    "pc_triggers": [2, 3],
    "fd_triggers_ms": [5, 100],
    "fd_tolerance": 0.2,
    "byte_triggers": [],
}
_RULES = {
    "description": "rules",
    "default_label": "BENIGN",
    "rules": [
        {
            "label": "DoS",
            "src_ips": ["172.16.0.1", "10.0.0.0/8"],
            "dst_ips": [],
            "src_ports": [],
            "dst_ports": [80, [8000, 8100], "9000-9100"],
            "protocol": 6,
            "window_us": [1499262180000000, 1499263200000000],
            "bidirectional": True,
        }
    ],
}


def _load_spec(doc):
    synth._validate(synth.SynthSpec.from_dict(doc))


DOCUMENTS = {
    "pipeline": (_PIPELINE, PipelineConfig.from_dict),
    "meter": (_METER, MeterConfig.from_dict),
    "rules": (_RULES, RuleSet.from_dict),
    "spec": (json.loads(corpus_path("late_divergence").read_text(encoding="utf-8")), _load_spec),
}


def _paths(doc, prefix=()):
    """The path of every value inside ``doc``, containers included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


# Integers that float() cannot convert.
_UNFLOATABLE = st.sampled_from([10**400, -(10**400), 2**1024 - 2**970])
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([-1, 0, 1, 2, 65535, 65536, 2**53 + 1, 2**64, 1_499_262_180_000_000])
    | _UNFLOATABLE
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
    | st.sampled_from(["sqrt", "80", "1-2", "2-1", "10.0.0.0/8", "::1", "true", "6"])
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=5,
)


@pytest.mark.parametrize("kind", DOCUMENTS)
def test_valid_documents_load(kind):
    doc, load = DOCUMENTS[kind]
    load(copy.deepcopy(doc))


@pytest.mark.parametrize("kind", DOCUMENTS)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_value_for_any_field_loads_or_raises_value_error(kind, data):
    doc, load = DOCUMENTS[kind]
    doc = copy.deepcopy(doc)
    *parents, last = data.draw(st.sampled_from(list(_paths(doc))))
    # As often as all other values together: few fields take them, and each must refuse.
    value = data.draw(_JSON | _UNFLOATABLE)
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    try:
        load(doc)
    except (ValueError, FlowLabError):
        pass
    if not _finite(value):
        # No field takes an infinite or NaN number, nor an integer that
        # float() cannot convert; such a value must not load.
        with pytest.raises((ValueError, FlowLabError)):
            load(doc)


def _finite(value) -> bool:
    """False for a float or int that is no finite float, True for anything else."""
    if isinstance(value, (int, float)):
        try:
            return math.isfinite(float(value))
        except OverflowError:
            return False
    return True


def test_config_objects_keep_the_checked_values():
    n = np.int64
    pipeline = PipelineConfig(min_class_count=n(5), split_seed=n(4), train=TrainConfig(seed=n(4)))
    rule = LabelRule("X", src_ips=["10.0.0.0/8"], protocol=n(6), window_us=[n(1), n(2)])
    kept = {
        "train.n_trees": TrainConfig(n_trees=n(2)).n_trees,
        "train.seed": pipeline.train.seed,
        "pipeline.min_class_count": pipeline.min_class_count,
        "split.seed": pipeline.split_seed,
        "trigger.value": Trigger("pc", n(3)).value,
        "meter.pc_triggers": min(MeterConfig(pc_triggers=[n(3)]).pc_triggers),
        "ports.singles": min(PortSet(singles=[n(80)]).singles),
        "rule.protocol": rule.protocol,
        "rule.window_us": rule.window_us[0],
    }
    assert {name: type(value) for name, value in kept.items()} == dict.fromkeys(kept, int)
    assert rule.window_us == (1, 2)
    assert RuleSet([rule]).rules == (rule,)
    # The echo holds only JSON values.
    assert json.loads(json.dumps(pipeline.to_dict()))["split"]["seed"] == 4


@pytest.mark.parametrize("kind", DOCUMENTS)
@pytest.mark.parametrize(
    "blob, problem",
    [
        (b'{"name": }', "Expecting value"),
        (b'{"name": "\xff"}', "can't decode byte 0xff"),
        (b"[" * 101 + b"]" * 101, "nested deeper than 100 levels"),
        # Brackets in a string (after an escaped quote) do not nest.
        (b'{"name": "\\"' + b"[" * 200 + b'", }', "Expecting property name"),
        # 300 KB of escaped quotes in a string left open: one scan, not one
        # per quote (which took minutes at this size).
        (b'{"name": "' + b'\\"' * 150_000, "Unterminated string"),
    ],
    ids=["not_json", "not_utf8", "nested_101_deep", "brackets_in_a_string", "open_string"],
)
def test_undecodable_document_names_its_file(tmp_path, kind, blob, problem):
    loader = {
        "pipeline": PipelineConfig,
        "meter": MeterConfig,
        "rules": RuleSet,
        "spec": synth.SynthSpec,
    }[kind]
    path = tmp_path / f"{kind}.json"
    path.write_bytes(blob)
    with pytest.raises(FlowLabError, match=f"^{re.escape(str(path))}: .*{problem}"):
        loader.from_json(path)


@pytest.mark.parametrize(
    "read",
    [
        PipelineConfig.from_json,
        MeterConfig.from_json,
        RuleSet.from_json,
        synth.SynthSpec.from_json,
        load_model,
        read_trace,
        read_csv,
    ],
    ids=["pipeline", "meter", "rules", "spec", "model", "trace", "dataset"],
)
@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unreadable_file_names_its_path(tmp_path, read, target):
    path = tmp_path / "input"
    if target == "directory":
        path.mkdir()
    with pytest.raises(FlowLabError, match=re.escape(str(path))):
        read(path)


@pytest.mark.parametrize(
    "kind, doc, field",
    [
        (PipelineConfig, {"split": {"seed": 9.7}}, "split.seed"),
        (MeterConfig, {"idle_timeout_s": -1}, "meter.idle_timeout_s"),
        (RuleSet, {"rules": [{"label": "X", "src_ips": ["10.0.0.0/33"]}]}, "rule.src_ips"),
        (synth.SynthSpec, {"divergence_at": 0}, "spec.divergence_at"),
        (RandomForest, {"labels": "AB", "feature_schema": [], "trees": []}, "model.labels"),
    ],
    ids=["pipeline", "meter", "rules", "spec", "model"],
)
def test_bad_value_in_a_file_names_the_file(tmp_path, kind, doc, field):
    # The same value refused from a dict is refused from a file, under the file's path.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FlowLabError, match=f"^{re.escape(str(path))}: {field} "):
        kind.from_json(path)
    with pytest.raises(ValueError, match=f"^{field} "):
        kind.from_dict(doc)


def test_bad_value_echo_is_cut_in_length_and_depth():
    deep = 0
    for _ in range(990):
        deep = [deep]
    for value, echo in (
        (list(range(200_000)), "[0, 1, 2, 3, 4, 5, 6, 7, ...]"),
        (deep, "[[[[...]]]]"),
        ("x" * 100_000, None),
        ({str(i): [i] for i in range(1000)}, None),
    ):
        with pytest.raises(ValueError) as raised:
            checked("rule.src_ips", value, Field(STR, many=tuple))
        message = str(raised.value)
        assert message.startswith("rule.src_ips must be a list, each a string, got ")
        assert len(message) < 200, message
        assert echo is None or message.endswith(f"got {echo}")
