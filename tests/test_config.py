"""Every config document either loads or is rejected with ValueError or
FlowLabError, whatever JSON value stands in for one of its fields."""

from __future__ import annotations

import copy
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowlab import synth
from flowlab.cli import PipelineConfig
from flowlab.errors import FlowLabError
from flowlab.labeling import RuleSet
from flowlab.meter import MeterConfig

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


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([-1, 0, 1, 2, 65535, 65536, 2**53 + 1, 2**64, 1_499_262_180_000_000])
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
    value = data.draw(_JSON)
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    try:
        load(doc)
    except (ValueError, FlowLabError):
        pass
    if isinstance(value, float) and not math.isfinite(value):
        # No field takes an infinite or NaN number; such a value must not load.
        with pytest.raises((ValueError, FlowLabError)):
            load(doc)
