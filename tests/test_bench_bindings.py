"""The benchmark's tracer wraps flowlab functions by module attribute.

``perfbench/tracer.py`` replaces each attribute in its ``WRAPPED`` table
with a timing wrapper. A renamed or removed function would only show as a
failed traced benchmark run, and a caller that binds a function where the
tracer does not look (say, ``cmd_meter`` importing ``meter`` under its own
name, or a module-level ``from .dataset import build_cf`` in ``cli``) as a
silently thinner one, so both are checked here.

Every benchmark set-up also runs ``perfbench/setup_corpus.py``'s
``reference_check``, which imports ``tests/reference.py``; a name that file
imports from flowlab and that is gone would fail every benchmark run at
set-up, so that check runs here too.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from flowlab import cli
from flowlab.synth import SynthSpec, synth_trace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
METER_CONFIG = {"pc_triggers": [3], "fd_triggers_ms": []}

SPEC = {
    "name": "traced",
    "templates": [
        {
            "label": label,
            "flows": 12,
            "packets": [5, 8],
            "payload": payload,
            "iat_us": [1000, 5000],
            "client_ips": [client],
            "server_ips": ["192.168.7.1"],
            "server_ports": [80],
            "protocol": 17,
            "start_us": [0, 1000000],
        }
        for label, payload, client in (
            ("BENIGN", [40, 200], "10.1.0.0/24"),
            ("ATTACK", [600, 900], "10.2.0.0/24"),
        )
    ],
}


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load("perfbench_tracer", TRACER)


def test_setup_reference_check_passes(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # setup_corpus imports workloads
    setup = _load("perfbench_setup_corpus", PERFBENCH / "setup_corpus.py")
    trace, _ = synth_trace(SynthSpec.from_dict(SPEC), 5)
    assert len(trace.packets) > 100
    assert setup.reference_check(trace, METER_CONFIG) == ""


def test_every_wrapped_attribute_is_callable():
    tracer = _load_tracer()
    assert tracer.WRAPPED
    missing = [
        f"{module.__name__}.{attr}"
        for _, module, attr, _ in tracer.WRAPPED
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_traced_stages_record_every_layer(tmp_path, monkeypatch):
    (tmp_path / "spec.json").write_text(json.dumps(SPEC))
    (tmp_path / "meter.json").write_text(json.dumps(METER_CONFIG))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synth", "spec.json", "5", "raw.pcap", "truth.json",
                     "--rules-out", "rules.json"]) == 0

    module = _load_tracer()
    tracer = module.Tracer()
    for name, owner, attr, counts in module.WRAPPED:
        monkeypatch.setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), counts))

    stages = {
        "preprocess": (
            ["preprocess", "raw.pcap", "clean.pcap"],
            {"trace_io.read_trace", "trace_io.dedup"},
        ),
        "meter": (
            ["meter", "clean.pcap", "rules.json", "out", "--config", "meter.json",
             "--min-class-count", "5"],
            {"meter.meter", "labeling.label_flow", "dataset.build_cf", "dataset.build_pf",
             "dataset.write_csv"},
        ),
        "eval": (
            ["eval", "out/cf.csv", "out/pf_pc_3.csv", "results", "--task", "binary",
             "--trees", "2"],
            {"dataset.read_csv", "evaluation.sweep", "forest.train"},
        ),
    }
    for stage, (argv, expected) in stages.items():
        tracer.spans.clear()
        assert cli.main(argv) == 0, stage
        recorded = {span[2] for span in tracer.spans}
        assert expected <= recorded, (stage, sorted(expected - recorded))


def test_traced_meter_counts_one_write_per_file_and_one_build_per_trigger(
    tmp_path, monkeypatch
):
    # With the default triggers the meter stage writes cf.csv and 31 PF
    # files; each write_csv span must count the rows and bytes of its file.
    (tmp_path / "spec.json").write_text(json.dumps(SPEC))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synth", "spec.json", "5", "raw.pcap", "truth.json",
                     "--rules-out", "rules.json"]) == 0
    module = _load_tracer()
    tracer = module.Tracer()
    for name, owner, attr, counts in module.WRAPPED:
        monkeypatch.setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), counts))
    assert cli.main(["meter", "raw.pcap", "rules.json", "out", "--min-class-count", "5"]) == 0

    def calls(name):
        return [span[5] for span in tracer.spans if span[2] == name]

    files = sorted((tmp_path / "out").glob("*.csv"))
    assert len(files) == 32
    written = [(len(f.read_text().splitlines()) - 1, f.stat().st_size) for f in files]
    assert sum(rows for rows, _ in written) > len(files)
    assert sorted((c["rows"], c["bytes"]) for c in calls("dataset.write_csv")) == sorted(written)
    assert len(calls("dataset.build_pf")) == 31
