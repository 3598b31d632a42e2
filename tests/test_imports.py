"""Each CLI stage loads only the modules it runs.

``import flowlab``, ``flowlab preprocess`` and ``flowlab meter`` must not
load numpy or the numpy-backed modules; their public names resolve on first
use. ``flowlab eval`` loads numpy but never ``flowlab.synth``.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import flowlab
from flowlab import cli
from flowlab.trace_io import write_trace

from conftest import random_trace

SRC = Path(__file__).resolve().parent.parent / "src"
NUMPY_BACKED = ("numpy", "flowlab.forest", "flowlab.evaluation", "flowlab.synth")
MODULES = ("errors", "trace_io", "meter", "labeling", "dataset", "evaluation", "forest", "synth")


def _imported(*args: str, cwd=None) -> set[str]:
    """Modules a fresh ``python -X importtime <args>`` imports; it must exit 0."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def test_import_flowlab_leaves_numpy_unloaded():
    loaded = _imported(
        "-c",
        "import sys, flowlab; "
        "assert flowlab.meter is sys.modules['flowlab.meter'].meter, flowlab.meter",
    )
    assert "flowlab.meter" in loaded
    assert loaded.isdisjoint(NUMPY_BACKED), sorted(loaded & set(NUMPY_BACKED))


def test_preprocess_runs_without_numpy(tmp_path):
    write_trace(random_trace(np.random.default_rng(2), 50), tmp_path / "in.pcap")
    loaded = _imported("-m", "flowlab.cli", "preprocess", "in.pcap", "out.pcap", cwd=tmp_path)
    assert "flowlab.trace_io" in loaded
    assert loaded.isdisjoint(NUMPY_BACKED), sorted(loaded & set(NUMPY_BACKED))
    assert (tmp_path / "out.pcap").exists()


# Two classes of 12 flows: with --min-class-count 5 the meter writes a
# non-empty cf.csv and PF files, and summarises each, with the default
# triggers.
_SPEC = {
    "name": "imports",
    "templates": [
        {
            "label": label,
            "flows": 12,
            "packets": [5, 25],
            "payload": payload,
            "iat_us": [1000, 5000],
            "client_ips": [client],
            "server_ips": ["192.168.7.1"],
            "server_ports": [80],
            "protocol": 6,
            "start_us": [0, 1000000],
        }
        for label, payload, client in (
            ("BENIGN", [40, 200], "10.1.0.0/24"),
            ("ATTACK", [600, 900], "10.2.0.0/24"),
        )
    ],
}
_METER = ("meter", "in.pcap", "rules.json", "out", "--min-class-count", "5")


def _synthesize(tmp_path, monkeypatch) -> None:
    """Write ``_SPEC``'s pcap and rules into ``tmp_path``, the working directory."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps(_SPEC))
    argv = ["synth", "spec.json", "5", "in.pcap", "truth.json", "--rules-out", "rules.json"]
    assert cli.main(argv) == 0


def test_meter_runs_without_numpy(tmp_path, monkeypatch):
    _synthesize(tmp_path, monkeypatch)
    loaded = _imported("-m", "flowlab.cli", *_METER, cwd=tmp_path)
    assert "flowlab.dataset" in loaded
    assert loaded.isdisjoint(NUMPY_BACKED), sorted(loaded & set(NUMPY_BACKED))
    assert len(list((tmp_path / "out").glob("pf_*.csv"))) == 31
    distribution = json.loads((tmp_path / "out" / "distribution.json").read_text())
    assert {"CF", "PC=2"} <= distribution.keys()


def test_eval_never_loads_synth(tmp_path, monkeypatch):
    # eval loads numpy, and with it nothing that only synth runs.
    _synthesize(tmp_path, monkeypatch)
    assert cli.main(list(_METER)) == 0
    eval_args = ("eval", "out/cf.csv", "out/pf_pc_3.csv", "res", "--trees", "2")
    loaded = _imported("-m", "flowlab.cli", *eval_args, cwd=tmp_path)
    assert {"numpy", "flowlab.forest", "flowlab.evaluation"} <= loaded
    assert "flowlab.synth" not in loaded
    assert (tmp_path / "res" / "results.csv").exists()


def test_every_public_name_is_its_defining_modules_object():
    namespace: dict = {}
    exec("from flowlab import *", namespace)
    assert callable(flowlab.meter) and flowlab.meter.__name__ == "meter"
    assert set(flowlab.__all__) <= set(dir(flowlab))
    modules = [importlib.import_module(f"flowlab.{name}") for name in MODULES]
    for name in flowlab.__all__:
        holders = [vars(m)[name] for m in modules if name in vars(m)]
        assert holders, name
        for value in (getattr(flowlab, name), namespace[name], *holders):
            assert value is holders[0], name
