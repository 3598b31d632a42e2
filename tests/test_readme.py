"""The README's library example runs as written."""

from __future__ import annotations

import json
import re
from pathlib import Path

from flowlab import cli

from conftest import corpus_path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.S | re.M)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    (example,) = _python_blocks(README.read_text(encoding="utf-8"))
    # The early-divergence corpus, cut to 60 flows per class: above the
    # example's min_class_count of 50, small enough to train in seconds.
    spec = json.loads(corpus_path("early_divergence").read_text(encoding="utf-8"))
    for template in spec["templates"]:
        template["flows"] = 60
    monkeypatch.chdir(tmp_path)
    Path("spec.json").write_text(json.dumps(spec))
    argv = ["synth", "spec.json", "7", "traffic.pcap", "truth.json", "--rules-out", "rules.json"]
    assert cli.main(argv) == 0
    assert cli.main(["preprocess", "traffic.pcap", "clean.pcap"]) == 0
    capsys.readouterr()

    exec(compile(example, str(README), "exec"), {"__name__": "readme_example"})

    threshold, scenario, *scores = capsys.readouterr().out.split()
    assert (threshold, scenario) == ("PC=5", "CF_PF")
    assert all(0.0 <= float(v) <= 1.0 for v in scores) and len(scores) == 3
