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


def _config_tables(text: str) -> dict[str, dict[str, tuple[str, str]]]:
    """Each README table headed ``| `section` field | ...``: field -> (type, default)."""
    tables = {}
    for section, body in re.findall(
        r"^\| `(\w+)` field \| type and bounds \| default \|\n\|---\|---\|---\|\n((?:\|.*\n)+)",
        text,
        flags=re.M,
    ):
        rows = [line.strip("| ").split(" | ") for line in body.splitlines()]
        tables[section] = {name.strip("`"): (kind, default) for name, kind, default in rows}
    return tables


def test_config_tables_match_the_field_check():
    from flowlab.cli import PipelineConfig
    from flowlab.errors import ANY
    from flowlab.forest import TrainConfig
    from flowlab.labeling import LabelRule, RuleSet
    from flowlab.meter import MeterConfig
    from flowlab.synth import FlowTemplate, SynthSpec

    checked = {
        "pipeline": PipelineConfig.FIELDS,
        "split": PipelineConfig.SPLIT_FIELDS,
        "train": TrainConfig.FIELDS,
        "meter": MeterConfig.FIELDS,
        "rules": RuleSet.FIELDS,
        "rule": LabelRule.FIELDS,
        "spec": SynthSpec.FIELDS,
        "shared": SynthSpec.SHARED_FIELDS,
        "template": FlowTemplate.FIELDS,
        "tcp": FlowTemplate.TCP_FIELDS,
    }
    documented = _config_tables(README.read_text(encoding="utf-8"))
    assert documented.keys() == checked.keys()
    for section, table in checked.items():
        rows = documented[section]
        assert list(rows) == list(table), section
        for name, field in table.items():
            kind, default = rows[name]
            where = f"{section}.{name}"
            assert (default == "required") == field.required, where
            if field.kind != ANY:
                # The type column is what the check says in its errors, plus a note.
                assert kind == field.describe() or kind.startswith(field.describe() + "; "), where
