"""Command-line pipeline with file-based stage boundaries.

Subcommands: ``preprocess`` (dedup + reorder a pcap), ``meter`` (pcap to
labeled CF/PF datasets plus audit and distribution reports), ``eval``
(scenario sweep over CF/PF CSVs), and ``synth`` (generate a synthetic pcap
with ground truth). Exit codes: 0 ok, 2 input/config error, 3 empty result.
"""

from __future__ import annotations

import argparse
import glob as globmod
import json
import os
import re
import sys
from dataclasses import dataclass, field, replace

from . import trace_io
from .errors import ANY, INT, NUMBER, STR, Field, FlowLabError, JsonDocument, TrainConfig
from .errors import check, keep, replacing
from .labeling import BENIGN, RuleSet
from .meter import MeterConfig, Trigger, meter as run_meter

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EMPTY = 3

_PF_NAME = re.compile(r"pf_(pc|fd|bc)_(\d+)\.csv$")


@dataclass(frozen=True)
class PipelineConfig(JsonDocument):
    """Stage settings, echoed into outputs; ``rules_path``/``output_dir`` record the meter run."""

    meter: MeterConfig = field(default_factory=MeterConfig)
    rules_path: str | None = None
    min_class_count: int = 50
    split_ratio: float = 0.70
    split_seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)
    output_dir: str | None = None

    FIELDS = {
        "meter": Field(ANY),
        "rules_path": Field(STR, also=(None,)),
        "min_class_count": Field(INT, "[0, inf)"),
        "split": Field(ANY),
        "train": Field(ANY),
        "output_dir": Field(STR, also=(None,)),
    }
    SPLIT_FIELDS = {"ratio": Field(NUMBER, "(0, 1)"), "seed": Field(INT, "[0, inf)")}

    def __post_init__(self) -> None:
        keep(self, check("pipeline", self, self.FIELDS))
        split = {"ratio": self.split_ratio, "seed": self.split_seed}
        split = check("split", split, self.SPLIT_FIELDS)
        keep(self, {"split_ratio": split["ratio"], "split_seed": split["seed"]})

    def to_dict(self) -> dict:
        return {
            "meter": self.meter.to_dict(),
            "rules_path": self.rules_path,
            "min_class_count": self.min_class_count,
            "split": {"ratio": self.split_ratio, "seed": self.split_seed},
            "train": self.train.to_dict(),
            "output_dir": self.output_dir,
        }

    @classmethod
    def from_dict(cls, data: dict) -> PipelineConfig:
        values = check("pipeline", data, cls.FIELDS)
        split = check("split", values.pop("split", {}), cls.SPLIT_FIELDS)
        # One seed drives the split and training, as ``flowlab eval --seed`` does.
        seed = split.get("seed", 0)
        train = check("train", values.pop("train", {}), TrainConfig.FIELDS)
        tc = TrainConfig(**{"seed": seed, **train})
        if tc.seed != seed:
            raise ValueError(f"train seed {tc.seed} differs from split seed {seed}")
        return cls(
            meter=MeterConfig.from_dict(values.pop("meter", {})),
            split_ratio=split.get("ratio", 0.70),
            split_seed=seed,
            train=tc,
            **values,
        )


def cmd_preprocess(args) -> int:
    # One name for the trace at each step, so that each step's input is
    # dropped once its output is made; only the counts are kept.
    trace = trace_io.read_trace(args.input)
    read_count, skipped = len(trace), trace.skipped
    trace = trace_io.dedup(trace, args.dedup_window_us)
    kept = len(trace)
    reordered_count = trace_io.out_of_order_count(trace)
    trace = trace_io.reorder(trace)
    trace_io.write_trace(trace, args.output)
    print(f"packets read: {read_count}")
    print(f"skipped: {skipped}")
    print(f"dropped: {read_count - kept}")
    print(f"reordered: {reordered_count}")
    return EXIT_OK


def cmd_meter(args) -> int:
    from . import dataset as ds_mod

    pipeline = PipelineConfig.from_json(args.pipeline) if args.pipeline else PipelineConfig()
    for name, arg in (("rules_path", str(args.rules)), ("output_dir", str(args.out_dir))):
        recorded = getattr(pipeline, name)
        if recorded is not None and os.path.abspath(recorded) != os.path.abspath(arg):
            raise FlowLabError(f"pipeline {name} {recorded!r} differs from the argument {arg!r}")
    echo = replace(
        pipeline,
        meter=MeterConfig.from_json(args.config) if args.config else pipeline.meter,
        rules_path=str(args.rules),
        min_class_count=(
            args.min_class_count if args.min_class_count is not None else pipeline.min_class_count
        ),
        output_dir=str(args.out_dir),
    )
    rules = RuleSet.from_json(args.rules)
    trace = trace_io.reorder(trace_io.read_trace(args.input, keep_bytes=False))
    records, snapshots = run_meter(trace, echo.meter)
    labels = [ds_mod.label_flow(r, rules) for r in records]

    os.makedirs(args.out_dir, exist_ok=True)
    cf = ds_mod.build_cf(records, labels, min_class_count=echo.min_class_count)
    ds_mod.write_csv(cf, os.path.join(args.out_dir, "cf.csv"))

    cf_summary = ds_mod.distribution(cf)
    dist = {"CF": cf_summary.to_dict()}
    dist_text = ["== CF ==", cf_summary.to_text()] if len(cf) else []
    for trigger, snaps in snapshots.items():
        pf = ds_mod.build_pf(snaps, cf, trigger)
        name = f"pf_{trigger.kind}_{trigger.value}.csv"
        ds_mod.write_csv(pf, os.path.join(args.out_dir, name))
        if len(pf):
            summary = ds_mod.distribution(pf)
            dist[str(trigger)] = summary.to_dict()
            dist_text += [f"== {trigger} ==", summary.to_text()]

    report = ds_mod.audit(records, labels, echo.meter.idle_timeout_s)
    for name, text in (
        ("audit.json", _json(report.to_dict())),
        ("audit.txt", report.to_text() + "\n"),
        ("distribution.json", _json(dist)),
        ("distribution.txt", "\n".join(dist_text) + "\n"),
        ("config.json", _json(echo.to_dict())),
    ):
        _save(os.path.join(args.out_dir, name), text)
    print(
        f"packets: {len(trace)} (skipped {trace.skipped})  records: {len(records)}  "
        f"snapshots: {sum(map(len, snapshots.values()))}  cf flows: {len(cf)}"
    )
    return EXIT_OK


def _trigger_for_pf_file(path: str, ds) -> Trigger:
    if len(ds):
        text, problem = ds.provenance, f"provenance {ds.provenance!r} is not a trigger such as PC=5"
    else:
        match = _PF_NAME.search(os.path.basename(path))
        text = f"{match[1]}={match[2]}" if match else ""
        problem = "empty dataset and filename does not encode a trigger such as pf_pc_5.csv"
    try:
        return Trigger.parse(text)
    except ValueError:
        raise FlowLabError(f"{path}: {problem}") from None


def cmd_eval(args) -> int:
    from . import dataset as ds_mod, evaluation

    pipeline = PipelineConfig.from_json(args.pipeline) if args.pipeline else PipelineConfig()
    # Through the config's own checks, so that a bad flag names its field.
    flags = {"split_seed": args.seed, "split_ratio": args.ratio}
    pipeline = replace(pipeline, **{k: v for k, v in flags.items() if v is not None})
    trees = pipeline.train.n_trees if args.trees is None else args.trees
    tc = replace(pipeline.train, n_trees=trees, seed=pipeline.split_seed)

    cf = ds_mod.read_csv(args.cf)
    if cf.provenance != ds_mod.CF_PROVENANCE:
        raise FlowLabError(f"{args.cf}: provenance is {cf.provenance!r}, expected CF")

    paths: list[str] = []
    for pattern in args.pf:
        expanded = sorted(globmod.glob(pattern))
        paths.extend(expanded if expanded else [pattern])
    family: dict[Trigger, object] = {}
    for path in paths:
        pf = ds_mod.read_csv(path)
        trigger = _trigger_for_pf_file(path, pf)
        if trigger in family:
            raise FlowLabError(f"duplicate partial-flow dataset for {trigger}")
        family[trigger] = pf

    tasks = {
        "binary": (evaluation.BINARY,),
        "multi": (evaluation.MULTICLASS,),
        "both": (evaluation.BINARY, evaluation.MULTICLASS),
    }[args.task]
    kinds = (
        evaluation.SCENARIO_KINDS
        if args.scenario == "all"
        else tuple(args.scenario.split(","))
    )

    split = evaluation.split_keys(cf, pipeline.split_ratio, pipeline.split_seed)
    report = evaluation.sweep(cf, family, tasks=tasks, tc=tc, split=split, kinds=kinds)

    eval_config = {
        "split": {"ratio": pipeline.split_ratio, "seed": pipeline.split_seed},
        "train": tc.to_dict(),
        "tasks": list(tasks),
        "scenarios": list(kinds),
    }
    os.makedirs(args.out_dir, exist_ok=True)
    for name, text in (
        ("results.csv", report.to_csv_text()),
        ("summary.txt", report.to_text() + "\n"),
        ("eval_config.json", _json(eval_config)),
    ):
        _save(os.path.join(args.out_dir, name), text)
    print(report.to_text())
    if all(row.skipped_reason for row in report.rows):
        print("every cell was skipped", file=sys.stderr)
        return EXIT_EMPTY
    return EXIT_OK


def cmd_synth(args) -> int:
    from . import synth

    spec = synth.SynthSpec.from_json(args.spec)
    trace, truth = synth.synth_trace(spec, args.seed)
    trace_io.write_trace(trace, args.output)
    doc = {
        "name": spec.name,
        "seed": args.seed,
        "flows": [
            {
                "hash64": fid.hash64,
                "label": label,
                "start_us": fid.start_us,
                "endpoint_a": list(fid.key.endpoint_a),
                "endpoint_b": list(fid.key.endpoint_b),
                "protocol": fid.key.protocol,
            }
            for fid, label in truth
        ],
    }
    _save(args.truth, _json(doc))
    if args.rules_out:
        rules = synth.derive_rules(spec)
        rules_doc = {
            "default_label": BENIGN,
            "rules": [
                {
                    "label": r.label,
                    "src_ips": [str(n) for n in r.src_ips],
                    "protocol": r.protocol,
                }
                for r in rules.rules
            ],
        }
        _save(args.rules_out, _json(rules_doc))
    print(f"packets: {len(trace)}  flows: {len(truth)}")
    return EXIT_OK


def _save(path: str, text: str) -> None:
    with replacing(path, encoding="utf-8") as fh:
        fh.write(text)


def _json(data: dict) -> str:
    """A JSON report with stable key order."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowlab",
        description="Flow metering and early-detection evaluation pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "preprocess", help="dedup and reorder a pcap before metering"
    )
    p.add_argument("input", help="input pcap")
    p.add_argument("output", help="cleaned output pcap")
    p.add_argument(
        "--dedup-window-us",
        type=int,
        default=10_000,
        help="drop packets identical to one seen at most this many microseconds earlier",
    )
    p.set_defaults(handler=cmd_preprocess)

    p = sub.add_parser(
        "meter", help="meter a pcap into labeled CF/PF datasets and reports"
    )
    p.add_argument("input", help="input pcap (reordered automatically)")
    p.add_argument("rules", help="labeling rules JSON")
    p.add_argument("out_dir", help="output directory")
    p.add_argument("--config", help="meter config JSON (timeouts, triggers)")
    p.add_argument(
        "--min-class-count",
        type=int,
        default=None,
        help="drop classes with fewer complete flows than this (default 50)",
    )
    p.add_argument("--pipeline", help="pipeline config JSON supplying defaults")
    p.set_defaults(handler=cmd_meter)

    p = sub.add_parser("eval", help="run the scenario sweep over CF/PF CSVs")
    p.add_argument("cf", help="complete-flow CSV")
    p.add_argument("pf", nargs="+", help="partial-flow CSVs (globs allowed)")
    p.add_argument("out_dir", help="output directory")
    p.add_argument("--task", choices=("binary", "multi", "both"), default="both")
    p.add_argument(
        "--scenario",
        default="all",
        help='"all" or comma-separated subset of CF_CF,PF_PF,CF_PF',
    )
    p.add_argument("--seed", type=int, default=None, help="split and training seed (default 0)")
    p.add_argument("--ratio", type=float, default=None, help="train fraction (default 0.70)")
    p.add_argument("--trees", type=int, default=None, help="trees per forest (default 100)")
    p.add_argument("--pipeline", help="pipeline config JSON supplying defaults")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic pcap with ground truth")
    p.add_argument("spec", help="corpus spec JSON")
    p.add_argument("seed", type=int, help="generation seed")
    p.add_argument("output", help="output pcap")
    p.add_argument("truth", help="ground-truth JSON output")
    p.add_argument("--rules-out", help="also write a matching rules JSON")
    p.set_defaults(handler=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FlowLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
