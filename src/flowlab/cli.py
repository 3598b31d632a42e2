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
import tempfile
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING

from . import trace_io
from .errors import FlowLabError, reject_unknown
from .labeling import RuleSet
from .meter import MeterConfig, Trigger, meter as run_meter

if TYPE_CHECKING:
    from .forest import TrainConfig

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EMPTY = 3

_PF_NAME = re.compile(r"pf_(pc|fd|bc)_(\d+)\.csv$")


def _default_train() -> TrainConfig:
    from .forest import TrainConfig

    return TrainConfig()


def _typed(section: str, build):
    """``build()``, with a wrongly typed value reported as a ValueError."""
    try:
        return build()
    except TypeError as exc:
        raise ValueError(f"bad {section} config value: {exc}") from exc


@dataclass(frozen=True)
class PipelineConfig:
    """Aggregated stage settings, echoed into outputs for provenance."""

    meter: MeterConfig = field(default_factory=MeterConfig)
    rules_path: str | None = None
    min_class_count: int = 50
    split_ratio: float = 0.70
    split_seed: int = 0
    train: TrainConfig = field(default_factory=_default_train)
    output_dir: str = "."

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
        from .forest import TrainConfig

        reject_unknown(
            "pipeline",
            data,
            ("meter", "rules_path", "min_class_count", "split", "train", "output_dir"),
        )
        split = data.get("split", {})
        reject_unknown("split", split, ("ratio", "seed"))
        train = data.get("train", {})
        reject_unknown("train", train, [f.name for f in fields(TrainConfig)])
        return cls(
            meter=MeterConfig.from_dict(data.get("meter", {})),
            rules_path=data.get("rules_path"),
            min_class_count=_typed("pipeline", lambda: int(data.get("min_class_count", 50))),
            split_ratio=_typed("split", lambda: float(split.get("ratio", 0.70))),
            split_seed=_typed("split", lambda: int(split.get("seed", 0))),
            train=TrainConfig(**train),
            output_dir=data.get("output_dir", "."),
        )

    @classmethod
    def from_json(cls, path) -> PipelineConfig:
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _atomic(path: str, write_fn) -> None:
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=os.path.basename(path))
    os.close(fd)
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cmd_preprocess(args) -> int:
    trace = trace_io.read_trace(args.input)
    read_count = len(trace)
    deduped = trace_io.dedup(trace, args.dedup_window_us)
    reordered_count = trace_io.out_of_order_count(deduped)
    cleaned = trace_io.reorder(deduped)
    _atomic(args.output, lambda p: trace_io.write_trace(cleaned, p))
    print(f"packets read: {read_count}")
    print(f"skipped: {trace.skipped}")
    print(f"dropped: {read_count - len(deduped)}")
    print(f"reordered: {reordered_count}")
    return EXIT_OK


def cmd_meter(args) -> int:
    from . import dataset as ds_mod

    pipeline = PipelineConfig.from_json(args.pipeline) if args.pipeline else PipelineConfig()
    if args.config:
        config = MeterConfig.from_json(args.config)
    else:
        config = pipeline.meter
    min_class_count = (
        args.min_class_count if args.min_class_count is not None else pipeline.min_class_count
    )
    rules = RuleSet.from_json(args.rules)
    trace = trace_io.reorder(trace_io.read_trace(args.input))
    records, snapshots = run_meter(trace, config)

    os.makedirs(args.out_dir, exist_ok=True)
    cf = ds_mod.build_cf(records, rules, min_class_count=min_class_count)
    _atomic(
        os.path.join(args.out_dir, "cf.csv"), lambda p: ds_mod.write_csv(cf, p)
    )

    cf_summary = ds_mod.distribution(cf)
    dist = {"CF": cf_summary.to_dict()}
    dist_text = ["== CF ==", cf_summary.to_text()] if len(cf) else []
    for trigger, snaps in snapshots.items():
        pf = ds_mod.build_pf(snaps, cf, trigger)
        name = f"pf_{trigger.kind}_{trigger.value}.csv"
        _atomic(
            os.path.join(args.out_dir, name), lambda p, pf=pf: ds_mod.write_csv(pf, p)
        )
        if len(pf):
            summary = ds_mod.distribution(pf)
            dist[str(trigger)] = summary.to_dict()
            dist_text += [f"== {trigger} ==", summary.to_text()]

    report = ds_mod.audit(records, rules, config.idle_timeout_s)
    _atomic(
        os.path.join(args.out_dir, "audit.json"),
        lambda p: _write_json(p, report.to_dict()),
    )
    _atomic(
        os.path.join(args.out_dir, "audit.txt"),
        lambda p: _write_text(p, report.to_text() + "\n"),
    )
    _atomic(
        os.path.join(args.out_dir, "distribution.json"),
        lambda p: _write_json(p, dist),
    )
    _atomic(
        os.path.join(args.out_dir, "distribution.txt"),
        lambda p: _write_text(p, "\n".join(dist_text) + "\n"),
    )
    echo = PipelineConfig(
        meter=config,
        rules_path=str(args.rules),
        min_class_count=min_class_count,
        split_ratio=pipeline.split_ratio,
        split_seed=pipeline.split_seed,
        train=pipeline.train,
        output_dir=str(args.out_dir),
    )
    _atomic(
        os.path.join(args.out_dir, "config.json"),
        lambda p: _write_json(p, echo.to_dict()),
    )
    print(
        f"packets: {len(trace)} (skipped {trace.skipped})  records: {len(records)}  "
        f"snapshots: {sum(map(len, snapshots.values()))}  cf flows: {len(cf)}"
    )
    return EXIT_OK


def _trigger_for_pf_file(path: str, ds) -> Trigger:
    if len(ds):
        try:
            return Trigger.parse(ds.provenance)
        except ValueError:
            raise FlowLabError(
                f"{path}: provenance {ds.provenance!r} is not a trigger such as PC=5"
            ) from None
    match = _PF_NAME.search(os.path.basename(path))
    if not match:
        raise FlowLabError(
            f"{path}: empty dataset and filename does not encode a trigger"
        )
    return Trigger(match.group(1), int(match.group(2)))


def cmd_eval(args) -> int:
    from . import dataset as ds_mod, evaluation

    pipeline = PipelineConfig.from_json(args.pipeline) if args.pipeline else PipelineConfig()
    seed = args.seed if args.seed is not None else pipeline.split_seed
    ratio = args.ratio if args.ratio is not None else pipeline.split_ratio
    trees = args.trees if args.trees is not None else pipeline.train.n_trees

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

    tc = replace(pipeline.train, n_trees=trees, seed=seed)
    split = evaluation.split_keys(cf, ratio, seed)
    report = evaluation.sweep(
        cf, family, tasks=tasks, tc=tc, split=split, kinds=kinds, n_jobs=args.jobs
    )

    os.makedirs(args.out_dir, exist_ok=True)
    _atomic(
        os.path.join(args.out_dir, "results.csv"),
        lambda p: _write_text(p, report.to_csv_text()),
    )
    _atomic(
        os.path.join(args.out_dir, "summary.txt"),
        lambda p: _write_text(p, report.to_text() + "\n"),
    )
    _atomic(
        os.path.join(args.out_dir, "eval_config.json"),
        lambda p: _write_json(
            p,
            {
                "split": {"ratio": ratio, "seed": seed},
                "train": tc.to_dict(),
                "tasks": list(tasks),
                "scenarios": list(kinds),
            },
        ),
    )
    print(report.to_text())
    if all(row.skipped_reason for row in report.rows):
        print("every cell was skipped", file=sys.stderr)
        return EXIT_EMPTY
    return EXIT_OK


def cmd_synth(args) -> int:
    from . import synth

    spec = synth.SynthSpec.from_json(args.spec)
    trace, truth = synth.synth_trace(spec, args.seed)
    _atomic(args.output, lambda p: trace_io.write_trace(trace, p))
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
    _atomic(args.truth, lambda p: _write_json(p, doc))
    if args.rules_out:
        rules = synth.derive_rules(spec)
        rules_doc = {
            "default_label": rules.default_label,
            "rules": [
                {
                    "label": r.label,
                    "src_ips": [str(n) for n in r.src_ips],
                    "protocol": r.protocol,
                }
                for r in rules.rules
            ],
        }
        _atomic(args.rules_out, lambda p: _write_json(p, rules_doc))
    print(f"packets: {len(trace)}  flows: {len(truth)}")
    return EXIT_OK


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(path: str, data: dict) -> None:
    """Write a JSON report with stable key order."""
    _write_text(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


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
    p.add_argument("--jobs", type=int, default=1, help="parallel tree training")
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
