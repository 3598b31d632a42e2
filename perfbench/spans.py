"""Per-layer metrics from the spans of one traced pipeline run.

``LAYERS`` names every per-layer metric with its unit and the end-to-end
metric it should move, on which workload. Totals are summed over all the
calls in the three stages, unless the name says otherwise.
"""

from __future__ import annotations

STAGES = ("preprocess", "meter", "eval")

_INGEST = "preprocess_s, meter_s, packets_per_s, *_rss_mb on ingest-dup; small on snapshot-sweep"
_DENSE = "meter_s on snapshot-sweep"
_EVAL = "eval_s on snapshot-sweep; none on ingest-dup"

# (name, unit, which end-to-end metric it should move, on which workload)
LAYERS = (
    ("trace_io.read_trace.s", "s", _INGEST),
    ("trace_io.read_trace.packets", "count", _INGEST),
    ("trace_io.read_trace.skipped", "count", _INGEST),
    ("trace_io.dedup.s", "s", _INGEST),
    ("trace_io.dedup.dropped", "count", _INGEST),
    ("trace_io.out_of_order_count.s", "s", _INGEST),
    ("trace_io.reorder.s", "s", _INGEST),
    ("trace_io.write_trace.s", "s", _INGEST),
    ("meter.meter.s", "s", "meter_s on every workload"),
    ("meter.meter.packets", "count", "base measurement"),
    ("meter.meter.records", "count", "base measurement"),
    ("meter.meter.snapshots", "count", "base measurement"),
    ("meter.snapshots_per_packet", "ratio", "base measurement"),
    ("meter.packet_path_s", "s", "meter_s on ingest-dup"),
    ("meter.snapshot_export_s", "s", "meter_s, meter_rss_mb on snapshot-sweep; none on ingest-dup"),
    ("labeling.label_flow.calls", "count", "meter_s on ingest-dup"),
    ("labeling.label_flow.s", "s", "meter_s on ingest-dup"),
    ("labeling.calls_per_record", "ratio", "meter_s on ingest-dup"),
    ("dataset.write_csv.calls", "count", _DENSE),
    ("dataset.write_csv.rows", "count", _DENSE),
    ("dataset.write_csv.bytes", "B", _DENSE),
    ("dataset.write_csv.s", "s", _DENSE),
    ("dataset.read_csv.calls", "count", _DENSE + " and eval_s there"),
    ("dataset.read_csv.rows", "count", _DENSE + " and eval_s there"),
    ("dataset.read_csv.s", "s", _DENSE + " and eval_s there"),
    ("dataset.read_csv.meter_stage_calls", "count", _DENSE),
    ("dataset.pf_files_nonempty", "count", "base measurement"),
    ("dataset.read_back_ratio", "ratio", _DENSE),
    ("dataset.build_pf.calls", "count", _DENSE),
    ("dataset.build_pf.s", "s", _DENSE),
    ("dataset.build_cf.rows_in", "count", _DENSE),
    ("dataset.build_cf.rows_out", "count", _DENSE),
    ("dataset.build_cf.s", "s", _DENSE),
    ("dataset.audit.s", "s", _DENSE),
    ("dataset.distribution.s", "s", _DENSE),
    ("dataset.align.s", "s", _DENSE),
    ("forest.train.calls", "count", _EVAL),
    ("forest.train.rows", "count", _EVAL),
    ("forest.train.s", "s", _EVAL),
    ("forest.predict_matrix.rows", "count", _EVAL),
    ("forest.predict_matrix.s", "s", _EVAL),
    ("forest.dataset_matrix.s", "s", _EVAL),
    ("evaluation.sweep.s", "s", _EVAL),
    ("evaluation.sweep.self_s", "s", _EVAL),
    ("evaluation.cells", "count", _EVAL),
    ("evaluation.cells_skipped", "count", _EVAL),
    ("evaluation.trains_per_cell", "ratio", _EVAL),
    ("evaluation.split_keys.s", "s", _EVAL),
    ("evaluation.compute_metrics.s", "s", _EVAL),
) + tuple(
    (f"cli.{stage}.{quantity}", "s", f"{stage}_s on every workload")
    for stage in STAGES
    for quantity in ("self_s", "tracing_overhead_s")
) + (
    ("cli.import.s", "s", "the floor under every stage's *_s, on every workload"),
    ("cli.import.rss_mb", "MB", "the floor under every stage's *_rss_mb, on every workload"),
)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def _self_seconds(span, spans) -> float:
    children = [(s[3], s[4]) for s in spans if s[1] == span[0]]
    return span[4] - span[3] - _covered(children)


class _Totals(dict):
    """name -> {"calls", "s", and every count the spans carry, summed}."""

    def add(self, spans) -> None:
        for span in spans:
            t = self.setdefault(span[2], {"calls": 0, "s": 0.0})
            t["calls"] += 1
            t["s"] += span[4] - span[3]
            for key, value in (span[5] or {}).items():
                t[key] = t.get(key, 0) + value

    def get_q(self, name: str, quantity: str):
        return self.get(name, {}).get(quantity, 0)


def layer_metrics(
    stage_spans: dict[str, list],
    traced_wall: dict[str, float],
    untraced_wall: dict[str, float],
    packet_path_s: float,
    pf_files_nonempty: int,
    import_only: tuple[float, float],
) -> dict[str, float]:
    """Every metric in LAYERS for one traced pipeline run.

    ``stage_spans`` maps each stage to its spans, ``traced_wall`` and
    ``untraced_wall`` map it to the wall time of a traced and an untraced
    process running it on the same input. ``packet_path_s`` is the meter's
    time on the same trace with no triggers, ``import_only`` the wall time
    and peak RSS of a process that only imports the CLI.
    """
    total = _Totals()
    for spans in stage_spans.values():
        total.add(spans)
    meter_stage = _Totals()
    meter_stage.add(stage_spans["meter"])
    q = total.get_q

    records = q("meter.meter", "records")
    cells = q("evaluation.sweep", "cells")
    sweep_spans = [s for s in stage_spans["eval"] if s[2] == "evaluation.sweep"]
    values = {
        "meter.snapshots_per_packet": q("meter.meter", "snapshots") / max(q("meter.meter", "packets"), 1),
        "meter.packet_path_s": packet_path_s,
        "meter.snapshot_export_s": q("meter.meter", "s") - packet_path_s,
        "labeling.calls_per_record": q("labeling.label_flow", "calls") / max(records, 1),
        "dataset.read_csv.meter_stage_calls": meter_stage.get_q("dataset.read_csv", "calls"),
        "dataset.pf_files_nonempty": pf_files_nonempty,
        "dataset.read_back_ratio": meter_stage.get_q("dataset.read_csv", "rows")
        / max(meter_stage.get_q("dataset.write_csv", "rows"), 1),
        "evaluation.sweep.self_s": sum(_self_seconds(s, stage_spans["eval"]) for s in sweep_spans),
        "evaluation.cells": cells,
        "evaluation.cells_skipped": q("evaluation.sweep", "cells_skipped"),
        "evaluation.trains_per_cell": q("forest.train", "calls") / max(cells, 1),
        "cli.import.s": import_only[0],
        "cli.import.rss_mb": import_only[1],
    }
    for stage in STAGES:
        top = [(s[3], s[4]) for s in stage_spans[stage] if s[1] is None]
        values[f"cli.{stage}.self_s"] = traced_wall[stage] - _covered(top)
        values[f"cli.{stage}.tracing_overhead_s"] = traced_wall[stage] - untraced_wall[stage]
    # Every other metric is a span total: "<module>.<function>.<quantity>".
    return {
        name: values[name] if name in values else q(*name.rsplit(".", 1))
        for name, _, _ in LAYERS
    }
