"""Run one flowlab CLI stage with spans around the calls into each layer.

The wrappers replace module attributes from outside, each where its caller
looks the function up, so ``src/`` stays untouched::

    python3 perfbench/tracer.py <spans.json> <run_id> <flowlab cli args...>

Spans are kept in memory and written to ``spans.json`` when the stage ends.
In the meter stage, once the CLI has returned, the tracer meters the same
in-memory trace again with every snapshot trigger removed, and saves that
time as ``packet_path_s``: the meter's packet path alone, timed in the same
process as the traced call. The parent subtracts it from the stage's wall
time.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import replace

import flowlab.cli as cli
from flowlab import dataset, evaluation, forest, trace_io
from flowlab.meter import meter


def _evaluation_cells(a, k, r):
    return {"cells": len(r.rows), "cells_skipped": sum(bool(row.skipped_reason) for row in r.rows)}


# (span name, module holding the binding the caller uses, attribute, counts)
# where counts(args, kwargs, result) returns the work done by the call.
WRAPPED = (
    ("trace_io.read_trace", trace_io, "read_trace",
     lambda a, k, r: {"packets": len(r), "skipped": r.skipped}),
    ("trace_io.dedup", trace_io, "dedup", lambda a, k, r: {"dropped": len(a[0]) - len(r)}),
    ("trace_io.out_of_order_count", trace_io, "out_of_order_count", None),
    ("trace_io.reorder", trace_io, "reorder", None),
    ("trace_io.write_trace", trace_io, "write_trace", None),
    ("meter.meter", cli, "run_meter",
     lambda a, k, r: {"packets": len(a[0]), "records": len(r[0]), "snapshots": len(r[1])}),
    ("labeling.label_flow", dataset, "label_flow", None),
    ("dataset.build_cf", dataset, "build_cf",
     lambda a, k, r: {"rows_in": len(a[0]), "rows_out": len(r)}),
    ("dataset.build_pf", dataset, "build_pf", None),
    ("dataset.write_csv", dataset, "write_csv",
     lambda a, k, r: {"rows": len(a[0]), "bytes": os.path.getsize(a[1])}),
    ("dataset.read_csv", dataset, "read_csv", lambda a, k, r: {"rows": len(r)}),
    ("dataset.audit", dataset, "audit", None),
    ("dataset.distribution", dataset, "distribution", None),
    ("dataset.align", evaluation, "align", None),
    ("evaluation.split_keys", evaluation, "split_keys", None),
    ("evaluation.sweep", evaluation, "sweep", _evaluation_cells),
    ("evaluation.compute_metrics", evaluation, "compute_metrics", None),
    ("forest.train", evaluation, "train", lambda a, k, r: {"rows": len(a[0])}),
    ("forest.predict_matrix", evaluation, "predict_matrix", lambda a, k, r: {"rows": a[1].shape[0]}),
    ("forest.dataset_matrix", evaluation, "dataset_matrix", None),
    ("forest.dataset_matrix", forest, "dataset_matrix", None),
)


class Tracer:
    """In-memory spans: [id, parent id or None, name, start, end, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.meter_args: tuple = ()  # (trace, config) of the last meter call

    def wrap(self, name: str, fn, counts):
        def traced(*args, **kwargs):
            span = [len(self.spans), self._stack[-1] if self._stack else None, name, 0.0, 0.0, None]
            self.spans.append(span)
            self._stack.append(span[0])
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span[5] = counts(args, kwargs, result)
            if name == "meter.meter":
                self.meter_args = args
            return result

        return traced

    def install(self) -> None:
        for name, module, attr, counts in WRAPPED:
            setattr(module, attr, self.wrap(name, getattr(module, attr), counts))


def packet_path_seconds(trace, config) -> float:
    """Seconds the meter takes on ``trace`` with no snapshot triggers."""
    config = replace(config, pc_triggers=(), fd_triggers_ms=(), byte_triggers=())
    t0 = time.perf_counter()
    meter(trace, config)
    return time.perf_counter() - t0


def main(argv: list[str]) -> int:
    out, run_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    code = cli.main(cli_args)
    doc = {"run_id": run_id, "stage": cli_args[0], "spans": tracer.spans}
    if tracer.meter_args:
        doc["packet_path_s"] = packet_path_seconds(*tracer.meter_args)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
