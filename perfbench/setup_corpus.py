"""Generate one workload's inputs and check the meter against the reference.

Run as a child process of ``run.py``::

    python3 perfbench/setup_corpus.py <workload> <seed> <scale> <out_dir> <builds>

It builds the corpus ``builds`` times over, timing each build (corpus
generation, perturbation, and writing the pcap, rules and meter config)
by its start and end on ``time.perf_counter`` and its CPU time, and
reports the digest of what each build wrote. Then, untimed, it meters
a bounded slice of the trace with both ``flowlab.meter.meter`` and the
reference meter in ``tests/reference.py`` and compares them. It writes
``truth.json`` (flow hash -> label) and prints one JSON line with the build
timings, the digests and the verdict.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from flowlab import trace_io
from flowlab.meter import MeterConfig, meter
from flowlab.synth import SynthSpec, synth_trace
from workloads import WORKLOADS, Workload, scaled_spec

DUP_SHARE = 0.05
DUP_MAX_DELAY_US = 5_000  # inside the program's default 10 ms dedup window
SWAP_SHARE = 0.02
REFERENCE_SLICE_PACKETS = 1_500

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def perturb(packets, rng: np.random.Generator) -> list:
    """Swap a share of adjacent packets, then follow a share of packets with
    an in-window duplicate.

    Each duplicate comes after its original in file order, so dedup drops
    the copy, and reorder then restores the synthetic trace exactly.
    """
    out = list(packets)
    for i in np.flatnonzero(rng.random(len(out) - 1) < SWAP_SHARE):
        out[i], out[i + 1] = out[i + 1], out[i]
    dup = rng.random(len(out)) < DUP_SHARE
    delay = rng.integers(1, DUP_MAX_DELAY_US + 1, size=len(out))
    perturbed = []
    for pkt, is_dup, d in zip(out, dup, delay):
        perturbed.append(pkt)
        if is_dup:
            perturbed.append(replace(pkt, ts_us=pkt.ts_us + int(d)))
    return perturbed


def build(workload: Workload, seed: int, scale: float, out_dir: str):
    """Write input.pcap, rules.json and meter.json; return (trace, truth, packets)."""
    spec = scaled_spec(workload, seed, scale)
    trace, truth = synth_trace(SynthSpec.from_dict(spec), seed)
    packets = trace.packets
    if workload.perturb:
        packets = perturb(packets, np.random.Generator(np.random.PCG64([seed, 1])))
    trace_io.write_trace(replace(trace, packets=tuple(packets)), os.path.join(out_dir, "input.pcap"))
    for name, doc in (
        ("rules.json", workload.rules(seed, spec)),
        ("meter.json", workload.meter_config),
    ):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
    return trace, truth, len(packets)


def _digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in ("input.pcap", "rules.json", "meter.json"):
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def reference_check(trace, meter_config: dict) -> str:
    """Compare the meter with the reference meter on a bounded slice.

    Returns "" when they agree, else the failure.
    """
    spec = importlib.util.spec_from_file_location(
        "flowlab_reference", os.path.join(ROOT, "tests", "reference.py")
    )
    reference = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = reference  # its dataclasses look their module up
    spec.loader.exec_module(reference)
    config = MeterConfig.from_dict(meter_config)
    sliced = replace(trace, packets=trace.packets[:REFERENCE_SLICE_PACKETS])
    try:
        reference.assert_meter_equal(
            meter(sliced, config), reference.reference_meter(list(sliced.packets), config)
        )
    except AssertionError as exc:
        return f"meter differs from reference_meter: {exc}"[:500]
    return ""


def main(argv: list[str]) -> int:
    name, seed, scale, out_dir, builds = argv
    workload = WORKLOADS[name]
    seed, scale = int(seed), float(scale)
    os.makedirs(out_dir, exist_ok=True)
    timings, digests = [], []
    for _ in range(int(builds)):
        t0, c0 = time.perf_counter(), time.process_time()
        trace, truth, n_packets = build(workload, seed, scale, out_dir)
        timings.append([t0, time.perf_counter(), time.process_time() - c0])
        digests.append(_digest(out_dir))
    with open(os.path.join(out_dir, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump({str(fid.hash64): label for fid, label in truth}, fh)
    result = {
        "builds": timings,
        "packets": n_packets,
        "flows": len(truth),
        "digests": digests,
        "reference_error": reference_check(trace, workload.meter_config),
        "numpy": np.__version__,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
