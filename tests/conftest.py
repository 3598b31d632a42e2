from __future__ import annotations

import importlib.resources as resources
import os
from dataclasses import replace

import numpy as np
import pytest

from flowlab.meter import MeterConfig, meter
from flowlab.synth import SynthSpec, derive_rules, synth_trace
from flowlab.trace_io import PROTO_TCP, PROTO_UDP, PacketTrace, RawPacket, write_trace


def corpus_path(name: str):
    return resources.files("flowlab").joinpath(f"data/{name}.json")


def truncate(path) -> None:
    """Cut the last 100 bytes off the file at ``path``."""
    os.truncate(path, os.path.getsize(path) - 100)


def rewrite_in_place(path) -> None:
    """Zero the file at ``path`` past its pcap header, keeping its size,
    and move its mtime on by a second."""
    st = os.stat(path)
    with open(path, "r+b") as fh:
        fh.seek(24)
        fh.write(bytes(st.st_size - 24))
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))


def random_packets(
    rng: np.random.Generator,
    n: int,
    n_endpoints: int = 6,
    t_span_us: int = 5_000_000,
    fin_rst_rate: float = 0.05,
    sorted_ts: bool = True,
) -> list[RawPacket]:
    """Random TCP/UDP packets over a small endpoint pool, so key collisions
    and both flow orientations occur."""
    ips = [f"10.0.0.{i + 1}" for i in range(n_endpoints)]
    ports = [1000 + 17 * i for i in range(n_endpoints)]
    ts = np.sort(rng.integers(0, t_span_us, size=n)) if sorted_ts else rng.integers(
        0, t_span_us, size=n
    )
    packets = []
    for i in range(n):
        a, b = rng.choice(n_endpoints, size=2, replace=False)
        proto = PROTO_TCP if rng.random() < 0.7 else PROTO_UDP
        if proto == PROTO_TCP:
            flags = 0x10
            if rng.random() < fin_rst_rate:
                flags |= 0x01 if rng.random() < 0.5 else 0x04
            if rng.random() < 0.3:
                flags |= 0x08
        else:
            flags = 0
        payload_len = int(rng.integers(0, 600))
        packets.append(
            RawPacket(
                ts_us=int(ts[i]),
                src_ip=ips[a],
                dst_ip=ips[b],
                src_port=ports[a],
                dst_port=ports[b],
                protocol=proto,
                tcp_flags=flags,
                payload_len=payload_len,
                wire_len=payload_len + (54 if proto == PROTO_TCP else 42),
                payload=bytes([i % 251]) * payload_len,
            )
        )
    return packets


def random_trace(rng: np.random.Generator, n: int, **kw) -> PacketTrace:
    return PacketTrace(packets=tuple(random_packets(rng, n, **kw)), source="test")


def paced_packets(n: int) -> list[RawPacket]:
    """``n`` distinct UDP packets, one every 100 us over 250 hosts, in which
    2% of adjacent packets are swapped and 5% are followed by a copy of
    themselves 1-5 ms later, inside the default dedup window: a capture
    in order but for local disorder."""
    rng = np.random.default_rng(n)
    packets = [
        RawPacket(100 * i, f"10.0.{i % 250}.1", "10.0.0.2", i % 1000 + 1, 2, PROTO_UDP, 0, 4, 46,
                  i.to_bytes(4, "big"))
        for i in range(n)
    ]
    for i in np.flatnonzero(rng.random(n - 1) < 0.02):
        packets[i], packets[i + 1] = packets[i + 1], packets[i]
    captured = []
    for pkt, copied, delay in zip(packets, rng.random(n) < 0.05, rng.integers(1_000, 5_001, n)):
        captured.append(pkt)
        if copied:
            captured.append(replace(pkt, ts_us=pkt.ts_us + int(delay)))
    return captured


@pytest.fixture(scope="session")
def late_spec() -> SynthSpec:
    return SynthSpec.from_json(corpus_path("late_divergence"))


@pytest.fixture(scope="session")
def early_spec() -> SynthSpec:
    return SynthSpec.from_json(corpus_path("early_divergence"))


@pytest.fixture(scope="session")
def late_corpus(late_spec):
    """Metered late-divergence corpus: (records, snapshots by trigger, rules, truth)."""
    trace, truth = synth_trace(late_spec, seed=42)
    records, snapshots = meter(trace, MeterConfig())
    return records, snapshots, derive_rules(late_spec), truth


@pytest.fixture(scope="session")
def early_corpus(early_spec):
    trace, truth = synth_trace(early_spec, seed=11)
    records, snapshots = meter(trace, MeterConfig())
    return records, snapshots, derive_rules(early_spec), truth


@pytest.fixture(scope="session")
def dup_pcap(tmp_path_factory, early_spec):
    """The early-divergence corpus (seed 3: 8,449 packets, 4.7 MB of
    payload) as a pcap in which about one packet in twenty is followed by a
    copy of itself 1-5 ms later: in-window duplicates for dedup, and
    timestamps out of order for reorder."""
    trace, _ = synth_trace(early_spec, seed=3)
    rng = np.random.default_rng(3)
    packets = []
    for pkt in trace.packets:
        packets.append(pkt)
        if rng.random() < 0.05:
            packets.append(replace(pkt, ts_us=pkt.ts_us + int(rng.integers(1_000, 5_001))))
    path = tmp_path_factory.mktemp("dup") / "dup.pcap"
    write_trace(replace(trace, packets=tuple(packets)), path)
    return path
