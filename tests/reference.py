"""Independent reference implementations used as test oracles.

Everything here is deliberately written on a different plan from the
library: the meter is a two-pass group-then-replay implementation computing
statistics from stored per-packet lists, the pcap dissector reads fields
with int.from_bytes instead of struct, and the hash is a fresh FNV-1a
transcription. These exist so the streaming implementations can be checked
field for field against brute force. The pcap decoder reference slices
each header layer off the frame and formats every address afresh, where
the library reads headers in place and caches address text; the decoder
reads the whole file at once and the writer encodes the whole file before
writing it, where the library streams both in chunks; the writer packs
each synthesized frame's headers whole from its fields, where the library
packs the bytes an endpoint pair fixes once. The forest
reference grows each tree recursively and scores one sampled feature at a
time, where the library scores all of them in one vectorised pass. The CSV
writer formats each cell by its own call and leaves quoting to
``csv.writer``, where the library formats a row by one ``%`` template and
quotes a label itself; ``csv.writer`` leaves a lone ``\\r`` unquoted, so
the two agree on every label without one. The pipeline reference runs the
references above from pcap bytes to CSV files over plain lists, and pairs
each snapshot with its own flow's record, where the library pairs a
snapshot with the complete-flow row of its flow hash.
"""

from __future__ import annotations

import csv
import math
import os
import struct
import tempfile
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import replace
from ipaddress import ip_address
from itertools import count, repeat
from typing import get_type_hints

import numpy as np
from dataclasses import dataclass, field

from flowlab.forest import TrainConfig, Tree, dataset_matrix, tree_seed
from flowlab.labeling import label_flow
from flowlab.meter import (
    FEATURE_NAMES,
    FeatureVector,
    FlowId,
    FlowKey,
    FlowRecord,
    MeterConfig,
    Trigger,
)
from flowlab.errors import MalformedHeaderError, UnreadableFileError
from flowlab.trace_io import (
    _ETHERTYPE_IPV4,
    _ETHERTYPE_IPV6,
    _ETHERTYPE_VLAN,
    _LINKTYPE_ETHERNET,
    _MAGIC_NS_LE,
    _MAGIC_US_LE,
    PROTO_TCP,
    PROTO_UDP,
    PacketTrace,
    RawPacket,
    parse_ip,
)


# ---------------------------------------------------------------------------
# Independent FNV-1a (64-bit)

def fnv1a64(data: bytes) -> int:
    h = 14695981039346656037
    for b in data:
        h = ((h ^ b) * 1099511628211) % 2**64
    return h


# ---------------------------------------------------------------------------
# Hand-rolled pcap builder and an independent dissector

def build_pcap(
    frames: list[tuple[int, bytes]],
    magic: int = 0xA1B2C3D4,
    big_endian: bool = False,
    linktype: int = 1,
    version: tuple[int, int] = (2, 4),
) -> bytes:
    """Assemble classic pcap bytes from (ts_us, frame) pairs."""
    e = ">" if big_endian else "<"
    out = struct.pack(e + "IHHiIII", magic, version[0], version[1], 0, 0, 65535, linktype)
    ns = magic == 0xA1B23C4D
    for ts_us, frame in frames:
        frac = (ts_us % 1_000_000) * (1000 if ns else 1)
        out += struct.pack(e + "IIII", ts_us // 1_000_000, frac, len(frame), len(frame))
        out += frame
    return out


def build_tcp_frame(
    src_ip: str,
    dst_ip: str,
    src_port: int,
    dst_port: int,
    flags: int,
    payload: bytes = b"",
) -> bytes:
    eth = bytes(12) + b"\x08\x00"
    src = bytes(int(o) for o in src_ip.split("."))
    dst = bytes(int(o) for o in dst_ip.split("."))
    total = 20 + 20 + len(payload)
    ip = (
        b"\x45\x00"
        + total.to_bytes(2, "big")
        + b"\x00\x00\x00\x00\x40\x06\x00\x00"
        + src
        + dst
    )
    tcp = (
        src_port.to_bytes(2, "big")
        + dst_port.to_bytes(2, "big")
        + bytes(8)
        + b"\x50"
        + bytes([flags])
        + b"\x20\x00\x00\x00\x00\x00"
    )
    return eth + ip + tcp + payload


def build_udp_frame(
    src_ip: str, dst_ip: str, src_port: int, dst_port: int, payload: bytes = b""
) -> bytes:
    eth = bytes(12) + b"\x08\x00"
    src = bytes(int(o) for o in src_ip.split("."))
    dst = bytes(int(o) for o in dst_ip.split("."))
    total = 20 + 8 + len(payload)
    ip = (
        b"\x45\x00"
        + total.to_bytes(2, "big")
        + b"\x00\x00\x00\x00\x40\x11\x00\x00"
        + src
        + dst
    )
    udp = (
        src_port.to_bytes(2, "big")
        + dst_port.to_bytes(2, "big")
        + (8 + len(payload)).to_bytes(2, "big")
        + b"\x00\x00"
    )
    return eth + ip + udp + payload


def dissect_pcap(blob: bytes) -> list[dict]:
    """Minimal independent dissector for little-endian microsecond pcap
    with Ethernet/IPv4 TCP or UDP packets (the shapes the tests build)."""
    assert int.from_bytes(blob[0:4], "little") == 0xA1B2C3D4
    pos = 24
    out = []
    while pos < len(blob):
        sec = int.from_bytes(blob[pos : pos + 4], "little")
        usec = int.from_bytes(blob[pos + 4 : pos + 8], "little")
        incl = int.from_bytes(blob[pos + 8 : pos + 12], "little")
        orig = int.from_bytes(blob[pos + 12 : pos + 16], "little")
        frame = blob[pos + 16 : pos + 16 + incl]
        pos += 16 + incl
        ethertype = int.from_bytes(frame[12:14], "big")
        if ethertype != 0x0800:
            out.append({"skip": True})
            continue
        ip = frame[14:]
        ihl = (ip[0] & 0x0F) * 4
        proto = ip[9]
        entry = {
            "skip": proto not in (6, 17),
            "ts_us": sec * 1_000_000 + usec,
            "src_ip": ".".join(str(b) for b in ip[12:16]),
            "dst_ip": ".".join(str(b) for b in ip[16:20]),
            "protocol": proto,
            "wire_len": orig,
        }
        transport = ip[ihl:]
        if proto == 6:
            entry["src_port"] = int.from_bytes(transport[0:2], "big")
            entry["dst_port"] = int.from_bytes(transport[2:4], "big")
            entry["tcp_flags"] = transport[13]
            data_off = (transport[12] >> 4) * 4
            total_len = int.from_bytes(ip[2:4], "big")
            entry["payload_len"] = total_len - ihl - data_off
        elif proto == 17:
            entry["src_port"] = int.from_bytes(transport[0:2], "big")
            entry["dst_port"] = int.from_bytes(transport[2:4], "big")
            entry["tcp_flags"] = 0
            entry["payload_len"] = int.from_bytes(transport[4:6], "big") - 8
        out.append(entry)
    return out


# ---------------------------------------------------------------------------
# Reference pcap decoder: slices each layer off the frame and formats every
# address afresh. The library reads headers in place and caches address text;
# packets and skip counts must be equal.

def _parse_ipv4(data: bytes) -> tuple[str, str, int, int, bytes] | None:
    """Return (src, dst, protocol, payload_len, payload) or None."""
    if len(data) < 20:
        return None
    ver_ihl = data[0]
    if ver_ihl >> 4 != 4:
        return None
    ihl = (ver_ihl & 0x0F) * 4
    if ihl < 20 or len(data) < ihl:
        return None
    total_len = struct.unpack_from("!H", data, 2)[0]
    frag = struct.unpack_from("!H", data, 6)[0]
    if frag & 0x1FFF:  # non-first fragment: no transport header
        return None
    protocol = data[9]
    src = str(ip_address(data[12:16]))
    dst = str(ip_address(data[16:20]))
    payload_len = max(total_len - ihl, 0)
    return src, dst, protocol, payload_len, data[ihl:]


def _parse_ipv6(data: bytes) -> tuple[str, str, int, int, bytes] | None:
    if len(data) < 40:
        return None
    if data[0] >> 4 != 6:
        return None
    payload_len = struct.unpack_from("!H", data, 4)[0]
    next_header = data[6]
    src = str(ip_address(data[8:24]))
    dst = str(ip_address(data[24:40]))
    rest = data[40:]
    # Walk the common extension headers; anything else ends the chain.
    while next_header in (0, 43, 44, 60):
        if next_header == 44:
            if len(rest) < 8:
                return None
            frag_off = struct.unpack_from("!H", rest, 2)[0] >> 3
            if frag_off:
                return None
            next_header = rest[0]
            ext_len = 8
        else:
            if len(rest) < 2:
                return None
            next_header = rest[0]
            ext_len = (rest[1] + 1) * 8
        if len(rest) < ext_len:
            return None
        rest = rest[ext_len:]
        payload_len = max(payload_len - ext_len, 0)
    return src, dst, next_header, payload_len, rest


def _parse_frame(frame: bytes, ts_us: int, wire_len: int) -> RawPacket | None:
    """Dissect one Ethernet frame into a RawPacket; None if not TCP/UDP."""
    if len(frame) < 14:
        return None
    ethertype = struct.unpack_from("!H", frame, 12)[0]
    offset = 14
    while ethertype in _ETHERTYPE_VLAN:
        if len(frame) < offset + 4:
            return None
        ethertype = struct.unpack_from("!H", frame, offset + 2)[0]
        offset += 4

    if ethertype == _ETHERTYPE_IPV4:
        parsed = _parse_ipv4(frame[offset:])
    elif ethertype == _ETHERTYPE_IPV6:
        parsed = _parse_ipv6(frame[offset:])
    else:
        return None
    if parsed is None:
        return None
    src_ip, dst_ip, protocol, ip_payload_len, transport = parsed

    if protocol == PROTO_TCP:
        if len(transport) < 20:
            return None
        src_port, dst_port = struct.unpack_from("!HH", transport, 0)
        data_offset = (transport[12] >> 4) * 4
        if data_offset < 20:
            return None
        flags = transport[13]
        payload_len = max(ip_payload_len - data_offset, 0)
        payload = transport[data_offset : data_offset + payload_len]
    elif protocol == PROTO_UDP:
        if len(transport) < 8:
            return None
        src_port, dst_port, udp_len = struct.unpack_from("!HHH", transport, 0)
        flags = 0
        payload_len = max(min(udp_len, ip_payload_len) - 8, 0)
        payload = transport[8 : 8 + payload_len]
    else:
        return None

    return RawPacket(
        ts_us=ts_us,
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=src_port,
        dst_port=dst_port,
        protocol=protocol,
        tcp_flags=flags,
        payload_len=payload_len,
        wire_len=wire_len,
        payload=payload,
        raw=frame,
    )


def reference_read_trace(path) -> PacketTrace:
    """Read a classic pcap file into a PacketTrace (the per-layer slicing decoder).

    Only Ethernet-framed IPv4/IPv6 TCP and UDP packets are kept; everything
    else (other link types, other protocols, per-packet parse failures) is
    skipped and tallied in ``trace.skipped``. Nanosecond captures are
    truncated to microseconds.

    Raises UnreadableFileError if the file cannot be opened and
    MalformedHeaderError on an unknown magic number or version.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise UnreadableFileError(f"cannot read capture {path}: {exc}") from exc

    if len(blob) < 24:
        raise MalformedHeaderError(f"{path}: truncated pcap global header")
    magic = struct.unpack_from("<I", blob, 0)[0]
    if magic == _MAGIC_US_LE:
        endian, ns = "<", False
    elif magic == _MAGIC_NS_LE:
        endian, ns = "<", True
    else:
        magic_be = struct.unpack_from(">I", blob, 0)[0]
        if magic_be == _MAGIC_US_LE:
            endian, ns = ">", False
        elif magic_be == _MAGIC_NS_LE:
            endian, ns = ">", True
        else:
            raise MalformedHeaderError(f"{path}: bad pcap magic 0x{magic:08x}")
    version_major, _minor, _zone, _sigfigs, _snaplen, linktype = struct.unpack_from(
        endian + "HHiIII", blob, 4
    )
    if version_major != 2:
        raise MalformedHeaderError(f"{path}: unsupported pcap version {version_major}")

    packets: list[RawPacket] = []
    skipped = 0
    pos = 24
    rec = struct.Struct(endian + "IIII")
    while pos < len(blob):
        if pos + 16 > len(blob):  # truncated final record header
            skipped += 1
            break
        ts_sec, ts_frac, incl_len, orig_len = rec.unpack_from(blob, pos)
        pos += 16
        if pos + incl_len > len(blob):  # truncated final record
            skipped += 1
            break
        frame = blob[pos : pos + incl_len]
        pos += incl_len
        ts_us = ts_sec * 1_000_000 + (ts_frac // 1000 if ns else ts_frac)
        if linktype != _LINKTYPE_ETHERNET:
            skipped += 1
            continue
        pkt = _parse_frame(frame, ts_us, orig_len)
        if pkt is None:
            skipped += 1
        else:
            packets.append(pkt)

    return PacketTrace(packets=tuple(packets), source=str(path), skipped=skipped)


def reference_frame(
    src_ip, dst_ip, src_port, dst_port, protocol, tcp_flags, payload_len, payload
) -> bytes:
    """The synthesized frame of a packet without captured bytes, each header
    packed whole from the packet's fields, one packet at a time."""
    if len(payload) < payload_len:
        payload = payload + b"\x00" * (payload_len - len(payload))
    src, src_packed, _ = parse_ip(src_ip)
    dst, dst_packed, _ = parse_ip(dst_ip)
    if src.version != dst.version:
        raise ValueError(f"cannot synthesize a frame from IPv{src.version} to IPv{dst.version}")

    try:
        if protocol == PROTO_TCP:
            transport = struct.pack(
                "!HHIIBBHHH", src_port, dst_port, 0, 0, 5 << 4, tcp_flags, 8192, 0, 0
            )
        elif protocol == PROTO_UDP:
            transport = struct.pack("!HHHH", src_port, dst_port, 8 + len(payload), 0)
        else:
            raise ValueError(f"cannot synthesize frame for protocol {protocol}")
        size = len(transport) + len(payload)
        if src.version == 4:
            header = struct.pack(
                "!BBHHHBBH4s4s", 0x45, 0, 20 + size, 0, 0, 64, protocol, 0, src_packed, dst_packed
            )
            ethertype = _ETHERTYPE_IPV4
        else:
            header = struct.pack("!IHBB16s16s", 6 << 28, size, protocol, 64, src_packed, dst_packed)
            ethertype = _ETHERTYPE_IPV6
    except struct.error:
        problem = f"a payload of {len(payload)} bytes does not fit one IP packet"
        raise ValueError(f"cannot synthesize a frame: {problem}") from None
    eth = b"\x02\x00\x00\x00\x00\x02" + b"\x02\x00\x00\x00\x00\x01" + struct.pack("!H", ethertype)
    return b"".join((eth, header, transport, payload))


def reference_write_trace(trace: PacketTrace, path) -> None:
    """Write a trace as a classic little-endian microsecond pcap file (the
    whole-file writer: every record is encoded into one buffer, which is
    written at the end, so a ValueError leaves no file).

    Packets carrying their original frame bytes are written back verbatim;
    others get a synthesized Ethernet frame. Raises ValueError for a packet
    whose timestamp is outside [0, 2**32) seconds.
    """
    out = bytearray()
    out += struct.pack("<IHHiIII", _MAGIC_US_LE, 2, 4, 0, 0, 262144, _LINKTYPE_ETHERNET)
    try:
        for pkt in trace.packets:
            if pkt.raw is None:
                frame = reference_frame(
                    pkt.src_ip, pkt.dst_ip, pkt.src_port, pkt.dst_port, pkt.protocol,
                    pkt.tcp_flags, pkt.payload_len, pkt.payload,
                )
            else:
                frame = pkt.raw
            wire_len = max(pkt.wire_len, len(frame))
            out += struct.pack(
                "<IIII", pkt.ts_us // 1_000_000, pkt.ts_us % 1_000_000, len(frame), wire_len
            )
            out += frame
    except struct.error:
        raise ValueError(f"pcap seconds lie in [0, 2**32); ts_us {pkt.ts_us} is outside") from None
    with open(path, "wb") as fh:
        fh.write(out)


# ---------------------------------------------------------------------------
# Brute-force duplicate filter

def brute_force_dedup(packets: list[RawPacket], window_us: int) -> list[RawPacket]:
    kept = []
    for i, pkt in enumerate(packets):
        dup = any(
            packets[j].dedup_key() == pkt.dedup_key()
            and abs(pkt.ts_us - packets[j].ts_us) <= window_us
            for j in range(i)
        )
        if not dup:
            kept.append(pkt)
    return kept


# ---------------------------------------------------------------------------
# Whole-trace preprocessing

def whole_trace_dedup(trace: PacketTrace, window_us: int = 10_000) -> PacketTrace:
    """``dedup`` on the plan whose state grows with the trace: an entry for
    every distinct packet, kept until the trace ends, and the row of every
    packet kept. Its peak memory is what a plan bounded by the window must
    not exceed on any input."""
    packets = trace.packets
    times = packets.header[0]
    # Per digest, the row of its one packet so far, then [row, timestamps...]
    # per distinct identity.
    seen: dict = {}
    kept = array("q")
    identities = zip(*packets.header[1:], packets.payloads())
    for row, ts, identity in zip(count(), times, identities):
        key = hash(identity)
        groups = seen.get(key)
        if groups is None:
            seen[key] = row
            kept.append(row)
            continue
        if type(groups) is int:
            groups = seen[key] = [[groups, times[groups]]]
        group = next((g for g in groups if packets.identity(g[0]) == identity), None)
        if group is None:
            groups.append([row, ts])
            kept.append(row)
            continue
        i = bisect_left(group, ts, 1)
        if not ((i < len(group) and group[i] - ts <= window_us)
                or (i > 1 and ts - group[i - 1] <= window_us)):
            kept.append(row)
        group.insert(i, ts)
    return replace(trace, packets=packets.take(kept))


def whole_trace_reorder(trace: PacketTrace) -> PacketTrace:
    """``reorder`` as a stable sort of every row at once: the output, and
    the peak memory, that a reorder bounded by the trace's disorder must not
    exceed on any input."""
    times = trace.packets.header[0]
    order = sorted(range(len(times)), key=times.__getitem__)
    return replace(trace, packets=trace.packets.take(order))


# ---------------------------------------------------------------------------
# Naive two-pass reference meter

@dataclass
class _Segment:
    packets: list[RawPacket] = field(default_factory=list)
    reason: str = ""


def _segment_group(
    group: list[RawPacket], config: MeterConfig
) -> list[_Segment]:
    idle_us = int(config.idle_timeout_s * 1_000_000)
    active_us = int(config.active_timeout_s * 1_000_000)
    segments: list[_Segment] = []
    current: _Segment | None = None
    for pkt in group:
        if current is not None:
            if pkt.ts_us - current.packets[-1].ts_us > idle_us:
                current.reason = "idle"
                current = None
            elif pkt.ts_us - current.packets[0].ts_us >= active_us:
                current.reason = "active"
                current = None
        if current is None:
            current = _Segment()
            segments.append(current)
        current.packets.append(pkt)
        if config.fin_rst_expiration and pkt.tcp_flags & 0x05:
            current.reason = "fin_rst"
            current = None
    if current is not None:
        current.reason = "end_of_trace"
    return segments


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _pstdev(values) -> float:
    # textbook population standard deviation over the stored values
    return float(np.std(values)) if len(values) >= 2 else 0.0


def _scope_features(prefix: str, pkts: list[RawPacket]) -> dict:
    sizes = np.array([p.wire_len for p in pkts], dtype=float)
    out = {
        f"{prefix}_packets": len(pkts),
        f"{prefix}_bytes": sum(p.wire_len for p in pkts),
        f"{prefix}_payload_bytes": sum(p.payload_len for p in pkts),
        f"{prefix}_min_ps": float(sizes.min()) if len(sizes) else 0.0,
        f"{prefix}_mean_ps": _mean(sizes),
        f"{prefix}_max_ps": float(sizes.max()) if len(sizes) else 0.0,
        f"{prefix}_stddev_ps": _pstdev(sizes),
    }
    gaps = np.array(
        [(b.ts_us - a.ts_us) / 1000 for a, b in zip(pkts, pkts[1:])], dtype=float
    )
    out[f"{prefix}_min_piat_ms"] = float(gaps.min()) if len(gaps) else 0.0
    out[f"{prefix}_mean_piat_ms"] = _mean(gaps)
    out[f"{prefix}_max_piat_ms"] = float(gaps.max()) if len(gaps) else 0.0
    out[f"{prefix}_stddev_piat_ms"] = _pstdev(gaps)
    return out


_FLAGS = [
    ("syn", 0x02),
    ("fin", 0x01),
    ("rst", 0x04),
    ("psh", 0x08),
    ("ack", 0x10),
    ("urg", 0x20),
    ("ece", 0x40),
    ("cwr", 0x80),
]


def _features_of(pkts: list[RawPacket]) -> FeatureVector:
    anchor = (pkts[0].src_ip, pkts[0].src_port)
    fwd = [p for p in pkts if (p.src_ip, p.src_port) == anchor]
    bwd = [p for p in pkts if (p.src_ip, p.src_port) != anchor]
    values = {"duration_ms": (pkts[-1].ts_us - pkts[0].ts_us) / 1000}
    values.update(_scope_features("bidirectional", pkts))
    values.update(_scope_features("src2dst", fwd))
    values.update(_scope_features("dst2src", bwd))
    for name, bit in _FLAGS:
        values[f"bidirectional_{name}_count"] = sum(
            1 for p in pkts if p.tcp_flags & bit
        )
    values["src2dst_fin_count"] = sum(1 for p in fwd if p.tcp_flags & 0x01)
    values["src2dst_rst_count"] = sum(1 for p in fwd if p.tcp_flags & 0x04)
    values["dst2src_fin_count"] = sum(1 for p in bwd if p.tcp_flags & 0x01)
    values["dst2src_rst_count"] = sum(1 for p in bwd if p.tcp_flags & 0x04)
    return FeatureVector(**values)


def _list_stats(prefix: str, sizes: list[int], ts: list[int]) -> dict:
    n = len(sizes)
    out = {
        f"{prefix}_packets": n,
        f"{prefix}_bytes": sum(sizes),
        f"{prefix}_min_ps": float(min(sizes)) if sizes else 0.0,
        f"{prefix}_mean_ps": sum(sizes) / n if n else 0.0,
        f"{prefix}_max_ps": float(max(sizes)) if sizes else 0.0,
        f"{prefix}_stddev_ps": _list_pstdev(sizes),
    }
    gaps = [(b - a) / 1000 for a, b in zip(ts, ts[1:])]
    out[f"{prefix}_min_piat_ms"] = min(gaps) if gaps else 0.0
    out[f"{prefix}_mean_piat_ms"] = sum(gaps) / len(gaps) if gaps else 0.0
    out[f"{prefix}_max_piat_ms"] = max(gaps) if gaps else 0.0
    out[f"{prefix}_stddev_piat_ms"] = _list_pstdev(gaps)
    return out


def _list_pstdev(values) -> float:
    # textbook two-pass population standard deviation
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


class _SegmentArrays:
    """Per-segment columns pre-split by direction so prefix features can be
    recomputed directly from stored values for any prefix length."""

    def __init__(self, pkts: list[RawPacket]):
        anchor = (pkts[0].src_ip, pkts[0].src_port)
        self.ts = [p.ts_us for p in pkts]
        self.wire = [p.wire_len for p in pkts]
        self.payload = [p.payload_len for p in pkts]
        self.flags = [p.tcp_flags for p in pkts]
        fwd = [(p.src_ip, p.src_port) == anchor for p in pkts]
        # fwd_rank[i] = forward packets among the first i packets
        self.fwd_rank = [0]
        for f in fwd:
            self.fwd_rank.append(self.fwd_rank[-1] + (1 if f else 0))
        self.ts_fwd = [t for t, f in zip(self.ts, fwd) if f]
        self.ts_bwd = [t for t, f in zip(self.ts, fwd) if not f]
        self.wire_fwd = [w for w, f in zip(self.wire, fwd) if f]
        self.wire_bwd = [w for w, f in zip(self.wire, fwd) if not f]
        self.payload_fwd = [p for p, f in zip(self.payload, fwd) if f]
        self.payload_bwd = [p for p, f in zip(self.payload, fwd) if not f]
        self.flags_fwd = [x for x, f in zip(self.flags, fwd) if f]
        self.flags_bwd = [x for x, f in zip(self.flags, fwd) if not f]

    def prefix_features(self, n: int) -> FeatureVector:
        k = self.fwd_rank[n]  # forward packets in the prefix
        j = n - k
        values = {"duration_ms": (self.ts[n - 1] - self.ts[0]) / 1000}
        values.update(_list_stats("bidirectional", self.wire[:n], self.ts[:n]))
        values["bidirectional_payload_bytes"] = sum(self.payload[:n])
        values.update(_list_stats("src2dst", self.wire_fwd[:k], self.ts_fwd[:k]))
        values["src2dst_payload_bytes"] = sum(self.payload_fwd[:k])
        values.update(_list_stats("dst2src", self.wire_bwd[:j], self.ts_bwd[:j]))
        values["dst2src_payload_bytes"] = sum(self.payload_bwd[:j])
        for name, bit in _FLAGS:
            values[f"bidirectional_{name}_count"] = sum(
                1 for x in self.flags[:n] if x & bit
            )
        values["src2dst_fin_count"] = sum(1 for x in self.flags_fwd[:k] if x & 0x01)
        values["src2dst_rst_count"] = sum(1 for x in self.flags_fwd[:k] if x & 0x04)
        values["dst2src_fin_count"] = sum(1 for x in self.flags_bwd[:j] if x & 0x01)
        values["dst2src_rst_count"] = sum(1 for x in self.flags_bwd[:j] if x & 0x04)
        return FeatureVector(**values)


@dataclass(frozen=True)
class RefSnapshot:
    """One snapshot of the reference meter, carrying the trigger that fired
    and its own flow's record, which two flows sharing a ``FlowId`` tell apart."""

    parent_id: FlowId
    trigger: Trigger
    features: FeatureVector
    exported_at_us: int
    record: FlowRecord = field(compare=False, repr=False)


def reference_meter(
    packets: list[RawPacket], config: MeterConfig
) -> tuple[list[FlowRecord], list[RefSnapshot]]:
    """Group by key, replay expiration rules per group, compute features
    from stored packet lists, enumerate snapshots over prefixes.

    Snapshots come as one list over all triggers, ordered by
    (exported_at_us, parent start_us, parent hash64, trigger)."""
    groups: dict[FlowKey, list[RawPacket]] = {}
    for pkt in packets:
        groups.setdefault(FlowKey.from_packet(pkt), []).append(pkt)

    records: list[FlowRecord] = []
    snapshots: list[RefSnapshot] = []
    for key, group in groups.items():
        for seg in _segment_group(group, config):
            pkts = seg.packets
            fid = FlowId.from_key(key, pkts[0].ts_us)
            record = FlowRecord(
                id=fid,
                direction_anchor=(
                    (pkts[0].src_ip, pkts[0].src_port),
                    (pkts[0].dst_ip, pkts[0].dst_port),
                ),
                first_us=pkts[0].ts_us,
                last_us=pkts[-1].ts_us,
                features=_features_of(pkts),
                expiration_reason=seg.reason,
            )
            records.append(record)
            arrays = _SegmentArrays(pkts)
            fd_pending = sorted(config.fd_triggers_ms)
            bc_pending = sorted(config.byte_triggers)
            for n in range(1, len(pkts) + 1):
                exported = pkts[n - 1].ts_us
                if n in config.pc_triggers:
                    snapshots.append(
                        RefSnapshot(
                            fid, Trigger("pc", n), arrays.prefix_features(n), exported, record
                        )
                    )
                duration_us = exported - pkts[0].ts_us
                while fd_pending:
                    t = fd_pending[0]
                    if duration_us < (1 - config.fd_tolerance) * t * 1000:
                        break
                    fd_pending.pop(0)
                    if duration_us <= (1 + config.fd_tolerance) * t * 1000:
                        snapshots.append(
                            RefSnapshot(
                                fid, Trigger("fd", t), arrays.prefix_features(n), exported,
                                record,
                            )
                        )
                total_bytes = sum(arrays.wire[:n])
                while bc_pending and total_bytes >= bc_pending[0]:
                    snapshots.append(
                        RefSnapshot(
                            fid,
                            Trigger("bc", bc_pending.pop(0)),
                            arrays.prefix_features(n),
                            exported,
                            record,
                        )
                    )

    records.sort(key=lambda r: (r.last_us, r.id.start_us, r.id.hash64))
    snapshots.sort(
        key=lambda s: (
            s.exported_at_us,
            s.parent_id.start_us,
            s.parent_id.hash64,
            s.trigger.sort_key(),
        )
    )
    return records, snapshots


# ---------------------------------------------------------------------------
# Feature comparison

def features_close(a: FeatureVector, b: FeatureVector, rel: float = 1e-9) -> bool:
    for x, y in zip(a, b):
        if x == y:
            continue
        if isinstance(x, int) and isinstance(y, int):
            return False
        scale = max(abs(x), abs(y), 1.0)
        if abs(x - y) > rel * scale:
            return False
    return True


def assert_meter_equal(actual, expected, rel: float = 1e-9) -> None:
    """``actual`` is ``meter``'s (records, one block per trigger); ``expected``
    is ``reference_meter``'s (records, one list over every trigger). A
    snapshot row must be live and carry its flow's direction anchor."""
    a_records, a_snaps = actual
    e_records, e_snaps = expected
    assert len(a_records) == len(e_records), (len(a_records), len(e_records))
    for ar, er in zip(a_records, e_records):
        assert ar.id == er.id
        assert ar.direction_anchor == er.direction_anchor
        assert ar.first_us == er.first_us
        assert ar.last_us == er.last_us
        assert ar.expiration_reason == er.expiration_reason
        assert features_close(ar.features, er.features, rel), (ar, er)
    by_trigger: dict[Trigger, list[RefSnapshot]] = {}
    for esnap in e_snaps:
        by_trigger.setdefault(esnap.trigger, []).append(esnap)
    anchors = {(r.id, r.direction_anchor) for r in e_records}
    fired = {t for t, snaps in a_snaps.items() if snaps}
    assert fired == set(by_trigger), (fired, set(by_trigger))
    for trigger, want in by_trigger.items():
        got = a_snaps[trigger]
        assert len(got) == len(want), (trigger, len(got), len(want))
        for asnap, esnap in zip(got, want):
            assert asnap.id == esnap.parent_id, trigger
            assert asnap.last_us == esnap.exported_at_us, trigger
            assert asnap.expiration_reason == "live", trigger
            assert (asnap.id, asnap.direction_anchor) in anchors, trigger
            assert features_close(asnap.features, esnap.features, rel), (trigger, asnap, esnap)


# ---------------------------------------------------------------------------
# Random forest: recursive growth, one split search per sampled feature


def _reference_grow(X, y, idx, n_labels, rng, config: TrainConfig, depth: int):
    counts = np.bincount(y[idx], minlength=n_labels)
    majority = int(counts.argmax())
    n = len(idx)
    if (
        np.count_nonzero(counts) <= 1
        or (config.max_depth is not None and depth >= config.max_depth)
        or n < 2 * config.min_samples_leaf
    ):
        return ("leaf", majority)

    parent_gini = 1.0 - float(((counts / n) ** 2).sum())
    m = config.resolve_max_features(X.shape[1])
    features = rng.choice(X.shape[1], size=m, replace=False)

    best_gain = 0.0
    best_feature = -1
    best_threshold = 0.0
    msl = config.min_samples_leaf
    for f in features:
        vals = X[idx, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        sy = y[idx][order]
        boundaries = np.nonzero(sv[1:] != sv[:-1])[0]
        if boundaries.size == 0:
            continue
        onehot = np.zeros((n, n_labels))
        onehot[np.arange(n), sy] = 1.0
        cum = onehot.cumsum(axis=0)
        left = cum[boundaries]
        right = counts - left
        n_left = (boundaries + 1).astype(float)
        n_right = n - n_left
        valid = (n_left >= msl) & (n_right >= msl)
        if not valid.any():
            continue
        gini_left = 1.0 - (left**2).sum(axis=1) / n_left**2
        gini_right = 1.0 - (right**2).sum(axis=1) / n_right**2
        weighted = (n_left * gini_left + n_right * gini_right) / n
        gains = np.where(valid, parent_gini - weighted, -1.0)
        b = int(gains.argmax())
        if gains[b] > best_gain:
            best_gain = float(gains[b])
            best_feature = int(f)
            a, c = sv[b], sv[b + 1]
            with np.errstate(over="ignore"):
                mid = (a + c) / 2
            # An overflowing midpoint, or one that rounds to c, splits at a.
            best_threshold = float(mid if a < mid < c else a)

    if best_feature < 0:
        return ("leaf", majority)

    mask = X[idx, best_feature] <= best_threshold
    return (
        best_feature,
        best_threshold,
        _reference_grow(X, y, idx[mask], n_labels, rng, config, depth + 1),
        _reference_grow(X, y, idx[~mask], n_labels, rng, config, depth + 1),
    )


def _as_tree(nested) -> Tree:
    """The array form of a nested tree: ``("leaf", label_index)`` or
    ``(feature, threshold, left, right)``, numbered in preorder."""
    nodes = []

    def add(node) -> int:
        i = len(nodes)
        if node[0] == "leaf":
            nodes.append([-1, 0.0, -1, -1, node[1]])
            return i
        feature, threshold, left, right = node
        nodes.append([feature, threshold, -1, -1, -1])
        nodes[i][2] = add(left)
        nodes[i][3] = add(right)
        return i

    add(nested)
    return Tree(*zip(*nodes))


def reference_train(ds, config: TrainConfig) -> tuple:
    """The trees ``flowlab.forest.train(ds, config)`` must grow, bit for bit."""
    X, label_list = dataset_matrix(ds)
    labels = sorted(set(label_list))
    y = np.array([labels.index(label) for label in label_list], dtype=np.int64)
    trees = []
    for index in range(config.n_trees):
        rng = np.random.Generator(np.random.PCG64(tree_seed(config.seed, index)))
        n = len(y)
        idx = rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
        trees.append(_as_tree(_reference_grow(X, y, idx, len(labels), rng, config, depth=0)))
    return tuple(trees)


def reference_predict(forest, X) -> list[str]:
    """The labels ``flowlab.forest.predict_matrix(forest, X)`` must give:
    each row walks each tree node by node, and the label of most votes wins,
    the smallest label index on a tie."""
    trees = [
        (tree.feature.tolist(), tree.threshold.tolist(), tree.left.tolist(),
         tree.right.tolist(), tree.value.tolist())
        for tree in forest.trees
    ]
    predicted = []
    for row in np.asarray(X).tolist():
        votes = [0] * len(forest.labels)
        for feature, threshold, left, right, value in trees:
            node = 0
            while feature[node] >= 0:
                go_left = row[feature[node]] <= threshold[node]
                node = left[node] if go_left else right[node]
            votes[value[node]] += 1
        predicted.append(forest.labels[votes.index(max(votes))])
    return predicted


# ---------------------------------------------------------------------------
# Dataset CSV writer: one formatting call per cell, quoting by csv.writer

def reference_write_csv(ds, path) -> None:
    """The bytes ``flowlab.dataset.write_csv(ds, path)`` must write for a
    dataset whose labels and provenance hold no ``\\r``."""
    int_fields = {name for name, t in get_type_hints(FeatureVector).items() if t is int}
    formats = [(lambda v: str(int(v))) if name in int_fields else repr for name in ds.feature_schema]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(ds.feature_schema) + ["label", "flow_hash", "provenance"])
        for start in range(0, len(ds), 4096):
            rows = slice(start, start + 4096)
            features = [map(f, column) for f, column in zip(formats, ds.X[rows].T.tolist())]
            hashes = map(str, ds.hash64[rows].tolist())
            writer.writerows(zip(*features, ds.labels[rows], hashes, repeat(ds.provenance)))


# ---------------------------------------------------------------------------
# Whole pipeline: pcap bytes in, CSV text out, over plain lists

def reference_build_cf(records, labels, min_class_count: int) -> list[tuple]:
    """(record, label) of each flow the complete-flow dataset keeps, in
    record order: the first record of each flow hash among those with
    payload, less every class with fewer than ``min_class_count`` of them."""
    first: dict[int, tuple] = {}  # flow hash -> (record, label)
    for record, label in zip(records, labels):
        if record.features.bidirectional_payload_bytes > 0:
            first.setdefault(record.id.hash64, (record, label))
    counts = Counter(label for _, label in first.values())
    return [(r, label) for r, label in first.values() if counts[label] >= min_class_count]


def reference_build_pf(snapshots, cf, trigger: Trigger) -> list[tuple]:
    """(snapshot, label) of each snapshot of ``trigger`` that its
    partial-flow dataset keeps, in order: the first of each flow whose own
    record ``cf`` kept, with that record's label."""
    labels = {id(record): label for record, label in cf}
    kept: dict[int, tuple] = {}
    for snap in snapshots:
        if snap.trigger == trigger and id(snap.record) in labels:
            kept.setdefault(id(snap.record), (snap, labels[id(snap.record)]))
    return list(kept.values())


class _Table:
    """What ``reference_write_csv`` reads of a dataset, made from rows of
    (flow hash, features, label)."""

    feature_schema = FEATURE_NAMES

    def __init__(self, provenance: str, rows: list[tuple]) -> None:
        self.provenance = provenance
        self.hash64 = np.array([h for h, _, _ in rows], dtype=np.uint64)
        features = np.array([f for _, f, _ in rows], dtype=np.float64)
        self.X = features.reshape(len(rows), len(FEATURE_NAMES))
        self.labels = [label for _, _, label in rows]

    def __len__(self) -> int:
        return len(self.labels)


def reference_pipeline(
    pcap, rules, config: MeterConfig, min_class_count: int
) -> dict[str, str]:
    """The text of each CSV file that ``flowlab preprocess`` (its default
    10 ms window) and then ``flowlab meter`` write for ``pcap``, by name:
    ``cf.csv``, and ``pf_<kind>_<value>.csv`` for every trigger of ``config``."""
    trace = whole_trace_reorder(whole_trace_dedup(reference_read_trace(pcap)))
    records, snapshots = reference_meter(list(trace.packets), config)
    cf = reference_build_cf(records, [label_flow(r, rules) for r in records], min_class_count)
    tables = {"cf.csv": _Table("CF", [(r.id.hash64, r.features, label) for r, label in cf])}
    for trigger in config.triggers():
        pf = reference_build_pf(snapshots, cf, trigger)
        rows = [(s.parent_id.hash64, s.features, label) for s, label in pf]
        tables[f"pf_{trigger.kind}_{trigger.value}.csv"] = _Table(str(trigger), rows)
    texts = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, table in tables.items():
            path = os.path.join(tmp, name)
            reference_write_csv(table, path)
            with open(path, encoding="utf-8", newline="") as fh:
                texts[name] = fh.read()
    return texts
