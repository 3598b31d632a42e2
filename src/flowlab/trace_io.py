"""Packet trace ingestion and raw preprocessing.

Reads classic pcap files (Ethernet link layer, IPv4/IPv6, TCP/UDP),
suppresses duplicate packets inside a time window, and restores timestamp
order, producing a clean packet sequence for flow metering.
"""

from __future__ import annotations

import os
import struct
from bisect import bisect_left, insort
from dataclasses import dataclass, field, replace
from functools import lru_cache
from ipaddress import ip_address

from .errors import MalformedHeaderError, UnreadableFileError

# TCP flag bits (low byte of the TCP flags field).
TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10
TCP_URG = 0x20
TCP_ECE = 0x40
TCP_CWR = 0x80

PROTO_TCP = 6
PROTO_UDP = 17

# Classic pcap magic numbers: microsecond and nanosecond variants, both
# endiannesses. pcapng is not supported.
_MAGIC_US_LE = 0xA1B2C3D4
_MAGIC_NS_LE = 0xA1B23C4D

_ETHERTYPE_IPV4 = 0x0800
_ETHERTYPE_IPV6 = 0x86DD
_ETHERTYPE_VLAN = (0x8100, 0x88A8)

_LINKTYPE_ETHERNET = 1


@dataclass(slots=True)
class RawPacket:
    """One parsed TCP or UDP packet.

    A plain slots dataclass: it compares by value but cannot be hashed,
    and ``dataclasses.replace`` makes a changed copy. It is not frozen,
    because a frozen dataclass sets each field through
    ``object.__setattr__`` and this is built once per packet read.

    ``payload_len`` is the transport payload length on the wire (derived
    from IP header lengths); ``payload`` holds the captured payload bytes,
    which may be shorter if the capture was truncated. ``raw`` keeps the
    original link-layer frame so traces can be rewritten losslessly.
    """

    ts_us: int
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: int
    tcp_flags: int
    payload_len: int
    wire_len: int
    payload: bytes = b""
    raw: bytes | None = None

    def dedup_key(self) -> tuple:
        """Identity used for duplicate suppression: five-tuple, flags,
        lengths, and payload content when captured."""
        return (
            self.src_ip,
            self.src_port,
            self.dst_ip,
            self.dst_port,
            self.protocol,
            self.tcp_flags,
            self.payload_len,
            self.wire_len,
            self.payload,
        )


@dataclass(frozen=True, slots=True)
class PacketTrace:
    """An ordered packet sequence plus provenance and skip tally."""

    packets: tuple[RawPacket, ...]
    source: str
    skipped: int = 0

    def __len__(self) -> int:
        return len(self.packets)


@lru_cache(maxsize=65536)
def _ip_text(packed: bytes) -> str:
    return str(ip_address(packed))


# Precompiled header layouts, read in place at offsets into the frame.
_ETHERTYPE = struct.Struct("!H")
# IPv4: version/IHL, total length, fragment field, protocol, source, destination.
_IPV4 = struct.Struct("!BxHxxHxB2x4s4s")
# IPv6: version, payload length, next header, source, destination.
_IPV6 = struct.Struct("!B3xHBx16s16s")
# IPv6 fragment extension header: next header, fragment offset and flags.
_IPV6_FRAG = struct.Struct("!BxH")
# TCP: ports, data offset, flags.
_TCP = struct.Struct("!HH8xBB")
# UDP: ports, length.
_UDP = struct.Struct("!HHH")


def _parse_ipv4(frame: bytes, offset: int) -> tuple[str, str, int, int, int] | None:
    """Return (src, dst, protocol, payload_len, transport offset) or None."""
    if len(frame) - offset < 20:
        return None
    ver_ihl, total_len, frag, protocol, src, dst = _IPV4.unpack_from(frame, offset)
    if ver_ihl >> 4 != 4:
        return None
    ihl = (ver_ihl & 0x0F) * 4
    if ihl < 20 or len(frame) - offset < ihl:
        return None
    if frag & 0x1FFF:  # non-first fragment: no transport header
        return None
    return _ip_text(src), _ip_text(dst), protocol, max(total_len - ihl, 0), offset + ihl


def _parse_ipv6(frame: bytes, offset: int) -> tuple[str, str, int, int, int] | None:
    if len(frame) - offset < 40:
        return None
    ver_tc, payload_len, next_header, src, dst = _IPV6.unpack_from(frame, offset)
    if ver_tc >> 4 != 6:
        return None
    pos = offset + 40
    # Walk the common extension headers; anything else ends the chain.
    while next_header in (0, 43, 44, 60):
        left = len(frame) - pos
        if next_header == 44:
            if left < 8:
                return None
            next_header, frag = _IPV6_FRAG.unpack_from(frame, pos)
            if frag >> 3:
                return None
            ext_len = 8
        else:
            if left < 2:
                return None
            next_header = frame[pos]
            ext_len = (frame[pos + 1] + 1) * 8
        if left < ext_len:
            return None
        pos += ext_len
        payload_len = max(payload_len - ext_len, 0)
    return _ip_text(src), _ip_text(dst), next_header, payload_len, pos


def _parse_frame(frame: bytes, ts_us: int, wire_len: int) -> RawPacket | None:
    """Dissect one Ethernet frame into a RawPacket; None if not TCP/UDP.

    Headers are read at offsets into ``frame``; only the payload is copied.
    """
    if len(frame) < 14:
        return None
    ethertype = _ETHERTYPE.unpack_from(frame, 12)[0]
    offset = 14
    while ethertype in _ETHERTYPE_VLAN:
        if len(frame) < offset + 4:
            return None
        ethertype = _ETHERTYPE.unpack_from(frame, offset + 2)[0]
        offset += 4

    if ethertype == _ETHERTYPE_IPV4:
        parsed = _parse_ipv4(frame, offset)
    elif ethertype == _ETHERTYPE_IPV6:
        parsed = _parse_ipv6(frame, offset)
    else:
        return None
    if parsed is None:
        return None
    src_ip, dst_ip, protocol, ip_payload_len, start = parsed

    if protocol == PROTO_TCP:
        if len(frame) - start < 20:
            return None
        src_port, dst_port, data_offset, flags = _TCP.unpack_from(frame, start)
        data_offset = (data_offset >> 4) * 4
        if data_offset < 20:
            return None
        payload_len = max(ip_payload_len - data_offset, 0)
        start += data_offset
    elif protocol == PROTO_UDP:
        if len(frame) - start < 8:
            return None
        src_port, dst_port, udp_len = _UDP.unpack_from(frame, start)
        flags = 0
        payload_len = max(min(udp_len, ip_payload_len) - 8, 0)
        start += 8
    else:
        return None

    # Positional, in field order: keyword arguments would more than double
    # the cost of building the packet.
    return RawPacket(
        ts_us,
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        protocol,
        flags,
        payload_len,
        wire_len,
        frame[start : start + payload_len],
        frame,
    )


def read_trace(path: str | os.PathLike) -> PacketTrace:
    """Read a classic pcap file into a PacketTrace.

    Only Ethernet-framed IPv4/IPv6 TCP and UDP packets are kept; everything
    else (other link types, other protocols, per-packet parse failures, and
    a final record cut off inside its header or data) is skipped and
    tallied in ``trace.skipped``. Nanosecond captures are
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


def _synthesize_frame(pkt: RawPacket) -> bytes:
    """Build an Ethernet frame for a packet without captured bytes."""
    payload = pkt.payload
    if len(payload) < pkt.payload_len:
        payload = payload + b"\x00" * (pkt.payload_len - len(payload))
    src = ip_address(pkt.src_ip)
    dst = ip_address(pkt.dst_ip)
    if src.version != dst.version:
        raise ValueError(f"cannot synthesize a frame from IPv{src.version} to IPv{dst.version}")

    if pkt.protocol == PROTO_TCP:
        transport = struct.pack(
            "!HHIIBBHHH",
            pkt.src_port,
            pkt.dst_port,
            0,
            0,
            5 << 4,
            pkt.tcp_flags,
            8192,
            0,
            0,
        ) + payload
    elif pkt.protocol == PROTO_UDP:
        transport = struct.pack(
            "!HHHH", pkt.src_port, pkt.dst_port, 8 + len(payload), 0
        ) + payload
    else:
        raise ValueError(f"cannot synthesize frame for protocol {pkt.protocol}")

    if src.version == 4:
        header = struct.pack(
            "!BBHHHBBH4s4s",
            0x45,
            0,
            20 + len(transport),
            0,
            0,
            64,
            pkt.protocol,
            0,
            src.packed,
            dst.packed,
        )
        ethertype = _ETHERTYPE_IPV4
    else:
        header = struct.pack(
            "!IHBB16s16s",
            6 << 28,
            len(transport),
            pkt.protocol,
            64,
            src.packed,
            dst.packed,
        )
        ethertype = _ETHERTYPE_IPV6
    eth = b"\x02\x00\x00\x00\x00\x02" + b"\x02\x00\x00\x00\x00\x01" + struct.pack("!H", ethertype)
    return eth + header + transport


def write_trace(trace: PacketTrace, path: str | os.PathLike) -> None:
    """Write a trace as a classic little-endian microsecond pcap file.

    Packets carrying their original frame bytes are written back verbatim;
    others get a synthesized Ethernet frame.
    """
    out = bytearray()
    out += struct.pack("<IHHiIII", _MAGIC_US_LE, 2, 4, 0, 0, 262144, _LINKTYPE_ETHERNET)
    for pkt in trace.packets:
        frame = pkt.raw if pkt.raw is not None else _synthesize_frame(pkt)
        wire_len = max(pkt.wire_len, len(frame))
        out += struct.pack(
            "<IIII", pkt.ts_us // 1_000_000, pkt.ts_us % 1_000_000, len(frame), wire_len
        )
        out += frame
    with open(path, "wb") as fh:
        fh.write(out)


def dedup(trace: PacketTrace, window_us: int = 10_000) -> PacketTrace:
    """Drop packets that repeat an identical earlier packet within a window.

    A packet is dropped iff an identical packet (same five-tuple, TCP flags,
    lengths and payload content) occurs earlier in the sequence with a
    timestamp difference of at most ``window_us``. Survivors keep their
    relative order; the first occurrence of any packet value always survives.
    Idempotent, and works on unordered traces.

    Raises ValueError on a negative window.
    """
    if window_us < 0:
        raise ValueError(f"dedup window must be >= 0 microseconds, got {window_us}")
    seen: dict[tuple, list[int]] = {}
    kept: list[RawPacket] = []
    for pkt in trace.packets:
        key = pkt.dedup_key()
        earlier = seen.get(key)
        duplicate = False
        if earlier is not None:
            i = bisect_left(earlier, pkt.ts_us)
            if i < len(earlier) and earlier[i] - pkt.ts_us <= window_us:
                duplicate = True
            elif i > 0 and pkt.ts_us - earlier[i - 1] <= window_us:
                duplicate = True
        else:
            earlier = seen[key] = []
        insort(earlier, pkt.ts_us)
        if not duplicate:
            kept.append(pkt)
    return replace(trace, packets=tuple(kept))


def reorder(trace: PacketTrace) -> PacketTrace:
    """Stable-sort packets by timestamp; equal timestamps keep input order."""
    ordered = tuple(sorted(trace.packets, key=lambda p: p.ts_us))
    return replace(trace, packets=ordered)


def out_of_order_count(trace: PacketTrace) -> int:
    """Number of packets arriving with a timestamp below the running maximum."""
    count = 0
    high = None
    for pkt in trace.packets:
        if high is not None and pkt.ts_us < high:
            count += 1
        else:
            high = pkt.ts_us
    return count
