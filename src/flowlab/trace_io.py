"""Packet trace ingestion and raw preprocessing.

Reads classic pcap files (Ethernet link layer, IPv4/IPv6, TCP/UDP),
suppresses duplicate packets inside a time window, and restores timestamp
order, producing a clean packet sequence for flow metering. Reads and
writes stream the file in chunks, so no stage holds a buffer the size of
the trace; a trace read with bytes leaves them in the file and reads them
back when they are asked for.
"""

from __future__ import annotations

import os
import struct
import weakref
from array import array
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from functools import lru_cache
from ipaddress import IPv4Address, IPv6Address, ip_address
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import add, attrgetter, eq, getitem, le, sub
from stat import S_ISREG

from .errors import MalformedHeaderError, UnreadableFileError, replacing

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
# A magic number read little-endian: the capture's byte order, and whether it counts ns.
_MAGICS = {_MAGIC_US_LE: ("<", False), _MAGIC_NS_LE: ("<", True),
           0xD4C3B2A1: (">", False), 0x4D3CB2A1: (">", True)}

_ETHERTYPE_IPV4 = 0x0800
_ETHERTYPE_IPV6 = 0x86DD
_ETHERTYPE_VLAN = (0x8100, 0x88A8)
_MACS = b"\x02\x00\x00\x00\x00\x02" + b"\x02\x00\x00\x00\x00\x01"  # of synthesized frames

_LINKTYPE_ETHERNET = 1

# Bytes read from a capture at a time (a longer record is read whole), and
# bytes of encoded records buffered before each write. On a 12 MB pcap,
# reads of 1 MiB raised the meter stage's peak RSS by 2 MB over 64 KiB. A
# write buffer of 1 MiB raised ``flowlab preprocess``'s peak RSS by 0.95 MB
# once dedup and reorder held no state per packet; one of 256 KiB leaves
# the peak where reorder put it.
_READ_CHUNK = 1 << 16
_WRITE_CHUNK = 1 << 18
# Rows per block of a timestamp column: ``dedup`` lets entries go, and
# ``reorder`` may cut the trace, only where one block ends and the next begins.
_BLOCK = 1 << 10


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
    A packet read with ``read_trace(..., keep_bytes=False)`` holds neither:
    its ``payload`` is ``b""`` and its ``raw`` is None. A trace keeps its
    packets as ``PacketColumns`` and builds a ``RawPacket`` when one is read;
    a field value that its column cannot hold (see ``_HEADER_TYPES``) is
    refused with ValueError when the trace is built.
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
        """Identity used for duplicate suppression: the header fields but
        the timestamp, then the captured payload, as ``PacketColumns.identity``."""
        return _identity(self)


# The array type of each header column, in ``RawPacket`` field order from
# ``ts_us`` to ``wire_len``; the address columns hold indices.
_HEADER_TYPES = "qIIHHBBII"
_FIELDS = tuple(RawPacket.__dataclass_fields__)
_identity = attrgetter(*_FIELDS[1:9], "payload")
# The frame length of a packet without frame bytes.
_NO_FRAME = 0xFFFFFFFF


def _column(name: str, typecode: str, values: Sequence) -> array:
    """An array of ``values``; ValueError names ``name`` and the first
    value that the type cannot hold."""
    try:
        return array(typecode, values)
    except (OverflowError, TypeError):
        signed = typecode == "q"
        bits = 8 * array(typecode).itemsize - signed
        low, high = -(1 << bits) * signed, (1 << bits) - 1
        for value in values:
            try:
                array(typecode, [value])
            except (OverflowError, TypeError):
                raise ValueError(f"{name} {value!r} is not an integer in [{low}, {high}]") from None
        raise


def _runs(rows: Sequence[int], base: int = 0) -> list[slice]:
    """``rows``, each moved on by ``base``, as slices of consecutive rows, in
    order. The rows that ``dedup`` keeps, and a ``reorder`` of a nearly
    sorted trace, fall in few runs: on a 28,369-packet pcap with 5%
    duplicates and 2% swaps, the two copy their columns in 7 ms by runs and
    in 27-50 ms row by row (``flowlab preprocess`` ran 26% slower at 50 ms).
    A shuffled trace, in runs of one row, takes about 2.4 times as long
    this way."""
    steps = map(sub, islice(rows, 1, None), rows)
    breaks = list(compress(count(1), map((1).__ne__, steps)))
    bounds = zip(chain((0,), breaks), chain(breaks, (len(rows),)))
    runs = [slice(rows[start], rows[end - 1] + 1) for start, end in bounds if end > start]
    return [slice(run.start + base, run.stop + base) for run in runs] if base else runs


def _bounds(ts: array) -> tuple[list[int], list[int]]:
    """Per block of ``_BLOCK`` rows of ``ts``, the least time in it or after
    it, and the greatest time in it or before it."""
    least, greatest = [], []
    for start in range(0, len(ts), _BLOCK):
        block = ts[start : start + _BLOCK].tolist()
        least.append(min(block))
        greatest.append(max(block))
    return list(accumulate(reversed(least), min))[::-1], list(accumulate(greatest, max))


def _take(column: array, runs: list[slice]) -> array:
    """The rows of ``column`` in ``runs``, in that order, as a column of its type."""
    taken = column[:0]
    for run in runs:
        taken += column[run]
    return taken


class _FileChunks(Sequence):
    """The chunks of a capture read with bytes, left in the file.

    Chunk ``c`` is the ``lengths[c]`` bytes at file offset ``offsets[c]``,
    read with ``os.pread`` on a duplicate of the capture's descriptor when
    it is asked for; the last chunk read is kept. A read that comes up
    short, or a capture whose size or modification time differs from
    ``st``'s, raises UnreadableFileError; so does a capture still being
    written to, once it has grown. Only the size and the modification time
    are checked: a rewrite that keeps both (at the same size within the
    file system's timestamp granularity, or with the time set back) is not
    seen. A file replaced by a rename is not a change, since the descriptor
    keeps the old file. The descriptor is closed once nothing holds the
    chunks.
    """

    __slots__ = ("_fd", "_path", "_stat", "offsets", "lengths", "_last", "__weakref__")

    def __init__(self, fd: int, path: str, st: os.stat_result, offsets: array, lengths: array):
        self._fd = os.dup(fd)
        weakref.finalize(self, os.close, self._fd)
        self._path = path
        self._stat = (st.st_size, st.st_mtime_ns)
        self.offsets = offsets
        self.lengths = lengths
        self._last: tuple[int | None, bytes] = (None, b"")

    def __len__(self) -> int:
        return len(self.offsets)

    def __getitem__(self, c: int) -> bytes:
        if self._last[0] == c:
            return self._last[1]
        try:
            data = os.pread(self._fd, self.lengths[c], self.offsets[c])
            st = os.fstat(self._fd)
        except OSError as exc:
            raise UnreadableFileError(f"cannot read capture {self._path}: {exc}") from exc
        if len(data) != self.lengths[c] or (st.st_size, st.st_mtime_ns) != self._stat:
            raise UnreadableFileError(
                f"cannot read capture {self._path}: it has changed since it was read"
            )
        self._last = (c, data)
        return data


class PacketColumns(Sequence):
    """A trace's packets, held as typed columns, read as ``RawPacket``s.

    ``header`` holds one array per header field, in ``RawPacket`` field
    order and of the type in ``_HEADER_TYPES``, with ``src_ip`` and
    ``dst_ip`` as indices into ``addresses``, the address texts as read or
    given. The bytes of the packets lie in ``chunks``: one chunk in memory
    for packets given (empty when none holds bytes), and the file's chunks,
    left in the file (``_FileChunks``), for a trace read with bytes, where a
    run of rows in one chunk reads it once. ``spans`` holds five ``'I'``
    arrays: per packet, its chunk, the start and length of its frame
    (``_NO_FRAME`` for none) and the start and end of its captured payload
    there. ``spans`` and ``chunks`` are None for a trace read with
    ``keep_bytes=False`` and only then. Indexing builds a ``RawPacket``; a
    slice, or ``take``, gives the columns of those rows, sharing the
    addresses and the chunks; columns are equal when their packets are.
    """

    __slots__ = ("header", "addresses", "chunks", "spans")

    def __init__(
        self,
        header: list[array],
        addresses: list[str],
        chunks: Sequence[bytes] | None,
        spans: list[array] | None,
    ) -> None:
        self.header = header
        self.addresses = addresses
        self.chunks = chunks
        self.spans = spans

    @classmethod
    def of(cls, packets: Iterable[RawPacket]) -> PacketColumns:
        """The columns of ``packets``."""
        packets = packets if isinstance(packets, (list, tuple)) else list(packets)
        return cls.from_fields([list(map(attrgetter(name), packets)) for name in _FIELDS])

    @classmethod
    def from_fields(cls, columns: Sequence[Sequence]) -> PacketColumns:
        """The columns of packets given as one sequence per ``RawPacket``
        field, in field order. Their frames and payloads are copied into one
        chunk; a payload that ends its frame is not copied twice. Raises
        ValueError, naming the field, for a value its column cannot hold."""
        ts, src, dst, *fields, payloads, frames = columns
        index = dict.fromkeys(src)
        index.update(dict.fromkeys(dst))
        for i, text in enumerate(index):
            index[text] = i
        header = [
            _column("ts_us", "q", ts),
            array("I", map(index.__getitem__, src)),
            array("I", map(index.__getitem__, dst)),
            *map(_column, _FIELDS[3:9], _HEADER_TYPES[3:], fields),
        ]

        parts, firsts, lengths, starts, pos = [], [], [], [], 0
        for raw, payload in zip(frames, payloads):
            firsts.append(pos)
            if raw is None:
                lengths.append(_NO_FRAME)
            else:
                parts.append(raw)
                lengths.append(len(raw))
                pos += len(raw)
                if raw.endswith(payload):
                    starts.append(pos - len(payload))
                    continue
            parts.append(payload)
            starts.append(pos)
            pos += len(payload)
        spans = firsts, lengths, starts, list(map(add, starts, map(len, payloads)))
        names = "frame start", "frame length", "payload start", "payload end"
        columns = [array("I", bytes(4 * len(ts))), *map(_column, names, "IIII", spans)]
        return cls(header, list(index), [b"".join(parts)], columns)

    def __len__(self) -> int:
        return len(self.header[0])

    def __getitem__(self, i: int | slice) -> RawPacket | PacketColumns:
        if isinstance(i, slice):
            spans = None if self.spans is None else [c[i] for c in self.spans]
            return PacketColumns([c[i] for c in self.header], self.addresses, self.chunks, spans)
        i = range(len(self))[i]
        return next(iter(self[i : i + 1]))

    def __iter__(self) -> Iterator[RawPacket]:
        ts, src, dst, *rest = self.header
        fields = [ts, map(self.addresses.__getitem__, src), map(self.addresses.__getitem__, dst)]
        if self.spans is None:
            return map(RawPacket, *fields, *rest)
        return map(RawPacket, *fields, *rest, self.payloads(), self.frames())

    def take(self, rows: Sequence[int]) -> PacketColumns:
        """The columns of rows ``rows``, in that order."""
        return self._take(_runs(rows))

    def _take(self, runs: list[slice]) -> PacketColumns:
        """The columns of the rows in ``runs``, slices of rows, in that order."""
        spans = None if self.spans is None else [_take(c, runs) for c in self.spans]
        header = [_take(c, runs) for c in self.header]
        return PacketColumns(header, self.addresses, self.chunks, spans)

    def identity(self, i: int) -> tuple:
        """Packet ``i``'s header fields but its timestamp, then its
        captured payload: what ``dedup`` tells packets apart by."""
        chunk, _, _, start, end = (c[i] for c in self.spans)
        return (*(c[i] for c in self.header[1:]), self.chunks[chunk][start:end])

    def payloads(self) -> Iterator[bytes]:
        """Each packet's captured payload, in order."""
        chunk, _, _, start, end = self.spans
        return map(getitem, map(self.chunks.__getitem__, chunk), map(slice, start, end))

    def frames(self) -> Iterator[bytes | None]:
        """Each packet's frame bytes, or None, in order."""
        chunks = self.chunks
        chunk, frame, length, _, _ = self.spans
        return (
            None if n == _NO_FRAME else chunks[c][f : f + n]
            for c, f, n in zip(chunk, frame, length)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, PacketColumns):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return f"PacketColumns({list(self)!r})"


@dataclass(frozen=True, slots=True)
class PacketTrace:
    """An ordered packet sequence plus provenance and skip tally.

    ``packets`` are ``PacketColumns``; packets given any other way (such
    as a tuple of ``RawPacket``s) are converted to them, and a value that
    no column holds raises ValueError.
    """

    packets: PacketColumns
    source: str
    skipped: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.packets, PacketColumns):
            object.__setattr__(self, "packets", PacketColumns.of(self.packets))

    @property
    def headers_only(self) -> bool:
        """Whether the trace was read with ``keep_bytes=False``: its packets
        hold no payload or frame bytes, so ``dedup`` and ``write_trace``
        refuse it."""
        return self.packets.spans is None

    def __len__(self) -> int:
        return len(self.packets)


@lru_cache(maxsize=65536)
def parse_ip(text: str) -> tuple[IPv4Address | IPv6Address, bytes, str]:
    """The address that ``text`` names, its packed bytes and its canonical
    text; ValueError if it names none. The one parser of address text, and
    cached, since the same few addresses recur on every packet."""
    addr = ip_address(text)
    return addr, addr.packed, str(addr)


# A pcap record header as written: seconds, microseconds, captured and wire length.
_RECORD = struct.Struct("<IIII")
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
# The common frame from its ethertype on, read at once: ethertype; IPv4
# version/IHL, total length, fragment field, protocol, source, destination;
# ports, then UDP's length or the top of TCP's sequence number; TCP's data
# offset and flags. It spans bytes 12-47 of the frame.
_COMMON = struct.Struct("!HBxHxxHxB2x4s4sHHH6xBB")
# A synthesized frame's headers by IP version and protocol: the bytes before
# the IP length, it, the bytes up to TCP's flags or UDP's length, it, the rest.
_FRAME = {
    (4, PROTO_TCP): struct.Struct("!16sH29sB6s"), (4, PROTO_UDP): struct.Struct("!16sH20sH2s"),
    (6, PROTO_TCP): struct.Struct("!18sH47sB6s"), (6, PROTO_UDP): struct.Struct("!18sH38sH2s"),
}


def _parse_ipv6(buf: bytes, offset: int, end: int) -> tuple[bytes, bytes, int, int, int] | None:
    """Return (packed src, packed dst, protocol, payload_len, transport
    offset) or None for the IPv6 header at ``offset``, walking its
    extension headers."""
    if end - offset < 40:
        return None
    ver_tc, payload_len, next_header, src, dst = _IPV6.unpack_from(buf, offset)
    if ver_tc >> 4 != 6:
        return None
    pos = offset + 40
    # Walk the common extension headers; anything else ends the chain.
    while next_header in (0, 43, 44, 60):
        left = end - pos
        if next_header == 44:
            if left < 8:
                return None
            next_header, frag = _IPV6_FRAG.unpack_from(buf, pos)
            if frag >> 3:
                return None
            ext_len = 8
        else:
            if left < 2:
                return None
            next_header = buf[pos]
            ext_len = (buf[pos + 1] + 1) * 8
        if left < ext_len:
            return None
        pos += ext_len
        payload_len = max(payload_len - ext_len, 0)
    return src, dst, next_header, payload_len, pos


def read_trace(path: str | os.PathLike, *, keep_bytes: bool = True) -> PacketTrace:
    """Read a classic pcap file into a PacketTrace.

    Only Ethernet-framed IPv4/IPv6 TCP and UDP packets are kept; everything
    else (other link types, other protocols, per-packet parse failures, and
    a final record cut off inside its header or data) is skipped and
    tallied in ``trace.skipped``. Nanosecond captures are
    truncated to microseconds.

    The file is read in chunks of 64 KiB, and no read asks for more bytes
    than the file holds, so a corrupt record length ends the read as a
    truncated final record. Each frame is decoded in place in its chunk.
    One ``struct`` read of bytes 12-47 decodes the common frame: IPv4
    (ethertype 0x0800, first byte 0x45, fragment offset 0) carrying TCP
    with its whole header captured (54 bytes) and a data offset of at least
    5 words, or UDP in at least 48 bytes. Every other frame (VLAN tags,
    IPv6, IPv4 options, fragments, short frames, other protocols) takes the
    layered parse, one read per header. The frames and payloads stay in
    the file: the trace holds each chunk's offset and length and reads a
    chunk back when its bytes are asked for, which raises
    UnreadableFileError if the file's size or modification time has
    changed since (see ``_FileChunks``). With ``keep_bytes=False`` each
    packet keeps its header fields only (``payload=b""``, ``raw=None``),
    which is all the meter reads; the trace is then ``headers_only``, and
    ``dedup`` and ``write_trace`` refuse it.

    Raises UnreadableFileError if the file cannot be opened or read, or is
    not a regular file, and MalformedHeaderError on an unknown magic number
    or version.
    """
    try:
        with open(path, "rb", buffering=0) as fh:
            return _read(fh, str(path), keep_bytes)
    except OSError as exc:
        raise UnreadableFileError(f"cannot read capture {path}: {exc}") from exc


def _read(fh, path: str, keep_bytes: bool) -> PacketTrace:
    """The body of ``read_trace``: parse each record of ``fh`` in place in
    the chunk that holds it into the header columns, and note the chunk's
    place in the file (with ``keep_bytes``) for the frames and payloads
    that lie in it."""
    st = os.fstat(fh.fileno())
    if not S_ISREG(st.st_mode):
        raise UnreadableFileError(f"cannot read capture {path}: not a regular file")
    head = fh.read(24)
    if len(head) < 24:
        raise MalformedHeaderError(f"{path}: truncated pcap global header")
    magic = struct.unpack_from("<I", head, 0)[0]
    if magic not in _MAGICS:
        raise MalformedHeaderError(f"{path}: bad pcap magic 0x{magic:08x}")
    endian, ns = _MAGICS[magic]
    version_major, *_, linktype = struct.unpack_from(endian + "HHiIII", head, 4)
    if version_major != 2:
        raise MalformedHeaderError(f"{path}: unsupported pcap version {version_major}")

    ethernet = linktype == _LINKTYPE_ETHERNET
    record = struct.Struct(endian + "IIII").unpack_from
    header = [array(t) for t in _HEADER_TYPES]
    spans = [array("I") for _ in range(5)] if keep_bytes else None
    offsets, lengths = array("q"), array("I")  # of each chunk in the file
    index: dict[bytes, int] = {}  # packed address -> its index in the address table
    get, common = index.get, _COMMON.unpack_from
    # Per packet of the chunk: its header fields, then its frame's start and
    # length and its payload's start and end in the chunk.
    rows: list[tuple] = []

    def flush(offset: int, length: int) -> None:
        columns = zip(*rows)
        for column, values in zip(header, columns):
            column.extend(values)
        if keep_bytes:
            spans[0].extend(repeat(len(offsets), len(rows)))
            for column, values in zip(spans[1:], columns):
                column.extend(values)
            offsets.append(offset)
            lengths.append(length)
        rows.clear()

    records = 0  # whole records read; every one not kept is skipped
    left = st.st_size - 24  # bytes of the file not yet read into buf
    buf, at, i, n = b"", 24, 0, 0  # buf holds the file's bytes from offset at
    while True:
        if n - i < 16:
            short = 16 - (n - i)
        else:
            ts_sec, ts_frac, incl_len, wire_len = record(buf, i)
            base = i + 16
            end = base + incl_len
            short = end - n
        if short > 0:
            # The record runs past the chunk: carry it into the next one,
            # unless the file ends first. The chunk's packets lie in its
            # bytes up to the carried record.
            if rows:
                flush(at, i)
            if short > left:
                break
            more = fh.read(min(left, max(short, _READ_CHUNK)))
            left = left - len(more) if more else 0
            buf = buf[i:] + more
            at += i
            i, n = 0, len(buf)
            continue
        i = end
        records += 1
        if not ethernet or incl_len < 14:
            continue

        # The common frame, Ethernet and IPv4 without options or a fragment
        # offset carrying a whole TCP header or a UDP one, is decoded by one
        # read; every other frame takes the layered parse below.
        one_call = False
        if incl_len >= 48:
            (ethertype, ver_ihl, ip_len, frag, protocol, src, dst, src_port, dst_port, udp_len,
             data_offset, flags) = common(buf, base + 12)
            if ethertype == _ETHERTYPE_IPV4 and ver_ihl == 0x45 and not frag & 0x1FFF:
                if protocol == PROTO_TCP and data_offset >= 0x50 and incl_len >= 54:
                    one_call = True
                    data_offset = (data_offset >> 4) * 4
                    payload_len = ip_len - 20 - data_offset
                    payload_len = payload_len if payload_len > 0 else 0
                    start = base + 34 + data_offset
                elif protocol == PROTO_UDP:
                    one_call = True
                    flags = 0
                    ip_len -= 20
                    payload_len = (udp_len if udp_len < ip_len else ip_len) - 8
                    payload_len = payload_len if payload_len > 0 else 0
                    start = base + 42
        if not one_call:
            # One parse per frame, read in place: link, network, transport.
            ethertype = _ETHERTYPE.unpack_from(buf, base + 12)[0]
            offset = base + 14
            while ethertype in _ETHERTYPE_VLAN:
                if end - offset < 4:
                    break
                ethertype = _ETHERTYPE.unpack_from(buf, offset + 2)[0]
                offset += 4
            if ethertype == _ETHERTYPE_IPV4:
                if end - offset < 20:
                    continue
                ver_ihl, total_len, frag, protocol, src, dst = _IPV4.unpack_from(buf, offset)
                ihl = (ver_ihl & 0x0F) * 4
                # Not version 4, a bad header length, or a non-first fragment
                # (which holds no transport header).
                if ver_ihl >> 4 != 4 or ihl < 20 or end - offset < ihl or frag & 0x1FFF:
                    continue
                ip_payload_len = max(total_len - ihl, 0)
                start = offset + ihl
            elif ethertype == _ETHERTYPE_IPV6:
                parsed = _parse_ipv6(buf, offset, end)
                if parsed is None:
                    continue
                src, dst, protocol, ip_payload_len, start = parsed
            else:  # not IP, or a VLAN tag cut off
                continue

            if protocol == PROTO_TCP:
                if end - start < 20:
                    continue
                src_port, dst_port, data_offset, flags = _TCP.unpack_from(buf, start)
                data_offset = (data_offset >> 4) * 4
                if data_offset < 20:
                    continue
                payload_len = max(ip_payload_len - data_offset, 0)
                start += data_offset
            elif protocol == PROTO_UDP:
                if end - start < 8:
                    continue
                src_port, dst_port, udp_len = _UDP.unpack_from(buf, start)
                flags = 0
                payload_len = max(min(udp_len, ip_payload_len) - 8, 0)
                start += 8
            else:
                continue

        ts_us = ts_sec * 1_000_000 + (ts_frac // 1000 if ns else ts_frac)
        src_index = get(src)
        if src_index is None:
            src_index = index[src] = len(index)
        dst_index = get(dst)
        if dst_index is None:
            dst_index = index[dst] = len(index)
        stop = start + payload_len
        rows.append((ts_us, src_index, dst_index, src_port, dst_port, protocol, flags, payload_len,
                     wire_len, base, incl_len, start, stop if stop < end else end))

    chunks = _FileChunks(fh.fileno(), path, st, offsets, lengths) if keep_bytes else None
    packets = PacketColumns(header, [str(ip_address(packed)) for packed in index], chunks, spans)
    skipped = records - len(packets) + (n - i + left > 0)  # and a truncated final record
    return PacketTrace(packets, path, skipped)


def _frame(src_ip, dst_ip, src_port, dst_port, protocol, tcp_flags, payload_len, payload) -> bytes:
    """The frame of a packet without captured bytes: ``_framer``'s one-packet case."""
    return _framer(src_ip, dst_ip, src_port, dst_port, protocol)(tcp_flags, payload_len, payload)


def _framer(src_ip, dst_ip, src_port, dst_port, protocol):
    """``frame(tcp_flags, payload_len, payload)``: a packet's Ethernet frame between these
    endpoints, or ValueError naming what does not fit. The addresses are parsed and
    checked and the bytes the endpoints fix packed once, so a frame is one ``struct`` call."""
    (src, src_packed, _), (dst, dst_packed, _) = parse_ip(src_ip), parse_ip(dst_ip)
    if src.version != dst.version:
        raise ValueError(f"cannot synthesize a frame from IPv{src.version} to IPv{dst.version}")
    addresses = src_packed + dst_packed
    layout = _FRAME.get((src.version, protocol))
    if layout is None:
        raise ValueError(f"cannot synthesize frame for protocol {protocol}")
    tcp, v4 = protocol == PROTO_TCP, src.version == 4
    # The headers of an empty payload, lengths and flags 0, cut around those: IPv4
    # with TTL 64 or IPv6 with hop limit 64, TCP's data offset 5 and window 8192.
    try:
        ip = (struct.pack("!HB7xBB2x8s", _ETHERTYPE_IPV4, 0x45, 64, protocol, addresses) if v4
              else struct.pack("!HI2xBB32s", _ETHERTYPE_IPV6, 6 << 28, protocol, 64, addresses))
        transport = (struct.pack("!HH8xBxH4x", src_port, dst_port, 5 << 4, 8192) if tcp
                     else struct.pack("!HH4x", src_port, dst_port))
        head, _, mid, _, tail = layout.unpack(_MACS + ip + transport)
    except struct.error:  # a port that does not fit fails each frame, as a long payload does
        head = mid = tail = None
    pack, empty = layout.pack, (20 if tcp else 8) + (20 if v4 else 0)  # IP length, no payload

    def frame(tcp_flags, payload_len, payload):
        if len(payload) < payload_len:
            payload = payload + b"\x00" * (payload_len - len(payload))
        size = len(payload)
        try:
            return pack(head, empty + size, mid, tcp_flags if tcp else 8 + size, tail) + payload
        except struct.error:
            problem = f"a payload of {size} bytes does not fit one IP packet"
            raise ValueError(f"cannot synthesize a frame: {problem}") from None

    return frame


def _refuse_headers_only(trace: PacketTrace, action: str) -> None:
    if trace.headers_only:
        raise ValueError(
            f"cannot {action} {trace.source}: it was read with keep_bytes=False,"
            " so its packets hold no payload or frame bytes"
        )


def write_trace(trace: PacketTrace, path: str | os.PathLike) -> None:
    """Write a trace as a classic little-endian microsecond pcap file.

    Packets carrying their original frame bytes are written back verbatim;
    others get a synthesized Ethernet frame. The file is written in chunks
    of about 256 KiB as the packets are encoded. Raises ValueError for a
    header-only trace (see ``read_trace``), for a packet whose timestamp is
    outside [0, 2**32) seconds, and for a frame that cannot be synthesized;
    a write that fails leaves ``path`` as it was.
    """
    _refuse_headers_only(trace, "write")
    packets = trace.packets
    chunks = packets.chunks
    with replacing(path, "wb") as fh:
        out = bytearray(
            struct.pack("<IHHiIII", _MAGIC_US_LE, 2, 4, 0, 0, 262144, _LINKTYPE_ETHERNET)
        )
        # Per packet, its chunk and the start and length of its frame there.
        rows = zip(count(), packets.header[0], packets.header[8], *packets.spans[:3])
        for i, ts_us, wire_len, chunk, start, length in rows:
            if length == _NO_FRAME:
                pkt = packets[i]
                frame = _frame(pkt.src_ip, pkt.dst_ip, pkt.src_port, pkt.dst_port, pkt.protocol,
                               pkt.tcp_flags, pkt.payload_len, pkt.payload)
                length = len(frame)
            else:
                frame = chunks[chunk][start : start + length]
            if length > wire_len:
                wire_len = length
            if not 0 <= ts_us < 2**32 * 1_000_000:
                raise ValueError(f"pcap seconds lie in [0, 2**32); ts_us {ts_us} is outside")
            out += _RECORD.pack(ts_us // 1_000_000, ts_us % 1_000_000, length, wire_len)
            out += frame
            if len(out) >= _WRITE_CHUNK:
                fh.write(out)
                out.clear()
        fh.write(out)


# The digest of a packet's identity (its header fields but the timestamp, and
# its payload) that ``dedup`` keys on; packets with equal digests are told
# apart by their fields and bytes.
_digest = hash


def dedup(trace: PacketTrace, window_us: int = 10_000) -> PacketTrace:
    """Drop packets that repeat an identical earlier packet within a window.

    A packet is dropped iff an identical packet (same five-tuple, TCP flags,
    lengths and payload content) occurs earlier in the sequence with a
    timestamp difference of at most ``window_us``. Survivors keep their
    relative order; the first occurrence of any packet value always survives.
    Idempotent, and works on unordered traces; a trace without duplicates
    is returned as it is.

    Beyond the columns, ``dedup`` holds the rows it drops and an entry per
    distinct packet in two generations. The older is let go whole once all
    its times lie more than ``window_us`` before the least time still to
    come (read off the timestamp column per block of rows), so the result
    is exact for any input order and a trace in order holds about two
    windows of packets. Behind a time far ahead of the rest, the older
    generation is swept entry by entry as the entries double; a reversed
    trace keeps every entry.

    Raises ValueError on a negative window and for a header-only trace
    (see ``read_trace``), whose packets could be told apart by headers only.
    """
    if window_us < 0:
        raise ValueError(f"dedup window must be >= 0 microseconds, got {window_us}")
    _refuse_headers_only(trace, "dedup")
    packets = trace.packets
    times = packets.header[0]
    # Per digest, the row of its one packet so far; once a digest repeats,
    # a list of [row, timestamps...] per distinct identity, with the sorted
    # timestamps of every packet of that identity so far. ``young`` takes
    # every entry made or changed; ``old`` holds no time after ``old_high``.
    young: dict[int, int | list[list[int]]] = {}
    old: dict[int, int | list[list[int]]] = {}
    old_high = high = float("-inf")
    dropped = array("q")
    rows = zip(count(), times, zip(*packets.header[1:], packets.payloads()))
    for least, greatest in zip(*_bounds(times)):
        cutoff = least - window_us
        if old_high < cutoff:
            old, young, old_high = young, {}, high
        elif len(young) >= max(len(old), _BLOCK):
            # A time ahead of the rest, or a least time still to come that
            # lies far back, keeps ``old``: sweep it entry by entry, as
            # often as the entries double, so the cost is spread over rows.
            young.update(old)
            old, young, old_high = young, {}, high
            _sweep(old, times, cutoff)
        high = greatest
        for row, ts, identity in islice(rows, _BLOCK):
            key = _digest(identity)
            groups = young.get(key)
            if groups is None:
                groups = old.pop(key, None)
                if groups is None:
                    young[key] = row
                    continue
                young[key] = groups
            if type(groups) is int:
                groups = young[key] = [[groups, times[groups]]]
            for group in groups:
                if packets.identity(group[0]) == identity:
                    break
            else:
                groups.append([row, ts])
                continue
            i = bisect_left(group, ts, 1)
            if (i < len(group) and group[i] - ts <= window_us) or (
                i > 1 and ts - group[i - 1] <= window_us
            ):
                dropped.append(row)
            group.insert(i, ts)
    if not dropped:
        return trace
    bounds = zip(chain((0,), map((1).__add__, dropped)), chain(dropped, (len(packets),)))
    runs = [slice(start, stop) for start, stop in bounds if stop > start]
    return replace(trace, packets=packets._take(runs))


def _sweep(seen: dict, times: array, cutoff: int) -> None:
    """Take out of ``seen``, entries of ``dedup``, every timestamp before
    ``cutoff`` and the entries left with none. Entries are deleted in
    place, so a sweep that lets nothing go copies nothing."""
    gone = []
    for key, groups in seen.items():
        if type(groups) is int:
            if times[groups] < cutoff:
                gone.append(key)
            continue
        for group in groups:
            del group[1 : bisect_left(group, cutoff, 1)]
        groups[:] = [group for group in groups if len(group) > 1]
        if not groups:
            gone.append(key)
    for key in gone:
        del seen[key]


def reorder(trace: PacketTrace) -> PacketTrace:
    """Stable-sort packets by timestamp; equal timestamps keep input order.
    A trace already in order is returned as it is.

    The trace is cut where a block of rows ends and no earlier time is
    later than a time after it; only the stretches between cuts that are
    out of order are sorted, so beyond the columns ``reorder`` holds the
    longest of those and one slice per run of rows in order. A trace with
    no cut, such as a reversed one, is sorted whole.
    """
    ts = trace.packets.header[0]
    if all(map(le, ts, islice(ts, 1, None))):
        return trace
    least, greatest = _bounds(ts)
    cuts = [b * _BLOCK for b, (g, l) in enumerate(zip(greatest, least[1:]), 1) if g <= l]
    runs: list[slice] = []
    for start, stop in zip([0, *cuts], [*cuts, len(ts)]):
        # A stretch of more than a block is out of order, or it would be cut.
        block = ts[start:stop] if stop - start <= _BLOCK else ()
        if block and all(map(le, block, islice(block, 1, None))):
            runs.append(slice(start, stop))
        else:
            # A list of the times makes a faster key than the array. Neither
            # it nor the order is named, so each is let go once it is used.
            runs += _runs(
                sorted(range(stop - start), key=ts[start:stop].tolist().__getitem__), start
            )
    return replace(trace, packets=trace.packets._take(runs))


def out_of_order_count(trace: PacketTrace) -> int:
    """Number of packets arriving with a timestamp below the running maximum."""
    count = 0
    high = None
    for ts_us in trace.packets.header[0]:
        if high is not None and ts_us < high:
            count += 1
        else:
            high = ts_us
    return count
