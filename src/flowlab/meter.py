"""Single-pass bidirectional flow metering.

Assembles packets into flows keyed by a direction-agnostic five-tuple,
expires flows on idle/active timeouts and on the first FIN or RST, and
exports partial-flow snapshots at packet-count, duration, and byte-count
triggers while the flow is still live.
"""

from __future__ import annotations

import math
import struct
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple, get_type_hints

from .errors import BOOL, INT, NUMBER, Field, JsonDocument, UnsortedTraceError, check, keep
from .trace_io import (
    PacketTrace,
    RawPacket,
    TCP_ACK,
    TCP_CWR,
    TCP_ECE,
    TCP_FIN,
    TCP_PSH,
    TCP_RST,
    TCP_SYN,
    TCP_URG,
    parse_ip,
)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

# In the order of the bidirectional_*_count features.
_FLAG_BITS = (TCP_SYN, TCP_FIN, TCP_RST, TCP_PSH, TCP_ACK, TCP_URG, TCP_ECE, TCP_CWR)


def _comes_first(addr1, port1: int, addr2, port2: int) -> bool:
    """Whether endpoint 1 is ``endpoint_a`` of its flow key: the smaller
    (address, port) pair. The addresses are packed bytes, or ranks that
    order as they do (see ``_address_ranks``)."""
    return addr1 < addr2 or (addr1 == addr2 and port1 <= port2)


def _flow_key(
    ip1: str, port1: int, ip2: str, port2: int, protocol: int
) -> tuple[tuple[str, int], tuple[str, int], int]:
    """The plain tuple ``(endpoint_a, endpoint_b, protocol)`` of ``FlowKey``.

    Endpoints carry canonical address text, and ``endpoint_a`` is the
    smaller (packed address, port) pair, so both orientations of a
    five-tuple, and every text form of its addresses, give one key.
    """
    _, packed1, text1 = parse_ip(ip1)
    _, packed2, text2 = parse_ip(ip2)
    if _comes_first(packed1, port1, packed2, port2):
        return (text1, port1), (text2, port2), protocol
    return (text2, port2), (text1, port1), protocol


@dataclass(frozen=True, slots=True)
class FlowKey:
    """Direction-agnostic flow identity: canonically ordered endpoints.

    ``endpoint_a`` is the lexicographically smaller (ip, port) pair when
    compared by packed address bytes, so both orientations of a five-tuple
    map to the same key.
    """

    endpoint_a: tuple[str, int]
    endpoint_b: tuple[str, int]
    protocol: int

    @classmethod
    def from_endpoints(
        cls, ip1: str, port1: int, ip2: str, port2: int, protocol: int
    ) -> FlowKey:
        return cls(*_flow_key(ip1, port1, ip2, port2, protocol))

    @classmethod
    def from_packet(cls, pkt: RawPacket) -> FlowKey:
        return cls.from_endpoints(
            pkt.src_ip, pkt.src_port, pkt.dst_ip, pkt.dst_port, pkt.protocol
        )


def flow_hash(key: FlowKey, start_us: int) -> int:
    """Stable 64-bit FNV-1a hash of the six-tuple (key + flow start time).

    The hashed serialization is ``ipA|portA|ipB|portB|proto|start_us`` with
    IPs as lowercase hex of their packed bytes, ports as 4-digit lowercase
    hex, and protocol and start time in decimal.
    """
    text = "{}|{:04x}|{}|{:04x}|{}|{}".format(
        parse_ip(key.endpoint_a[0])[1].hex(),
        key.endpoint_a[1],
        parse_ip(key.endpoint_b[0])[1].hex(),
        key.endpoint_b[1],
        key.protocol,
        start_us,
    )
    h = _FNV_OFFSET
    for byte in text.encode("ascii"):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


@dataclass(frozen=True, slots=True)
class FlowId:
    """Six-tuple flow identity: key, start time, and their stable hash."""

    hash64: int
    key: FlowKey
    start_us: int

    @classmethod
    def from_key(cls, key: FlowKey, start_us: int) -> FlowId:
        return cls(hash64=flow_hash(key, start_us), key=key, start_us=start_us)


@dataclass(frozen=True, slots=True)
class Trigger:
    """A snapshot export trigger: PC=N packets, FD=T ms, or BC=B bytes."""

    kind: str  # "pc" | "fd" | "bc"
    value: int

    _KIND_ORDER = {"pc": 0, "fd": 1, "bc": 2}

    def __post_init__(self) -> None:
        if self.kind not in self._KIND_ORDER:
            raise ValueError(f"unknown trigger kind {self.kind!r}")
        keep(self, check("trigger", self, {"value": Field(INT, "[1, inf)")}))

    def __str__(self) -> str:
        return f"{self.kind.upper()}={self.value}"

    @classmethod
    def parse(cls, text: str) -> Trigger:
        kind, _, value = text.partition("=")
        return cls(kind.lower(), int(value))

    def sort_key(self) -> tuple[int, int]:
        return (self._KIND_ORDER[self.kind], self.value)


class FeatureVector(NamedTuple):
    """Statistical flow features over the bidirectional, src-to-dst, and
    dst-to-src scopes, plus TCP flag counts.

    Packet size (``*_ps``) features are over wire bytes; payload bytes are
    tracked separately. Inter-arrival (``*_piat_ms``) and stddev features
    are 0 for scopes with fewer than two packets; stddev is the population
    standard deviation.
    """

    duration_ms: float

    bidirectional_packets: int
    bidirectional_bytes: int
    bidirectional_payload_bytes: int
    bidirectional_min_ps: float
    bidirectional_mean_ps: float
    bidirectional_max_ps: float
    bidirectional_stddev_ps: float
    bidirectional_min_piat_ms: float
    bidirectional_mean_piat_ms: float
    bidirectional_max_piat_ms: float
    bidirectional_stddev_piat_ms: float

    src2dst_packets: int
    src2dst_bytes: int
    src2dst_payload_bytes: int
    src2dst_min_ps: float
    src2dst_mean_ps: float
    src2dst_max_ps: float
    src2dst_stddev_ps: float
    src2dst_min_piat_ms: float
    src2dst_mean_piat_ms: float
    src2dst_max_piat_ms: float
    src2dst_stddev_piat_ms: float

    dst2src_packets: int
    dst2src_bytes: int
    dst2src_payload_bytes: int
    dst2src_min_ps: float
    dst2src_mean_ps: float
    dst2src_max_ps: float
    dst2src_stddev_ps: float
    dst2src_min_piat_ms: float
    dst2src_mean_piat_ms: float
    dst2src_max_piat_ms: float
    dst2src_stddev_piat_ms: float

    bidirectional_syn_count: int
    bidirectional_fin_count: int
    bidirectional_rst_count: int
    bidirectional_psh_count: int
    bidirectional_ack_count: int
    bidirectional_urg_count: int
    bidirectional_ece_count: int
    bidirectional_cwr_count: int
    src2dst_fin_count: int
    src2dst_rst_count: int
    dst2src_fin_count: int
    dst2src_rst_count: int


FEATURE_NAMES: tuple[str, ...] = FeatureVector._fields
# Per feature, whether it is an integer count. get_type_hints, not
# __annotations__: with postponed evaluation the raw annotations are strings.
_HINTS = get_type_hints(FeatureVector)
INT_FEATURES: tuple[bool, ...] = tuple(_HINTS[name] is int for name in FEATURE_NAMES)
_INT_COLUMNS = [j for j, is_int in enumerate(INT_FEATURES) if is_int]
# One row of feature values as machine doubles: packing a row and adding
# its bytes is several times faster than extending an array by the tuple.
_ROW = struct.Struct(f"{len(FEATURE_NAMES)}d")


@dataclass(frozen=True, slots=True)
class FlowRecord:
    """A flow's features over its packets up to ``last_us``.

    A record ends with its flow (``expiration_reason`` idle, active,
    fin_rst or end_of_trace); a snapshot is the record of the prefix a
    trigger fired on, exported while the flow was live (reason "live").
    """

    id: FlowId
    direction_anchor: tuple[tuple[str, int], tuple[str, int]]
    first_us: int
    last_us: int
    features: FeatureVector
    expiration_reason: str  # live | idle | active | fin_rst | end_of_trace

    @property
    def protocol(self) -> int:
        return self.id.key.protocol


# Expiration reasons by their code in ``SnapshotBlock.reasons``.
_REASONS = ("live", "idle", "active", "fin_rst", "end_of_trace")


def take_rows(values: array, width: int, rows: Iterable[int]) -> array:
    """Rows ``rows`` of ``values``, rows of ``width`` items laid end to end,
    in that order: a new array of the same type."""
    taken = array(values.typecode)
    for i in rows:
        taken += values[i * width : i * width + width]
    return taken


class SnapshotBlock(Sequence):
    """Flow records held as rows of arrays, read as ``FlowRecord``s: the
    meter's records, or one trigger's snapshots.

    Row ``i`` holds its flow's ``(FlowId, direction anchor)`` pair in
    ``flows[i]`` (one pair object per flow, shared by its rows), its last
    packet's time in ``last_us[i]`` (an ``array('q')``), its expiration
    reason's code in ``reasons[i]`` (an ``array('B')``) and its features
    at ``values[i * 46:(i + 1) * 46]`` (one ``array('d')`` of every row, in
    ``FEATURE_NAMES`` order). A row read back gives its id's ``start_us`` as
    ``first_us``, and the integer features as ``int``; like a ``Dataset``'s
    float64 ``X``, it keeps them exactly up to 2**53. ``SnapshotBlock(records)``
    takes ``records`` in their order, and raises ValueError for one whose
    ``first_us`` is not its id's start. A slice is a block of those rows,
    in that order; blocks are equal when their rows are.
    """

    __slots__ = ("values", "last_us", "flows", "reasons")

    def __init__(self, records: Iterable[FlowRecord] = ()) -> None:
        self.values = array("d")
        self.last_us = array("q")
        self.flows: list[tuple[FlowId, tuple]] = []
        self.reasons = array("B")
        for r in records:
            if r.first_us != r.id.start_us:
                raise ValueError(f"first_us {r.first_us} is not its id's start {r.id.start_us}")
            reason = _REASONS.index(r.expiration_reason)
            self._add(r.last_us, (r.id, r.direction_anchor), r.features, reason)

    def _add(self, last_us: int, flow: tuple, features: Iterable[float], reason: int = 0) -> None:
        self.values.frombytes(_ROW.pack(*features))
        self.last_us.append(last_us)
        self.flows.append(flow)
        self.reasons.append(reason)

    def _take(self, rows: Sequence[int]) -> SnapshotBlock:
        """A new block of rows ``rows``, in that order."""
        block = SnapshotBlock()
        block.values = take_rows(self.values, len(FEATURE_NAMES), rows)
        block.last_us = array("q", [self.last_us[i] for i in rows])
        block.flows = [self.flows[i] for i in rows]
        block.reasons = array("B", [self.reasons[i] for i in rows])
        return block

    def _sorted(self) -> SnapshotBlock:
        """The block with its rows ordered by (last_us, flow start, flow
        hash): itself when they already are."""
        times, flows = self.last_us, self.flows
        order = sorted(
            range(len(flows)), key=lambda i: (times[i], flows[i][0].start_us, flows[i][0].hash64)
        )
        return self if order == list(range(len(order))) else self._take(order)

    def __len__(self) -> int:
        return len(self.flows)

    def __getitem__(self, i: int | slice) -> FlowRecord | SnapshotBlock:
        i = range(len(self.flows))[i]
        if isinstance(i, range):
            return self._take(i)
        w = len(FEATURE_NAMES)
        row = self.values[i * w : i * w + w].tolist()
        for j in _INT_COLUMNS:
            row[j] = int(row[j])
        fid, anchor = self.flows[i]
        reason = _REASONS[self.reasons[i]]
        return FlowRecord(
            fid, anchor, fid.start_us, self.last_us[i], FeatureVector._make(row), reason
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SnapshotBlock):
            return NotImplemented
        return (
            self.last_us == other.last_us
            and self.flows == other.flows
            and self.reasons == other.reasons
            and self.values == other.values
        )

    def __repr__(self) -> str:
        return f"SnapshotBlock({list(self)!r})"


@dataclass(frozen=True)
class MeterConfig(JsonDocument):
    """Flow export policy: timeouts, FIN/RST expiration, snapshot triggers.

    FD targets are evaluated at packet arrivals in the microsecond domain:
    a snapshot for target T ms fires at the first packet where
    ``duration_us >= (1 - fd_tolerance) * T * 1000`` and is suppressed
    (target permanently missed) when the duration has already overshot
    ``(1 + fd_tolerance) * T * 1000``.
    """

    idle_timeout_s: float = 60.0
    active_timeout_s: float = 18000.0
    fin_rst_expiration: bool = True
    pc_triggers: frozenset[int] = field(default_factory=lambda: frozenset(range(2, 21)))
    fd_triggers_ms: frozenset[int] = field(
        default_factory=lambda: frozenset(
            {5, 10, 50, 100, 150, 300, 500, 1000, 5000, 10000, 15000, 20000}
        )
    )
    fd_tolerance: float = 0.20
    byte_triggers: frozenset[int] = field(default_factory=frozenset)

    FIELDS = {
        "idle_timeout_s": Field(NUMBER, "(0, inf)"),
        "active_timeout_s": Field(NUMBER, "(0, inf)"),
        "fin_rst_expiration": Field(BOOL),
        "pc_triggers": Field(INT, "[1, inf)", many=frozenset),
        "fd_triggers_ms": Field(INT, "[1, inf)", many=frozenset),
        "fd_tolerance": Field(NUMBER, "[0, 1)"),
        "byte_triggers": Field(INT, "[1, inf)", many=frozenset),
    }

    def __post_init__(self) -> None:
        keep(self, check("meter", self, self.FIELDS))

    def triggers(self) -> list[Trigger]:
        """Every configured trigger, in ``Trigger.sort_key`` order."""
        return (
            [Trigger("pc", n) for n in sorted(self.pc_triggers)]
            + [Trigger("fd", t) for t in sorted(self.fd_triggers_ms)]
            + [Trigger("bc", b) for b in sorted(self.byte_triggers)]
        )

    def to_dict(self) -> dict:
        values = {name: getattr(self, name) for name in self.FIELDS}
        return {k: sorted(v) if isinstance(v, frozenset) else v for k, v in values.items()}

    @classmethod
    def from_dict(cls, data: dict) -> MeterConfig:
        return cls(**check("meter", data, cls.FIELDS))


def _stddev(n: int, total: int, total_sq: int) -> float:
    """Population standard deviation from exact integer sums."""
    if n < 2:
        return 0.0
    var = (n * total_sq - total * total) / (n * n)
    return math.sqrt(var) if var > 0 else 0.0


class _ScopeStats:
    """Streaming packet-size and inter-arrival accumulators for one scope of
    a flow: one direction, or both.

    Sums are kept as exact Python ints; means and population stddevs are
    materialized only at export. The byte count is the sum of packet
    sizes, and the gaps sum to ``last_ts - first_ts``.
    """

    __slots__ = (
        "packets",
        "bytes",
        "payload_bytes",
        "min_ps",
        "max_ps",
        "sumsq_ps",
        "first_ts",
        "last_ts",
        "min_piat",
        "max_piat",
        "sumsq_piat",
    )

    def __init__(self) -> None:
        self.packets = 0
        self.bytes = 0
        self.payload_bytes = 0
        self.min_ps = self.max_ps = self.sumsq_ps = 0
        self.first_ts = self.last_ts = 0
        self.min_piat = self.max_piat = self.sumsq_piat = 0

    def add(self, ts_us: int, wire_len: int, payload_len: int) -> None:
        n = self.packets
        if n:
            if wire_len < self.min_ps:
                self.min_ps = wire_len
            elif wire_len > self.max_ps:
                self.max_ps = wire_len
            gap = ts_us - self.last_ts
            if n == 1:
                self.min_piat = self.max_piat = gap
            elif gap < self.min_piat:
                self.min_piat = gap
            elif gap > self.max_piat:
                self.max_piat = gap
            self.sumsq_piat += gap * gap
        else:
            self.min_ps = self.max_ps = wire_len
            self.first_ts = ts_us
        self.packets = n + 1
        self.bytes += wire_len
        self.payload_bytes += payload_len
        self.sumsq_ps += wire_len * wire_len
        self.last_ts = ts_us

    def export(self) -> tuple[float, ...]:
        """The scope's 11 features, in ``FeatureVector`` field order: packets,
        bytes, payload bytes, min/mean/max/stddev packet size, then
        min/mean/max/stddev of the ``packets - 1`` gaps in ms, which are
        defined (and non-zero) only from the scope's second packet on."""
        n = self.packets
        total = self.bytes
        if n < 2:
            min_piat = mean_piat = max_piat = stddev_piat = 0.0
        else:
            span = self.last_ts - self.first_ts
            min_piat = self.min_piat / 1000
            mean_piat = span / ((n - 1) * 1000)
            max_piat = self.max_piat / 1000
            stddev_piat = _stddev(n - 1, span, self.sumsq_piat) / 1000
        return (
            n,
            total,
            self.payload_bytes,
            float(self.min_ps),
            total / n if n else 0.0,
            float(self.max_ps),
            _stddev(n, total, self.sumsq_ps),
            min_piat,
            mean_piat,
            max_piat,
            stddev_piat,
        )


def _flag_counts(flags: dict[int, int]) -> list[int]:
    """The 8 bidirectional flag counts, then src2dst FIN, src2dst RST,
    dst2src FIN and dst2src RST, from packet counts keyed by
    ``flag byte << 1 | forward``."""
    bidi = [0] * len(_FLAG_BITS)
    directional = [0, 0, 0, 0]
    for key, n in flags.items():
        byte = key >> 1
        for i, bit in enumerate(_FLAG_BITS):
            if byte & bit:
                bidi[i] += n
        side = 0 if key & 1 else 2
        if byte & TCP_FIN:
            directional[side] += n
        if byte & TCP_RST:
            directional[side + 1] += n
    return bidi + directional


class _FlowState:
    """Mutable per-flow accumulation owned by one metering pass.

    Per packet, the bidirectional ``_ScopeStats`` and the packet's own
    direction's are updated alike, and one flag count; the triggers and
    the timeouts read the bidirectional scope.
    """

    __slots__ = (
        "flow",
        "src_ip",
        "src_port",
        "bidi",
        "s2d",
        "d2s",
        "flags",
        "fd_next",
        "bc_next",
    )

    def __init__(
        self, start_us: int, src_ip: int, src_port: int, anchor: tuple, key: FlowKey
    ) -> None:
        # The (FlowId, direction anchor) pair that every row of the flow
        # holds, and the first packet's source as its address index and port.
        self.flow = (FlowId.from_key(key, start_us), anchor)
        self.src_ip = src_ip
        self.src_port = src_port
        self.bidi = _ScopeStats()
        self.s2d = _ScopeStats()
        self.d2s = _ScopeStats()
        # packets per (flag byte << 1 | forward), for flagged packets only
        self.flags: dict[int, int] = {}
        # indexes of the first FD band and byte target not yet passed
        self.fd_next = 0
        self.bc_next = 0

    def add(
        self,
        ts_us: int,
        wire_len: int,
        payload_len: int,
        forward: bool,
        tcp_flags: int,
        pc: dict[int, SnapshotBlock],
        fd: list[tuple[float, float, SnapshotBlock]],
        bc: list[tuple[int, SnapshotBlock]],
    ) -> None:
        """Accumulate a packet and add a row to the block of each trigger
        that fires (the lookups are built in ``meter``)."""
        (self.s2d if forward else self.d2s).add(ts_us, wire_len, payload_len)
        bidi = self.bidi
        bidi.add(ts_us, wire_len, payload_len)
        if tcp_flags:
            key = tcp_flags << 1 | forward
            self.flags[key] = self.flags.get(key, 0) + 1

        # The flow's row, built at most once however many triggers fire.
        row = None
        out = pc.get(bidi.packets)
        if out is not None:
            row = self._values()
            out._add(ts_us, self.flow, row)
        duration_us = ts_us - bidi.first_ts
        while duration_us >= fd[self.fd_next][0]:
            _, hi, out = fd[self.fd_next]
            self.fd_next += 1
            if duration_us <= hi:
                row = row or self._values()
                out._add(ts_us, self.flow, row)
            # else: overshot the tolerance band; target permanently missed
        while bidi.bytes >= bc[self.bc_next][0]:
            row = row or self._values()
            bc[self.bc_next][1]._add(ts_us, self.flow, row)
            self.bc_next += 1

    def _values(self) -> tuple[float, ...]:
        """The flow's features, in ``FeatureVector`` field order."""
        bidi = self.bidi
        return (
            (bidi.last_ts - bidi.first_ts) / 1000,
            *bidi.export(),
            *self.s2d.export(),
            *self.d2s.export(),
            *_flag_counts(self.flags),
        )

    def finish(self, reason: str, records: SnapshotBlock) -> None:
        """Add the flow's record, ended for ``reason``, to ``records``."""
        records._add(self.bidi.last_ts, self.flow, self._values(), _REASONS.index(reason))


def _address_ranks(
    addresses: list[str], *columns: Iterable[int]
) -> tuple[dict[int, int], dict[int, str]]:
    """Rank each address index that ``columns`` hold by its packed address,
    and the canonical text of each rank: indices of one address share a
    rank, and ranks order as the packed addresses do."""
    parsed = {i: parse_ip(addresses[i])[1:] for i in set().union(*columns)}
    order = {packed: r for r, packed in enumerate(sorted({p for p, _ in parsed.values()}))}
    rank = {i: order[packed] for i, (packed, _) in parsed.items()}
    return rank, {order[packed]: text for packed, text in parsed.values()}


def meter(
    trace: PacketTrace, config: MeterConfig | None = None
) -> tuple[SnapshotBlock, dict[Trigger, SnapshotBlock]]:
    """Assemble a sorted trace into complete flow records and snapshots.

    Per packet: an existing flow on the same key is expired first when the
    idle gap exceeds ``idle_timeout_s`` (the packet starts a fresh flow) or
    when the flow age reaches ``active_timeout_s``; the packet is then
    accumulated, PC/FD/BC snapshots fire, and a FIN or RST packet expires
    the flow after being counted. Remaining flows expire at end of trace.

    A record is the snapshot of its whole flow, so both come as
    ``SnapshotBlock`` rows, each block ordered by (last_us, flow start_us,
    flow hash64): the records in one block, and the snapshots in one block
    per trigger of ``config.triggers()``, in that order and also when the
    trigger never fired. A snapshot's ``last_us`` is its export time.

    Raises UnsortedTraceError on a timestamp regression.
    """
    if config is None:
        config = MeterConfig()
    idle_us = int(config.idle_timeout_s * 1_000_000)
    active_us = int(config.active_timeout_s * 1_000_000)
    snapshots = {t: SnapshotBlock() for t in config.triggers()}
    # Each trigger's block, found by PC value, or through ascending
    # (lo_us, hi_us, block) FD bands and (bytes, block) BC targets, each
    # ended by a target no flow reaches.
    tol = config.fd_tolerance
    pc = {t.value: out for t, out in snapshots.items() if t.kind == "pc"}
    fd = [
        ((1 - tol) * t.value * 1000, (1 + tol) * t.value * 1000, out)
        for t, out in snapshots.items()
        if t.kind == "fd"
    ]
    fd.append((math.inf, math.inf, []))
    bc = [(t.value, out) for t, out in snapshots.items() if t.kind == "bc"]
    bc.append((math.inf, []))

    # Keyed by (rank a, port a, rank b, port b, protocol), endpoint a the
    # smaller (rank, port); a FlowKey is built only when a flow starts.
    packets = trace.packets
    addresses = packets.addresses
    rank, canonical = _address_ranks(addresses, packets.header[1], packets.header[2])
    live: dict[tuple, _FlowState] = {}
    records = SnapshotBlock()
    fin_rst = TCP_FIN | TCP_RST if config.fin_rst_expiration else 0
    prev_ts = -math.inf

    for ts_us, src, dst, sport, dport, protocol, flags, payload_len, wire_len in zip(
        *packets.header
    ):
        if ts_us < prev_ts:
            raise UnsortedTraceError(
                f"timestamp regression at {ts_us} after {prev_ts}; reorder first"
            )
        prev_ts = ts_us

        a, b = rank[src], rank[dst]
        if _comes_first(a, sport, b, dport):
            key = (a, sport, b, dport, protocol)
        else:
            key = (b, dport, a, sport, protocol)
        state = live.get(key)
        if state is not None:
            if ts_us - state.bidi.last_ts > idle_us:
                state.finish("idle", records)
                state = None
            elif ts_us - state.bidi.first_ts >= active_us:
                state.finish("active", records)
                state = None
        if state is None:
            anchor = ((addresses[src], sport), (addresses[dst], dport))
            flow_key = FlowKey((canonical[key[0]], key[1]), (canonical[key[2]], key[3]), protocol)
            state = live[key] = _FlowState(ts_us, src, sport, anchor, flow_key)

        forward = src == state.src_ip and sport == state.src_port
        state.add(ts_us, wire_len, payload_len, forward, flags, pc, fd, bc)
        if flags & fin_rst:
            state.finish("fin_rst", records)
            del live[key]

    for state in live.values():
        state.finish("end_of_trace", records)

    # Each block is released as its sorted copy is made, so sorting holds
    # at most one block twice.
    del live, pc, fd, bc
    records = records._sorted()
    return records, {t: snapshots.pop(t)._sorted() for t in list(snapshots)}
