"""Single-pass bidirectional flow metering.

Assembles packets into flows keyed by a direction-agnostic five-tuple,
expires flows on idle/active timeouts and on the first FIN or RST, and
exports partial-flow snapshots at packet-count, duration, and byte-count
triggers while the flow is still live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from ipaddress import ip_address
from typing import NamedTuple

from .errors import BOOL, INT, NUMBER, Field, JsonDocument, UnsortedTraceError, check
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
)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

# In the order of the bidirectional_*_count features.
_FLAG_BITS = (TCP_SYN, TCP_FIN, TCP_RST, TCP_PSH, TCP_ACK, TCP_URG, TCP_ECE, TCP_CWR)


@lru_cache(maxsize=65536)
def _address(ip: str) -> tuple[bytes, str]:
    """Packed bytes and canonical text of an address; parsing the same
    address text repeatedly would dominate per-packet cost."""
    addr = ip_address(ip)
    return addr.packed, str(addr)


def _flow_key(
    ip1: str, port1: int, ip2: str, port2: int, protocol: int
) -> tuple[tuple[str, int], tuple[str, int], int]:
    """The plain tuple ``(endpoint_a, endpoint_b, protocol)`` of ``FlowKey``.

    Endpoints carry canonical address text, and ``endpoint_a`` is the
    smaller (packed address, port) pair, so both orientations of a
    five-tuple, and every text form of its addresses, give one key.
    """
    packed1, text1 = _address(ip1)
    packed2, text2 = _address(ip2)
    if (packed1, port1) <= (packed2, port2):
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
        _address(key.endpoint_a[0])[0].hex(),
        key.endpoint_a[1],
        _address(key.endpoint_b[0])[0].hex(),
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


@dataclass(frozen=True, slots=True)
class FlowRecord:
    """A complete flow exported at natural termination."""

    id: FlowId
    direction_anchor: tuple[tuple[str, int], tuple[str, int]]
    first_us: int
    last_us: int
    features: FeatureVector
    expiration_reason: str  # idle | active | fin_rst | end_of_trace

    @property
    def protocol(self) -> int:
        return self.id.key.protocol


class FlowSnapshot(NamedTuple):
    """A partial-flow export: the feature state when a trigger fired.

    The trigger is not stored; ``meter`` returns each trigger's snapshots
    in their own list.
    """

    exported_at_us: int
    parent_id: FlowId
    features: FeatureVector


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
        for name, value in check("meter", self, self.FIELDS).items():
            object.__setattr__(self, name, value)

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


def _size_features(
    n: int, total: int, payload: int, min_ps: int, max_ps: int, sumsq_ps: int
) -> tuple[float, ...]:
    """Packets, bytes, payload bytes and min/mean/max/stddev packet size of
    ``n`` packets whose sizes sum to ``total``."""
    return (
        n,
        total,
        payload,
        float(min_ps),
        total / n if n else 0.0,
        float(max_ps),
        _stddev(n, total, sumsq_ps),
    )


def _piat_features(
    n: int, min_gap: int, max_gap: int, span: int, sumsq_gap: int
) -> tuple[float, float, float, float]:
    """Min, mean, max and stddev of the ``n - 1`` gaps between ``n`` packets
    that arrive over ``span`` microseconds (the sum of the gaps), in ms.

    PIAT features are defined (and non-zero) only from the second packet
    of a scope onward.
    """
    if n < 2:
        return (0.0, 0.0, 0.0, 0.0)
    m = n - 1
    return (
        min_gap / 1000,
        span / (m * 1000),
        max_gap / 1000,
        _stddev(m, span, sumsq_gap) / 1000,
    )


class _ScopeStats:
    """Streaming packet-size and inter-arrival accumulators for one direction.

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
        """The scope's 11 features, in ``FeatureVector`` field order."""
        n = self.packets
        return (
            *_size_features(
                n, self.bytes, self.payload_bytes, self.min_ps, self.max_ps, self.sumsq_ps
            ),
            *_piat_features(
                n, self.min_piat, self.max_piat, self.last_ts - self.first_ts, self.sumsq_piat
            ),
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

    Per packet, only the direction's ``_ScopeStats``, the bidirectional
    inter-arrival accumulators, the running packet and byte counts the
    PC and BC triggers read, and one flag count are updated; the
    bidirectional size features are combined from the two directions at
    export.
    """

    __slots__ = (
        "id",
        "anchor_src",
        "anchor_dst",
        "first_us",
        "last_us",
        "packets",
        "bytes",
        "min_piat",
        "max_piat",
        "sumsq_piat",
        "s2d",
        "d2s",
        "flags",
        "fd_next",
        "bc_next",
    )

    def __init__(self, pkt: RawPacket, key: FlowKey) -> None:
        self.id = FlowId.from_key(key, pkt.ts_us)
        self.anchor_src = (pkt.src_ip, pkt.src_port)
        self.anchor_dst = (pkt.dst_ip, pkt.dst_port)
        self.first_us = pkt.ts_us
        self.last_us = pkt.ts_us
        self.packets = 0
        self.bytes = 0
        self.min_piat = self.max_piat = self.sumsq_piat = 0
        self.s2d = _ScopeStats()
        self.d2s = _ScopeStats()
        # packets per (flag byte << 1 | forward), for flagged packets only
        self.flags: dict[int, int] = {}
        # indexes of the first FD band and byte target not yet passed
        self.fd_next = 0
        self.bc_next = 0

    def add(
        self,
        pkt: RawPacket,
        pc: dict[int, list[FlowSnapshot]],
        fd: list[tuple[float, float, list[FlowSnapshot]]],
        bc: list[tuple[int, list[FlowSnapshot]]],
    ) -> None:
        """Accumulate ``pkt`` and append a snapshot to each trigger's list
        that fires (the lookups are built in ``meter``)."""
        ts_us = pkt.ts_us
        wire_len = pkt.wire_len
        forward = (pkt.src_ip, pkt.src_port) == self.anchor_src
        (self.s2d if forward else self.d2s).add(ts_us, wire_len, pkt.payload_len)
        # Bidirectional gaps, from the previous packet of either direction;
        # inline rather than a call per packet.
        n = self.packets
        if n:
            gap = ts_us - self.last_us
            if n == 1:
                self.min_piat = self.max_piat = gap
            elif gap < self.min_piat:
                self.min_piat = gap
            elif gap > self.max_piat:
                self.max_piat = gap
            self.sumsq_piat += gap * gap
        self.packets = n = n + 1
        self.bytes += wire_len
        self.last_us = ts_us
        if pkt.tcp_flags:
            key = pkt.tcp_flags << 1 | forward
            self.flags[key] = self.flags.get(key, 0) + 1

        out = pc.get(n)
        if out is not None:
            out.append(self._snapshot())
        duration_us = ts_us - self.first_us
        while duration_us >= fd[self.fd_next][0]:
            _, hi, out = fd[self.fd_next]
            self.fd_next += 1
            if duration_us <= hi:
                out.append(self._snapshot())
            # else: overshot the tolerance band; target permanently missed
        while self.bytes >= bc[self.bc_next][0]:
            bc[self.bc_next][1].append(self._snapshot())
            self.bc_next += 1

    def _features(self) -> FeatureVector:
        s2d, d2s = self.s2d, self.d2s
        # s2d holds the flow's first packet, so only d2s can be empty.
        min_ps, max_ps = s2d.min_ps, s2d.max_ps
        if d2s.packets:
            min_ps = min(min_ps, d2s.min_ps)
            max_ps = max(max_ps, d2s.max_ps)
        n = self.packets
        span = self.last_us - self.first_us
        return FeatureVector._make(
            (
                span / 1000,
                *_size_features(
                    n,
                    self.bytes,
                    s2d.payload_bytes + d2s.payload_bytes,
                    min_ps,
                    max_ps,
                    s2d.sumsq_ps + d2s.sumsq_ps,
                ),
                *_piat_features(n, self.min_piat, self.max_piat, span, self.sumsq_piat),
                *s2d.export(),
                *d2s.export(),
                *_flag_counts(self.flags),
            )
        )

    def _snapshot(self) -> FlowSnapshot:
        return FlowSnapshot(self.last_us, self.id, self._features())

    def finish(self, reason: str) -> FlowRecord:
        return FlowRecord(
            id=self.id,
            direction_anchor=(self.anchor_src, self.anchor_dst),
            first_us=self.first_us,
            last_us=self.last_us,
            features=self._features(),
            expiration_reason=reason,
        )


def meter(
    trace: PacketTrace, config: MeterConfig | None = None
) -> tuple[list[FlowRecord], dict[Trigger, list[FlowSnapshot]]]:
    """Assemble a sorted trace into complete flow records and snapshots.

    Per packet: an existing flow on the same key is expired first when the
    idle gap exceeds ``idle_timeout_s`` (the packet starts a fresh flow) or
    when the flow age reaches ``active_timeout_s``; the packet is then
    accumulated, PC/FD/BC snapshots fire, and a FIN or RST packet expires
    the flow after being counted. Remaining flows expire at end of trace.

    Records are returned ordered by (last_us, start_us, hash64). Snapshots
    come as one list per trigger of ``config.triggers()``, in that order
    and also when the trigger never fired, each ordered by
    (exported_at_us, parent start_us, parent hash64).

    Raises UnsortedTraceError on a timestamp regression.
    """
    if config is None:
        config = MeterConfig()
    idle_us = int(config.idle_timeout_s * 1_000_000)
    active_us = int(config.active_timeout_s * 1_000_000)
    snapshots: dict[Trigger, list[FlowSnapshot]] = {t: [] for t in config.triggers()}
    # Each trigger's list, found by PC value, or through ascending
    # (lo_us, hi_us, list) FD bands and (bytes, list) BC targets, each
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

    # Keyed by the plain tuple of ``_flow_key``; a FlowKey is built only
    # when a flow starts.
    live: dict[tuple, _FlowState] = {}
    records: list[FlowRecord] = []
    fin_rst = TCP_FIN | TCP_RST if config.fin_rst_expiration else 0
    prev_ts = -math.inf

    for pkt in trace.packets:
        ts_us = pkt.ts_us
        if ts_us < prev_ts:
            raise UnsortedTraceError(
                f"timestamp regression at {ts_us} after {prev_ts}; reorder first"
            )
        prev_ts = ts_us

        key = _flow_key(pkt.src_ip, pkt.src_port, pkt.dst_ip, pkt.dst_port, pkt.protocol)
        state = live.get(key)
        if state is not None:
            if ts_us - state.last_us > idle_us:
                records.append(state.finish("idle"))
                state = None
            elif ts_us - state.first_us >= active_us:
                records.append(state.finish("active"))
                state = None
        if state is None:
            state = _FlowState(pkt, FlowKey(*key))
            live[key] = state

        state.add(pkt, pc, fd, bc)
        if pkt.tcp_flags & fin_rst:
            records.append(state.finish("fin_rst"))
            del live[key]

    for state in live.values():
        records.append(state.finish("end_of_trace"))

    records.sort(key=lambda r: (r.last_us, r.id.start_us, r.id.hash64))
    for out in snapshots.values():
        out.sort(key=lambda s: (s.exported_at_us, s.parent_id.start_us, s.parent_id.hash64))
    return records, snapshots
