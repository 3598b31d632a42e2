"""Single-pass bidirectional flow metering.

Assembles packets into flows keyed by a direction-agnostic five-tuple,
expires flows on idle/active timeouts and on the first FIN or RST, and
exports partial-flow snapshots at packet-count, duration, and byte-count
triggers while the flow is still live.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from functools import lru_cache
from ipaddress import ip_address
from typing import NamedTuple

from .errors import UnsortedTraceError, reject_unknown
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


# parsing the same address text repeatedly dominates per-packet cost
@lru_cache(maxsize=65536)
def _packed(ip: str) -> bytes:
    return ip_address(ip).packed


@lru_cache(maxsize=65536)
def _canonical_ip(ip: str) -> str:
    return str(ip_address(ip))


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
        e1 = (_canonical_ip(ip1), port1)
        e2 = (_canonical_ip(ip2), port2)
        if (_packed(e1[0]), e1[1]) <= (_packed(e2[0]), e2[1]):
            return cls(e1, e2, protocol)
        return cls(e2, e1, protocol)

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
        _packed(key.endpoint_a[0]).hex(),
        key.endpoint_a[1],
        _packed(key.endpoint_b[0]).hex(),
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


def _as_frozenset(values) -> frozenset[int]:
    return frozenset(int(v) for v in values)


@dataclass(frozen=True)
class MeterConfig:
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

    def __post_init__(self) -> None:
        if self.idle_timeout_s <= 0 or self.active_timeout_s <= 0:
            raise ValueError("timeouts must be positive")
        if not 0 <= self.fd_tolerance < 1:
            raise ValueError("fd_tolerance must be in [0, 1)")
        object.__setattr__(self, "pc_triggers", _as_frozenset(self.pc_triggers))
        object.__setattr__(self, "fd_triggers_ms", _as_frozenset(self.fd_triggers_ms))
        object.__setattr__(self, "byte_triggers", _as_frozenset(self.byte_triggers))

    def triggers(self) -> list[Trigger]:
        """Every configured trigger, in ``Trigger.sort_key`` order."""
        return (
            [Trigger("pc", n) for n in sorted(self.pc_triggers)]
            + [Trigger("fd", t) for t in sorted(self.fd_triggers_ms)]
            + [Trigger("bc", b) for b in sorted(self.byte_triggers)]
        )

    def to_dict(self) -> dict:
        return {
            "idle_timeout_s": self.idle_timeout_s,
            "active_timeout_s": self.active_timeout_s,
            "fin_rst_expiration": self.fin_rst_expiration,
            "pc_triggers": sorted(self.pc_triggers),
            "fd_triggers_ms": sorted(self.fd_triggers_ms),
            "fd_tolerance": self.fd_tolerance,
            "byte_triggers": sorted(self.byte_triggers),
        }

    @classmethod
    def from_dict(cls, data: dict) -> MeterConfig:
        reject_unknown("meter", data, [f.name for f in fields(cls)])
        try:
            return cls(**data)
        except TypeError as exc:
            raise ValueError(f"bad meter config value: {exc}") from exc

    @classmethod
    def from_json(cls, path) -> MeterConfig:
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


class _ScopeStats:
    """Streaming packet-size and inter-arrival accumulators for one scope.

    Sums are kept as exact Python ints; means and population stddevs are
    materialized only at export.
    """

    __slots__ = (
        "packets",
        "bytes",
        "payload_bytes",
        "min_ps",
        "max_ps",
        "sum_ps",
        "sumsq_ps",
        "last_ts",
        "piat_n",
        "min_piat",
        "max_piat",
        "sum_piat",
        "sumsq_piat",
    )

    def __init__(self) -> None:
        self.packets = 0
        self.bytes = 0
        self.payload_bytes = 0
        self.min_ps = 0
        self.max_ps = 0
        self.sum_ps = 0
        self.sumsq_ps = 0
        self.last_ts: int | None = None
        self.piat_n = 0
        self.min_piat = 0
        self.max_piat = 0
        self.sum_piat = 0
        self.sumsq_piat = 0

    def add(self, ts_us: int, wire_len: int, payload_len: int) -> None:
        if self.packets == 0:
            self.min_ps = self.max_ps = wire_len
        else:
            self.min_ps = min(self.min_ps, wire_len)
            self.max_ps = max(self.max_ps, wire_len)
        self.packets += 1
        self.bytes += wire_len
        self.payload_bytes += payload_len
        self.sum_ps += wire_len
        self.sumsq_ps += wire_len * wire_len
        if self.last_ts is not None:
            gap = ts_us - self.last_ts
            if self.piat_n == 0:
                self.min_piat = self.max_piat = gap
            else:
                self.min_piat = min(self.min_piat, gap)
                self.max_piat = max(self.max_piat, gap)
            self.piat_n += 1
            self.sum_piat += gap
            self.sumsq_piat += gap * gap
        self.last_ts = ts_us

    @staticmethod
    def _stddev(n: int, total: int, total_sq: int) -> float:
        if n < 2:
            return 0.0
        var = (n * total_sq - total * total) / (n * n)
        return math.sqrt(var) if var > 0 else 0.0

    def export(self) -> tuple[float, ...]:
        """The scope's 11 features, in ``FeatureVector`` field order."""
        n = self.packets
        # PIAT features are defined (and non-zero) only from the second
        # packet of the scope onward.
        if n < 2:
            piat = (0.0, 0.0, 0.0, 0.0)
        else:
            m = self.piat_n
            piat = (
                self.min_piat / 1000,
                self.sum_piat / (m * 1000),
                self.max_piat / 1000,
                self._stddev(m, self.sum_piat, self.sumsq_piat) / 1000,
            )
        return (
            n,
            self.bytes,
            self.payload_bytes,
            float(self.min_ps),
            self.sum_ps / n if n else 0.0,
            float(self.max_ps),
            self._stddev(n, self.sum_ps, self.sumsq_ps),
            *piat,
        )


class _FlowState:
    """Mutable per-flow accumulation owned by one metering pass."""

    __slots__ = (
        "id",
        "anchor_src",
        "anchor_dst",
        "first_us",
        "last_us",
        "bidi",
        "s2d",
        "d2s",
        "flag_counts",
        "dir_flags",
        "fd_next",
        "bc_next",
    )

    def __init__(self, pkt: RawPacket, key: FlowKey) -> None:
        self.id = FlowId.from_key(key, pkt.ts_us)
        self.anchor_src = (pkt.src_ip, pkt.src_port)
        self.anchor_dst = (pkt.dst_ip, pkt.dst_port)
        self.first_us = pkt.ts_us
        self.last_us = pkt.ts_us
        self.bidi = _ScopeStats()
        self.s2d = _ScopeStats()
        self.d2s = _ScopeStats()
        self.flag_counts = [0] * len(_FLAG_BITS)
        # src2dst FIN, src2dst RST, dst2src FIN, dst2src RST
        self.dir_flags = [0, 0, 0, 0]
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
        forward = (pkt.src_ip, pkt.src_port) == self.anchor_src
        self.last_us = pkt.ts_us
        self.bidi.add(pkt.ts_us, pkt.wire_len, pkt.payload_len)
        (self.s2d if forward else self.d2s).add(pkt.ts_us, pkt.wire_len, pkt.payload_len)
        if pkt.tcp_flags:
            for i, bit in enumerate(_FLAG_BITS):
                if pkt.tcp_flags & bit:
                    self.flag_counts[i] += 1
            side = 0 if forward else 2
            if pkt.tcp_flags & TCP_FIN:
                self.dir_flags[side] += 1
            if pkt.tcp_flags & TCP_RST:
                self.dir_flags[side + 1] += 1

        out = pc.get(self.bidi.packets)
        if out is not None:
            out.append(self._snapshot())
        duration_us = self.last_us - self.first_us
        while self.fd_next < len(fd):
            lo, hi, out = fd[self.fd_next]
            if duration_us < lo:
                break
            self.fd_next += 1
            if duration_us <= hi:
                out.append(self._snapshot())
            # else: overshot the tolerance band; target permanently missed
        while self.bc_next < len(bc) and self.bidi.bytes >= bc[self.bc_next][0]:
            bc[self.bc_next][1].append(self._snapshot())
            self.bc_next += 1

    def _features(self) -> FeatureVector:
        return FeatureVector._make(
            (
                (self.last_us - self.first_us) / 1000,
                *self.bidi.export(),
                *self.s2d.export(),
                *self.d2s.export(),
                *self.flag_counts,
                *self.dir_flags,
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
    # (lo_us, hi_us, list) FD bands and (bytes, list) BC targets.
    tol = config.fd_tolerance
    pc = {t.value: out for t, out in snapshots.items() if t.kind == "pc"}
    fd = [
        ((1 - tol) * t.value * 1000, (1 + tol) * t.value * 1000, out)
        for t, out in snapshots.items()
        if t.kind == "fd"
    ]
    bc = [(t.value, out) for t, out in snapshots.items() if t.kind == "bc"]

    live: dict[FlowKey, _FlowState] = {}
    records: list[FlowRecord] = []
    prev_ts: int | None = None

    for pkt in trace.packets:
        if prev_ts is not None and pkt.ts_us < prev_ts:
            raise UnsortedTraceError(
                f"timestamp regression at {pkt.ts_us} after {prev_ts}; reorder first"
            )
        prev_ts = pkt.ts_us

        key = FlowKey.from_packet(pkt)
        state = live.get(key)
        if state is not None and pkt.ts_us - state.last_us > idle_us:
            records.append(state.finish("idle"))
            state = None
        elif state is not None and pkt.ts_us - state.first_us >= active_us:
            records.append(state.finish("active"))
            state = None
        if state is None:
            state = _FlowState(pkt, key)
            live[key] = state

        state.add(pkt, pc, fd, bc)
        if config.fin_rst_expiration and pkt.tcp_flags & (TCP_FIN | TCP_RST):
            records.append(state.finish("fin_rst"))
            del live[key]

    for state in live.values():
        records.append(state.finish("end_of_trace"))

    records.sort(key=lambda r: (r.last_us, r.id.start_us, r.id.hash64))
    for out in snapshots.values():
        out.sort(key=lambda s: (s.exported_at_us, s.parent_id.start_us, s.parent_id.hash64))
    return records, snapshots
