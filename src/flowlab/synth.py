"""Deterministic synthetic trace generation.

Produces desk-scale pcap-writable traces with known per-flow ground truth,
used to exercise the meter, the dataset builders, and the evaluation
scenarios without a multi-gigabyte capture. A spec defines per-class flow
templates; an optional divergence index makes every class statistically
identical for the first k-1 packets of each flow, so class signal appears
only from packet k onward.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from ipaddress import ip_address, ip_network

import numpy as np

from .errors import InvalidSpecError, reject_unknown
from .labeling import LabelRule, RuleSet
from .meter import FlowId, FlowKey
from .trace_io import (
    PROTO_TCP,
    PROTO_UDP,
    PacketTrace,
    RawPacket,
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_SYN,
    _synthesize_frame,
)

_MAX_FLOWS = 55_000  # one unique client port per flow


@dataclass(frozen=True)
class FlowTemplate:
    """Per-class flow shape: endpoint pools, packet counts, sizes, timing.

    ``payload`` and ``iat_us`` are inclusive integer ranges sampled
    uniformly per packet; ``packets`` and ``start_us`` likewise per flow.
    """

    label: str
    flows: int
    packets: tuple[int, int]
    payload: tuple[int, int]
    iat_us: tuple[int, int]
    client_ips: tuple[str, ...]
    server_ips: tuple[str, ...]
    server_ports: tuple[int, ...]
    protocol: int = PROTO_UDP
    start_us: tuple[int, int] = (0, 0)
    tcp_handshake: bool = True
    tcp_fin: bool = False
    # Size range for the packet at the spec's divergence index only; lets a
    # class differ in a single marker packet while totals stay comparable.
    marker_payload: tuple[int, int] | None = None

    @classmethod
    def from_dict(cls, data: dict) -> FlowTemplate:
        reject_unknown(
            "template",
            data,
            (
                "label", "flows", "packets", "payload", "iat_us", "client_ips",
                "server_ips", "server_ports", "protocol", "start_us", "tcp",
                "marker_payload",
            ),
        )
        tcp = data.get("tcp", {})
        reject_unknown("tcp", tcp, ("handshake", "fin"))
        marker = data.get("marker_payload")
        return cls(
            label=data["label"],
            flows=int(data["flows"]),
            packets=tuple(data["packets"]),
            payload=tuple(data["payload"]),
            iat_us=tuple(data["iat_us"]),
            client_ips=_as_str_tuple(data["client_ips"]),
            server_ips=_as_str_tuple(data["server_ips"]),
            server_ports=tuple(int(p) for p in _as_listish(data["server_ports"])),
            protocol=int(data.get("protocol", PROTO_UDP)),
            start_us=tuple(data.get("start_us", (0, 0))),
            tcp_handshake=bool(tcp.get("handshake", True)),
            tcp_fin=bool(tcp.get("fin", False)),
            marker_payload=tuple(marker) if marker is not None else None,
        )


@dataclass(frozen=True)
class SynthSpec:
    """A whole corpus: templates plus optional shared pre-divergence stats.

    JSON schema::

        {
          "name": "corpus-name",
          "divergence_at": 8,                       // optional, 1-based
          "shared": {"payload": [40, 400],          // required with
                     "iat_us": [1000, 30000]},      // divergence_at
          "templates": [
            {"label": "BENIGN", "flows": 250,
             "packets": [18, 24],
             "payload": [40, 400], "iat_us": [1000, 30000],
             "client_ips": ["10.10.0.0/16"],
             "server_ips": ["192.168.50.0/28"], "server_ports": [80, 443],
             "protocol": 17,
             "start_us": [0, 30000000],
             "tcp": {"handshake": true, "fin": false}},
            ...
          ]
        }

    Packet i of every flow draws its size and inter-arrival gap from the
    ``shared`` ranges while i < divergence_at, and from its template's
    ranges from packet divergence_at onward. Besides the keys shown, a
    template may set ``marker_payload`` and the spec a ``description``; any
    other key is rejected.
    """

    templates: tuple[FlowTemplate, ...]
    name: str = "synthetic"
    divergence_at: int | None = None
    shared_payload: tuple[int, int] | None = None
    shared_iat_us: tuple[int, int] | None = None

    @classmethod
    def from_dict(cls, data: dict) -> SynthSpec:
        reject_unknown(
            "spec", data, ("name", "description", "divergence_at", "shared", "templates")
        )
        shared = data.get("shared", {})
        reject_unknown("shared", shared, ("payload", "iat_us"))
        return cls(
            templates=tuple(FlowTemplate.from_dict(t) for t in data.get("templates", ())),
            name=data.get("name", "synthetic"),
            divergence_at=data.get("divergence_at"),
            shared_payload=tuple(shared["payload"]) if "payload" in shared else None,
            shared_iat_us=tuple(shared["iat_us"]) if "iat_us" in shared else None,
        )

    @classmethod
    def from_json(cls, path) -> SynthSpec:
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _as_listish(value):
    return value if isinstance(value, (list, tuple)) else [value]


def _as_str_tuple(value) -> tuple[str, ...]:
    return tuple(str(v) for v in _as_listish(value))


def _validate(spec: SynthSpec) -> None:
    if not spec.templates:
        raise InvalidSpecError("spec has no templates")
    if spec.divergence_at is not None:
        if spec.divergence_at < 1:
            raise InvalidSpecError("divergence_at must be >= 1")
        if spec.shared_payload is None or spec.shared_iat_us is None:
            raise InvalidSpecError("divergence_at requires shared payload and iat_us")
    total = 0
    for t in spec.templates:
        if t.flows < 1:
            raise InvalidSpecError(f"template {t.label!r}: flows must be >= 1")
        if t.packets[0] < 1 or t.packets[0] > t.packets[1]:
            raise InvalidSpecError(f"template {t.label!r}: bad packet count range")
        if t.payload[0] < 0 or t.payload[0] > t.payload[1]:
            raise InvalidSpecError(f"template {t.label!r}: bad payload range")
        if t.iat_us[0] < 0 or t.iat_us[0] > t.iat_us[1]:
            raise InvalidSpecError(f"template {t.label!r}: bad iat range")
        if t.protocol not in (PROTO_TCP, PROTO_UDP):
            raise InvalidSpecError(f"template {t.label!r}: protocol must be TCP or UDP")
        if not t.client_ips or not t.server_ips or not t.server_ports:
            raise InvalidSpecError(f"template {t.label!r}: empty endpoint pool")
        total += t.flows
    if total > _MAX_FLOWS:
        raise InvalidSpecError(f"{total} flows exceed the {_MAX_FLOWS} flow limit")


def _draw_int(rng: np.random.Generator, bounds: tuple[int, int]) -> int:
    return int(rng.integers(bounds[0], bounds[1] + 1))


def _draw_ip(rng: np.random.Generator, pool: tuple[str, ...]) -> str:
    choice = pool[int(rng.integers(0, len(pool)))]
    if "/" in choice:
        net = ip_network(choice, strict=False)
        offset = int(rng.integers(0, net.num_addresses))
        return str(ip_address(int(net.network_address) + offset))
    return str(ip_address(choice))


def synth_trace(
    spec: SynthSpec, seed: int
) -> tuple[PacketTrace, list[tuple[FlowId, str]]]:
    """Generate a trace and its ground truth, deterministically.

    Every flow gets a globally unique client port, so generated flows map
    one-to-one onto metered flows. Returns the packets sorted by timestamp
    and one (FlowId, label) entry per generated flow.
    """
    _validate(spec)
    rng = np.random.Generator(np.random.PCG64(seed))
    packets: list[RawPacket] = []
    truth: list[tuple[FlowId, str]] = []
    client_port = 10_000

    for template in spec.templates:
        for _ in range(template.flows):
            client_ip = _draw_ip(rng, template.client_ips)
            server_ip = _draw_ip(rng, template.server_ips)
            server_port = int(
                template.server_ports[int(rng.integers(0, len(template.server_ports)))]
            )
            n_packets = _draw_int(rng, template.packets)
            ts = _draw_int(rng, template.start_us)
            start_us = ts
            tcp = template.protocol == PROTO_TCP

            for i in range(1, n_packets + 1):
                pre_divergence = (
                    spec.divergence_at is not None and i < spec.divergence_at
                )
                iat_range = spec.shared_iat_us if pre_divergence else template.iat_us
                if pre_divergence:
                    size_range = spec.shared_payload
                elif (
                    template.marker_payload is not None
                    and i == spec.divergence_at
                ):
                    size_range = template.marker_payload
                else:
                    size_range = template.payload
                if i > 1:
                    ts += _draw_int(rng, iat_range)

                handshake = tcp and template.tcp_handshake and i <= 2
                size = 0 if handshake else _draw_int(rng, size_range)
                payload = rng.bytes(size) if size else b""

                if tcp:
                    if template.tcp_handshake and i == 1:
                        flags = TCP_SYN
                    elif template.tcp_handshake and i == 2:
                        flags = TCP_SYN | TCP_ACK
                    else:
                        flags = TCP_ACK | (TCP_PSH if size else 0)
                    if template.tcp_fin and i == n_packets:
                        flags |= TCP_FIN
                else:
                    flags = 0

                forward = i % 2 == 1  # strict alternation from the client
                pkt = RawPacket(
                    ts_us=ts,
                    src_ip=client_ip if forward else server_ip,
                    dst_ip=server_ip if forward else client_ip,
                    src_port=client_port if forward else server_port,
                    dst_port=server_port if forward else client_port,
                    protocol=template.protocol,
                    tcp_flags=flags,
                    payload_len=size,
                    wire_len=0,
                    payload=payload,
                )
                frame = _synthesize_frame(pkt)
                packets.append(replace(pkt, wire_len=len(frame), raw=frame))

            key = FlowKey.from_endpoints(
                client_ip, client_port, server_ip, server_port, template.protocol
            )
            truth.append((FlowId.from_key(key, start_us), template.label))
            client_port += 1

    packets.sort(key=lambda p: p.ts_us)
    return (
        PacketTrace(packets=tuple(packets), source=f"synthetic:{seed}"),
        truth,
    )


def derive_rules(spec: SynthSpec, default_label: str = "BENIGN") -> RuleSet:
    """Build a rule set labeling flows by their template's client pool.

    Assumes templates with different labels use disjoint client pools, as
    the shipped corpora do.
    """
    rules = []
    for template in spec.templates:
        if template.label == default_label:
            continue
        rules.append(
            LabelRule(
                label=template.label,
                src_ips=template.client_ips,
                protocol=template.protocol,
            )
        )
    return RuleSet(rules=tuple(rules), default_label=default_label)
