"""Deterministic synthetic trace generation.

Produces desk-scale pcap-writable traces with known per-flow ground truth,
used to exercise the meter, the dataset builders, and the evaluation
scenarios without a multi-gigabyte capture. A spec defines per-class flow
templates; an optional divergence index makes every class statistically
identical for the first k-1 packets of each flow, so class signal appears
only from packet k onward.
"""

from __future__ import annotations

from dataclasses import dataclass
from ipaddress import ip_network
from operator import itemgetter

import numpy as np

from .errors import ANY, BOOL, INT, PAIR, STR, Field, InvalidSpecError, JsonDocument, check
from .labeling import BENIGN, LabelRule, RuleSet
from .meter import FlowId, FlowKey
from .trace_io import (
    PROTO_TCP,
    PROTO_UDP,
    PacketColumns,
    PacketTrace,
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_SYN,
    _frame,
    parse_ip,
)

_MAX_FLOWS = 55_000  # one unique client port per flow
_PAYLOAD = "[0, 65495]"  # the largest TCP payload an IPv4 packet holds


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

    FIELDS = {
        "label": Field(STR, required=True),
        "flows": Field(INT, "[1, inf)", required=True),
        "packets": Field(PAIR, "[1, inf)", required=True),
        "payload": Field(PAIR, _PAYLOAD, required=True),
        "iat_us": Field(PAIR, "[0, inf)", required=True),
        "client_ips": Field(STR, many=tuple, required=True),
        "server_ips": Field(STR, many=tuple, required=True),
        "server_ports": Field(INT, "[0, 65535]", many=tuple, required=True),
        "protocol": Field(INT),
        "start_us": Field(PAIR, "[0, inf)"),
        "tcp": Field(ANY),
        "marker_payload": Field(PAIR, _PAYLOAD, also=(None,)),
    }
    TCP_FIELDS = {"handshake": Field(BOOL), "fin": Field(BOOL)}

    @classmethod
    def from_dict(cls, data: dict) -> FlowTemplate:
        values = check("template", data, cls.FIELDS)
        tcp = check("tcp", values.pop("tcp", {}), cls.TCP_FIELDS)
        return cls(**values, **{f"tcp_{name}": value for name, value in tcp.items()})


@dataclass(frozen=True)
class SynthSpec(JsonDocument):
    """A whole corpus: templates plus optional shared pre-divergence stats.

    Packet i of every flow draws its size and inter-arrival gap from the
    ``shared`` ranges while i < divergence_at (1-based), and from its
    template's ranges from packet divergence_at onward. The JSON form is
    given by ``FIELDS`` and ``SHARED_FIELDS`` here and by those of
    ``FlowTemplate``; the README shows each as a table.
    """

    templates: tuple[FlowTemplate, ...]
    name: str = "synthetic"
    divergence_at: int | None = None
    shared_payload: tuple[int, int] | None = None
    shared_iat_us: tuple[int, int] | None = None

    FIELDS = {
        "name": Field(STR),
        "description": Field(STR),
        "divergence_at": Field(INT, "[1, inf)", also=(None,)),
        "shared": Field(ANY),
        "templates": Field(ANY, many=tuple),
    }
    SHARED_FIELDS = {
        "payload": Field(PAIR, _PAYLOAD, also=(None,)),
        "iat_us": Field(PAIR, "[0, inf)", also=(None,)),
    }

    @classmethod
    def from_dict(cls, data: dict) -> SynthSpec:
        values = check("spec", data, cls.FIELDS)
        values.pop("description", None)
        shared = check("shared", values.pop("shared", {}), cls.SHARED_FIELDS)
        return cls(
            templates=tuple(map(FlowTemplate.from_dict, values.pop("templates", ()))),
            shared_payload=shared.get("payload"),
            shared_iat_us=shared.get("iat_us"),
            **values,
        )


def _validate(spec: SynthSpec) -> None:
    try:
        check("spec", spec, SynthSpec.FIELDS)
        shared = {"payload": spec.shared_payload, "iat_us": spec.shared_iat_us}
        check("shared", shared, SynthSpec.SHARED_FIELDS)
        if not spec.templates:
            raise ValueError("spec has no templates")
        if spec.divergence_at is not None and None in shared.values():
            raise ValueError("divergence_at requires shared payload and iat_us")
        for t in spec.templates:
            pools = check("template", t, FlowTemplate.FIELDS)
            check("tcp", {"handshake": t.tcp_handshake, "fin": t.tcp_fin}, FlowTemplate.TCP_FIELDS)
            if t.protocol not in (PROTO_TCP, PROTO_UDP):
                raise ValueError(f"template {t.label!r}: protocol must be TCP or UDP")
            if not (pools["client_ips"] and pools["server_ips"] and pools["server_ports"]):
                raise ValueError(f"template {t.label!r}: empty endpoint pool")
            if len({":" in ip for ip in pools["client_ips"] + pools["server_ips"]}) > 1:
                raise ValueError(f"template {t.label!r}: pools mix IPv4 and IPv6 addresses")
        total = sum(t.flows for t in spec.templates)
        if total > _MAX_FLOWS:
            raise ValueError(f"{total} flows exceed the {_MAX_FLOWS} flow limit")
    except ValueError as exc:
        raise InvalidSpecError(str(exc)) from None


def _draw_int(rng: np.random.Generator, bounds: tuple[int, int]) -> int:
    return int(rng.integers(bounds[0], bounds[1] + 1))


def _draw_ip(rng: np.random.Generator, pool: tuple[str, ...]) -> str:
    choice = pool[int(rng.integers(0, len(pool)))]
    if "/" in choice:
        net = ip_network(choice, strict=False)
        offset = int(rng.integers(0, net.num_addresses))
        return str(net.network_address + offset)
    return parse_ip(choice)[2]


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
    # Per packet, its fields in RawPacket field order.
    rows: list[tuple] = []
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
                src_ip, dst_ip = (client_ip, server_ip) if forward else (server_ip, client_ip)
                ports = (client_port, server_port) if forward else (server_port, client_port)
                frame = _frame(src_ip, dst_ip, *ports, template.protocol, flags, size, payload)
                rows.append(
                    (ts, src_ip, dst_ip, *ports, template.protocol, flags, size, len(frame),
                     payload, frame)
                )

            key = FlowKey.from_endpoints(
                client_ip, client_port, server_ip, server_port, template.protocol
            )
            truth.append((FlowId.from_key(key, start_us), template.label))
            client_port += 1

    rows.sort(key=itemgetter(0))
    return PacketTrace(PacketColumns.from_fields(list(zip(*rows))), f"synthetic:{seed}"), truth


def derive_rules(spec: SynthSpec) -> RuleSet:
    """Build a rule set labeling flows by their template's client pool.

    Templates labelled ``BENIGN`` get no rule. Assumes templates with
    different labels use disjoint client pools, as the shipped corpora do.
    """
    rules = (
        LabelRule(label=t.label, src_ips=t.client_ips, protocol=t.protocol)
        for t in spec.templates
        if t.label != BENIGN
    )
    return RuleSet(tuple(rules))
