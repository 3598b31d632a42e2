"""Deterministic synthetic trace generation.

Produces desk-scale pcap-writable traces with known per-flow ground truth,
used to exercise the meter, the dataset builders, and the evaluation
scenarios without a multi-gigabyte capture. A spec defines per-class flow
templates; an optional divergence index makes every class statistically
identical for the first k-1 packets of each flow, so class signal appears
only from packet k onward.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from io import BytesIO
from ipaddress import ip_network
from itertools import accumulate
from operator import sub

import numpy as np

from .errors import (
    ANY, BOOL, INT, PAIR, STR, Field, InvalidSpecError, JsonDocument, check, checked
)
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
    _HEADER_TYPES,
    _framer,
    parse_ip,
)

_MAX_FLOWS = 55_000  # one unique client port per flow
_PAYLOAD = "[0, 65495]"  # the largest TCP payload an IPv4 packet holds
_MAX_DRAW = 2**63 - 1  # numpy draws int64 values, and synth replays its draws


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


def _validate(spec: SynthSpec) -> dict:
    """Raise InvalidSpecError for a spec that synth cannot generate; return
    its CIDR pools, each parsed once, as ``_draw_ip`` draws from them."""
    networks: dict = {}
    try:
        check("spec", spec, SynthSpec.FIELDS)
        shared = {"payload": spec.shared_payload, "iat_us": spec.shared_iat_us}
        check("shared", shared, SynthSpec.SHARED_FIELDS)
        if not spec.templates:
            raise ValueError("spec has no templates")
        if spec.divergence_at is not None and None in shared.values():
            raise ValueError("divergence_at requires shared payload and iat_us")
        if spec.shared_iat_us is not None and spec.shared_iat_us[1] > _MAX_DRAW:
            raise ValueError("shared.iat_us ends above 2**63 - 1")
        for t in spec.templates:
            values = check("template", t, FlowTemplate.FIELDS)
            check("tcp", {"handshake": t.tcp_handshake, "fin": t.tcp_fin}, FlowTemplate.TCP_FIELDS)
            if t.protocol not in (PROTO_TCP, PROTO_UDP):
                raise ValueError(f"template {t.label!r}: protocol must be TCP or UDP")
            if not (values["client_ips"] and values["server_ips"] and values["server_ports"]):
                raise ValueError(f"template {t.label!r}: empty endpoint pool")
            if len({":" in ip for ip in values["client_ips"] + values["server_ips"]}) > 1:
                raise ValueError(f"template {t.label!r}: pools mix IPv4 and IPv6 addresses")
            for name in ("packets", "iat_us", "start_us"):
                if values[name][1] > _MAX_DRAW:
                    raise ValueError(f"template {t.label!r}: {name} ends above 2**63 - 1")
            for name in ("client_ips", "server_ips"):
                for text in values[name]:
                    if "/" not in text:
                        continue
                    if text not in networks:
                        net = ip_network(text, strict=False)
                        networks[text] = net.network_address, net.num_addresses - 1
                    if networks[text][1] >= 2**63:
                        raise ValueError(
                            f"template {t.label!r}: {name} holds {text!r}, a pool of more"
                            " than 2**63 addresses"
                        )
        total = sum(t.flows for t in spec.templates)
        if total > _MAX_FLOWS:
            raise ValueError(f"{total} flows exceed the {_MAX_FLOWS} flow limit")
    except ValueError as exc:
        raise InvalidSpecError(str(exc)) from None
    return networks


# Raw outputs fetched at a time, 32 KiB of words; a larger payload fetches what it needs.
_BLOCK = 1 << 12


class _Draws:
    """The values ``Generator(PCG64(seed))`` gives synth, replayed in Python
    from PCG64's raw output, fetched in blocks, so a draw is no numpy call.

    numpy's ``Generator`` draws from a stream of 32-bit words: each raw
    64-bit output gives its low half, then its high half at the next 32-bit
    draw. ``integers(lo, hi + 1)`` takes nothing when ``hi == lo``, one word
    when ``hi - lo == 2**32 - 1``, Lemire's nearly divisionless draw on words
    when the range is narrower, and the same on whole raw outputs when it is
    wider; a high half left pending stays pending across such a draw.
    ``bytes(n)`` writes ``ceil(n / 4)`` words little-endian and keeps the
    first ``n`` bytes. ``tests/test_synth.py`` checks the replay against
    numpy draw for draw. Words fetched and never drawn are dropped: nothing
    else draws from the generator.
    """

    def __init__(self, seed: int) -> None:
        self._bits = np.random.PCG64(seed)
        self._words = memoryview(np.empty(0, np.uint32))
        self._stream = b""  # ``_words`` written little-endian
        self._at = 0  # the next word to draw; odd while a high half is pending

    def _hold(self, n: int) -> None:
        """Fetch raw output until ``n`` words from ``_at`` on are held."""
        if self._at + n <= len(self._words):
            return
        drop = self._at & ~1  # whole raw outputs, so ``_at`` keeps its parity
        raw = self._bits.random_raw(max(_BLOCK, n // 2 + 1))
        words = np.empty(2 * len(raw), np.uint32)
        words[0::2] = raw & 0xFFFFFFFF
        words[1::2] = raw >> 32
        self._store(np.concatenate((self._words[drop:], words)))
        self._at -= drop

    def _store(self, words: np.ndarray) -> None:
        self._words = memoryview(words)
        self._stream = words.astype("<u4").tobytes()

    def _word(self) -> int:
        if self._at == len(self._words):
            self._hold(1)
        self._at += 1
        return self._words[self._at - 1]

    def _raw(self) -> int:
        """The next whole raw output, skipping a pending high half, which
        moves to just past it and so stays the next word drawn."""
        self._hold(3)
        at, words = self._at, self._words
        pending = at & 1
        value = words[at + pending] | words[at + pending + 1] << 32
        if pending:
            words[at + 2] = words[at]
            self._store(np.asarray(words))
        self._at = at + 2
        return value

    def integer(self, lo: int, hi: int) -> int:
        """``Generator.integers(lo, hi + 1)``, for ``0 <= lo <= hi < 2**63``."""
        n = hi - lo + 1
        if n == 1:
            return lo
        if n < 1 << 32:  # ``_lemire``'s draw, on 32-bit words
            at = self._at
            if at == len(self._words):
                self._hold(1)
                at = self._at
            self._at = at + 1
            m = self._words[at] * n
            if m & 0xFFFFFFFF < n:
                floor = ((1 << 32) - n) % n
                while m & 0xFFFFFFFF < floor:
                    m = self._word() * n
            return lo + (m >> 32)
        if n == 1 << 32:
            return lo + self._word()
        return lo + _lemire(n, self._raw)

    def choice(self, pool: tuple):
        """``pool[Generator.integers(0, len(pool))]``."""
        return pool[self.integer(0, len(pool) - 1)]

    def bytes(self, n: int) -> bytes:
        """``Generator.bytes(n)``."""
        k = (n + 3) >> 2
        if self._at + k > len(self._words):
            self._hold(k)
        at = self._at
        self._at = at + k
        return self._stream[4 * at : 4 * at + n]


def _lemire(n: int, draw) -> int:
    """A draw below ``n`` from ``draw``'s uniform 64-bit values, by Lemire's
    nearly divisionless method, as numpy draws it."""
    m = draw() * n
    if m & 0xFFFFFFFFFFFFFFFF < n:
        floor = ((1 << 64) - n) % n  # below it, a product is redrawn
        while m & 0xFFFFFFFFFFFFFFFF < floor:
            m = draw() * n
    return m >> 64


def _draw_ip(draws: _Draws, pool: tuple[str, ...], networks: dict) -> str:
    """An address drawn from ``pool``, whose CIDR pools ``networks`` holds
    as their first address and their size less one."""
    choice = draws.choice(pool)
    if "/" not in choice:
        return parse_ip(choice)[2]
    first, last = networks[choice]
    return str(first + draws.integer(0, last))


def _phases(spec: SynthSpec, template: FlowTemplate) -> list[tuple]:
    """A flow's packets as runs that draw alike: per run, its first packet
    and the one after it (1-based), the ranges of its gaps and payload
    sizes, its TCP flags and the flag that a payload adds. Runs start at
    packet 1 (no gap), 2, 3 (past a handshake), the divergence index and
    the packet after it (past a marker)."""
    tcp = template.protocol == PROTO_TCP
    handshake = tcp and template.tcp_handshake
    at = spec.divergence_at or 0
    starts = sorted({1, 2, 3, at, at + 1} - {0})
    phases = []
    for first, stop in zip(starts, [*starts[1:], _MAX_DRAW + 1]):
        pre_divergence = first < at
        gaps = (0, 0) if first == 1 else spec.shared_iat_us if pre_divergence else template.iat_us
        if handshake and first <= 2:  # no payload, so no size is drawn
            sizes, flags, psh = (0, 0), TCP_SYN if first == 1 else TCP_SYN | TCP_ACK, 0
        else:
            if pre_divergence:
                sizes = spec.shared_payload
            elif template.marker_payload is not None and first == at:
                sizes = template.marker_payload
            else:
                sizes = template.payload
            flags, psh = (TCP_ACK, TCP_PSH) if tcp else (0, 0)
        phases.append((first, stop, *gaps, *sizes, flags, psh))
    return phases


def synth_trace(
    spec: SynthSpec, seed: int
) -> tuple[PacketTrace, list[tuple[FlowId, str]]]:
    """Generate a trace and its ground truth, deterministically.

    Every flow gets a globally unique client port, so generated flows map
    one-to-one onto metered flows. Returns the packets sorted by timestamp
    and one (FlowId, label) entry per generated flow.
    """
    seed = checked("seed", seed, Field(INT, "[0, inf)"))
    networks = _validate(spec)
    draws = _Draws(seed)
    integer, random_bytes = draws.integer, draws.bytes
    # Per packet in draw order, its header fields as columns (its addresses
    # as indices into ``index``) and its frame, which its payload ends; the
    # frames lie end to end in ``frames``.
    header = [array(t) for t in _HEADER_TYPES]
    frames = BytesIO()
    write = frames.write
    index: dict[str, int] = {}
    rows: list[tuple] = []  # the flow's packets' header fields, until the flow ends
    truth: list[tuple[FlowId, str]] = []
    client_port = 10_000

    for template in spec.templates:
        protocol = template.protocol
        phases = _phases(spec, template)
        for _ in range(template.flows):
            client_ip = _draw_ip(draws, template.client_ips, networks)
            server_ip = _draw_ip(draws, template.server_ips, networks)
            server_port = draws.choice(template.server_ports)
            n_packets = integer(*template.packets)
            ts = start_us = integer(*template.start_us)
            fin = n_packets if protocol == PROTO_TCP and template.tcp_fin else 0
            client = index.setdefault(client_ip, len(index))
            server = index.setdefault(server_ip, len(index))
            # Each direction's frame builder and fixed header fields; packets
            # alternate strictly, the odd ones from the client.
            directions = (
                (_framer(server_ip, client_ip, server_port, client_port, protocol),
                 (server, client, server_port, client_port, protocol)),
                (_framer(client_ip, server_ip, client_port, server_port, protocol),
                 (client, server, client_port, server_port, protocol)),
            )
            for first, stop, gap_lo, gap_hi, size_lo, size_hi, flags, psh in phases:
                for i in range(first, min(stop, n_packets + 1)):
                    ts += integer(gap_lo, gap_hi)
                    size = integer(size_lo, size_hi)
                    if size:
                        payload, tcp_flags = random_bytes(size), flags | psh
                    else:
                        payload, tcp_flags = b"", flags
                    if i == fin:
                        tcp_flags |= TCP_FIN
                    frame, fields = directions[i & 1]
                    data = frame(tcp_flags, size, payload)
                    rows.append((ts, *fields, tcp_flags, size, len(data)))
                    write(data)
            for column, values in zip(header, zip(*rows)):
                column.extend(values)
            rows.clear()

            key = FlowKey.from_endpoints(client_ip, client_port, server_ip, server_port, protocol)
            truth.append((FlowId.from_key(key, start_us), template.label))
            client_port += 1

    chunk = frames.getvalue()  # the buffer itself, trimmed to its size
    ends = array("I", accumulate(header[8]))  # a frame's length is its wire_len
    # Sorted once by time. That order interleaves every flow, so each column
    # is gathered row by row: ``take`` would copy runs of one row.
    order = sorted(range(len(ends)), key=header[0].tolist().__getitem__)
    *header, ends = (array(c.typecode, map(c.__getitem__, order)) for c in (*header, ends))
    sizes, lengths = header[7], header[8]
    frame_starts, payload_starts = (array("I", map(sub, ends, n)) for n in (lengths, sizes))
    spans = [array("I", bytes(4 * len(ends))), frame_starts, array("I", lengths),
             payload_starts, ends]
    packets = PacketColumns(header, list(index), [chunk], spans)
    return PacketTrace(packets, f"synthetic:{seed}"), truth


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
