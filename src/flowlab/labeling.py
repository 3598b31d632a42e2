"""Ground-truth labeling of flow records from declarative rules.

Rules constrain endpoints (IPs/CIDRs and ports), protocol, and a time
window. Bidirectional rules match a flow in either orientation, so the
label does not depend on which endpoint happened to send the first packet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from ipaddress import ip_network

from .errors import ANY, BOOL, INT, PAIR, STR, Field, JsonDocument, check, checked, keep
from .meter import FlowId, FlowRecord
from .trace_io import parse_ip

# The label of a flow that no rule matches, and the one class binary metrics call benign.
BENIGN = "BENIGN"


@dataclass(frozen=True)
class PortSet:
    """A set of ports given as single values and inclusive ranges.

    Empty means wildcard (matches every port).
    """

    singles: frozenset[int] = frozenset()
    ranges: tuple[tuple[int, int], ...] = ()

    FIELDS = {
        "singles": Field(INT, "[0, 65535]", many=frozenset),
        "ranges": Field(PAIR, "[0, 65535]", many=tuple),
    }

    def __post_init__(self) -> None:
        keep(self, check("ports", self, self.FIELDS))

    @classmethod
    def parse(cls, spec, where: str = "ports") -> PortSet:
        """Ports as a rule file lists them: integers, ``[lo, hi]`` ranges
        and ``"lo-hi"`` strings; ValueError naming ``where`` for a bad one."""
        singles, ranges = [], []
        for item in checked(where, spec, Field(ANY, many=tuple)):
            item = _port_range(where, item) if isinstance(item, str) else item
            (ranges if isinstance(item, (list, tuple)) else singles).append(item)
        rows = cls.FIELDS
        return cls(checked(where, singles, rows["singles"]), checked(where, ranges, rows["ranges"]))

    def is_wildcard(self) -> bool:
        return not self.singles and not self.ranges

    def matches(self, port: int) -> bool:
        if self.is_wildcard():
            return True
        if port in self.singles:
            return True
        return any(lo <= port <= hi for lo, hi in self.ranges)


def _port_range(where: str, text: str) -> list[int]:
    lo, sep, hi = text.partition("-")
    if not (sep and lo.isdecimal() and hi.isdecimal()):
        raise ValueError(f'{where} holds {text!r}, which is not a "lo-hi" port range')
    return [int(lo), int(hi)]


def _network(where: str, text: str):
    try:
        return ip_network(text, strict=False)
    except ValueError:
        raise ValueError(f"{where} holds {text!r}, which is not an IP address or CIDR") from None


def _key(addr) -> int:
    """An address as one integer: an IPv4 address's own, an IPv6 address's
    above every IPv4 one, so each network spans one range of keys."""
    return int(addr) + (1 << 32 if addr.version == 6 else 0)


def _spans(networks: tuple) -> tuple[tuple[int, int], ...]:
    return tuple((_key(n.network_address), _key(n.broadcast_address)) for n in networks)


def _ip_matches(spans: tuple, ip: str) -> bool:
    if not spans:
        return True
    key = _key(parse_ip(ip)[0])
    for lo, hi in spans:
        if lo <= key <= hi:
            return True
    return False


@dataclass(frozen=True)
class LabelRule:
    """One labeling rule; empty IP/port constraints are wildcards."""

    label: str
    src_ips: tuple = ()
    dst_ips: tuple = ()
    src_ports: PortSet = field(default_factory=PortSet)
    dst_ports: PortSet = field(default_factory=PortSet)
    protocol: int | None = None
    window_us: tuple[int, int] | None = None
    bidirectional: bool = True

    FIELDS = {
        "label": Field(STR, required=True),
        "src_ips": Field(STR, many=tuple),
        "dst_ips": Field(STR, many=tuple),
        "src_ports": Field(ANY),
        "dst_ports": Field(ANY),
        "protocol": Field(INT, "[0, 255]", also=(None,)),
        "window_us": Field(PAIR, also=(None,)),
        "bidirectional": Field(BOOL),
        "description": Field(STR),
    }

    def __post_init__(self) -> None:
        values = check("rule", self, self.FIELDS)
        for name in ("src_ips", "dst_ips"):
            values[name] = tuple(_network(f"rule.{name}", ip) for ip in values[name])
        for name in ("src_ports", "dst_ports"):
            if not isinstance(values[name], PortSet):
                values[name] = PortSet.parse(values[name], f"rule.{name}")
        keep(self, values)
        keep(self, {"_src_spans": _spans(self.src_ips), "_dst_spans": _spans(self.dst_ips)})

    def _endpoints_match(self, src: tuple[str, int], dst: tuple[str, int]) -> bool:
        return (
            _ip_matches(self._src_spans, src[0])
            and _ip_matches(self._dst_spans, dst[0])
            and self.src_ports.matches(src[1])
            and self.dst_ports.matches(dst[1])
        )

    def matches(self, protocol: int, anchor: tuple, first_us: int, last_us: int) -> bool:
        """Whether a flow of ``protocol``, with direction anchor ``anchor``,
        seen from ``first_us`` to ``last_us``, matches."""
        if self.protocol is not None and protocol != self.protocol:
            return False
        if self.window_us is not None:
            # Overlap, not containment: the flow's lifetime touches the window.
            a, b = self.window_us
            if last_us < a or first_us > b:
                return False
        src, dst = anchor
        if self._endpoints_match(src, dst):
            return True
        return self.bidirectional and self._endpoints_match(dst, src)

    @classmethod
    def from_dict(cls, data: dict) -> LabelRule:
        values = check("rule", data, cls.FIELDS)
        values.pop("description", None)
        return cls(**values)


@dataclass(frozen=True)
class RuleSet(JsonDocument):
    """Ordered rules with first-match-wins semantics; unmatched flows are ``BENIGN``."""

    rules: tuple[LabelRule, ...] = ()

    FIELDS = {
        "rules": Field(ANY, many=tuple),
        "default_label": Field(STR),
        "description": Field(STR),
    }

    def __post_init__(self) -> None:
        keep(self, check("rules", self, self.FIELDS))

    @classmethod
    def from_dict(cls, data: dict) -> RuleSet:
        values = check("rules", data, cls.FIELDS)
        # The CF/PF CSVs do not record the benign class, so eval knows it by name only.
        default = values.get("default_label", BENIGN)
        if default != BENIGN:
            raise ValueError(f"rules.default_label must be {BENIGN!r}, got {default!r}")
        return cls(tuple(map(LabelRule.from_dict, values.get("rules", ()))))


def label_flow(record: FlowRecord | tuple[tuple[FlowId, tuple], int], rules: RuleSet) -> str:
    """Label of the first matching rule, or ``BENIGN``. ``record`` is a
    ``FlowRecord``, or a ``SnapshotBlock`` row given as its
    ``(flows[i], last_us[i])``, which labels the row without building its
    record; the row's flow starts at its id's ``start_us``."""
    if isinstance(record, FlowRecord):
        fid, anchor, first_us, last_us = (
            record.id, record.direction_anchor, record.first_us, record.last_us
        )
    else:
        (fid, anchor), last_us = record
        first_us = fid.start_us
    protocol = fid.key.protocol
    for rule in rules.rules:
        if rule.matches(protocol, anchor, first_us, last_us):
            return rule.label
    return BENIGN
