"""Ground-truth labeling of flow records from declarative rules.

Rules constrain endpoints (IPs/CIDRs and ports), protocol, and a time
window. Bidirectional rules match a flow in either orientation, so the
label does not depend on which endpoint happened to send the first packet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from ipaddress import IPv4Address, IPv6Address, ip_address, ip_network

from .errors import ANY, BOOL, INT, PAIR, STR, Field, JsonDocument, check, checked
from .meter import FlowRecord


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
        for name, value in check("ports", self, self.FIELDS).items():
            object.__setattr__(self, name, value)

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


@lru_cache(maxsize=65536)
def _address(ip: str) -> IPv4Address | IPv6Address:
    return ip_address(ip)


def _ip_matches(networks: tuple, ip: str) -> bool:
    if not networks:
        return True
    addr = _address(ip)
    return any(addr.version == net.version and addr in net for net in networks)


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
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _endpoints_match(self, src: tuple[str, int], dst: tuple[str, int]) -> bool:
        return (
            _ip_matches(self.src_ips, src[0])
            and _ip_matches(self.dst_ips, dst[0])
            and self.src_ports.matches(src[1])
            and self.dst_ports.matches(dst[1])
        )

    def matches(self, record: FlowRecord) -> bool:
        if self.protocol is not None and record.protocol != self.protocol:
            return False
        if self.window_us is not None:
            # Overlap, not containment: the flow's lifetime touches the window.
            a, b = self.window_us
            if record.last_us < a or record.first_us > b:
                return False
        src, dst = record.direction_anchor
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
    """Ordered rules with first-match-wins semantics and a default label."""

    rules: tuple[LabelRule, ...] = ()
    default_label: str = "BENIGN"

    FIELDS = {
        "rules": Field(ANY, many=tuple),
        "default_label": Field(STR),
        "description": Field(STR),
    }

    def __post_init__(self) -> None:
        check("rules", self, self.FIELDS)

    @classmethod
    def from_dict(cls, data: dict) -> RuleSet:
        values = check("rules", data, cls.FIELDS)
        values.pop("description", None)
        values["rules"] = tuple(map(LabelRule.from_dict, values.get("rules", ())))
        return cls(**values)


def label_flow(record: FlowRecord, rules: RuleSet) -> str:
    """Label of the first matching rule, or the rule set's default."""
    for rule in rules.rules:
        if rule.matches(record):
            return rule.label
    return rules.default_label
