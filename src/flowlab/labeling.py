"""Ground-truth labeling of flow records from declarative rules.

Rules constrain endpoints (IPs/CIDRs and ports), protocol, and a time
window. Bidirectional rules match a flow in either orientation, so the
label does not depend on which endpoint happened to send the first packet.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from functools import lru_cache
from ipaddress import IPv4Address, IPv6Address, ip_address, ip_network

from .errors import reject_unknown
from .meter import FlowRecord


@dataclass(frozen=True)
class PortSet:
    """A set of ports given as single values and inclusive ranges.

    Empty means wildcard (matches every port).
    """

    singles: frozenset[int] = frozenset()
    ranges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        for lo, hi in self.ranges:
            if lo > hi:
                raise ValueError(f"port range [{lo}, {hi}] runs backwards")

    @classmethod
    def parse(cls, spec) -> PortSet:
        singles = set()
        ranges = []
        for item in spec:
            if isinstance(item, int):
                singles.add(item)
            elif isinstance(item, (list, tuple)) and len(item) == 2:
                ranges.append((int(item[0]), int(item[1])))
            elif isinstance(item, str) and "-" in item:
                lo, hi = item.split("-", 1)
                ranges.append((int(lo), int(hi)))
            else:
                singles.add(int(item))
        return cls(frozenset(singles), tuple(ranges))

    def is_wildcard(self) -> bool:
        return not self.singles and not self.ranges

    def matches(self, port: int) -> bool:
        if self.is_wildcard():
            return True
        if port in self.singles:
            return True
        return any(lo <= port <= hi for lo, hi in self.ranges)


def _parse_networks(spec) -> tuple:
    return tuple(ip_network(str(item), strict=False) for item in spec)


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

    def __post_init__(self) -> None:
        if not isinstance(self.label, str):
            raise ValueError(f"rule label must be a string, got {self.label!r}")
        if not (self.protocol is None or type(self.protocol) is int):
            raise ValueError(f"rule {self.label!r}: protocol {self.protocol!r} is not an integer")
        if not isinstance(self.bidirectional, bool):
            raise ValueError(f"rule {self.label!r}: bidirectional must be true or false")
        object.__setattr__(self, "src_ips", _parse_networks(self.src_ips))
        object.__setattr__(self, "dst_ips", _parse_networks(self.dst_ips))
        if not isinstance(self.src_ports, PortSet):
            object.__setattr__(self, "src_ports", PortSet.parse(self.src_ports))
        if not isinstance(self.dst_ports, PortSet):
            object.__setattr__(self, "dst_ports", PortSet.parse(self.dst_ports))
        if self.window_us is not None:
            a, b = self.window_us
            if a > b:
                raise ValueError(f"rule {self.label!r}: window start after end")
            object.__setattr__(self, "window_us", (int(a), int(b)))

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
        reject_unknown("rule", data, [*(f.name for f in fields(cls)), "description"])
        window = data.get("window_us")
        return cls(
            label=data["label"],
            src_ips=tuple(data.get("src_ips", ())),
            dst_ips=tuple(data.get("dst_ips", ())),
            src_ports=PortSet.parse(data.get("src_ports", ())),
            dst_ports=PortSet.parse(data.get("dst_ports", ())),
            protocol=data.get("protocol"),
            window_us=tuple(window) if window is not None else None,
            bidirectional=data.get("bidirectional", True),
        )


@dataclass(frozen=True)
class RuleSet:
    """Ordered rules with first-match-wins semantics and a default label."""

    rules: tuple[LabelRule, ...] = ()
    default_label: str = "BENIGN"

    def __post_init__(self) -> None:
        if not isinstance(self.default_label, str):
            raise ValueError(f"default_label must be a string, got {self.default_label!r}")

    @classmethod
    def from_dict(cls, data: dict) -> RuleSet:
        reject_unknown("rules", data, ("rules", "default_label", "description"))
        return cls(
            rules=tuple(LabelRule.from_dict(r) for r in data.get("rules", ())),
            default_label=data.get("default_label", "BENIGN"),
        )

    @classmethod
    def from_json(cls, path) -> RuleSet:
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def label_flow(record: FlowRecord, rules: RuleSet) -> str:
    """Label of the first matching rule, or the rule set's default."""
    for rule in rules.rules:
        if rule.matches(record):
            return rule.label
    return rules.default_label
