from __future__ import annotations

import dataclasses
import ipaddress

import numpy as np
import pytest

from flowlab.labeling import BENIGN, LabelRule, PortSet, RuleSet, label_flow
from flowlab.meter import FeatureVector, FlowId, FlowKey, FlowRecord

from conftest import corpus_path


def _record(
    src=("192.168.10.50", 80),
    dst=("172.16.0.1", 45022),
    protocol=6,
    first_us=1_000,
    last_us=2_000,
):
    key = FlowKey.from_endpoints(src[0], src[1], dst[0], dst[1], protocol)
    values = {name: 0 for name in FeatureVector._fields}
    values["duration_ms"] = (last_us - first_us) / 1000
    return FlowRecord(
        id=FlowId.from_key(key, first_us),
        direction_anchor=(src, dst),
        first_us=first_us,
        last_us=last_us,
        features=FeatureVector(**values),
        expiration_reason="end_of_trace",
    )


class TestLabelFlow:
    def test_empty_ruleset_default(self):
        assert label_flow(_record(), RuleSet()) == "BENIGN"

    def test_bidirectional_orientation_match(self):
        # rule written attacker->victim, flow anchored victim->attacker
        rule = LabelRule(
            label="DoS Hulk", src_ips=("172.16.0.1",), dst_ips=("192.168.10.50",)
        )
        record = _record(src=("192.168.10.50", 80), dst=("172.16.0.1", 45022))
        assert label_flow(record, RuleSet(rules=(rule,))) == "DoS Hulk"

    def test_unidirectional_rule_respects_orientation(self):
        rule = LabelRule(
            label="X",
            src_ips=("172.16.0.1",),
            dst_ips=("192.168.10.50",),
            bidirectional=False,
        )
        fwd = _record(src=("172.16.0.1", 45022), dst=("192.168.10.50", 80))
        rev = _record(src=("192.168.10.50", 80), dst=("172.16.0.1", 45022))
        rs = RuleSet(rules=(rule,))
        assert label_flow(fwd, rs) == "X"
        assert label_flow(rev, rs) == "BENIGN"

    def test_window_overlap_not_containment(self):
        rule = LabelRule(label="X", window_us=(1_500, 5_000))
        assert label_flow(_record(first_us=1_000, last_us=2_000), RuleSet((rule,))) == "X"
        assert (
            label_flow(_record(first_us=5_001, last_us=6_000), RuleSet((rule,)))
            == "BENIGN"
        )
        # flow entirely containing the window still overlaps
        assert label_flow(_record(first_us=0, last_us=9_000), RuleSet((rule,))) == "X"

    def test_protocol_and_ports(self):
        rule = LabelRule(label="X", protocol=6, dst_ports=(80, (440, 450)))
        src = ("192.168.10.50", 9999)
        assert label_flow(_record(src=src, dst=("172.16.0.1", 80)), RuleSet((rule,))) == "X"
        assert label_flow(_record(src=src, dst=("172.16.0.1", 444)), RuleSet((rule,))) == "X"
        assert (
            label_flow(_record(src=src, dst=("172.16.0.1", 8080)), RuleSet((rule,)))
            == "BENIGN"
        )
        assert (
            label_flow(
                _record(src=src, dst=("172.16.0.1", 80), protocol=17), RuleSet((rule,))
            )
            == "BENIGN"
        )

    def test_cidr_matching(self):
        rule = LabelRule(label="X", src_ips=("10.0.0.0/8",))
        assert label_flow(_record(src=("10.3.4.5", 1)), RuleSet((rule,))) == "X"
        assert label_flow(_record(src=("11.0.0.1", 1)), RuleSet((rule,))) == "BENIGN"

    @pytest.mark.parametrize(
        "network", ["0.0.0.0/0", "10.0.0.0/31", "255.255.255.255/32", "::/0", "::/96",
                    "::ffff:0:0/96", "2001:db8::/127", "ffff::/16"],
    )
    def test_cidr_matching_agrees_with_ipaddress(self, network):
        # An IPv4 address and an IPv6 one with the same integer, and each
        # network's ends and their neighbours.
        net = ipaddress.ip_network(network)
        addrs = {ipaddress.ip_address(text) for text in (
            "0.0.0.0", "0.0.0.1", "10.0.0.1", "10.0.0.2", "255.255.255.255",
            "::", "::1", "::ffff:ffff", "::1:0:0", "::ffff:a00:1", "2001:db8::2", "ffff::",
        )}
        for end in (net.network_address, net.broadcast_address):
            values = (int(end) + step for step in (-1, 0, 1))
            addrs |= {type(end)(v) for v in values if 0 <= v < 2**net.max_prefixlen}
        rule = LabelRule(label="X", src_ips=(network,), bidirectional=False)
        for addr in addrs:
            other = "10.9.9.9" if addr.version == 4 else "2001:db8:9::9"
            label = label_flow(_record(src=(str(addr), 1), dst=(other, 2)), RuleSet((rule,)))
            assert (label == "X") == (addr in net), (network, addr)

    def test_first_match_wins(self):
        rules = RuleSet(
            rules=(
                LabelRule(label="FIRST", src_ips=("172.16.0.1",)),
                LabelRule(label="SECOND", src_ips=("172.16.0.1",)),
            )
        )
        assert label_flow(_record(dst=("172.16.0.1", 1)), rules) == "FIRST"

    def test_replace_keeps_a_rule_valid(self):
        # A rule holds each network as canonical CIDR text, which its own check accepts.
        rule = LabelRule(label="X", src_ips=("10.1.2.3/8", "2001:db8::1"))
        moved = dataclasses.replace(rule, label="Y")
        assert moved.src_ips == ("10.0.0.0/8", "2001:db8::1/128")
        assert moved == LabelRule(label="Y", src_ips=moved.src_ips)
        assert label_flow(_record(src=("10.9.9.9", 1)), RuleSet((moved,))) == "Y"

    def test_window_invalid_rejected(self):
        with pytest.raises(ValueError):
            LabelRule(label="X", window_us=(10, 5))


def _brute_force_label(record, rules: RuleSet) -> str:
    """Oracle: test every rule in order against both orientations."""
    (src_ip, src_port), (dst_ip, dst_port) = record.direction_anchor
    orientations = [((src_ip, src_port), (dst_ip, dst_port))]
    for rule in rules.rules:
        candidates = orientations + (
            [((dst_ip, dst_port), (src_ip, src_port))] if rule.bidirectional else []
        )
        for (s_ip, s_port), (d_ip, d_port) in candidates:
            if rule.protocol is not None and record.protocol != rule.protocol:
                continue
            if rule.window_us is not None:
                a, b = rule.window_us
                if not (record.first_us <= b and record.last_us >= a):
                    continue
            def ip_ok(nets, ip):
                return not nets or any(
                    ipaddress.ip_address(ip) in n
                    for n in map(ipaddress.ip_network, nets)
                    if n.version == ipaddress.ip_address(ip).version
                )
            def port_ok(ps: PortSet, port):
                if ps.is_wildcard():
                    return True
                return port in ps.singles or any(
                    lo <= port <= hi for lo, hi in ps.ranges
                )
            if (
                ip_ok(rule.src_ips, s_ip)
                and ip_ok(rule.dst_ips, d_ip)
                and port_ok(rule.src_ports, s_port)
                and port_ok(rule.dst_ports, d_port)
            ):
                return rule.label
    return BENIGN


class TestBruteForceOracle:
    def test_random_records_vs_random_rules(self):
        rng = np.random.default_rng(17)
        ips = [f"10.0.{i}.{j}" for i in range(3) for j in range(1, 4)]
        records = [
            _record(
                src=(ips[rng.integers(0, len(ips))], int(rng.integers(1, 3))),
                dst=(ips[rng.integers(0, len(ips))], int(rng.integers(1, 3))),
                protocol=int(rng.choice([6, 17])),
                first_us=int(rng.integers(0, 50)),
                last_us=int(rng.integers(50, 100)),
            )
            for _ in range(50)
        ]
        for trial in range(20):
            rules = []
            for r in range(5):
                rules.append(
                    LabelRule(
                        label=f"L{r}",
                        src_ips=tuple(
                            rng.choice(ips, size=rng.integers(0, 3), replace=False)
                        ),
                        dst_ips=tuple(
                            rng.choice(ips, size=rng.integers(0, 3), replace=False)
                        ),
                        src_ports=PortSet.parse(
                            [int(p) for p in rng.choice([1, 2], size=rng.integers(0, 2))]
                        ),
                        protocol=int(rng.choice([6, 17])) if rng.random() < 0.4 else None,
                        window_us=(0, int(rng.integers(40, 120)))
                        if rng.random() < 0.4
                        else None,
                        bidirectional=bool(rng.random() < 0.7),
                    )
                )
            rs = RuleSet(rules=tuple(rules))
            for record in records:
                assert label_flow(record, rs) == _brute_force_label(record, rs)


class TestProperties:
    def test_orientation_invariance_for_bidirectional_rules(self):
        rng = np.random.default_rng(23)
        rules = RuleSet(
            rules=(
                LabelRule(label="A", src_ips=("10.0.0.0/24",), dst_ports=(80,)),
                LabelRule(label="B", src_ips=("10.0.1.0/24",)),
            )
        )
        for _ in range(100):
            src = (f"10.0.{rng.integers(0, 2)}.{rng.integers(1, 9)}", int(rng.choice([80, 90])))
            dst = (f"10.0.{rng.integers(0, 2)}.{rng.integers(1, 9)}", int(rng.choice([80, 90])))
            fwd = _record(src=src, dst=dst)
            rev = _record(src=dst, dst=src)
            assert label_flow(fwd, rules) == label_flow(rev, rules)

    def test_permuting_non_overlapping_rules_is_stable(self):
        r1 = LabelRule(label="A", src_ips=("10.0.0.1",))
        r2 = LabelRule(label="B", src_ips=("10.0.0.2",))
        records = [
            _record(src=("10.0.0.1", 1), dst=("10.9.9.9", 2)),
            _record(src=("10.0.0.2", 1), dst=("10.9.9.9", 2)),
            _record(src=("10.0.0.3", 1), dst=("10.9.9.9", 2)),
        ]
        for record in records:
            assert label_flow(record, RuleSet((r1, r2))) == label_flow(
                record, RuleSet((r2, r1))
            )


class TestRuleFiles:
    def test_wednesday_rules_load_and_label(self):
        rules = RuleSet.from_json(corpus_path("wednesday_rules"))
        assert len(rules.rules) == 5
        hulk_window = next(r for r in rules.rules if r.label == "DoS Hulk").window_us
        record = _record(
            src=("172.16.0.1", 50000),
            dst=("192.168.10.50", 80),
            first_us=hulk_window[0] + 1_000_000,
            last_us=hulk_window[0] + 2_000_000,
        )
        assert label_flow(record, rules) == "DoS Hulk"
        benign = _record(
            src=("192.168.10.12", 50000),
            dst=("192.168.10.50", 80),
            first_us=hulk_window[0] + 1_000_000,
            last_us=hulk_window[0] + 2_000_000,
        )
        assert label_flow(benign, rules) == "BENIGN"

    def test_round_trip_from_dict(self):
        data = {
            "default_label": "BENIGN",
            "rules": [
                {
                    "label": "X",
                    "src_ips": ["1.2.3.0/24"],
                    "dst_ports": [80, [100, 200]],
                    "protocol": 6,
                    "window_us": [5, 10],
                    "bidirectional": False,
                }
            ],
        }
        rs = RuleSet.from_dict(data)
        rule = rs.rules[0]
        assert rule.bidirectional is False
        assert rule.window_us == (5, 10)
        assert rule.dst_ports.matches(150)
        assert not rule.dst_ports.matches(250)
