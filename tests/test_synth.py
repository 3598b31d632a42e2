from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from flowlab.errors import InvalidSpecError
from flowlab.labeling import label_flow
from flowlab.meter import MeterConfig, meter
from flowlab.synth import FlowTemplate, SynthSpec, derive_rules, synth_trace
from flowlab.trace_io import read_trace, write_trace


def _minimal_spec(**overrides) -> SynthSpec:
    data = {
        "templates": [
            {
                "label": "BENIGN",
                "flows": 1,
                "packets": [3, 3],
                "payload": [10, 20],
                "iat_us": [100, 200],
                "client_ips": ["10.0.0.1"],
                "server_ips": ["10.0.0.2"],
                "server_ports": [80],
                "protocol": 17,
            }
        ]
    }
    data.update(overrides)
    return SynthSpec.from_dict(data)


class TestSynthTrace:
    def test_minimal_spec(self):
        trace, truth = synth_trace(_minimal_spec(), seed=0)
        assert len(trace) == 3
        assert len(truth) == 1
        fid, label = truth[0]
        assert label == "BENIGN"
        assert fid.start_us == trace.packets[0].ts_us

    def test_deterministic(self):
        spec = _minimal_spec()
        t1, g1 = synth_trace(spec, seed=7)
        t2, g2 = synth_trace(spec, seed=7)
        assert t1 == t2
        assert g1 == g2
        t3, _ = synth_trace(spec, seed=8)
        assert t3 != t1

    def test_timestamps_sorted(self, late_spec):
        trace, _ = synth_trace(late_spec, seed=1)
        ts = [p.ts_us for p in trace.packets]
        assert ts == sorted(ts)

    def test_empty_template_set_rejected(self):
        with pytest.raises(InvalidSpecError):
            synth_trace(SynthSpec(templates=()), seed=0)

    def test_zero_packet_count_rejected(self):
        spec = _minimal_spec()
        bad = SynthSpec(
            templates=(
                FlowTemplate(
                    label="X",
                    flows=1,
                    packets=(0, 3),
                    payload=(1, 2),
                    iat_us=(1, 2),
                    client_ips=("10.0.0.1",),
                    server_ips=("10.0.0.2",),
                    server_ports=(80,),
                ),
            )
        )
        with pytest.raises(InvalidSpecError):
            synth_trace(bad, seed=0)
        with pytest.raises(InvalidSpecError):
            synth_trace(
                SynthSpec(templates=spec.templates, divergence_at=3), seed=0
            )

    @pytest.mark.parametrize(
        "client,server",
        [(["10.0.0.1"], ["2001:db8::2"]), (["2001:db8::/120"], ["10.0.0.0/30"]),
         (["10.0.0.1", "2001:db8::1"], ["10.0.0.2"])],
    )
    def test_mixed_address_families_rejected(self, client, server):
        spec = _minimal_spec()
        mixed = replace(spec.templates[0], client_ips=tuple(client), server_ips=tuple(server))
        with pytest.raises(InvalidSpecError, match="IPv4 and IPv6"):
            synth_trace(replace(spec, templates=(mixed,)), seed=0)

    def test_protocol_other_than_tcp_or_udp_rejected(self):
        spec = _minimal_spec()
        icmp = replace(spec.templates[0], protocol=1)
        with pytest.raises(InvalidSpecError, match="protocol must be TCP or UDP"):
            synth_trace(replace(spec, templates=(icmp,)), seed=0)

    def test_flow_limit(self):
        spec = _minimal_spec()
        many = replace(spec.templates[0], flows=27_500)
        with pytest.raises(InvalidSpecError, match="55001 flows exceed the 55000 flow limit"):
            synth_trace(replace(spec, templates=(many, replace(many, flows=27_501))), seed=0)

    def test_ipv6_pool_below_2_to_the_32_stays_ipv6(self):
        # "::/120" holds ::0-::ff, whose integers would read back as IPv4 addresses.
        spec = _minimal_spec()
        v6 = replace(spec.templates[0], client_ips=("::/120",), server_ips=("::1:1",), flows=5)
        trace, truth = synth_trace(replace(spec, templates=(v6,)), seed=0)
        assert all(":" in p.src_ip and ":" in p.dst_ip for p in trace.packets)
        records, _ = meter(trace, MeterConfig())
        assert {r.id.hash64 for r in records} == {fid.hash64 for fid, _ in truth}

    def test_tcp_flags_pattern(self):
        spec = _minimal_spec()
        data = {
            "templates": [
                {
                    "label": "BENIGN",
                    "flows": 1,
                    "packets": [5, 5],
                    "payload": [10, 20],
                    "iat_us": [100, 200],
                    "client_ips": ["10.0.0.1"],
                    "server_ips": ["10.0.0.2"],
                    "server_ports": [80],
                    "protocol": 6,
                    "tcp": {"handshake": True, "fin": True},
                }
            ]
        }
        trace, _ = synth_trace(SynthSpec.from_dict(data), seed=0)
        flags = [p.tcp_flags for p in trace.packets]
        assert flags[0] == 0x02  # SYN
        assert flags[1] == 0x12  # SYN-ACK
        assert flags[-1] & 0x01  # FIN on the last packet
        assert all(f & 0x10 for f in flags[2:])
        # handshake packets carry no payload
        assert trace.packets[0].payload_len == 0
        assert trace.packets[1].payload_len == 0
        assert trace.packets[2].payload_len > 0


class TestDivergence:
    def test_pre_divergence_statistics_identical(self, late_spec):
        """Two-sample check: per-packet payload means are indistinguishable
        before the divergence index and clearly separated at it."""
        trace, truth = synth_trace(late_spec, seed=5)
        labels = {fid.hash64: label for fid, label in truth}
        from flowlab.meter import FlowKey, flow_hash

        flows: dict = {}
        for pkt in trace.packets:
            key = FlowKey.from_packet(pkt)
            flows.setdefault(key, []).append(pkt)

        by_class: dict = {"BENIGN": {}, "ATTACK": {}}
        for key, pkts in flows.items():
            label = labels[flow_hash(key, pkts[0].ts_us)]
            for i, pkt in enumerate(pkts, start=1):
                by_class[label].setdefault(i, []).append(pkt.payload_len)

        k = late_spec.divergence_at
        for i in range(1, k):
            benign = np.array(by_class["BENIGN"][i], dtype=float)
            attack = np.array(by_class["ATTACK"][i], dtype=float)
            gap = abs(benign.mean() - attack.mean())
            pooled_se = np.sqrt(
                benign.var() / len(benign) + attack.var() / len(attack)
            )
            assert gap < 5 * pooled_se, f"packet {i} means diverge"
        benign_k = np.array(by_class["BENIGN"][k], dtype=float)
        attack_k = np.array(by_class["ATTACK"][k], dtype=float)
        gap_k = attack_k.mean() - benign_k.mean()
        pooled_k = np.sqrt(
            benign_k.var() / len(benign_k) + attack_k.var() / len(attack_k)
        )
        assert gap_k > 20 * pooled_k

    def test_iat_statistics_identical_throughout(self, late_spec):
        # the corpus separates classes by size only; timing stays shared
        trace, truth = synth_trace(late_spec, seed=5)
        labels = {fid.hash64: label for fid, label in truth}
        from flowlab.meter import FlowKey, flow_hash

        gaps: dict = {"BENIGN": [], "ATTACK": []}
        flows: dict = {}
        for pkt in trace.packets:
            flows.setdefault(FlowKey.from_packet(pkt), []).append(pkt)
        for key, pkts in flows.items():
            label = labels[flow_hash(key, pkts[0].ts_us)]
            gaps[label].extend(b.ts_us - a.ts_us for a, b in zip(pkts, pkts[1:]))
        benign = np.array(gaps["BENIGN"], dtype=float)
        attack = np.array(gaps["ATTACK"], dtype=float)
        se = np.sqrt(benign.var() / len(benign) + attack.var() / len(attack))
        assert abs(benign.mean() - attack.mean()) < 5 * se


class TestGroundTruthIntegration:
    def test_meter_recovers_ground_truth(self, late_spec):
        trace, truth = synth_trace(late_spec, seed=9)
        records, _ = meter(trace, MeterConfig())
        assert len(records) == len(truth)
        assert {r.id.hash64 for r in records} == {fid.hash64 for fid, _ in truth}

    def test_derived_rules_match_ground_truth(self, late_spec):
        trace, truth = synth_trace(late_spec, seed=9)
        records, _ = meter(trace, MeterConfig())
        rules = derive_rules(late_spec)
        expected = {fid.hash64: label for fid, label in truth}
        for record in records:
            assert label_flow(record, rules) == expected[record.id.hash64]

    def test_ipv6_corpus_metered_back_to_its_truth(self, tmp_path):
        templates = [
            {
                "label": label,
                "flows": 20,
                "packets": [3, 9],
                "payload": payload,
                "iat_us": [100, 5000],
                "client_ips": [clients],
                "server_ips": ["2001:DB8:0:0::ff"],
                "server_ports": [443],
                "protocol": protocol,
                "tcp": {"handshake": True, "fin": True},
            }
            for label, clients, payload, protocol in (
                ("BENIGN", "2001:db8::/120", [0, 300], 6),
                ("ATTACK", "2001:db8:1::/120", [500, 900], 17),
            )
        ]
        spec = SynthSpec.from_dict({"templates": templates})
        trace, truth = synth_trace(spec, seed=2)
        path = tmp_path / "v6.pcap"
        write_trace(trace, path)
        back = read_trace(path)
        assert (len(back), back.skipped) == (len(trace), 0)
        assert all(p.dst_ip == "2001:db8::ff" or p.src_ip == "2001:db8::ff" for p in back.packets)
        records, _ = meter(back, MeterConfig())
        expected = {fid.hash64: label for fid, label in truth}
        assert {r.id.hash64 for r in records} == expected.keys()
        rules = derive_rules(spec)
        assert all(label_flow(r, rules) == expected[r.id.hash64] for r in records)

    def test_pcap_round_trip_preserves_flows(self, tmp_path, early_spec):
        trace, truth = synth_trace(early_spec, seed=4)
        path = tmp_path / "synth.pcap"
        write_trace(trace, path)
        back = read_trace(path)
        assert len(back) == len(trace)
        records, _ = meter(back, MeterConfig())
        assert {r.id.hash64 for r in records} == {fid.hash64 for fid, _ in truth}
