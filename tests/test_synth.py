from __future__ import annotations

import hashlib
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowlab import cli, synth
from flowlab.errors import InvalidSpecError
from flowlab.labeling import label_flow
from flowlab.meter import MeterConfig, meter
from flowlab.synth import FlowTemplate, SynthSpec, _Draws, derive_rules, synth_trace
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


# A draw: ("int", width, lo), an integer in [lo, lo + width], or ("bytes", n).
# 2**31 and 3 * 2**30 + 7 redraw a word with odds of about 1/2 and 1/4.
_WIDTHS = st.sampled_from(
    [0, 1, 9, 2**31, 3 * 2**30 + 7, 2**32 - 2, 2**32 - 1, 2**32, 2**40, 2**63 - 1]
)
_DRAW = st.one_of(
    st.tuples(st.just("int"), _WIDTHS | st.integers(0, 2**63 - 1), st.integers(0, 2**63 - 1)),
    st.tuples(st.just("bytes"), st.integers(1, 64) | st.integers(1, 65495), st.just(0)),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64 - 1), st.lists(_DRAW, max_size=60))
# A 32-bit draw leaves raw 0's high half pending, the 64-bit draw takes raw
# 1 whole, and the half still pending is the next 32-bit draw.
@example(0, [("int", 9, 0), ("int", 2**40 - 1, 0), ("int", 2**32 - 1, 0), ("bytes", 5, 0)])
@example(3, [("int", 2**31, 0)] * 8 + [("int", 3 * 2**30 + 7, 5)] * 8)
def test_draws_replay_numpy_draw_for_draw(seed, draws):
    replay = _Draws(seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    for kind, size, lo in draws:
        if kind == "bytes":
            assert replay.bytes(size) == rng.bytes(size)
        else:
            lo %= 2**63 - size
            assert replay.integer(lo, lo + size) == int(rng.integers(lo, lo + size + 1))


def _synth(tmp_path, spec: dict, seed: str = "1") -> int:
    """``flowlab synth`` of ``spec`` into ``s.pcap`` and ``t.json``; its exit code."""
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    return cli.main(["synth", str(tmp_path / "spec.json"), seed, str(tmp_path / "s.pcap"),
                     str(tmp_path / "t.json")])


def _digests(tmp_path) -> dict:
    return {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("s.pcap", "t.json")
    }


# A spec whose draws take every path of the replay: /65 pools and a start
# range wider than 2**32 draw 64-bit values between 32-bit ones; fixed packet
# counts and gaps draw nothing; payloads of 1-9 bytes take odd and even word
# counts; one TCP template with handshake and FIN, one UDP with a marker.
_DRAW_PATHS = {
    "name": "draw-paths",
    "divergence_at": 3,
    "shared": {"payload": [0, 40], "iat_us": [1, 5000]},
    "templates": [
        {
            "label": "BENIGN", "flows": 5, "packets": [4, 9], "payload": [1, 1400],
            "iat_us": [0, 100000],
            "client_ips": ["2001:db8:0:0:8000::/65", "2001:db8:1::7"],
            "server_ips": ["2001:db8:ffff::/120", "2001:db8:fffe::1"],
            "server_ports": [443, 8443, 22], "protocol": 6,
            "start_us": [0, 10000000000], "tcp": {"handshake": True, "fin": True},
        },
        {
            "label": "ATTACK", "flows": 5, "packets": [6, 6], "payload": [0, 7],
            "iat_us": [10, 10],
            "client_ips": ["2001:db8:2::/65"], "server_ips": ["2001:db8:ffff::1"],
            "server_ports": [53], "protocol": 17,
            "start_us": [5000000000, 9000000000], "marker_payload": [1, 9],
        },
    ],
}


def test_synth_bytes_pinned_where_the_benchmark_does_not_reach(tmp_path):
    # Recorded from numpy's own per-packet draws, before synth replayed them.
    assert _synth(tmp_path, _DRAW_PATHS) == 0
    assert _digests(tmp_path) == {
        "s.pcap": "7c464113e2e281c2dd6b7c788e9792ab371e72e1fded7ad8b6a112c17fe51ce1",
        "t.json": "05463fe903266d7b08acfb2b4e0906aa3fd1beda1026000a72b73b6aaf57e9a9",
    }


# The flag and phase branches that the benchmark and ``_DRAW_PATHS`` miss,
# on IPv4: TCP without handshake or FIN (payloads of 0-2 bytes, with and
# without PSH) and a marker; TCP with both on flows of 1-4 packets, so the
# SYN-ACK's gap is a shared one and FIN can fall on the SYN or the SYN-ACK;
# TCP with FIN but no handshake and a marker range from 0; UDP with a marker.
_FLAG_PHASES = {
    "name": "flag-phases",
    "divergence_at": 3,
    "shared": {"payload": [0, 30], "iat_us": [1, 500]},
    "templates": [
        {
            "label": "BENIGN", "flows": 6, "packets": [1, 6], "payload": [0, 2],
            "marker_payload": [100, 120], "iat_us": [0, 1000], "client_ips": ["10.1.0.0/24"],
            "server_ips": ["10.9.0.1"], "server_ports": [80, 8080], "protocol": 6,
            "start_us": [0, 50000], "tcp": {"handshake": False, "fin": False},
        },
        {
            "label": "SCAN", "flows": 6, "packets": [1, 4], "payload": [5, 9],
            "iat_us": [10, 20], "client_ips": ["10.2.0.0/30", "10.2.1.1"],
            "server_ips": ["10.9.0.0/29"], "server_ports": [22], "protocol": 6,
            "start_us": [0, 50000], "tcp": {"handshake": True, "fin": True},
        },
        {
            "label": "EXFIL", "flows": 4, "packets": [2, 5], "payload": [0, 1],
            "marker_payload": [0, 3], "iat_us": [7, 7], "client_ips": ["10.3.0.0/28"],
            "server_ips": ["10.9.0.2"], "server_ports": [443], "protocol": 6,
            "start_us": [0, 50000], "tcp": {"handshake": False, "fin": True},
        },
        {
            "label": "FLOOD", "flows": 4, "packets": [3, 3], "payload": [1, 40],
            "marker_payload": [900, 1000], "iat_us": [100, 300], "client_ips": ["10.4.0.0/24"],
            "server_ips": ["10.9.0.3"], "server_ports": [53], "protocol": 17,
            "start_us": [0, 50000],
        },
    ],
}


def test_synth_bytes_pinned_on_the_flag_and_phase_branches(tmp_path):
    # Recorded when each packet still chose its ranges and flags itself.
    assert _synth(tmp_path, _FLAG_PHASES) == 0
    assert _digests(tmp_path) == {
        "s.pcap": "6eb71a077f46674ae7254031fed20ca0778c293a008b56224d58beece835be00",
        "t.json": "906bab77f4ef8fbcd803328bc47cc0bdc1f59966d5394f896f6f578cbdef4281",
    }
    flags = {p.tcp_flags for p in read_trace(tmp_path / "s.pcap").packets}
    assert {0x10, 0x18, 0x11, 0x19, 0x02, 0x03, 0x12, 0x13, 0} <= flags, sorted(flags)


# Two classes of 12 flows whose packets all fall in the first ~20 µs, so most
# times are shared by packets of several flows: only a stable sort by time
# keeps those in draw order.
_TIES = {
    "name": "ties",
    "templates": [
        {
            "label": "BENIGN", "flows": 12, "packets": [4, 9], "payload": [0, 30],
            "iat_us": [0, 2], "client_ips": ["10.5.0.0/24"], "server_ips": ["10.9.0.1"],
            "server_ports": [80, 443], "protocol": 6, "start_us": [0, 3],
            "tcp": {"handshake": True, "fin": True},
        },
        {
            "label": "ATTACK", "flows": 12, "packets": [4, 9], "payload": [0, 30],
            "iat_us": [0, 2], "client_ips": ["10.6.0.0/24"], "server_ips": ["10.9.0.2"],
            "server_ports": [53], "protocol": 17, "start_us": [0, 3],
        },
    ],
}


def test_synth_bytes_pinned_on_packets_that_tie_on_time(tmp_path):
    # Recorded when synth still sorted with Python's ``sorted``.
    assert _synth(tmp_path, _TIES) == 0
    assert _digests(tmp_path) == {
        "s.pcap": "d2bd4147cce7398e253aedb3af8b66673803de01a0164840d07e2ded2f5bcd32",
        "t.json": "ffa1d1b2260c76e9cb63f2175366297dcd0b21a03cca4cf2a8d111e95512020f",
    }
    times = [p.ts_us for p in read_trace(tmp_path / "s.pcap").packets]
    assert len(times) - len(set(times)) > 100


def test_packet_time_beyond_int64_rejected(tmp_path, capsys):
    # The flow's second packet falls at 2**63 µs; it is refused when that
    # flow ends, before its packets join the columns.
    spec = {"templates": [{
        "label": "LATE", "flows": 1, "packets": [2, 2], "payload": [0, 0],
        "iat_us": [1, 1], "client_ips": ["10.0.0.1"], "server_ips": ["10.0.0.2"],
        "server_ports": [80], "start_us": [2**63 - 1, 2**63 - 1],
    }]}
    assert _synth(tmp_path, spec) == 2
    assert "template 'LATE': a packet time passes 2**63 - 1 µs" in capsys.readouterr().err
    assert not (tmp_path / "s.pcap").exists()


def test_frames_beyond_the_span_columns_rejected(tmp_path, capsys, monkeypatch):
    # A trace's frames share one chunk whose offsets are 'I' values. The
    # limit is lowered to one byte below this trace's frames, so the check
    # is reached without 4 GiB of them; the last flow crosses it.
    trace, _ = synth_trace(SynthSpec.from_dict(_FLAG_PHASES), 1)
    frames = sum(trace.packets.header[8])
    monkeypatch.setattr(synth, "_MAX_FRAME_BYTES", frames - 1)
    with pytest.raises(InvalidSpecError, match="template 'FLOOD': the trace's frames pass"):
        synth_trace(SynthSpec.from_dict(_FLAG_PHASES), 1)
    assert _synth(tmp_path, _FLAG_PHASES) == 2
    assert "the trace's frames pass 2**32 - 1 bytes" in capsys.readouterr().err
    assert not (tmp_path / "s.pcap").exists()
    monkeypatch.setattr(synth, "_MAX_FRAME_BYTES", frames)
    assert _synth(tmp_path, _FLAG_PHASES) == 0


def test_negative_seed_rejected_with_its_bound(tmp_path, capsys):
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, inf\), got -3"):
        synth_trace(_minimal_spec(), -3)
    assert _synth(tmp_path, _FLAG_PHASES, "-1") == 2
    assert "error: seed must be an integer in [0, inf), got -1" in capsys.readouterr().err
    assert not (tmp_path / "s.pcap").exists()


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

    def test_holds_each_frame_once(self, early_spec):
        # Beyond its frames, laid end to end once, synth's peak holds about
        # 160 bytes a packet: the header columns, the spans, their sorted
        # copies and the sort's order. Holding every payload and frame beside
        # their joined copy takes about 1,800.
        synth_trace(early_spec, seed=3)  # imports and caches, outside the measure
        tracemalloc.start()
        try:
            trace, _ = synth_trace(early_spec, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        frames = sum(trace.packets.header[8])
        assert len(trace) > 8_000
        assert (peak - frames) / len(trace) <= 300, (peak - frames) / len(trace)

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

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"client_ips": ("2001:db8::/64",)}, "client_ips holds '2001:db8::/64'"),
            ({"server_ips": ("::/0",)}, "server_ips holds '::/0'"),
            ({"packets": (1, 2**63)}, "packets ends above"),
            ({"iat_us": (0, 2**64)}, "iat_us ends above"),
            ({"start_us": (2**63, 2**63)}, "start_us ends above"),
        ],
    )
    def test_pool_or_range_beyond_int64_draws_rejected(self, change, message):
        spec = _minimal_spec()
        v6 = replace(spec.templates[0], client_ips=("2001:db8::1",), server_ips=("::1",))
        bad = replace(v6, **change)
        with pytest.raises(InvalidSpecError, match=f"template 'BENIGN': {message}"):
            synth_trace(replace(spec, templates=(bad,)), seed=0)

    def test_shared_range_beyond_int64_draws_rejected(self):
        spec = _minimal_spec()
        shared = replace(spec, divergence_at=2, shared_payload=(0, 1), shared_iat_us=(0, 2**63))
        with pytest.raises(InvalidSpecError, match="shared.iat_us ends above"):
            synth_trace(shared, seed=0)

    def test_pool_and_ranges_at_the_int64_bound_drawn(self):
        spec = _minimal_spec()
        widest = replace(
            spec.templates[0], packets=(1, 1), iat_us=(0, 2**63 - 1), start_us=(0, 2**62),
            client_ips=("2001:db8::/65",), server_ips=("::1",),
        )
        trace, truth = synth_trace(replace(spec, templates=(widest,)), seed=0)
        assert len(trace) == 1 and trace.packets[0].src_ip.startswith("2001:db8::")

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
