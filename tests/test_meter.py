from __future__ import annotations

import hashlib
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import replace
from typing import NamedTuple, get_type_hints

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from flowlab.errors import UnsortedTraceError
from flowlab.meter import (
    FEATURE_NAMES,
    FeatureVector,
    FlowId,
    FlowKey,
    MeterConfig,
    SnapshotBlock,
    Trigger,
    _FlowState,
    flow_hash,
    meter,
)
from flowlab.synth import SynthSpec, synth_trace
from flowlab.trace_io import PacketTrace, RawPacket, reorder

from conftest import random_trace
from reference import assert_meter_equal, features_close, fnv1a64, reference_meter


def _pkt(ts, src="10.0.0.1", dst="10.0.0.2", sport=1111, dport=80, proto=6,
         flags=0x10, payload=100):
    return RawPacket(
        ts_us=ts,
        src_ip=src,
        dst_ip=dst,
        src_port=sport,
        dst_port=dport,
        protocol=proto,
        tcp_flags=flags if proto == 6 else 0,
        payload_len=payload,
        wire_len=payload + 54,
        payload=b"p" * min(payload, 4),
    )


def _trace(*packets):
    return PacketTrace(packets=tuple(packets), source="test")


def _snapshot_features(snapshots):
    return [s.features for snaps in snapshots.values() for s in snaps]


class TestFlowHash:
    def test_deterministic(self):
        key = FlowKey.from_endpoints("10.0.0.1", 4660, "10.0.0.2", 80, 6)
        assert flow_hash(key, 1) == flow_hash(key, 1)

    def test_orientation_invariant(self):
        k1 = FlowKey.from_endpoints("10.0.0.1", 4660, "10.0.0.2", 80, 6)
        k2 = FlowKey.from_endpoints("10.0.0.2", 80, "10.0.0.1", 4660, 6)
        assert k1 == k2
        assert flow_hash(k1, 99) == flow_hash(k2, 99)

    def test_start_time_changes_hash(self):
        key = FlowKey.from_endpoints("10.0.0.1", 4660, "10.0.0.2", 80, 6)
        assert flow_hash(key, 1) != flow_hash(key, 2)

    def test_golden_value_against_independent_fnv(self):
        # canonical serialization of (10.0.0.1:0x1234, 10.0.0.2:0x0050,
        # proto 6, start 1499255000000000)
        text = "0a000001|1234|0a000002|0050|6|1499255000000000"
        key = FlowKey.from_endpoints("10.0.0.1", 0x1234, "10.0.0.2", 0x0050, 6)
        assert flow_hash(key, 1_499_255_000_000_000) == fnv1a64(text.encode())

    def test_frozen_golden_constant(self):
        # value computed once with the independent FNV-1a implementation
        # below and frozen here
        key = FlowKey.from_endpoints("10.0.0.1", 0x1234, "10.0.0.2", 0x0050, 6)
        assert flow_hash(key, 1_499_255_000_000_000) == 12117309014740923066
        assert fnv1a64(
            b"0a000001|1234|0a000002|0050|6|1499255000000000"
        ) == 12117309014740923066

    def test_ipv6_serialization(self):
        key = FlowKey.from_endpoints("2001:db8::1", 1, "2001:db8::2", 2, 17)
        assert flow_hash(key, 0) == fnv1a64(
            b"20010db8000000000000000000000001|0001|"
            b"20010db8000000000000000000000002|0002|17|0"
        )


class TestMeterBasics:
    def test_keys_equal_from_endpoints(self):
        # The meter orders endpoints by address rank, FlowKey.from_endpoints
        # by packed address: every orientation and text form must agree.
        texts = ["10.0.0.1", "10.0.0.10", "9.255.255.255", "2001:db8::1",
                 "2001:DB8:0:0::1", "::1", "::ffff:a00:1"]
        packets = [
            _pkt(0, src=a, dst=b, sport=p, dport=q, proto=17)
            for a in texts for b in texts for p, q in ((80, 80), (80, 1000), (1000, 80))
        ]
        packets = [replace(p, ts_us=i) for i, p in enumerate(packets)]
        keys = {
            FlowKey.from_endpoints(p.src_ip, p.src_port, p.dst_ip, p.dst_port, 17)
            for p in packets
        }
        records, _ = meter(_trace(*packets), MeterConfig(pc_triggers=(), fd_triggers_ms=()))
        assert {r.id.key for r in records} == keys and len(records) == len(keys)
        for r in records:
            (ip1, port1), (ip2, port2) = r.direction_anchor
            assert r.id.key == FlowKey.from_endpoints(ip1, port1, ip2, port2, 17)

    def test_idle_split(self):
        config = MeterConfig(pc_triggers=(), fd_triggers_ms=())
        records, _ = meter(_trace(_pkt(0), _pkt(70_000_000)), config)
        assert len(records) == 2
        assert records[0].expiration_reason == "idle"
        assert records[0].features.bidirectional_packets == 1
        assert records[1].expiration_reason == "end_of_trace"
        assert records[1].features.bidirectional_packets == 1
        # six-tuple identity differs through the idle split
        assert records[0].id.hash64 != records[1].id.hash64

    def test_idle_boundary_not_split(self):
        config = MeterConfig(pc_triggers=(), fd_triggers_ms=())
        records, _ = meter(_trace(_pkt(0), _pkt(60_000_000)), config)
        assert len(records) == 1

    def test_active_timeout_new_flow_gets_packet(self):
        config = MeterConfig(
            active_timeout_s=10, pc_triggers=(), fd_triggers_ms=(), idle_timeout_s=100
        )
        records, _ = meter(_trace(_pkt(0), _pkt(5_000_000), _pkt(10_000_000)), config)
        assert [r.expiration_reason for r in records] == ["active", "end_of_trace"]
        assert records[0].features.bidirectional_packets == 2
        assert records[1].features.bidirectional_packets == 1
        assert records[1].first_us == 10_000_000

    def test_fin_flow_snapshot_schedule(self):
        # 10 data packets then a FIN: snapshots at N=2..11, FIN counted
        pkts = [_pkt(i * 1000, flags=0x10) for i in range(10)]
        pkts.append(_pkt(10_000, flags=0x11))
        records, snapshots = meter(_trace(*pkts), MeterConfig(fd_triggers_ms=()))
        assert len(records) == 1
        assert records[0].expiration_reason == "fin_rst"
        assert records[0].features.bidirectional_packets == 11
        pc_values = [t.value for t, snaps in snapshots.items() if t.kind == "pc" for _ in snaps]
        assert pc_values == list(range(2, 12))

    def test_fd_tolerance_overshoot_missed(self):
        config = MeterConfig(pc_triggers=(), fd_triggers_ms=(100,))
        _, snapshots = meter(_trace(_pkt(0), _pkt(130_000)), config)
        assert snapshots == {Trigger("fd", 100): SnapshotBlock()}

    def test_fd_tolerance_within_band(self):
        config = MeterConfig(pc_triggers=(), fd_triggers_ms=(100,))
        _, snapshots = meter(_trace(_pkt(0), _pkt(90_000)), config)
        assert list(snapshots) == [Trigger("fd", 100)]
        (snap,) = snapshots[Trigger("fd", 100)]
        assert snap.features.duration_ms == 90.0

    def test_fd_emitted_once(self):
        config = MeterConfig(pc_triggers=(), fd_triggers_ms=(100,))
        _, snapshots = meter(
            _trace(_pkt(0), _pkt(90_000), _pkt(110_000), _pkt(119_000)), config
        )
        assert list(snapshots) == [Trigger("fd", 100)]
        assert len(snapshots[Trigger("fd", 100)]) == 1

    def test_byte_trigger_first_crossing(self):
        config = MeterConfig(pc_triggers=(), fd_triggers_ms=(), byte_triggers=(300,))
        _, snapshots = meter(_trace(_pkt(0, payload=100), _pkt(10, payload=100)), config)
        assert list(snapshots) == [Trigger("bc", 300)]
        (snap,) = snapshots[Trigger("bc", 300)]
        assert snap.features.bidirectional_bytes == 308

    def test_row_built_once_per_packet_that_fires(self, monkeypatch):
        # Packet 2 fires PC=2, FD=50 and BC=300 (308 bytes at 50 ms): the
        # flow's row is built once there for all three, and once for its
        # record.
        built = []
        values = _FlowState._values
        monkeypatch.setattr(
            _FlowState, "_values", lambda self: built.append(self.bidi.packets) or values(self)
        )
        config = MeterConfig(pc_triggers=(2,), fd_triggers_ms=(50,), byte_triggers=(300,))
        trace = _trace(_pkt(0, payload=100), _pkt(50_000, payload=100))
        records, snapshots = meter(trace, config)
        assert built == [2, 2]
        assert_meter_equal((records, snapshots), reference_meter(list(trace.packets), config))
        assert [len(snaps) for snaps in snapshots.values()] == [1, 1, 1]
        (pc,), (fd,), (bc,) = snapshots.values()
        assert pc == fd == bc

    def test_one_list_per_configured_trigger_in_sort_order(self):
        config = MeterConfig(
            pc_triggers=(3, 2), fd_triggers_ms=(100, 5), byte_triggers=(10**6, 300)
        )
        expected = [
            Trigger("pc", 2),
            Trigger("pc", 3),
            Trigger("fd", 5),
            Trigger("fd", 100),
            Trigger("bc", 300),
            Trigger("bc", 10**6),
        ]
        assert sorted(expected, key=Trigger.sort_key) == expected
        assert config.triggers() == expected
        _, snapshots = meter(_trace(_pkt(0), _pkt(10)), config)
        assert list(snapshots) == expected
        assert [len(snaps) for snaps in snapshots.values()] == [1, 0, 0, 0, 1, 0]

        none = MeterConfig(pc_triggers=(), fd_triggers_ms=())
        assert none.triggers() == []
        assert meter(_trace(_pkt(0), _pkt(10)), none)[1] == {}

    def test_same_microsecond_snapshots_in_start_then_hash_order(self):
        a, b = {"src": "10.0.0.1"}, {"src": "10.0.0.3"}
        config = MeterConfig(pc_triggers=(2,), fd_triggers_ms=())
        # The later-starting flow's packet comes first at the shared µs.
        _, snapshots = meter(
            _trace(_pkt(0, **b), _pkt(10, **a), _pkt(100, **a), _pkt(100, **b)), config
        )
        assert [s.id.start_us for s in snapshots[Trigger("pc", 2)]] == [0, 10]
        # Equal starts: hash order, whichever flow's packet comes first.
        for first, second in ((a, b), (b, a)):
            _, snapshots = meter(
                _trace(
                    _pkt(0, **first), _pkt(0, **second), _pkt(100, **first), _pkt(100, **second)
                ),
                config,
            )
            hashes = [s.id.hash64 for s in snapshots[Trigger("pc", 2)]]
            assert len(hashes) == 2 and hashes == sorted(hashes)

    def test_snapshot_reads_as_a_live_record_of_its_flow(self):
        config = MeterConfig(pc_triggers=(2,), fd_triggers_ms=())
        (record,), snapshots = meter(_trace(_pkt(5), _pkt(10), _pkt(20)), config)
        (snap,) = snapshots[Trigger("pc", 2)]
        assert (snap.id, snap.direction_anchor, snap.first_us) == (
            record.id, record.direction_anchor, record.first_us
        )
        assert (snap.last_us, snap.expiration_reason) == (10, "live")
        assert (record.last_us, record.expiration_reason) == (20, "end_of_trace")

    def test_unsorted_trace_rejected(self):
        with pytest.raises(UnsortedTraceError):
            meter(_trace(_pkt(100), _pkt(50)))

    def test_rst_expires(self):
        records, _ = meter(
            _trace(_pkt(0), _pkt(10, flags=0x14), _pkt(20)), MeterConfig()
        )
        assert [r.expiration_reason for r in records] == ["fin_rst", "end_of_trace"]

    def test_fin_rst_expiration_disabled(self):
        config = MeterConfig(fin_rst_expiration=False, pc_triggers=(), fd_triggers_ms=())
        records, _ = meter(_trace(_pkt(0), _pkt(10, flags=0x11), _pkt(20)), config)
        assert len(records) == 1
        assert records[0].features.bidirectional_fin_count == 1

    def test_direction_scopes(self):
        records, _ = meter(
            _trace(
                _pkt(0, payload=10),
                _pkt(5, src="10.0.0.2", dst="10.0.0.1", sport=80, dport=1111, payload=20),
                _pkt(9, payload=30),
            ),
            MeterConfig(fd_triggers_ms=(), pc_triggers=()),
        )
        fv = records[0].features
        assert fv.src2dst_packets == 2
        assert fv.dst2src_packets == 1
        assert fv.bidirectional_packets == 3
        assert fv.src2dst_payload_bytes == 40
        assert fv.dst2src_payload_bytes == 20
        assert fv.bidirectional_bytes == fv.src2dst_bytes + fv.dst2src_bytes

    def test_piat_and_stddev_zero_below_two_packets(self):
        records, _ = meter(_trace(_pkt(0)), MeterConfig())
        fv = records[0].features
        assert fv.bidirectional_stddev_ps == 0.0
        assert fv.bidirectional_min_piat_ms == 0.0
        assert fv.dst2src_mean_piat_ms == 0.0


class TestMeterOracle:
    def test_matches_reference_on_random_traces(self):
        rng = np.random.default_rng(2024)
        config = MeterConfig(
            idle_timeout_s=0.8,
            active_timeout_s=2.5,
            fd_triggers_ms=(5, 10, 50, 100, 500, 1000),
            byte_triggers=(500, 5000),
        )
        for _ in range(25):
            trace = random_trace(rng, int(rng.integers(0, 400)))
            assert_meter_equal(
                meter(trace, config), reference_meter(list(trace.packets), config)
            )

    def test_matches_reference_on_synthetic_corpus(self, late_spec):
        from flowlab.synth import synth_trace

        trace, _ = synth_trace(late_spec, seed=3)
        config = MeterConfig()
        assert_meter_equal(
            meter(trace, config), reference_meter(list(trace.packets), config)
        )


def _oracle(trace, config):
    """meter's output, after checking it against the reference meter."""
    out = meter(trace, config)
    assert_meter_equal(out, reference_meter(list(trace.packets), config))
    return out


class TestPacketPathOracle:
    """The flow table, the per-direction accumulators and the flag counts
    against the reference meter, on the cases each one could get wrong."""

    def test_ipv6_text_forms_of_one_address_make_one_flow(self):
        a = {"src": "2001:DB8::1", "dst": "2001:db8::2", "sport": 1111, "dport": 80}
        b = {"src": "2001:db8::2", "dst": "2001:db8:0:0:0:0:0:1", "sport": 80, "dport": 1111}
        config = MeterConfig(pc_triggers=(2, 3, 4), fd_triggers_ms=())
        records, _ = _oracle(
            _trace(_pkt(0, **a), _pkt(10, **b, payload=7), _pkt(20, **a), _pkt(30, **b)), config
        )
        assert len(records) == 1
        assert records[0].id.key.endpoint_a == ("2001:db8::1", 1111)
        assert records[0].features.dst2src_packets == 2

    def test_every_flag_bit_and_fin_rst_from_both_sides(self):
        back = {"src": "10.0.0.2", "dst": "10.0.0.1", "sport": 80, "dport": 1111}
        flags = [
            (0x02, {}), (0x12, back), (0x10, {}), (0x18, back), (0xE0, {}),
            (0x31, {}), (0x11, back), (0x04, back), (0x14, {}), (0xFF, back),
        ]
        config = MeterConfig(fin_rst_expiration=False, pc_triggers=range(1, 12), fd_triggers_ms=())
        records, _ = _oracle(
            _trace(*[_pkt(i * 10, flags=f, **kw) for i, (f, kw) in enumerate(flags)]), config
        )
        (fv,) = [r.features for r in records]
        assert (fv.src2dst_fin_count, fv.src2dst_rst_count) == (1, 1)
        assert (fv.dst2src_fin_count, fv.dst2src_rst_count) == (2, 2)
        assert fv.bidirectional_cwr_count == 2

    def test_one_way_and_one_packet_flows(self):
        config = MeterConfig(pc_triggers=(1, 2, 3), fd_triggers_ms=(), byte_triggers=(100,))
        records, _ = _oracle(
            _trace(
                _pkt(0, payload=10),
                _pkt(5, sport=2222, payload=30),
                _pkt(10, payload=50),
                _pkt(20, payload=20),
            ),
            config,
        )
        assert [(r.features.src2dst_packets, r.features.dst2src_packets) for r in records] == [
            (1, 0),
            (3, 0),
        ]
        assert records[1].features.bidirectional_min_ps == 64.0


class TestMeterConfigValues:
    @pytest.mark.parametrize(
        "doc",
        [
            {"pc_triggers": "25"},
            {"byte_triggers": b"25"},
            {"fin_rst_expiration": "no"},
            {"fin_rst_expiration": 1},
            {"pc_triggers": [0, -3]},
            {"fd_triggers_ms": [2.7]},
            {"fd_triggers_ms": [5.0]},
            {"byte_triggers": [True]},
            {"pc_triggers": ["3"]},
            {"pc_triggers": 5},
            {"idle_timeout_s": True},
            {"active_timeout_s": True},
            {"fd_tolerance": False},
            {"idle_timeout_s": "60"},
            {"idle_timeout_s": float("nan")},
            {"active_timeout_s": float("inf")},
        ],
    )
    def test_wrongly_typed_values_rejected(self, doc):
        with pytest.raises(ValueError):
            MeterConfig.from_dict(doc)

    @pytest.mark.parametrize("kind,value", [("pc", 0), ("fd", True), ("bc", -3), ("pc", 2.0)])
    def test_trigger_value_not_an_integer_of_at_least_one_rejected(self, kind, value):
        with pytest.raises(ValueError, match="trigger.value must be an integer in"):
            Trigger(kind, value)

    @pytest.mark.parametrize("kind", ["PC", "xx", ""])
    def test_unknown_trigger_kind_rejected(self, kind):
        with pytest.raises(ValueError, match=f"unknown trigger kind {kind!r}"):
            Trigger(kind, 5)

    def test_integer_collections_accepted(self):
        config = MeterConfig.from_dict(
            {"pc_triggers": [3, 2, 3], "fd_triggers_ms": [], "fin_rst_expiration": False}
        )
        assert config.pc_triggers == frozenset({2, 3})
        assert config.fin_rst_expiration is False
        assert MeterConfig(pc_triggers=np.arange(1, 4)).pc_triggers == frozenset({1, 2, 3})
        assert MeterConfig(pc_triggers=(n for n in (4, 5))).pc_triggers == frozenset({4, 5})

    def test_numbers_accepted(self):
        config = MeterConfig.from_dict(
            {"idle_timeout_s": 30, "active_timeout_s": 120.5, "fd_tolerance": 0}
        )
        assert (config.idle_timeout_s, config.active_timeout_s, config.fd_tolerance) == (
            30, 120.5, 0
        )


@pytest.fixture(scope="module")
def metered():
    rng = np.random.default_rng(99)
    config = MeterConfig(idle_timeout_s=1.0, active_timeout_s=3.0)
    traces = [random_trace(rng, 300, n_endpoints=5) for _ in range(5)]
    out = [meter(t, config) for t in traces]
    return traces, config, out


class TestMeterInvariants:

    def test_final_pc_snapshot_equals_record(self, metered):
        _, config, out = metered
        checked = 0
        for records, snapshots in out:
            snap_index = {
                (s.id.hash64, t): s
                for t, snaps in snapshots.items()
                if t.kind == "pc"
                for s in snaps
            }
            for record in records:
                m = record.features.bidirectional_packets
                if m in config.pc_triggers:
                    snap = snap_index[(record.id.hash64, Trigger("pc", m))]
                    assert snap.features == record.features
                    checked += 1
        assert checked > 50

    def test_snapshot_monotonicity(self, metered):
        _, _, out = metered
        for _, snapshots in out:
            per_flow: dict = {}
            for snaps in snapshots.values():
                for s in snaps:
                    per_flow.setdefault(s.id.hash64, []).append(s)
            for snaps in per_flow.values():
                snaps.sort(key=lambda s: (s.last_us, s.features.bidirectional_packets))
                for a, b in zip(snaps, snaps[1:]):
                    assert a.features.bidirectional_packets <= b.features.bidirectional_packets
                    assert a.features.bidirectional_bytes <= b.features.bidirectional_bytes
                    assert (
                        a.features.bidirectional_payload_bytes
                        <= b.features.bidirectional_payload_bytes
                    )
                    assert a.features.duration_ms <= b.features.duration_ms

    def test_mean_consistency(self, metered):
        _, _, out = metered
        for records, snapshots in out:
            for fv in [r.features for r in records] + _snapshot_features(snapshots):
                for scope in ("bidirectional", "src2dst", "dst2src"):
                    n = getattr(fv, f"{scope}_packets")
                    mean = getattr(fv, f"{scope}_mean_ps")
                    total = getattr(fv, f"{scope}_bytes")
                    assert abs(mean * n - total) <= 1e-9 * max(total, 1)

    def test_determinism(self, metered):
        traces, config, out = metered
        for trace, (records, snapshots) in zip(traces, out):
            r2, s2 = meter(trace, config)
            assert r2 == records
            assert s2 == snapshots

    def test_snapshot_parents_among_records(self, metered):
        _, _, out = metered
        for records, snapshots in out:
            record_ids = {r.id for r in records}
            assert all(
                s.id in record_ids for snaps in snapshots.values() for s in snaps
            )

    def test_at_most_one_fin_rst_packet_per_record(self, metered):
        # with expiration on, the first FIN/RST packet ends the flow, so no
        # record can accumulate a second one
        _, _, out = metered
        for records, _ in out:
            for r in records:
                fv = r.features
                assert fv.bidirectional_fin_count <= 1
                assert fv.bidirectional_rst_count <= 1

    def test_duration_matches_bounds(self, metered):
        _, _, out = metered
        for records, _ in out:
            for r in records:
                assert r.last_us >= r.first_us
                assert r.features.duration_ms == (r.last_us - r.first_us) / 1000

    def test_feature_types_match_annotations(self, metered):
        # features_close treats 3 and 3.0 as equal, so pin the types here.
        hints = get_type_hints(FeatureVector)
        types = [hints[name] for name in FEATURE_NAMES]
        assert set(types) == {int, float}
        _, _, out = metered
        for records, snapshots in out:
            for fv in [r.features for r in records] + _snapshot_features(snapshots):
                assert [type(v) for v in fv] == types


def test_feature_schema_has_expected_shape():
    assert len(FEATURE_NAMES) == 46
    assert FEATURE_NAMES[0] == "duration_ms"
    for scope in ("bidirectional", "src2dst", "dst2src"):
        for stat in ("packets", "bytes", "payload_bytes", "min_ps", "mean_ps",
                     "max_ps", "stddev_ps", "min_piat_ms", "mean_piat_ms",
                     "max_piat_ms", "stddev_piat_ms"):
            assert f"{scope}_{stat}" in FEATURE_NAMES
    for flag in ("syn", "fin", "rst", "psh", "ack", "urg", "ece", "cwr"):
        assert f"bidirectional_{flag}_count" in FEATURE_NAMES


# Two classes whose flows run long enough for every default PC and FD
# trigger to fire on some of them.
_SWEEP_SPEC = {
    "name": "every-trigger",
    "templates": [
        {
            "label": label,
            "flows": 40,
            "packets": [10, 30],
            "payload": [40, 900],
            "iat_us": [iat, iat * 50],
            "client_ips": [client],
            "server_ips": ["192.168.7.1"],
            "server_ports": [80],
            "protocol": 17,
            "start_us": [0, 1000000],
        }
        for label, iat, client in (("BENIGN", 200, "10.1.0.0/24"), ("ATTACK", 20000, "10.2.0.0/24"))
    ],
}


def _traced(fn, *args):
    """``fn(*args)``, the bytes it leaves held, and its traced peak, both
    over what was held when it was called."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
        return out, held - before, peak - before
    finally:
        tracemalloc.stop()


# 2,000 packets in 2 ms, and a meter config for them.
_TIE_HEAVY = (
    random_trace(np.random.default_rng(83), 2000, n_endpoints=12, t_span_us=2_000),
    MeterConfig(idle_timeout_s=0.0005, fd_triggers_ms=(1,), byte_triggers=(2_000, 20_000)),
)


class TestSnapshotBlock:
    def test_reads_back_the_snapshot_lists_the_meter_returned(self):
        # 2,000 packets in 2 ms: many flows export at the same microsecond,
        # so most blocks are reordered by parent start and hash. The digest
        # was recorded from the meter when it returned one list of
        # FlowSnapshot (export time, parent id, features) tuples per
        # trigger, whose repr the local tuple below repeats; each block must
        # read back as that list, int features as int.
        snapshot = NamedTuple(
            "FlowSnapshot",
            [("exported_at_us", int), ("parent_id", FlowId), ("features", FeatureVector)],
        )
        _, snapshots = meter(*_TIE_HEAVY)
        assert sum(map(len, snapshots.values())) == 1940
        text = repr(
            [
                (str(t), [snapshot(r.last_us, r.id, r.features) for r in block])
                for t, block in snapshots.items()
            ]
        )
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "0c3867dd04b22cc7d30bfc65f10f752f61033b6181468323c5d0bc1c4f0a1607"

    def test_rows_index_and_compare_by_content(self):
        trace = random_trace(np.random.default_rng(5), 300, n_endpoints=5)
        _, snapshots = meter(trace, MeterConfig(idle_timeout_s=1.0))
        block = snapshots[Trigger("pc", 2)]
        rows = list(block)
        assert len(rows) == len(block) > 10
        assert block[-1] == rows[-1] and block[0] == rows[0]
        with pytest.raises(IndexError):
            block[len(block)]
        assert SnapshotBlock(rows) == block
        assert SnapshotBlock(rows[1:]) != block
        assert SnapshotBlock() == SnapshotBlock([]) != block
        assert block[1:3] == SnapshotBlock(rows[1:3])
        assert block[::-1] == SnapshotBlock(rows[::-1])
        assert block[3:3] == SnapshotBlock() == block[len(block) :]

    def test_refuses_a_record_that_does_not_start_its_flow(self):
        # A row gives its id's start as first_us, so it could not give this
        # record back.
        records, _ = meter(_trace(_pkt(5), _pkt(10)), MeterConfig())
        assert SnapshotBlock(records) == records
        with pytest.raises(ValueError, match="first_us 4 is not its id's start 5"):
            SnapshotBlock([replace(records[0], first_us=4)])

    def test_retained_bytes_per_snapshot(self):
        trace, _ = synth_trace(SynthSpec.from_dict(_SWEEP_SPEC), 7)
        _, base, _ = _traced(meter, trace, MeterConfig(pc_triggers=(), fd_triggers_ms=()))
        (_, snapshots), total, _ = _traced(meter, trace, MeterConfig())
        assert len(snapshots) == 31
        fired = [t for t, block in snapshots.items() if block]
        assert len(fired) == 31, sorted(set(snapshots) - set(fired), key=Trigger.sort_key)
        n = sum(map(len, snapshots.values()))
        assert (total - base) / n <= 512, (total - base) / n

    def test_retained_bytes_per_record(self, late_spec):
        # A record holds its row (46 doubles, end time, reason code) and its
        # flow's id, key and anchor; as an object it held about 1.9 kB.
        trace, _ = synth_trace(late_spec, seed=1)
        config = MeterConfig(pc_triggers=(), fd_triggers_ms=())
        (records, _), held, _ = _traced(meter, trace, config)
        assert len(records) == 500
        assert held / len(records) <= 1300, held / len(records)

    def test_peak_is_about_one_block_over_the_output(self):
        # Most blocks of the tie-heavy trace are out of order when metering
        # ends. Each is released as its sorted copy is made, so the meter
        # holds at most one block twice.
        (records, snapshots), held, peak = _traced(meter, *_TIE_HEAVY)
        largest = max([records, *snapshots.values()], key=len)
        _, block, _ = _traced(largest.__getitem__, slice(None))
        assert peak - held <= 2 * block, (peak - held, block)


# Metamorphic relations over small generated traces: three hosts, TCP and
# UDP, so keys return after they expire; timeouts of up to 30 ms against
# gaps of up to 20 ms, so flows end idle, active and on FIN/RST. In half
# the cases every gap is whole milliseconds, so durations land on FD
# bands' edges and idle gaps on the timeout.
_HOSTS = (("10.0.0.1", 1000), ("10.0.0.2", 80), ("10.0.0.3", 2000))
_TCP_FLAGS = (0x10, 0x10, 0x10, 0x18, 0x18, 0x02, 0x12, 0x11, 0x14)


@st.composite
def _cases(draw):
    """A sorted trace and a meter config for it."""
    config = MeterConfig(
        idle_timeout_s=draw(st.integers(1, 30)) / 1000,
        active_timeout_s=draw(st.integers(1, 30)) / 1000,
        fin_rst_expiration=draw(st.booleans()),
        pc_triggers=draw(st.frozensets(st.integers(1, 12), max_size=4)),
        fd_triggers_ms=draw(st.frozensets(st.integers(1, 20), max_size=6)),
        fd_tolerance=draw(st.sampled_from((0.0, 0.0, 0.2, 0.5, 0.9))),
        byte_triggers=draw(st.frozensets(st.integers(1, 4000), max_size=3)),
    )
    unit = draw(st.sampled_from((1, 1000)))
    packet = st.tuples(
        st.integers(0, 20_000 // unit).map(unit.__mul__),
        st.permutations(range(len(_HOSTS))),
        st.sampled_from((6, 6, 17)),
        st.sampled_from(_TCP_FLAGS),
        st.integers(0, 1460),
    )
    n = draw(st.integers(1, 60))
    packets, ts = [], 0
    for gap, (a, b, _), protocol, flags, payload in draw(st.lists(packet, min_size=n, max_size=n)):
        ts += gap
        (src, sport), (dst, dport) = _HOSTS[a], _HOSTS[b]
        packets.append(_pkt(ts, src, dst, sport, dport, protocol, flags, payload))
    return packets, config


def _by_key(packets):
    """Each flow key's packets, in trace order."""
    groups = defaultdict(list)
    for pkt in packets:
        groups[FlowKey.from_packet(pkt)].append(pkt)
    return groups


def _flows(packets, records):
    """Each record's packets, listed under its ``FlowId``: a key's packets
    split, in order, by the packet counts of its records, which come in the
    order its flows ended."""
    groups = _by_key(packets)
    flows = defaultdict(list)
    for record in records:
        pkts = groups[record.id.key]
        n = record.features.bidirectional_packets
        flows[record.id].append(pkts[:n])
        del pkts[:n]
    assert not any(groups.values())
    return flows


def _fires_at(flow, trigger, fd_tolerance):
    """The length of the shortest prefix of ``flow`` that reaches ``trigger``,
    or None when none does or, for FD, when it overshoots the band."""
    total = 0
    for n, pkt in enumerate(flow, 1):
        total += pkt.wire_len
        duration = pkt.ts_us - flow[0].ts_us
        if trigger.kind == "pc" and n == trigger.value:
            return n
        if trigger.kind == "bc" and total >= trigger.value:
            return n
        if trigger.kind == "fd" and duration >= (1 - fd_tolerance) * trigger.value * 1000:
            return n if duration <= (1 + fd_tolerance) * trigger.value * 1000 else None
    return None


@settings(max_examples=150, deadline=None)
@given(case=_cases(), rnd=st.randoms(use_true_random=False))
def test_snapshot_is_the_record_of_its_shortest_prefix(case, rnd):
    # The paper's partial flow: a snapshot's features are those of its
    # parent flow's first packets, up to the one that reached the trigger,
    # and a trigger fires on every flow that reaches it.
    packets, config = case
    tol = config.fd_tolerance
    records, snapshots = meter(_trace(*packets), config)
    flows = _flows(packets, records)
    for trigger, block in snapshots.items():
        reached = Counter(
            fid for fid, same_id in flows.items() for f in same_id if _fires_at(f, trigger, tol)
        )
        assert Counter(row.id for row in block) == reached, trigger

    alone = replace(config, pc_triggers=(), fd_triggers_ms=(), byte_triggers=())
    rows = [(t, snap) for t, block in snapshots.items() for snap in block]
    for trigger, snap in rnd.sample(rows, min(len(rows), 20)):
        # A one-packet flow ended by FIN/RST and the next flow on its key
        # share a FlowId when they start in the same microsecond; the
        # snapshot is then the prefix record of one of them.
        prefix_records = []
        for flow in flows[snap.id]:
            if n := _fires_at(flow, trigger, tol):
                (record,), none = meter(_trace(*flow[:n]), alone)
                assert none == {}
                prefix_records.append((flow[n - 1].ts_us, record.features))
        assert (snap.last_us, snap.features) in prefix_records, trigger


@settings(max_examples=150, deadline=None)
@given(case=_cases())
def test_flows_meter_independently(case):
    # Metering each key's packets alone and merging the results in the
    # meter's two orders gives the meter's output for the whole trace.
    packets, config = case
    records, snapshots = meter(_trace(*packets), config)
    alone = [meter(_trace(*pkts), config) for pkts in _by_key(packets).values()]

    def order(row):
        return (row.last_us, row.id.start_us, row.id.hash64)

    merged = sorted((r for rs, _ in alone for r in rs), key=order)
    assert SnapshotBlock(merged) == records
    for trigger, block in snapshots.items():
        rows = sorted((snap for _, blocks in alone for snap in blocks[trigger]), key=order)
        assert SnapshotBlock(rows) == block, trigger


@pytest.mark.parametrize("reason", ["idle", "active", "fin_rst"])
def test_cases_reach_every_expiry_and_returning_keys(reason):
    def reaches(case):
        # A key's later flows are listed after its earlier ones.
        packets, config = case
        records, _ = meter(_trace(*packets), config)
        return any(
            r.expiration_reason == reason and any(s.id.key == r.id.key for s in records[i + 1 :])
            for i, r in enumerate(records)
        )

    # Raises NoSuchExample when no generated case has a key that returns
    # after a flow on it ended for ``reason``.
    generate_only = settings(max_examples=500, database=None, phases=[Phase.generate])
    find(_cases(), reaches, settings=generate_only)
