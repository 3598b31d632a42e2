from __future__ import annotations

import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowlab.errors import FlowLabError, MalformedHeaderError, UnreadableFileError
from flowlab.trace_io import (
    PacketTrace,
    RawPacket,
    dedup,
    read_trace,
    reorder,
    write_trace,
)

from conftest import random_trace
from reference import (
    brute_force_dedup,
    build_pcap,
    build_tcp_frame,
    build_udp_frame,
    dissect_pcap,
    reference_read_trace,
)


def _write(tmp_path, blob: bytes, name: str = "t.pcap"):
    path = tmp_path / name
    path.write_bytes(blob)
    return path


def _tcp(sport: int, dport: int, flags: int, payload: bytes = b"", doff_words: int = 5) -> bytes:
    options = bytes(max(doff_words * 4 - 20, 0))
    header = struct.pack("!HHIIBBHHH", sport, dport, 0, 0, doff_words << 4, flags, 8192, 0, 0)
    return header + options + payload


def _udp(sport: int, dport: int, payload: bytes = b"", length: int | None = None) -> bytes:
    length = 8 + len(payload) if length is None else length
    return struct.pack("!HHHH", sport, dport, length, 0) + payload


def _ipv4(
    protocol: int,
    transport: bytes,
    src: bytes = bytes([10, 0, 0, 1]),
    dst: bytes = bytes([10, 0, 0, 2]),
    ihl_words: int = 5,
    frag: int = 0,
    total: int | None = None,
) -> bytes:
    header_len = ihl_words * 4
    total = max(header_len, 20) + len(transport) if total is None else total
    header = struct.pack(
        "!BBHHHBBH4s4s", 0x40 | ihl_words, 0, total, 0, frag, 64, protocol, 0, src, dst
    )
    return header + bytes(max(header_len - 20, 0)) + transport


def _ipv6(
    next_header: int, rest: bytes, src: bytes, dst: bytes, payload_len: int | None = None
) -> bytes:
    payload_len = len(rest) if payload_len is None else payload_len
    return struct.pack("!IHBB16s16s", 6 << 28, payload_len, next_header, 64, src, dst) + rest


def _frame(ethertype: int, ip: bytes, vlans: tuple = (), pad_to: int = 0) -> bytes:
    tags = b"".join(struct.pack("!HH", tpid, 7) for tpid in vlans)
    frame = bytes(12) + tags + struct.pack("!H", ethertype) + ip
    return frame + bytes(max(pad_to - len(frame), 0))


HANDSHAKE = [
    (1_499_255_000_000_000, build_tcp_frame("10.0.0.1", "10.0.0.2", 1234, 80, 0x02)),
    (1_499_255_000_000_150, build_tcp_frame("10.0.0.2", "10.0.0.1", 80, 1234, 0x12)),
    (1_499_255_000_000_300, build_tcp_frame("10.0.0.1", "10.0.0.2", 1234, 80, 0x10)),
]


class TestReadTrace:
    def test_empty_capture(self, tmp_path):
        trace = read_trace(_write(tmp_path, build_pcap([])))
        assert len(trace) == 0
        assert trace.skipped == 0

    def test_handshake_fields(self, tmp_path):
        trace = read_trace(_write(tmp_path, build_pcap(HANDSHAKE)))
        assert [p.tcp_flags for p in trace.packets] == [0x02, 0x12, 0x10]
        assert [p.src_ip for p in trace.packets] == ["10.0.0.1", "10.0.0.2", "10.0.0.1"]
        assert [p.src_port for p in trace.packets] == [1234, 80, 1234]
        assert all(p.protocol == 6 for p in trace.packets)
        assert all(p.payload_len == 0 for p in trace.packets)

    def test_handshake_against_independent_dissector(self, tmp_path):
        blob = build_pcap(HANDSHAKE)
        trace = read_trace(_write(tmp_path, blob))
        expected = [e for e in dissect_pcap(blob) if not e["skip"]]
        assert len(trace) == len(expected)
        for pkt, ref in zip(trace.packets, expected):
            for name in (
                "ts_us",
                "src_ip",
                "dst_ip",
                "src_port",
                "dst_port",
                "protocol",
                "tcp_flags",
                "payload_len",
                "wire_len",
            ):
                assert getattr(pkt, name) == ref[name], name

    def test_udp_payload_against_independent_dissector(self, tmp_path):
        blob = build_pcap(
            [(1000, build_udp_frame("10.0.0.3", "10.0.0.4", 5353, 53, b"hello"))]
        )
        trace = read_trace(_write(tmp_path, blob))
        ref = dissect_pcap(blob)[0]
        pkt = trace.packets[0]
        assert pkt.payload_len == ref["payload_len"] == 5
        assert pkt.payload == b"hello"
        assert pkt.tcp_flags == 0

    def test_bad_magic(self, tmp_path):
        blob = struct.pack("<IHHiIII", 0xDEADBEEF, 2, 4, 0, 0, 65535, 1)
        with pytest.raises(MalformedHeaderError):
            read_trace(_write(tmp_path, blob))

    def test_bad_version(self, tmp_path):
        blob = build_pcap([], version=(7, 0))
        with pytest.raises(MalformedHeaderError):
            read_trace(_write(tmp_path, blob))

    def test_truncated_global_header(self, tmp_path):
        with pytest.raises(MalformedHeaderError):
            read_trace(_write(tmp_path, b"\xd4\xc3\xb2\xa1short"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(UnreadableFileError):
            read_trace(tmp_path / "nope.pcap")

    def test_big_endian_accepted(self, tmp_path):
        trace = read_trace(_write(tmp_path, build_pcap(HANDSHAKE, big_endian=True)))
        assert len(trace) == 3
        assert trace.packets[0].ts_us == HANDSHAKE[0][0]

    def test_nanosecond_magic_truncated_to_us(self, tmp_path):
        trace = read_trace(_write(tmp_path, build_pcap(HANDSHAKE, magic=0xA1B23C4D)))
        assert [p.ts_us for p in trace.packets] == [ts for ts, _ in HANDSHAKE]

    def test_non_ip_frames_skipped_and_tallied(self, tmp_path):
        arp = bytes(12) + b"\x08\x06" + bytes(28)
        blob = build_pcap([(0, arp), HANDSHAKE[0]])
        trace = read_trace(_write(tmp_path, blob))
        assert len(trace) == 1
        assert trace.skipped == 1

    def test_icmp_skipped(self, tmp_path):
        eth = bytes(12) + b"\x08\x00"
        ip = b"\x45\x00\x00\x1c" + bytes(4) + b"\x40\x01\x00\x00" + bytes(8)
        blob = build_pcap([(0, eth + ip + bytes(8))])
        trace = read_trace(_write(tmp_path, blob))
        assert len(trace) == 0
        assert trace.skipped == 1

    def test_unsupported_linktype_all_skipped(self, tmp_path):
        blob = build_pcap(HANDSHAKE, linktype=101)
        trace = read_trace(_write(tmp_path, blob))
        assert len(trace) == 0
        assert trace.skipped == 3

    def test_truncated_final_record_counted_skipped(self, tmp_path):
        # a cut inside the last record's header or data loses that record
        blob = build_pcap(HANDSHAKE[:2])
        for cut in range(1, 16 + len(HANDSHAKE[1][1])):
            trace = read_trace(_write(tmp_path, blob[:-cut]))
            assert (len(trace), trace.skipped) == (1, 1), cut

    def test_ipv6_tcp_address_text_compressed(self, tmp_path):
        src = bytes.fromhex("20010db8000000000000000000000001")
        dst = bytes.fromhex("20010db8000000000000000000000002")
        frame = _frame(0x86DD, _ipv6(6, _tcp(443, 5000, 0x18, b"data"), src, dst))
        trace = read_trace(_write(tmp_path, build_pcap([(10, frame)])))
        pkt = trace.packets[0]
        assert (pkt.src_ip, pkt.dst_ip) == ("2001:db8::1", "2001:db8::2")
        assert (pkt.src_port, pkt.dst_port, pkt.protocol, pkt.tcp_flags) == (443, 5000, 6, 0x18)
        assert (pkt.payload_len, pkt.payload) == (4, b"data")
        assert trace.skipped == 0

    def test_qinq_tagged_udp(self, tmp_path):
        frame = _frame(0x0800, _ipv4(17, _udp(5353, 53, b"query")), vlans=(0x88A8, 0x8100))
        trace = read_trace(_write(tmp_path, build_pcap([(10, frame)])))
        pkt = trace.packets[0]
        assert (pkt.src_ip, pkt.src_port, pkt.dst_port, pkt.protocol) == ("10.0.0.1", 5353, 53, 17)
        assert (pkt.payload_len, pkt.payload, pkt.raw) == (5, b"query", frame)

    def test_ipv4_options_shift_transport(self, tmp_path):
        frame = _frame(0x0800, _ipv4(6, _tcp(1234, 80, 0x18, b"abc"), ihl_words=6))
        pkt = read_trace(_write(tmp_path, build_pcap([(10, frame)]))).packets[0]
        assert (pkt.src_port, pkt.dst_port, pkt.tcp_flags) == (1234, 80, 0x18)
        assert (pkt.payload_len, pkt.payload) == (3, b"abc")

    def test_non_first_fragment_skipped_and_tallied(self, tmp_path):
        fragment = _frame(0x0800, _ipv4(6, _tcp(1234, 80, 0x10, b"tail"), frag=0x2000 | 185))
        trace = read_trace(_write(tmp_path, build_pcap([(10, fragment), HANDSHAKE[0]])))
        assert len(trace) == 1
        assert trace.skipped == 1

    def test_ethernet_padding_not_in_payload(self, tmp_path):
        udp = _frame(0x0800, _ipv4(17, _udp(1, 2, b"hi")), pad_to=60)
        tcp = _frame(0x0800, _ipv4(6, _tcp(1, 2, 0x10)), pad_to=60)
        trace = read_trace(_write(tmp_path, build_pcap([(10, udp), (20, tcp)])))
        assert [(p.payload_len, p.payload) for p in trace.packets] == [(2, b"hi"), (0, b"")]
        assert [p.wire_len for p in trace.packets] == [60, 60]

    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        trace = reorder(random_trace(rng, 120))
        path = tmp_path / "rt.pcap"
        write_trace(trace, path)
        back = read_trace(path)
        assert len(back) == len(trace)
        fields = ("ts_us", "src_ip", "src_port", "dst_ip", "dst_port", "protocol",
                  "tcp_flags", "payload_len")
        for a, b in zip(trace.packets, back.packets):
            assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]
            assert a.payload == b.payload

    def test_raw_packet_is_a_value(self, tmp_path):
        pkt = RawPacket(5, "10.0.0.1", "10.0.0.2", 1, 2, 6, 0x10, 3, 57, b"abc")
        moved = replace(pkt, ts_us=9)
        assert moved.ts_us == 9 and pkt.ts_us == 5
        assert replace(moved, ts_us=5) == pkt
        assert pkt == RawPacket(5, "10.0.0.1", "10.0.0.2", 1, 2, 6, 0x10, 3, 57, b"abc")
        assert pkt != replace(pkt, payload=b"abd")
        with pytest.raises(TypeError):
            hash(pkt)
        # packets read back from a written trace compare equal, frames included
        path = tmp_path / "rt.pcap"
        write_trace(PacketTrace(packets=(pkt, moved), source="t"), path)
        first = read_trace(path)
        write_trace(first, tmp_path / "rt2.pcap")
        assert read_trace(tmp_path / "rt2.pcap").packets == first.packets
        assert [(p.ts_us, p.payload, p.wire_len) for p in first.packets] == [
            (5, b"abc", 57),
            (9, b"abc", 57),
        ]


def test_write_trace_rejects_mixed_address_families(tmp_path):
    pkt = RawPacket(5, "10.0.0.1", "2001:db8::2", 1, 2, 17, 0, 3, 0, b"abc")
    path = tmp_path / "mixed.pcap"
    with pytest.raises(ValueError, match="IPv4 to IPv6"):
        write_trace(PacketTrace(packets=(pkt,), source="t"), path)
    assert not path.exists()


_ADDR4 = st.sampled_from([bytes([10, 0, 0, 1]), bytes([10, 0, 0, 2]), bytes([192, 168, 1, 9])])
_ADDR6 = st.sampled_from(
    [bytes.fromhex("20010db8000000000000000000000001"), bytes(15) + b"\x01", bytes(16)]
)


@st.composite
def _transport(draw):
    """(protocol, transport bytes): TCP with any data offset, UDP with any
    length field, or another protocol."""
    payload = draw(st.binary(max_size=24))
    kind = draw(st.sampled_from(["tcp", "udp", "other"]))
    if kind == "tcp":
        doff = draw(st.integers(0, 15))
        return 6, _tcp(draw(st.integers(0, 65535)), 80, draw(st.integers(0, 255)), payload, doff)
    if kind == "udp":
        length = draw(st.one_of(st.none(), st.integers(0, 80)))
        return 17, _udp(53, draw(st.integers(0, 65535)), payload, length)
    return draw(st.sampled_from([1, 47, 58, 132])), payload


@st.composite
def _ip_frame(draw):
    protocol, transport = draw(_transport())
    if draw(st.booleans()):
        ip = _ipv4(
            protocol,
            transport,
            draw(_ADDR4),
            draw(_ADDR4),
            ihl_words=draw(st.integers(0, 15)),
            frag=draw(st.sampled_from([0, 0x4000, 0x2000, 0x2000 | 3, 0x1000, 7])),
            total=draw(st.one_of(st.none(), st.integers(0, 120))),
        )
        ethertype = 0x0800
    else:
        rest, next_header = transport, protocol
        for ext in reversed(draw(st.lists(st.sampled_from([0, 43, 44, 60]), max_size=3))):
            if ext == 44:
                offset = draw(st.sampled_from([0, 0, 1, 100]))
                rest = struct.pack("!BBHI", next_header, 0, offset << 3 | 1, 9) + rest
            else:
                words = draw(st.integers(0, 2))
                rest = bytes([next_header, words]) + bytes(words * 8 + 6) + rest
            next_header = ext
        payload_len = draw(st.one_of(st.none(), st.integers(0, 120)))
        ip = _ipv6(next_header, rest, draw(_ADDR6), draw(_ADDR6), payload_len)
        ethertype = 0x86DD
    ethertype = draw(st.sampled_from([ethertype, ethertype, 0x0806]))
    vlans = draw(st.lists(st.sampled_from([0x8100, 0x88A8]), max_size=2))
    return _frame(ethertype, ip, tuple(vlans), pad_to=draw(st.sampled_from([0, 60])))


@st.composite
def _mutated_pcap(draw):
    frames = draw(st.lists(_ip_frame(), max_size=6))
    blob = bytearray(
        build_pcap(
            [(1_000_000 * i + 7, frame) for i, frame in enumerate(frames)],
            magic=draw(st.sampled_from([0xA1B2C3D4, 0xA1B23C4D])),
            big_endian=draw(st.booleans()),
        )
    )
    for _ in range(draw(st.integers(0, 3))):
        blob[draw(st.integers(0, len(blob) - 1))] ^= draw(st.integers(1, 255))
    cut = draw(st.one_of(st.just(0), st.integers(0, len(blob))))
    return bytes(blob[: len(blob) - cut])


def _decode(read, path):
    try:
        trace = read(path)
    except FlowLabError as exc:
        return type(exc)
    return trace.packets, trace.skipped


@given(_mutated_pcap())
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_decoder_matches_reference_on_mutated_pcaps(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "fuzz.pcap"
    path.write_bytes(blob)
    assert _decode(read_trace, path) == _decode(reference_read_trace, path)


def _pkt(ts, payload=b"x", src="10.0.0.1", sport=1, **kw):
    defaults = dict(
        src_ip=src,
        dst_ip="10.0.0.2",
        src_port=sport,
        dst_port=2,
        protocol=17,
        tcp_flags=0,
        payload_len=len(payload),
        wire_len=len(payload) + 42,
        payload=payload,
    )
    defaults.update(kw)
    return RawPacket(ts_us=ts, **defaults)


def _trace(*packets):
    return PacketTrace(packets=tuple(packets), source="test")


class TestDedup:
    def test_identical_within_window_dropped(self):
        out = dedup(_trace(_pkt(0), _pkt(5000)))
        assert len(out) == 1
        assert out.packets[0].ts_us == 0

    def test_identical_at_window_boundary_dropped(self):
        assert len(dedup(_trace(_pkt(0), _pkt(10_000)))) == 1

    def test_identical_just_outside_window_kept(self):
        assert len(dedup(_trace(_pkt(0), _pkt(10_001)))) == 2

    def test_different_payload_kept(self):
        assert len(dedup(_trace(_pkt(0, b"x"), _pkt(100, b"y")))) == 2

    def test_matches_brute_force_on_random_trace_with_duplicates(self):
        rng = np.random.default_rng(7)
        base = list(random_trace(rng, 200, n_endpoints=3, t_span_us=400_000).packets)
        # inject duplicates at varied offsets around the window
        extra = []
        for i in range(0, len(base), 5):
            offset = int(rng.integers(0, 15_000))
            extra.append(replace(base[i], ts_us=base[i].ts_us + offset))
        merged = sorted(base + extra, key=lambda p: p.ts_us)
        trace = _trace(*merged)
        got = dedup(trace, 10_000)
        want = brute_force_dedup(merged, 10_000)
        assert list(got.packets) == want

    def test_dedup_on_unordered_trace_matches_brute_force(self):
        rng = np.random.default_rng(13)
        pkts = list(
            random_trace(rng, 150, n_endpoints=2, t_span_us=50_000, sorted_ts=False).packets
        )
        got = dedup(_trace(*pkts), 10_000)
        assert list(got.packets) == brute_force_dedup(pkts, 10_000)

    @given(
        st.lists(
            st.tuples(st.integers(0, 40_000), st.sampled_from([b"a", b"b"])),
            max_size=40,
        ),
        st.integers(0, 20_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_idempotent_and_first_occurrence_preserved(self, items, window):
        trace = _trace(*[_pkt(ts, payload) for ts, payload in items])
        once = dedup(trace, window)
        twice = dedup(once, window)
        assert list(once.packets) == list(twice.packets)
        # the first occurrence of every packet value always survives
        seen = set()
        firsts = []
        for p in trace.packets:
            if p.dedup_key() not in seen:
                seen.add(p.dedup_key())
                firsts.append(p)
        kept = set(id(p) for p in once.packets)
        for p in firsts:
            assert id(p) in kept


class TestReorder:
    def test_sorted_trace_unchanged(self):
        trace = _trace(_pkt(10), _pkt(20), _pkt(30))
        assert list(reorder(trace).packets) == list(trace.packets)

    def test_definition_case(self):
        trace = _trace(_pkt(30), _pkt(10), _pkt(20))
        assert [p.ts_us for p in reorder(trace).packets] == [10, 20, 30]

    def test_matches_reference_stable_sort(self):
        rng = np.random.default_rng(3)
        # coarse timestamps force plenty of ties
        pkts = [
            _pkt(int(rng.integers(0, 50)), bytes([i % 256]), sport=i % 7 + 1)
            for i in range(1000)
        ]
        got = reorder(_trace(*pkts))
        decorated = sorted(enumerate(pkts), key=lambda pair: (pair[1].ts_us, pair[0]))
        want = [p for _, p in decorated]
        assert list(got.packets) == want

    def test_idempotent_and_permutation(self):
        rng = np.random.default_rng(4)
        trace = random_trace(rng, 300, sorted_ts=False)
        once = reorder(trace)
        assert list(reorder(once).packets) == list(once.packets)
        assert sorted(p.ts_us for p in trace.packets) == [
            p.ts_us for p in once.packets
        ]
        assert sorted(map(repr, trace.packets)) == sorted(map(repr, once.packets))
