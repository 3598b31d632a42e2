from __future__ import annotations

import gc
import os
import struct
import tracemalloc
from dataclasses import replace
from hashlib import sha256
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from flowlab import trace_io
from flowlab.errors import FlowLabError, MalformedHeaderError, UnreadableFileError
from flowlab.meter import MeterConfig, meter
from flowlab.trace_io import (
    PacketTrace,
    RawPacket,
    dedup,
    read_trace,
    reorder,
    write_trace,
)

from conftest import paced_packets, random_trace, rewrite_in_place, truncate
from reference import (
    brute_force_dedup,
    build_pcap,
    build_tcp_frame,
    build_udp_frame,
    dissect_pcap,
    reference_frame,
    reference_read_trace,
    reference_write_trace,
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


@pytest.mark.parametrize("ts_us", [-1, 2**32 * 1_000_000])
def test_write_trace_rejects_timestamps_outside_the_pcap_range(tmp_path, ts_us):
    pkt = RawPacket(ts_us, "10.0.0.1", "10.0.0.2", 1, 2, 17, 0, 3, 0, b"abc")
    path = tmp_path / "far.pcap"
    with pytest.raises(ValueError, match=f"ts_us {ts_us} is outside"):
        write_trace(PacketTrace(packets=(pkt,), source="t"), path)
    assert not path.exists()


def test_synthesized_frame_pads_a_short_captured_payload(tmp_path):
    # 3 bytes captured of a 7-byte payload: the frame carries 4 zero bytes more.
    pkt = _pkt(5, b"abc", payload_len=7)
    write_trace(_trace(pkt), tmp_path / "pad.pcap")
    back = read_trace(tmp_path / "pad.pcap").packets[0]
    assert (back.payload_len, back.payload, back.wire_len) == (7, b"abc\0\0\0\0", 49)


def test_ipv6_packets_round_trip_through_synthesized_frames(tmp_path):
    packets = (
        _pkt(5, b"ab", src="2001:db8::1", dst_ip="2001:DB8::2", protocol=6, tcp_flags=0x18),
        _pkt(9, b"xyz", src="2001:db8::2", dst_ip="2001:db8::1", sport=53, dst_port=1),
    )
    write_trace(_trace(*packets), tmp_path / "v6.pcap")
    back = read_trace(tmp_path / "v6.pcap")
    assert back.skipped == 0
    assert [(p.src_ip, p.dst_ip) for p in back.packets] == [
        ("2001:db8::1", "2001:db8::2"),
        ("2001:db8::2", "2001:db8::1"),
    ]
    fields = ("ts_us", "src_port", "dst_port", "protocol", "tcp_flags", "payload_len", "payload")
    for got, sent in zip(back.packets, packets):
        assert [getattr(got, f) for f in fields] == [getattr(sent, f) for f in fields]
    # 14 Ethernet + 40 IPv6 + 20 TCP or 8 UDP header bytes
    assert [p.wire_len for p in back.packets] == [76, 65]


def test_parse_ip_gives_one_canonical_form_per_address():
    forms = ["2001:db8::1", "2001:DB8::1", "2001:db8:0:0:0:0:0:1"]
    parsed = {trace_io.parse_ip(text)[1:] for text in forms}
    assert parsed == {(bytes.fromhex("20010db8" + "0" * 22 + "01"), "2001:db8::1")}
    addr, packed, text = trace_io.parse_ip("10.0.0.7")
    assert (addr.version, packed, text) == (4, bytes([10, 0, 0, 7]), "10.0.0.7")
    with pytest.raises(ValueError):
        trace_io.parse_ip("10.0.0.256")


def _outcome(make):
    """What ``make()`` gives: its bytes, or the text of its ValueError."""
    try:
        return make()
    except ValueError as exc:
        return f"ValueError: {exc}"


_V4_TEXTS = st.sampled_from(["10.0.0.1", "192.168.1.9", "0.0.0.0"])
_V6_TEXTS = st.sampled_from(["2001:db8::1", "::1", "2001:DB8:0:0::ff"])
# 0, a few bytes, the largest TCP payload of an IPv4 packet, and one byte
# past the largest payload of IPv4/TCP, IPv4/UDP, IPv6/TCP and IPv6/UDP.
_PAYLOAD_LENS = st.sampled_from([0, 1, 7, 65_495, 65_496, 65_508, 65_516, 65_528])
# (tcp_flags, payload_len, captured payload): a payload shorter than its
# length is padded with zero bytes; one longer than it is framed whole.
_PACKET = st.tuples(
    st.integers(0, 255), _PAYLOAD_LENS | st.integers(0, 70_000), st.binary(max_size=24)
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.tuples(_V4_TEXTS, _V4_TEXTS), st.tuples(_V6_TEXTS, _V6_TEXTS),
              st.tuples(_V4_TEXTS, _V6_TEXTS), st.tuples(_V6_TEXTS, _V4_TEXTS)),
    st.tuples(st.integers(0, 65535), st.integers(0, 65535)),
    st.sampled_from([6, 17, 1]),
    st.lists(_PACKET, min_size=1, max_size=4),
)
@example(("10.0.0.1", "10.0.0.2"), (1, 2), 6, [(0x18, 0, b""), (0x10, 5, b"ab"), (2, 65_495, b"")])
@example(("10.0.0.1", "10.0.0.2"), (1, 2), 6, [(0x10, 65_496, b"")])
@example(("10.0.0.1", "10.0.0.2"), (1, 2), 17, [(0, 65_507, b""), (0, 65_508, b"")])
@example(("::1", "2001:db8::1"), (1, 2), 6, [(0x10, 65_515, b""), (0x10, 65_516, b"")])
@example(("::1", "2001:db8::1"), (1, 2), 17, [(0, 65_527, b"x"), (0, 65_528, b"x")])
@example(("10.0.0.1", "::1"), (1, 2), 17, [(0, 3, b"abc")])
@example(("10.0.0.1", "10.0.0.2"), (1, 2), 1, [(0, 3, b"abc")])
def test_frames_built_per_endpoint_pair_match_the_reference(ends, ports, protocol, packets):
    # ``_frame`` builds each frame afresh, and one ``_framer`` builds every
    # frame of the pair: both give the reference's bytes or its ValueError.
    args = (*ends, *ports, protocol)
    built = _outcome(lambda: trace_io._framer(*args))
    for flags, payload_len, payload in packets:
        want = _outcome(lambda: reference_frame(*args, flags, payload_len, payload))
        assert _outcome(lambda: trace_io._frame(*args, flags, payload_len, payload)) == want
        if isinstance(built, str):
            assert built == want
        else:
            assert _outcome(lambda: built(flags, payload_len, payload)) == want


def test_frames_parse_each_distinct_address_once(tmp_path):
    trace_io.parse_ip.cache_clear()
    packets = [_pkt(i, src=f"10.9.0.{i % 3 + 1}") for i in range(300)]
    with mock.patch.object(trace_io, "ip_address", wraps=trace_io.ip_address) as parse:
        write_trace(_trace(*packets), tmp_path / "many.pcap")
    # Three sources and one destination, for 300 synthesized frames.
    assert parse.call_count == 4


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


@given(_mutated_pcap(), st.integers(1, 80))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_decoder_matches_reference_at_any_read_chunk(tmp_path_factory, blob, chunk):
    # Records straddle the chunk boundaries at every offset, headers included.
    path = tmp_path_factory.getbasetemp() / "chunks.pcap"
    path.write_bytes(blob)
    with mock.patch.object(trace_io, "_READ_CHUNK", chunk):
        assert _decode(read_trace, path) == _decode(reference_read_trace, path)


# A record header that claims 0xFFFFFFF0 bytes, followed by 60 bytes of data.
_CORRUPT_RECORD = struct.pack("<IIII", 1, 0, 0xFFFFFFF0, 60) + bytes(60)


@pytest.mark.parametrize("before, after", [([], []), (HANDSHAKE[:2], HANDSHAKE[2:])],
                         ids=["alone", "between_good_records"])
def test_corrupt_record_length_ends_the_read_in_bounded_memory(tmp_path, before, after):
    blob = build_pcap(before) + _CORRUPT_RECORD + build_pcap(after)[24:]
    path = _write(tmp_path, blob)
    tracemalloc.start()
    try:
        trace = read_trace(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A truncated final record: reading stops there, as in the reference.
    assert (len(trace), trace.skipped) == (len(before), 1)
    assert _decode(read_trace, path) == _decode(reference_read_trace, path)
    assert peak < 1 << 20


_V6 = (bytes.fromhex("20010db8" + "0" * 22 + "01"), bytes.fromhex("20010db8" + "0" * 22 + "02"))


@pytest.mark.parametrize(
    "frame",
    [
        _frame(0x86DD, bytes(30)),
        _frame(0x86DD, b"\x40" + _ipv6(17, _udp(1, 2, b"x"), *_V6)[1:]),
        # A hop-by-hop header that claims 32 bytes of the 16 left.
        _frame(0x86DD, _ipv6(0, bytes([17, 3]) + bytes(14), *_V6)),
        # A fragment header cut after 4 of its 8 bytes.
        _frame(0x86DD, _ipv6(44, bytes([17, 0, 0, 0]), *_V6)),
        # An extension header cut after 1 byte.
        _frame(0x86DD, _ipv6(60, b"\x11", *_V6)),
        bytes(12) + b"\x81\x00\x00",
        _frame(0x0800, bytes([0x45]) + bytes(18)),
        _frame(0x0800, _ipv4(6, _tcp(1, 2, 0x10)[:19])),
        _frame(0x0800, _ipv4(17, _udp(1, 2)[:7])),
    ],
    ids=[
        "ipv6_header_under_40_bytes",
        "ipv6_version_not_6",
        "ipv6_extension_header_cut_off",
        "ipv6_fragment_header_cut_off",
        "ipv6_extension_header_under_2_bytes",
        "vlan_tag_cut_off",
        "ipv4_header_under_20_bytes",
        "tcp_header_under_20_bytes",
        "udp_header_under_8_bytes",
    ],
)
def test_short_or_malformed_headers_skipped_as_the_reference_skips_them(tmp_path, frame):
    path = _write(tmp_path, build_pcap([(5, frame), HANDSHAKE[0]]))
    trace = read_trace(path)
    assert (len(trace), trace.skipped) == (1, 1)
    assert _decode(read_trace, path) == _decode(reference_read_trace, path)


def _decode_path_frames() -> list[bytes]:
    """Frames on both sides of the one-call decode's conditions: IHL 5 and
    6, TCP data offsets 4-6, UDP lengths below and above the IP payload, a
    non-first fragment, and options claimed by a first byte of 0x46."""
    payload = b"0123456789abcdef"
    frames = []
    for ihl in (5, 6):
        for doff in (4, 5, 6):
            tcp = _tcp(1234 + doff, 80, 0x18, payload, doff)
            frames.append(_frame(0x0800, _ipv4(6, tcp, bytes([10, ihl, doff, 1]), ihl_words=ihl)))
        for length in (8 + len(payload) - 5, 8 + len(payload) + 5):
            udp = _udp(5353, 53, payload, length)
            ip = _ipv4(17, udp, bytes([10, ihl, 9, length]), ihl_words=ihl)
            frames.append(_frame(0x0800, ip))
    fragment = _ipv4(6, _tcp(1234, 80, 0x10, payload), frag=0x2000 | 185)
    options = bytearray(_ipv4(6, _tcp(1234, 80, 0x10, payload), bytes([10, 7, 7, 7])))
    options[0] = 0x46
    return [*frames, _frame(0x0800, fragment), _frame(0x0800, bytes(options))]


def test_decode_paths_match_reference_at_every_cut(tmp_path):
    # Each frame cut at every length: a TCP frame takes the one-call decode
    # only once its whole TCP header is captured, 54 bytes, not at 48.
    cuts = [frame[:n] for frame in _decode_path_frames() for n in range(len(frame) + 1)]
    path = _write(tmp_path, build_pcap(list(enumerate(cuts))))
    want = reference_read_trace(path)
    assert len(want) > 100
    full, headers = read_trace(path), read_trace(path, keep_bytes=False)
    assert (full.packets, full.skipped) == (want.packets, want.skipped)
    assert list(headers.packets) == [replace(p, payload=b"", raw=None) for p in want.packets]
    assert headers.skipped == want.skipped
    # Addresses are numbered as they first appear, source before destination.
    first_seen = list(dict.fromkeys(ip for p in want.packets for ip in (p.src_ip, p.dst_ip)))
    assert full.packets.addresses == headers.packets.addresses == first_seen


def test_not_a_regular_file_is_unreadable():
    with pytest.raises(UnreadableFileError, match="not a regular file"):
        read_trace(os.devnull)


class TestHeaderOnlyRead:
    def test_packets_keep_every_header_field(self, dup_pcap):
        full = read_trace(dup_pcap)
        headers = read_trace(dup_pcap, keep_bytes=False)
        assert (headers.headers_only, full.headers_only) == (True, False)
        assert headers.skipped == full.skipped
        assert list(headers.packets) == [replace(p, payload=b"", raw=None) for p in full.packets]

    def test_meter_output_unchanged(self, dup_pcap):
        config = MeterConfig()
        headers = meter(reorder(read_trace(dup_pcap, keep_bytes=False)), config)
        assert headers == meter(reorder(read_trace(dup_pcap)), config)

    def test_full_read_holds_at_most_24_bytes_per_packet_more(self, dup_pcap):
        # A full read leaves the bytes in the file and adds the five span
        # columns, 20 bytes a packet, to the header columns.
        def held(**kw) -> tuple[int, int]:
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                trace = read_trace(dup_pcap, **kw)
                return tracemalloc.get_traced_memory()[0] - before, len(trace)
            finally:
                tracemalloc.stop()

        (headers, n), (full, _) = held(keep_bytes=False), held()
        assert n > 8_000
        assert full - headers <= 24 * n, (full - headers) / n

    def test_holds_at_most_64_bytes_per_packet(self, dup_pcap):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = read_trace(dup_pcap, keep_bytes=False)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trace) > 8_000
        assert held / len(trace) <= 64, held / len(trace)

    def test_slice_take_and_reorder_stay_headers_only(self, dup_pcap):
        headers = read_trace(dup_pcap, keep_bytes=False)
        ordered = reorder(headers)
        assert ordered is not headers  # the dup pcap is out of order
        for packets in (headers.packets[5:100:3], headers.packets.take([9, 2, 3]), ordered.packets):
            assert (packets.spans, packets.chunks) == (None, None)
            assert PacketTrace(packets, "t").headers_only
        assert ordered.headers_only

    def test_cannot_be_deduped_or_written(self, tmp_path):
        headers = read_trace(_write(tmp_path, build_pcap(HANDSHAKE)), keep_bytes=False)
        for trace in (headers, reorder(headers)):
            with pytest.raises(ValueError, match="keep_bytes=False"):
                dedup(trace)
            path = tmp_path / "out.pcap"
            with pytest.raises(ValueError, match="keep_bytes=False"):
                write_trace(trace, path)
            assert not path.exists()


def test_trace_with_bytes_holds_64_bytes_per_packet_plus_one_chunk(dup_pcap):
    # The frames stay in the file; a read of the bytes keeps the last chunk
    # it fetched, and a payload is a span of it, not a copy.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = read_trace(dup_pcap)
        assert sum(map(len, trace.packets.payloads())) > 4 << 20
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    chunk = max(trace.packets.chunks.lengths)
    assert len(trace) > 8_000 and chunk <= trace_io._READ_CHUNK + 2048
    assert held <= 64 * len(trace) + chunk, (held - chunk) / len(trace)


def _resized(trace: PacketTrace, size: int) -> PacketTrace:
    """``trace`` with each payload replaced by ``size`` bytes derived from
    it (an empty one stays empty), so that duplicates stay duplicates."""
    return replace(trace, packets=tuple(
        replace(p, payload=(sha256(p.payload).digest() * size)[:size], raw=None,
                payload_len=size, wire_len=p.wire_len - p.payload_len + size)
        if p.payload else p
        for p in trace.packets
    ))


def test_preprocess_peak_does_not_grow_with_payload_size(tmp_path, dup_pcap):
    # The same packets with 100-byte and with 1,400-byte payloads: 14 times
    # the bytes in the file, and the same peak while they are cleaned.
    read = read_trace(dup_pcap)
    peaks, kept = [], []
    for size in (100, 1400):
        path = tmp_path / f"in_{size}.pcap"
        write_trace(_resized(read, size), path)
        tracemalloc.start()
        try:
            cleaned = reorder(dedup(read_trace(path)))
            write_trace(cleaned, tmp_path / f"out_{size}.pcap")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        kept.append(len(cleaned))
        del cleaned
    assert os.path.getsize(tmp_path / "in_1400.pcap") > 10 << 20
    assert kept[0] == kept[1] < len(read)
    assert abs(peaks[1] - peaks[0]) < 2 << 20, peaks


class TestChangedCapture:
    @pytest.mark.parametrize("change", [truncate, rewrite_in_place])
    def test_using_the_trace_raises(self, tmp_path, dup_pcap, change):
        path = tmp_path / "in.pcap"
        path.write_bytes(dup_pcap.read_bytes())
        traces = read_trace(path), read_trace(path)
        change(path)
        with pytest.raises(UnreadableFileError, match="has changed since it was read"):
            dedup(traces[0])
        with pytest.raises(UnreadableFileError, match="has changed since it was read"):
            write_trace(traces[1], tmp_path / "out.pcap")
        assert not (tmp_path / "out.pcap").exists()

    def test_chunk_read_before_the_change_is_kept(self, tmp_path):
        path = _write(tmp_path, build_pcap(HANDSHAKE))
        packets = read_trace(path).packets
        frames = list(packets.frames())
        truncate(path)
        assert list(packets.frames()) == frames
        assert packets.identity(0)[-1] == b""  # its chunk is the one kept


class TestDescriptors:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_traces_dropped_close_their_descriptors(self, tmp_path):
        path = _write(tmp_path, build_pcap(HANDSHAKE))
        read_trace(path)
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(2_000):
            assert len(read_trace(path)) == len(HANDSHAKE)
        assert len(os.listdir("/proc/self/fd")) == before

    def test_slice_and_take_outlive_the_trace(self, tmp_path, dup_pcap):
        want = list(read_trace(dup_pcap).packets)
        packets = read_trace(dup_pcap).packets
        part, taken = packets[100:3000:7], packets.take([5000, 3, 4, 8000])
        del packets
        gc.collect()
        assert list(part) == want[100:3000:7]
        assert list(taken) == [want[i] for i in (5000, 3, 4, 8000)]


def test_write_trace_equals_reference_writer_across_flushes(tmp_path, dup_pcap):
    read = read_trace(dup_pcap)
    # Every other packet loses its frame, so that the writer synthesizes one.
    mixed = replace(read, packets=tuple(
        p if i % 2 else replace(p, raw=None) for i, p in enumerate(read.packets)
    ))
    tracemalloc.start()
    try:
        write_trace(mixed, tmp_path / "got.pcap")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    reference_write_trace(mixed, tmp_path / "want.pcap")
    got = (tmp_path / "got.pcap").read_bytes()
    assert len(got) > 2 << 20
    assert got == (tmp_path / "want.pcap").read_bytes()
    assert peak < 2 << 20  # the output is written as it is encoded


@pytest.mark.parametrize(
    "bad, match",
    [
        ({"ts_us": -1}, "ts_us -1 is outside"),
        ({"ts_us": 2**32 * 1_000_000}, "is outside"),
        ({"dst_ip": "2001:db8::2", "raw": None}, "IPv4 to IPv6"),
        ({"payload_len": 65_600, "raw": None}, "a payload of 65600 bytes does not fit"),
        ({"protocol": 1, "raw": None}, "cannot synthesize frame for protocol 1"),
    ],
    ids=["negative_ts", "ts_past_2**32_s", "mixed_families", "payload_len", "protocol"],
)
def test_write_trace_failing_after_a_flush_leaves_no_file(tmp_path, dup_pcap, bad, match):
    good = read_trace(dup_pcap).packets
    assert sum(len(p.raw) for p in good) > 1 << 20  # past the first write
    path = tmp_path / "late.pcap"
    with pytest.raises(ValueError, match=match):
        write_trace(PacketTrace((*good, replace(good[-1], **bad)), "t"), path)
    assert not path.exists()


def test_write_trace_failing_after_a_flush_keeps_the_file_at_the_path(tmp_path, dup_pcap):
    good = read_trace(dup_pcap).packets
    path = tmp_path / "kept.pcap"
    write_trace(_trace(*good[:3]), path)
    before = path.read_bytes()
    late = replace(good[-1], ts_us=-1)
    with pytest.raises(ValueError, match="ts_us -1 is outside"):
        write_trace(PacketTrace((*good, late), "t"), path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


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


# Rows per block at which dedup and reorder are checked: sizes that put a
# block boundary at every row and at odd offsets in small traces, and the
# size they run at.
_BLOCKS = (1, 2, 3, 7, trace_io._BLOCK)


class TestDedup:
    def test_identical_within_window_dropped(self):
        out = dedup(_trace(_pkt(0), _pkt(5000)))
        assert len(out) == 1
        assert out.packets[0].ts_us == 0

    def test_identical_at_window_boundary_dropped(self, monkeypatch):
        for block in _BLOCKS:
            monkeypatch.setattr(trace_io, "_BLOCK", block)
            assert len(dedup(_trace(_pkt(0), _pkt(10_000)))) == 1, block

    def test_identical_just_outside_window_kept(self, monkeypatch):
        for block in _BLOCKS:
            monkeypatch.setattr(trace_io, "_BLOCK", block)
            assert len(dedup(_trace(_pkt(0), _pkt(10_001)))) == 2, block

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

    def test_dedup_on_unordered_trace_matches_brute_force(self, monkeypatch):
        rng = np.random.default_rng(13)
        fuzz = list(
            random_trace(rng, 150, n_endpoints=2, t_span_us=50_000, sorted_ts=False).packets
        )
        # A copy exactly a window after the first, alone and behind a copy
        # far ahead, and times ahead of the rows that follow them, at the
        # turn of a block.
        edge = [_pkt(0), _pkt(10_000, b"y"), _pkt(10_000)]
        behind = [_pkt(0), _pkt(50_000), _pkt(10_000, b"y"), _pkt(10_000)]
        ahead = [_pkt(ts, payload) for ts, payload in
                 ((15_000, b"y"), (31_000, b"x"), (26_000, b"y"), (28_000, b"y"), (37_000, b"x"))]
        for pkts in (fuzz, edge, behind, ahead):
            want = brute_force_dedup(pkts, 10_000)
            for block in _BLOCKS:
                monkeypatch.setattr(trace_io, "_BLOCK", block)
                assert list(dedup(_trace(*pkts), 10_000).packets) == want, block

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
        firsts = {}
        for p in trace.packets:
            firsts.setdefault(p.dedup_key(), p)
        for block in _BLOCKS:
            with mock.patch.object(trace_io, "_BLOCK", block):
                once = dedup(trace, window)
                twice = dedup(once, window)
            assert list(once.packets) == list(twice.packets)
            assert list(once.packets) == brute_force_dedup(list(trace.packets), window)
            # the first occurrence of every packet value always survives, and
            # is the first of its value kept (packets are built when read, so
            # they are told apart by value, not by identity)
            leads = {}
            for p in once.packets:
                leads.setdefault(p.dedup_key(), p)
            assert leads == firsts


    def test_digest_collisions_told_apart_by_fields_and_bytes(self, monkeypatch):
        # One digest for every packet: dedup then keeps packets apart by
        # their header fields and payload bytes alone.
        monkeypatch.setattr(trace_io, "_digest", lambda identity: 0)
        same_headers = [_pkt(ts, payload) for ts, payload in
                        ((0, b"a"), (10, b"b"), (20, b"a"), (30, b"b"), (20_000, b"a"))]
        assert list(dedup(_trace(*same_headers)).packets) == [same_headers[i] for i in (0, 1, 4)]
        # The traces of acceptance criterion 3.
        rng = np.random.default_rng(3003)
        for _ in range(850):
            n = int(rng.integers(0, 60))
            window = int(rng.integers(0, 20_000))
            pkts = list(
                random_trace(
                    rng, n, n_endpoints=2, t_span_us=30_000, sorted_ts=bool(rng.random() < 0.5)
                ).packets
            )
            trace = PacketTrace(packets=tuple(pkts), source="fuzz")
            want = brute_force_dedup(pkts, window)
            for block in _BLOCKS:
                monkeypatch.setattr(trace_io, "_BLOCK", block)
                assert list(dedup(trace, window).packets) == want, block


class TestPacketColumns:
    def test_packets_given_come_back_equal(self, dup_pcap):
        read = list(read_trace(dup_pcap).packets[:3])
        given = [
            *read,
            replace(read[0], raw=None),
            replace(read[1], payload=b"not in the frame"),
            replace(read[2], payload=b"", raw=b""),
            _pkt(-1, b"abc", src="2001:DB8::2", dst_ip="2001:db8::1", wire_len=2**32 - 1),
        ]
        packets = PacketTrace(packets=given, source="t").packets
        assert isinstance(packets, trace_io.PacketColumns)
        assert list(packets) == given
        assert [packets[i] for i in range(-len(given), len(given))] == given * 2
        assert list(packets[2:6]) == given[2:6] and list(packets[::-3]) == given[::-3]
        assert list(packets.take([5, 0, 1, 2, 6])) == [given[i] for i in (5, 0, 1, 2, 6)]
        assert packets[1:4] == PacketTrace(packets=given[1:4], source="t").packets
        assert packets[1:4] != packets[1:5] and packets[:0] == PacketTrace((), "t").packets
        with pytest.raises(IndexError):
            packets[len(given)]

    def test_payloads_that_end_their_frames_are_held_once(self, dup_pcap):
        read = list(read_trace(dup_pcap).packets[:200])
        packets = trace_io.PacketColumns.of(read)
        assert [len(chunk) for chunk in packets.chunks] == [sum(len(p.raw) for p in read)]
        assert list(packets) == read
        headers = [replace(p, payload=b"", raw=None) for p in read]
        bytesless = trace_io.PacketColumns.of(headers)
        assert list(bytesless.chunks) == [b""] and len(bytesless.spans) == 5
        assert list(bytesless) == headers

    def test_trace_without_bytes_writes_and_dedups_as_packets(self, tmp_path, dup_pcap):
        # Packets given without bytes are not a headers-only read: the
        # writer synthesizes their frames and dedup compares empty payloads.
        given = [replace(p, payload=b"", raw=None) for p in read_trace(dup_pcap).packets[:400]]
        trace = PacketTrace(given, "t")
        assert not trace.headers_only
        write_trace(trace, tmp_path / "got.pcap")
        reference_write_trace(trace, tmp_path / "want.pcap")
        assert (tmp_path / "got.pcap").read_bytes() == (tmp_path / "want.pcap").read_bytes()
        kept = list(dedup(trace).packets)
        assert kept == brute_force_dedup(given, 10_000) and len(kept) < len(given)

    @pytest.mark.parametrize(
        "bad, match",
        [
            ({"ts_us": 2**63}, r"ts_us 9223372036854775808 is not an integer in \[-9\d+, 9\d+\]"),
            ({"src_port": 70_000}, r"src_port 70000 is not an integer in \[0, 65535\]"),
            ({"dst_port": -1}, r"dst_port -1 is not an integer in \[0, 65535\]"),
            ({"protocol": 256}, r"protocol 256 is not an integer in \[0, 255\]"),
            ({"protocol": 1.5}, r"protocol 1.5 is not an integer in \[0, 255\]"),
            ({"tcp_flags": 256}, r"tcp_flags 256 is not an integer in \[0, 255\]"),
            ({"payload_len": -1}, r"payload_len -1 is not an integer in \[0, 4294967295\]"),
            ({"wire_len": 2**32}, r"wire_len 4294967296 is not an integer in \[0, 4294967295\]"),
        ],
        ids=["ts_past_int64", "src_port", "dst_port", "protocol", "float_protocol", "tcp_flags",
             "payload_len", "wire_len"],
    )
    def test_value_no_column_holds_is_refused_when_built(self, bad, match):
        good = _pkt(5)
        packets = [good, replace(good, **bad), good]
        with pytest.raises(ValueError, match=match):
            PacketTrace(packets, "t")
        with pytest.raises(ValueError, match=match):
            trace_io.PacketColumns.from_fields(
                [[getattr(p, name) for p in packets] for name in RawPacket.__dataclass_fields__]
            )


class TestReorder:
    def test_sorted_trace_unchanged(self):
        trace = _trace(_pkt(10), _pkt(20), _pkt(30))
        assert list(reorder(trace).packets) == list(trace.packets)

    def test_definition_case(self):
        trace = _trace(_pkt(30), _pkt(10), _pkt(20))
        assert [p.ts_us for p in reorder(trace).packets] == [10, 20, 30]

    def test_matches_reference_stable_sort(self, monkeypatch):
        rng = np.random.default_rng(3)
        # coarse timestamps force plenty of ties; the second trace is nearly
        # in order, so that blocks of a few rows are cut between stretches
        pkts = [
            _pkt(int(rng.integers(0, 50)), bytes([i % 256]), sport=i % 7 + 1)
            for i in range(1000)
        ]
        nearly = [replace(p, ts_us=i // 4 + int(rng.integers(0, 3))) for i, p in enumerate(pkts)]
        for trace in (pkts, nearly):
            decorated = sorted(enumerate(trace), key=lambda pair: (pair[1].ts_us, pair[0]))
            want = [p for _, p in decorated]
            for block in _BLOCKS:
                monkeypatch.setattr(trace_io, "_BLOCK", block)
                assert list(reorder(_trace(*trace)).packets) == want, block

    def test_idempotent_and_permutation(self, monkeypatch):
        rng = np.random.default_rng(4)
        trace = random_trace(rng, 300, sorted_ts=False)
        for block in _BLOCKS:
            monkeypatch.setattr(trace_io, "_BLOCK", block)
            once = reorder(trace)
            assert list(reorder(once).packets) == list(once.packets)
            assert sorted(p.ts_us for p in trace.packets) == [
                p.ts_us for p in once.packets
            ]
            assert sorted(map(repr, trace.packets)) == sorted(map(repr, once.packets))


def test_preprocess_state_does_not_grow_with_the_trace(tmp_path):
    # dedup holds the packets of about two windows and reorder the trace's
    # disorder, so beyond the columns of the trace read and the trace
    # cleaned, the traced peak of a capture 4 times as long, at the same
    # packet rate, grows only by a slice per run of rows kept in order (one
    # per copy dropped and per swap) and by the columns' room to grow: about
    # 10 bytes a packet, against 115 when dedup kept every packet and
    # reorder sorted every row.
    def held(n: int) -> tuple[int, int]:
        path = tmp_path / f"{n}.pcap"
        write_trace(PacketTrace(paced_packets(n), "t"), path)
        read = len(read_trace(path))
        gc.collect()
        tracemalloc.start()
        try:
            clean = reorder(dedup(read_trace(path)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(clean) < read and list(clean.packets) == sorted(
            clean.packets, key=lambda p: p.ts_us
        )
        row = sum(c.itemsize for c in (*clean.packets.header, *clean.packets.spans))
        return peak - row * (read + len(clean)), read

    (small, rows), (large, more_rows) = held(5_000), held(20_000)
    per_row = (large - small) / (more_rows - rows)
    assert per_row < 16, per_row


def test_dedup_state_does_not_grow_behind_a_time_far_ahead():
    # A packet stamped far ahead of the rest keeps the older generation of
    # dedup's entries; dedup then sweeps them one by one, so what it holds
    # beyond the columns grows by about 14 bytes a packet, against 109 if
    # the older generation were never swept.
    def held(n: int) -> tuple[int, int]:
        packets = paced_packets(n)
        packets.insert(0, replace(packets[0], ts_us=10**12, payload=b"late"))
        trace = PacketTrace(packets, "t")
        gc.collect()
        tracemalloc.start()
        try:
            clean = dedup(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(clean) == n + 1
        row = sum(c.itemsize for c in (*clean.packets.header, *clean.packets.spans))
        return peak - row * len(clean), len(trace)

    (small, rows), (large, more_rows) = held(5_000), held(20_000)
    per_row = (large - small) / (more_rows - rows)
    assert per_row < 24, per_row
