"""The whole pipeline against ``reference_pipeline``: pcap bytes in, the CSV
files of ``flowlab preprocess`` then ``flowlab meter`` out."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from flowlab import cli
from flowlab.labeling import RuleSet
from flowlab.meter import FEATURE_NAMES, MeterConfig

from reference import (
    build_pcap,
    build_tcp_frame,
    build_udp_frame,
    reference_meter,
    reference_pipeline,
    reference_read_trace,
    whole_trace_dedup,
    whole_trace_reorder,
)

# Two clients and a server, so six-tuples return after their flows end; a
# rule per client, one only for UDP, so that classes are small enough for
# the minority filter to remove.
_HOSTS = (("10.0.0.1", 1000), ("10.0.0.2", 1001), ("10.0.0.9", 80))
_RULES = {
    "rules": [
        {"label": "DOS", "src_ips": ["10.0.0.2"]},
        {"label": "SCAN", "src_ips": ["10.0.0.1"], "protocol": 17},
    ]
}
_TCP_FLAGS = (0x10, 0x10, 0x18, 0x02, 0x12, 0x11, 0x19, 0x04, 0x14)


@st.composite
def _cases(draw):
    """A pcap's bytes, a meter config and a minimum class count. Some
    packets are copied up to 20 ms later (within the dedup window or past
    it), and some records are swapped in the file, so that the trace is out
    of order."""
    config = MeterConfig(
        idle_timeout_s=draw(st.integers(1, 20)) / 1000,
        active_timeout_s=draw(st.integers(5, 60)) / 1000,
        fin_rst_expiration=draw(st.booleans()),
        pc_triggers=draw(st.frozensets(st.integers(1, 6), max_size=3)),
        fd_triggers_ms=draw(st.frozensets(st.integers(1, 10), max_size=2)),
        fd_tolerance=draw(st.sampled_from((0.0, 0.2))),
        byte_triggers=draw(st.frozensets(st.integers(60, 1500), max_size=2)),
    )
    packet = st.tuples(
        st.integers(0, 3000),
        st.permutations(range(len(_HOSTS))),
        st.sampled_from((6, 6, 17)),
        st.sampled_from(_TCP_FLAGS),
        st.integers(0, 40),
    )
    records, ts = [], 0
    for i, (gap, (a, b, _), protocol, flags, size) in enumerate(
        draw(st.lists(packet, min_size=1, max_size=150))
    ):
        ts += gap
        (src, sport), (dst, dport) = _HOSTS[a], _HOSTS[b]
        payload = bytes([i % 256]) * size
        if protocol == 6:
            frame = build_tcp_frame(src, dst, sport, dport, flags, payload)
        else:
            frame = build_udp_frame(src, dst, sport, dport, payload)
        records.append((ts, frame))
    copies = st.tuples(st.integers(0, len(records) - 1), st.integers(0, 20_000))
    for i, delay in draw(st.lists(copies, max_size=30)):
        records.insert(i + 1, (records[i][0] + delay, records[i][1]))
    swaps = st.tuples(st.integers(0, len(records) - 1), st.integers(0, len(records) - 1))
    for i, j in draw(st.lists(swaps, max_size=10)):
        records[i], records[j] = records[j], records[i]
    return build_pcap(records), config, draw(st.integers(0, 3))


def _program(tmp: Path, blob: bytes, config: MeterConfig, min_class_count: int) -> dict:
    """The CSV files that ``flowlab preprocess`` then ``flowlab meter``
    write for ``blob``, by name."""
    (tmp / "in.pcap").write_bytes(blob)
    (tmp / "rules.json").write_text(json.dumps(_RULES))
    (tmp / "meter.json").write_text(json.dumps(config.to_dict()))
    assert cli.main(["preprocess", str(tmp / "in.pcap"), str(tmp / "clean.pcap")]) == 0
    argv = ["meter", str(tmp / "clean.pcap"), str(tmp / "rules.json"), str(tmp / "out"),
            "--config", str(tmp / "meter.json"), "--min-class-count", str(min_class_count)]
    assert cli.main(argv) == 0
    return {
        name: (tmp / "out" / name).read_text(encoding="utf-8")
        for name in os.listdir(tmp / "out")
        if name.endswith(".csv")
    }


# The float features whose last bits depend on the plan of the arithmetic:
# the reference meter takes means of gaps and standard deviations over
# stored lists, the meter from running sums (they differ by up to about
# 4e-14 of the value).
_PLAN_DEPENDENT = {
    f"{scope}_{stat}"
    for scope in ("bidirectional", "src2dst", "dst2src")
    for stat in ("mean_piat_ms", "stddev_piat_ms", "stddev_ps")
}


def _assert_same_files(got: dict, want: dict) -> None:
    """Every byte equal, but for a cell of a ``_PLAN_DEPENDENT`` feature,
    which must be the ``repr`` of a value within 1e-9 of the reference's
    (the tolerance of ``assert_meter_equal``)."""
    assert sorted(got) == sorted(want)
    width = len(FEATURE_NAMES)
    for name, text in want.items():
        got_lines, want_lines = got[name].splitlines(True), text.splitlines(True)
        assert len(got_lines) == len(want_lines), (name, got[name], text)
        assert got_lines[0] == want_lines[0], name
        for line, wanted in zip(got_lines[1:], want_lines[1:]):
            *cells, rest = line.split(",", width)
            *wanted_cells, wanted_rest = wanted.split(",", width)
            assert rest == wanted_rest, (name, line, wanted)
            for feature, cell, want_cell in zip(FEATURE_NAMES, cells, wanted_cells):
                if cell == want_cell:
                    continue
                x, y = float(cell), float(want_cell)
                close = abs(x - y) <= 1e-9 * max(abs(x), abs(y), 1.0)
                assert feature in _PLAN_DEPENDENT and cell == repr(x) and close, (
                    name, feature, cell, want_cell
                )


def _collides(pcap: Path, config: MeterConfig) -> bool:
    """Whether two flows of the cleaned trace share a ``FlowId``: one key,
    one start microsecond."""
    trace = whole_trace_reorder(whole_trace_dedup(reference_read_trace(pcap)))
    records, _ = reference_meter(list(trace.packets), config)
    return len({r.id for r in records}) < len(records)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_cases())
def test_pipeline_writes_the_reference_files(case):
    blob, config, min_class_count = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        got = _program(tmp, blob, config, min_class_count)
        assume(not _collides(tmp / "in.pcap", config))
        rules = RuleSet.from_dict(_RULES)
        want = reference_pipeline(tmp / "in.pcap", rules, config, min_class_count)
    _assert_same_files(got, want)


# One key, two flows that start at 100 µs: an RST with a payload ends the
# first after one packet, and a three-packet flow follows. They share a
# ``FlowId``, and the complete-flow dataset keeps the first.
_SHARED_FLOW_ID = [
    (100, build_tcp_frame("10.0.0.2", "10.0.0.9", 1001, 80, 0x14, b"x")),
    (100, build_tcp_frame("10.0.0.2", "10.0.0.9", 1001, 80, 0x18, b"ab")),
    (150, build_tcp_frame("10.0.0.9", "10.0.0.2", 80, 1001, 0x18, b"cd")),
    (200, build_tcp_frame("10.0.0.2", "10.0.0.9", 1001, 80, 0x10)),
]


@pytest.mark.parametrize(
    "pc",
    [
        # Both flows fire PC=1 at 100 µs, the first flow first, so the first
        # row of the flow hash is the first flow's own snapshot.
        1,
        # Only the second flow fires PC=2; its snapshot is paired with the
        # first flow's record, which the reference does not do.
        pytest.param(2, marks=pytest.mark.xfail(
            strict=True,
            reason="ROADMAP item 17: two flows on one key that start in the same microsecond"
            " share a FlowId, so build_pf pairs the second flow's snapshots with the first"
            " flow's record",
        )),
    ],
)
def test_flows_that_share_a_flow_id(tmp_path, pc):
    config = MeterConfig(pc_triggers={pc}, fd_triggers_ms=())
    got = _program(tmp_path, build_pcap(_SHARED_FLOW_ID), config, 0)
    assert _collides(tmp_path / "in.pcap", config)
    want = reference_pipeline(tmp_path / "in.pcap", RuleSet.from_dict(_RULES), config, 0)
    _assert_same_files(got, want)
