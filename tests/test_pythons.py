"""``flowlab preprocess`` and ``flowlab meter`` write the same bytes on every
supported Python.

Each supported version (3.10 up) runs both stages in a fresh interpreter on
the same two inputs, and every file it writes must equal, byte for byte,
what this interpreter writes. One input is a capture with duplicates and
reordered packets, whose frames ``read_trace`` decodes in one read; the
other mixes such frames with VLAN-tagged, IPv6 and IPv4-with-options
frames, which take its layered parse. The
interpreters are found by path under pyenv's ``versions`` directory
(``$PYENV_ROOT``, by default ``~/.pyenv``), not by shim name, since a shim
resolves only the versions pyenv is set to; a version not installed there is
skipped by name. ``flowlab eval`` is left out: it needs numpy, which those
interpreters need not have, while the two stages here run without it.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from flowlab import cli
from flowlab.trace_io import read_trace

from conftest import corpus_path
from reference import build_pcap

SRC = Path(__file__).resolve().parent.parent / "src"
VERSIONS = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"


def _installed() -> dict[tuple[int, int], Path]:
    """The newest installed interpreter of each minor version, by path."""
    found: dict[tuple[int, int], tuple[int, Path]] = {}
    for entry in VERSIONS.glob("*"):
        match = re.fullmatch(r"3\.(\d+)\.(\d+)", entry.name)
        python = entry / "bin" / "python"
        if match and python.exists():
            minor, patch = map(int, match.groups())
            if (3, minor) not in found or found[3, minor][0] < patch:
                found[3, minor] = (patch, python)
    return {version: python for version, (_, python) in found.items()}


INSTALLED = _installed()
MINORS = sorted({(3, 10), (3, 11), (3, 12), (3, 13)} | {v for v in INSTALLED if v >= (3, 10)})


# Per input, the capture and the rules one level up, and the meter's
# minimum class count; the mixed capture holds 24 flows per class.
INPUTS = {"dup": ("in.pcap", "rules.json", "50"), "mixed": ("mixed.pcap", "mixed_rules.json", "1")}

# Four templates of 12 flows: IPv4 and IPv6, TCP and UDP, two classes.
MIXED_SPEC = {
    "templates": [
        {
            "label": label,
            "flows": 12,
            "packets": [4, 9],
            "payload": [0, 300],
            "iat_us": [500, 9000],
            "client_ips": [client],
            "server_ips": [server],
            "server_ports": [80, 443],
            "protocol": protocol,
            "start_us": [0, 200000],
        }
        for label, client, server, protocol in (
            ("BENIGN", "10.1.0.0/24", "192.168.7.1", 17),
            ("ATTACK", "10.2.0.0/24", "192.168.7.1", 6),
            ("BENIGN", "2001:db8:1::/120", "2001:db8::7", 6),
            ("ATTACK", "2001:db8:2::/120", "2001:db8::7", 17),
        )
    ]
}


def _layered(frame: bytes, kind: int) -> bytes:
    """``frame``, a synthesized IPv4 or IPv6 one, as it is (``kind`` 0),
    behind a VLAN tag (1), or with 4 bytes of IPv4 options or an IPv6
    hop-by-hop header (2)."""
    if kind == 1:
        return frame[:12] + b"\x81\x00\x00\x07" + frame[12:]
    if kind == 2 and frame[14] == 0x45:
        total = int.from_bytes(frame[16:18], "big") + 4
        return b"".join((frame[:14], b"\x46", frame[15:16], total.to_bytes(2, "big"),
                         frame[18:34], b"\x01\x01\x01\x00", frame[34:]))
    if kind == 2:
        length = int.from_bytes(frame[18:20], "big") + 8
        hop_by_hop = frame[20:21] + b"\x00\x01\x04" + bytes(4)
        return b"".join((frame[:18], length.to_bytes(2, "big"), b"\x00", frame[21:54],
                         hop_by_hop, frame[54:]))
    return frame


def _stages(python: str, workdir: Path) -> dict[str, bytes]:
    """Run preprocess and meter with ``python`` in ``workdir``, on each input
    one level up; every file they write, by path, with its bytes."""
    workdir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for name, (capture, rules, min_count) in INPUTS.items():
        for args in (
            ("preprocess", f"../{capture}", f"{name}.pcap"),
            ("meter", f"{name}.pcap", f"../{rules}", name, "--min-class-count", min_count),
        ):
            proc = subprocess.run(
                [python, "-m", "flowlab.cli", *args],
                cwd=workdir, env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
    return {str(p.relative_to(workdir)): p.read_bytes() for p in workdir.rglob("*") if p.is_file()}


@pytest.fixture(scope="module")
def expected(tmp_path_factory, dup_pcap):
    """This interpreter's outputs, and the directory that holds the inputs."""
    root = tmp_path_factory.mktemp("pythons")
    shutil.copy(dup_pcap, root / "in.pcap")
    argv = ["synth", str(corpus_path("early_divergence")), "3", str(root / "synth.pcap"),
            str(root / "truth.json"), "--rules-out", str(root / "rules.json")]
    assert cli.main(argv) == 0
    (root / "mixed.json").write_text(json.dumps(MIXED_SPEC))
    argv = ["synth", str(root / "mixed.json"), "5", str(root / "plain.pcap"),
            str(root / "mixed_truth.json"), "--rules-out", str(root / "mixed_rules.json")]
    assert cli.main(argv) == 0
    packets = read_trace(root / "plain.pcap").packets
    frames = [(p.ts_us, _layered(p.raw, max(p.src_port, p.dst_port) % 3)) for p in packets]
    (root / "mixed.pcap").write_bytes(build_pcap(frames))
    return root, _stages(sys.executable, root / "current")


@pytest.mark.parametrize("version", MINORS, ids=lambda v: "%d.%d" % v)
def test_stages_write_the_same_bytes(expected, version):
    python = INSTALLED.get(version)
    if python is None:
        pytest.skip("Python %d.%d is not installed under %s" % (*version, VERSIONS))
    root, want = expected
    got = _stages(str(python), root / ("%d.%d" % version))
    assert sorted(got) == sorted(want)
    assert len(want) > 60  # per input, its clean pcap, cf.csv, 31 PF files and the reports
    differ = [name for name in want if got[name] != want[name]]
    assert not differ, differ
