"""``flowlab preprocess`` and ``flowlab meter`` write the same bytes on every
supported Python.

Each supported version (3.10 up) runs both stages in a fresh interpreter on
the same input, a capture with duplicates and reordered packets, and every
file it writes must equal, byte for byte, what this interpreter writes. The
interpreters are found by path under pyenv's ``versions`` directory
(``$PYENV_ROOT``, by default ``~/.pyenv``), not by shim name, since a shim
resolves only the versions pyenv is set to; a version not installed there is
skipped by name. ``flowlab eval`` is left out: it needs numpy, which those
interpreters need not have, while the two stages here run without it.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from flowlab import cli

from conftest import corpus_path

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


def _stages(python: str, workdir: Path) -> dict[str, bytes]:
    """Run preprocess and meter with ``python`` in ``workdir``, on the input
    one level up; every file they write, by path, with its bytes."""
    workdir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for args in (
        ("preprocess", "../in.pcap", "clean.pcap"),
        ("meter", "clean.pcap", "../rules.json", "out"),
    ):
        proc = subprocess.run(
            [python, "-m", "flowlab.cli", *args],
            cwd=workdir, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
    return {str(p.relative_to(workdir)): p.read_bytes() for p in workdir.rglob("*") if p.is_file()}


@pytest.fixture(scope="module")
def expected(tmp_path_factory, dup_pcap):
    """This interpreter's outputs, and the directory that holds the input."""
    root = tmp_path_factory.mktemp("pythons")
    shutil.copy(dup_pcap, root / "in.pcap")
    argv = ["synth", str(corpus_path("early_divergence")), "3", str(root / "synth.pcap"),
            str(root / "truth.json"), "--rules-out", str(root / "rules.json")]
    assert cli.main(argv) == 0
    return root, _stages(sys.executable, root / "current")


@pytest.mark.parametrize("version", MINORS, ids=lambda v: "%d.%d" % v)
def test_stages_write_the_same_bytes(expected, version):
    python = INSTALLED.get(version)
    if python is None:
        pytest.skip("Python %d.%d is not installed under %s" % (*version, VERSIONS))
    root, want = expected
    got = _stages(str(python), root / ("%d.%d" % version))
    assert sorted(got) == sorted(want)
    assert len(want) > 30  # clean.pcap, cf.csv, 31 PF files and the reports
    differ = [name for name in want if got[name] != want[name]]
    assert not differ, differ
