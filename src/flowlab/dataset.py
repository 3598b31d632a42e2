"""Labeled dataset construction, auditing, and serialization.

Builds the complete-flow dataset (payload filter, duplicate-hash filter,
minority-class filter), derives partial-flow datasets by matching snapshots
to their parent flows, aligns datasets by flow hash for fair comparison,
and audits raw flow records for segmentation artifacts.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, replace
from itertools import islice
from typing import AbstractSet, Iterable

import numpy as np

from .errors import DatasetIOError, SchemaMismatchError, replacing
from .labeling import BENIGN, RuleSet, label_flow
from .meter import FEATURE_NAMES, INT_FEATURES, FlowRecord, SnapshotBlock, Trigger

CF_PROVENANCE = "CF"

_INT_FIELDS = {name for name, is_int in zip(FEATURE_NAMES, INT_FEATURES) if is_int}
_MAX_HASH = 0xFFFFFFFFFFFFFFFF
_BLOCK_ROWS = 4096


@dataclass(frozen=True, eq=False)
class Dataset:
    """An immutable labeled feature table with provenance.

    Row ``i`` is the flow with hash ``hash64[i]`` (uint64), features
    ``X[i]`` (float64, one column per ``feature_schema`` name) and label
    ``labels[i]`` (a str). The three arrays are read-only; any array-like of
    the right shape (any empty ``X`` for no rows) is accepted and converted.
    Provenance is "CF" for complete flows or the trigger string ("PC=5",
    "FD=100") for partial flows. Flow hashes are unique within a dataset.
    """

    provenance: str
    hash64: np.ndarray
    X: np.ndarray
    labels: np.ndarray
    feature_schema: tuple[str, ...] = FEATURE_NAMES

    def __post_init__(self) -> None:
        hash64 = np.asarray(self.hash64, dtype=np.uint64)
        n = len(hash64)
        labels = np.asarray(self.labels, dtype=object)
        if hash64.ndim != 1 or labels.shape != (n,):
            raise ValueError(f"{labels.shape} labels for {hash64.shape} flow hashes")
        shape = (n, len(self.feature_schema))
        X = np.asarray(self.X, dtype=np.float64)
        if X.size == 0:
            X = X.reshape(shape)
        elif X.shape != shape:
            raise ValueError(f"X of shape {X.shape}, expected {shape}")
        for name, array in (("hash64", hash64), ("X", X), ("labels", labels)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __len__(self) -> int:
        return len(self.hash64)

    def __eq__(self, other) -> bool:
        # Equality is content-level. Empty datasets carry no provenance
        # rows and compare equal regardless of it.
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.feature_schema == other.feature_schema
            and (self.provenance == other.provenance or not (len(self) or len(other)))
            and np.array_equal(self.hash64, other.hash64)
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.X, other.X)
        )

    __hash__ = None  # type: ignore[assignment]

    def restrict(self, keys: AbstractSet[int]) -> Dataset:
        """The rows whose flow hash is in ``keys``, in their order."""
        rows = np.fromiter((h in keys for h in self.hash64.tolist()), bool, len(self))
        return replace(self, hash64=self.hash64[rows], X=self.X[rows], labels=self.labels[rows])

    def hashes(self) -> frozenset[int]:
        return frozenset(self.hash64.tolist())

    def label_counts(self) -> dict[str, int]:
        return dict(Counter(self.labels.tolist()))


def build_cf(
    records: Iterable[FlowRecord], rules: RuleSet, min_class_count: int = 50
) -> Dataset:
    """Label records and apply the complete-flow filters.

    Drops flows with zero total payload, keeps only the first record for
    any repeated flow hash, and removes every class with fewer surviving
    flows than ``min_class_count``.
    """
    survivors: list[tuple[FlowRecord, str]] = []
    seen: set[int] = set()
    for record in records:
        if record.features.bidirectional_payload_bytes == 0:
            continue
        if record.id.hash64 in seen:
            continue
        seen.add(record.id.hash64)
        survivors.append((record, label_flow(record, rules)))

    counts = Counter(label for _, label in survivors)
    kept = [(r, label) for r, label in survivors if counts[label] >= min_class_count]
    return Dataset(
        CF_PROVENANCE,
        [r.id.hash64 for r, _ in kept],
        [r.features for r, _ in kept],
        [label for _, label in kept],
    )


def build_pf(snapshots: SnapshotBlock, cf: Dataset, trigger: Trigger) -> Dataset:
    """Collect one snapshot per parent flow from ``trigger``'s snapshots.

    Only snapshots whose parent survived the complete-flow filters are
    kept, each parent's first; each inherits its parent's label.
    """
    if cf.provenance != CF_PROVENANCE:
        raise ValueError(f"parent dataset has provenance {cf.provenance!r}, not CF")
    parent_labels = dict(zip(cf.hash64.tolist(), cf.labels.tolist()))
    rows: list[int] = []
    hashes: dict[int, str] = {}  # kept parent hash -> label, in row order
    for i, parent in enumerate(snapshots.parents):
        h = parent.hash64
        if h in parent_labels and h not in hashes:
            hashes[h] = parent_labels[h]
            rows.append(i)
    values = np.frombuffer(snapshots.values, dtype=np.float64)
    return Dataset(
        str(trigger),
        list(hashes),
        values.reshape(-1, len(FEATURE_NAMES))[rows],
        list(hashes.values()),
    )


def align(cf: Dataset, pf: Dataset) -> tuple[Dataset, Dataset]:
    """Restrict both datasets to their common flow hashes.

    When the PF side was built against this CF (the normal case) the PF
    side keeps every row.
    """
    if cf.provenance != CF_PROVENANCE:
        raise ValueError(f"first dataset has provenance {cf.provenance!r}, not CF")
    common = cf.hashes() & pf.hashes()
    return cf.restrict(common), pf.restrict(common)


@dataclass(frozen=True)
class AuditReport:
    """Diagnostic tallies over labeled, unfiltered flow records."""

    zpl_counts: dict[str, int]
    payload_counts: dict[str, int]
    fin_gt2_benign: int
    fin_gt2_attack: int
    rst_gt2_benign: int
    rst_gt2_attack: int
    piat_near_idle: int
    repeated_key_groups: int

    @property
    def fin_gt2_total(self) -> int:
        return self.fin_gt2_benign + self.fin_gt2_attack

    @property
    def rst_gt2_total(self) -> int:
        return self.rst_gt2_benign + self.rst_gt2_attack

    def to_dict(self) -> dict:
        return {
            "zpl_counts": dict(sorted(self.zpl_counts.items())),
            "payload_counts": dict(sorted(self.payload_counts.items())),
            "fin_gt2": {
                "benign": self.fin_gt2_benign,
                "attack": self.fin_gt2_attack,
                "total": self.fin_gt2_total,
            },
            "rst_gt2": {
                "benign": self.rst_gt2_benign,
                "attack": self.rst_gt2_attack,
                "total": self.rst_gt2_total,
            },
            "piat_near_idle": self.piat_near_idle,
            "repeated_key_groups": self.repeated_key_groups,
        }

    def to_text(self) -> str:
        lines = ["label                     payload>0   payload=0"]
        labels = sorted(set(self.zpl_counts) | set(self.payload_counts))
        for label in labels:
            lines.append(
                f"{label:<25} {self.payload_counts.get(label, 0):>9} "
                f"{self.zpl_counts.get(label, 0):>11}"
            )
        lines.append("")
        lines.append(
            f"flows with FIN > 2: benign {self.fin_gt2_benign}, "
            f"attack {self.fin_gt2_attack}, total {self.fin_gt2_total}"
        )
        lines.append(
            f"flows with RST > 2: benign {self.rst_gt2_benign}, "
            f"attack {self.rst_gt2_attack}, total {self.rst_gt2_total}"
        )
        lines.append(f"flows with max PIAT marginally below idle: {self.piat_near_idle}")
        lines.append(f"repeated five-tuple groups: {self.repeated_key_groups}")
        return "\n".join(lines)


def audit(
    records: Iterable[FlowRecord], rules: RuleSet, idle_timeout_s: float
) -> AuditReport:
    """Tally segmentation artifacts over raw (unfiltered) records.

    "Marginally below the idle timeout" means a flow's maximum packet
    inter-arrival time falls in [0.8 * idle, idle).
    """
    zpl: dict[str, int] = {}
    payload: dict[str, int] = {}
    fin, rst = [0, 0], [0, 0]  # [attack, benign]
    near_idle = 0
    key_counts: dict = {}
    lo_ms = 0.8 * idle_timeout_s * 1000
    hi_ms = idle_timeout_s * 1000

    for record in records:
        label = label_flow(record, rules)
        fv = record.features
        bucket = zpl if fv.bidirectional_payload_bytes == 0 else payload
        bucket[label] = bucket.get(label, 0) + 1
        if fv.bidirectional_fin_count > 2:
            fin[label == BENIGN] += 1
        if fv.bidirectional_rst_count > 2:
            rst[label == BENIGN] += 1
        if lo_ms <= fv.bidirectional_max_piat_ms < hi_ms:
            near_idle += 1
        key_counts[record.id.key] = key_counts.get(record.id.key, 0) + 1

    return AuditReport(
        zpl_counts=zpl,
        payload_counts=payload,
        fin_gt2_benign=fin[True],
        fin_gt2_attack=fin[False],
        rst_gt2_benign=rst[True],
        rst_gt2_attack=rst[False],
        piat_near_idle=near_idle,
        repeated_key_groups=sum(1 for n in key_counts.values() if n >= 2),
    )


@dataclass(frozen=True)
class LabelStats:
    count: int
    min_duration_ms: float
    mean_duration_ms: float
    max_duration_ms: float
    min_packets: int
    mean_packets: float
    max_packets: int


@dataclass(frozen=True)
class DistributionSummary:
    """Per-label duration/packet statistics plus benign/anomaly totals."""

    per_label: dict[str, LabelStats]
    benign_total: int
    anomaly_total: int
    total: int

    def to_dict(self) -> dict:
        return {
            "per_label": {
                label: vars(stats) for label, stats in sorted(self.per_label.items())
            },
            "totals": {
                "benign": self.benign_total,
                "anomaly": self.anomaly_total,
                "all": self.total,
            },
        }

    def to_text(self) -> str:
        header = (
            f"{'label':<25} {'count':>8} {'min dur':>10} {'mean dur':>12} "
            f"{'max dur':>10} {'min pkt':>8} {'mean pkt':>9} {'max pkt':>8}"
        )
        lines = [header]
        for label, s in sorted(self.per_label.items()):
            lines.append(
                f"{label:<25} {s.count:>8} {s.min_duration_ms:>10.2f} "
                f"{s.mean_duration_ms:>12.2f} {s.max_duration_ms:>10.2f} "
                f"{s.min_packets:>8} {s.mean_packets:>9.2f} {s.max_packets:>8}"
            )
        lines.append(
            f"totals: benign {self.benign_total}, anomaly {self.anomaly_total}, "
            f"all {self.total}"
        )
        return "\n".join(lines)


def distribution(ds: Dataset) -> DistributionSummary:
    """Count/min/mean/max of duration and packet count, per label."""
    durations_col = ds.X[:, ds.feature_schema.index("duration_ms")].tolist()
    packets_col = ds.X[:, ds.feature_schema.index("bidirectional_packets")].tolist()
    groups: dict[str, list[int]] = {}
    for i, label in enumerate(ds.labels.tolist()):
        groups.setdefault(label, []).append(i)

    per_label = {}
    for label, rows in groups.items():
        # Summed left to right in Python: a pairwise np.sum can change the last bit.
        durations = [durations_col[i] for i in rows]
        packets = [int(packets_col[i]) for i in rows]
        per_label[label] = LabelStats(
            count=len(rows),
            min_duration_ms=min(durations),
            mean_duration_ms=sum(durations) / len(durations),
            max_duration_ms=max(durations),
            min_packets=min(packets),
            mean_packets=sum(packets) / len(packets),
            max_packets=max(packets),
        )
    benign_total = sum(s.count for label, s in per_label.items() if label == BENIGN)
    total = len(ds)
    return DistributionSummary(
        per_label=per_label,
        benign_total=benign_total,
        anomaly_total=total - benign_total,
        total=total,
    )


def _cell(text: str) -> str:
    """A CSV cell for ``text``: quoted, with ``"`` doubled, when it holds a
    comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(ds: Dataset, path) -> None:
    """Write a dataset as CSV with full-precision floats.

    Columns are the feature schema followed by label, flow_hash, and
    provenance. Integer features are written as integers, floats as their
    ``repr``. A cell holding a comma, a quote, ``\\r`` or ``\\n`` is quoted.
    Rows are formatted a block at a time, each by one ``%`` template.
    """
    header = [*ds.feature_schema, "label", "flow_hash", "provenance"]
    features = ",".join("%d" if name in _INT_FIELDS else "%r" for name in ds.feature_schema)
    template = f"{features},%s,%d,{_cell(ds.provenance).replace('%', '%%')}\n"
    labels = {label: _cell(label) for label in set(ds.labels.tolist())}
    try:
        with replacing(path, encoding="utf-8", newline="") as fh:
            fh.write(",".join(map(_cell, header)) + "\n")
            for start in range(0, len(ds), _BLOCK_ROWS):
                rows = slice(start, start + _BLOCK_ROWS)
                cells = zip(ds.X[rows].tolist(), ds.labels[rows], ds.hash64[rows].tolist())
                fh.write("".join([template % (*x, labels[label], h) for x, label, h in cells]))
    except OSError as exc:
        raise DatasetIOError(f"cannot write dataset {path}: {exc}") from exc


def read_csv(path) -> Dataset:
    """Read a dataset written by write_csv.

    Raises SchemaMismatchError when the header does not carry the expected
    feature schema, DatasetIOError on unreadable or inconsistent files and
    on a cell that is no integer in an integer column or no finite number in
    a float column. Rows are parsed a block at a time, so only one block's
    cell strings are held at once.
    """
    expected = list(FEATURE_NAMES) + ["label", "flow_hash", "provenance"]
    parsers = [int if name in _INT_FIELDS else float for name in FEATURE_NAMES]

    def parse(name: str, parser, cells) -> list:
        try:
            return list(map(parser, cells))
        except ValueError as exc:
            raise DatasetIOError(f"{path}: column {name}: {exc}") from None

    hashes: list[int] = []
    labels: list[str] = []
    blocks: list[np.ndarray] = []
    provenances: set[str] = set()
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaMismatchError(f"{path}: missing header") from None
            if header != expected:
                raise SchemaMismatchError(
                    f"{path}: header does not match the feature schema"
                )
            while block := list(islice(reader, _BLOCK_ROWS)):
                for row in block:
                    if len(row) != len(expected):
                        raise DatasetIOError(f"{path}: row with {len(row)} cells")
                columns = list(zip(*block))
                parsed = [parse(*args) for args in zip(FEATURE_NAMES, parsers, columns)]
                try:
                    blocks.append(np.array(parsed, dtype=np.float64).T)
                except OverflowError:
                    raise DatasetIOError(f"{path}: a feature value is out of range") from None
                finite = np.isfinite(blocks[-1]).all(axis=0)
                if not finite.all():
                    name = FEATURE_NAMES[int(finite.argmin())]
                    raise DatasetIOError(f"{path}: column {name}: a value is not finite")
                labels += columns[-3]
                hashes += parse("flow_hash", int, columns[-2])
                provenances.update(columns[-1])
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetIOError(f"cannot read dataset {path}: {exc}") from exc

    if len(provenances) > 1:
        raise DatasetIOError(f"{path}: mixed provenance values")
    repeated = [h for h, count in Counter(hashes).items() if count > 1]
    if repeated:
        raise DatasetIOError(f"{path}: duplicate flow hash {repeated[0]}")
    if hashes and not (min(hashes) >= 0 and max(hashes) <= _MAX_HASH):
        raise DatasetIOError(f"{path}: a flow hash is not a 64-bit value")
    return Dataset(
        provenances.pop() if provenances else CF_PROVENANCE,
        hashes,
        np.concatenate(blocks) if blocks else (),
        labels,
    )
