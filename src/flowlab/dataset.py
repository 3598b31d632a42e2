"""Labeled dataset construction, auditing, and serialization.

Builds the complete-flow dataset (payload filter, duplicate-hash filter,
minority-class filter), derives partial-flow datasets by matching snapshots
to their parent flows, aligns datasets by flow hash for fair comparison,
and audits raw flow records for segmentation artifacts.
"""

from __future__ import annotations

import csv
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import islice
from operator import add
from typing import AbstractSet, Iterable

from .errors import DatasetIOError, SchemaMismatchError, replacing
from .labeling import BENIGN, label_flow  # cli labels via this binding, which perfbench wraps
from .meter import FEATURE_NAMES, INT_FEATURES, FlowRecord, SnapshotBlock, Trigger, take_rows

CF_PROVENANCE = "CF"

_INT_FIELDS = {name for name, is_int in zip(FEATURE_NAMES, INT_FEATURES) if is_int}
_PAYLOAD = FEATURE_NAMES.index("bidirectional_payload_bytes")
# The feature columns that ``audit`` reads, in the order it reads them.
_AUDITED = [
    FEATURE_NAMES.index(f"bidirectional_{name}")
    for name in ("payload_bytes", "fin_count", "rst_count", "max_piat_ms")
]
_BLOCK_ROWS = 256


class Dataset:
    """An immutable labeled feature table with provenance.

    Row ``i`` is the flow with hash ``hash64[i]`` (uint64), features
    ``X[i]`` (float64, one column per ``feature_schema`` name) and label
    ``labels[i]`` (a str). The rows are kept as ``SnapshotBlock`` keeps
    them: features row after row in one ``array('d')``, hashes in an
    ``array('Q')`` and labels in a tuple, so building, writing and
    summarising a dataset needs no numpy. ``X``, ``hash64`` and ``labels``
    are read-only numpy views of them (labels an object array), made on
    first use.

    ``X`` may be any iterable of rows of numbers (any empty one for no
    rows), or an ``array('d')`` of the rows laid end to end; an
    ``array('d')`` or ``array('Q')`` is kept, not copied. Provenance is "CF"
    for complete flows or the trigger string ("PC=5", "FD=100") for partial
    flows. Flow hashes are unique within a dataset.
    """

    def __init__(
        self,
        provenance: str,
        hash64: Iterable[int],
        X,
        labels: Iterable[str],
        feature_schema: tuple[str, ...] = FEATURE_NAMES,
    ) -> None:
        hashes = hash64 if _is_array(hash64, "Q") else array("Q", hash64)
        labels = tuple(labels)
        n, width = len(hashes), len(feature_schema)
        if len(labels) != n:
            raise ValueError(f"{len(labels)} labels for {n} flow hashes")
        values = X if _is_array(X, "d") else array("d")
        shape = f"expected shape ({n}, {width})"
        if values is not X:
            for i, row in enumerate(X):
                try:
                    values.extend(map(float, row))
                except TypeError as exc:
                    raise ValueError(f"X row {i}: {exc}; {shape}") from None
                if len(values) != (i + 1) * width:
                    raise ValueError(f"X row {i} has {len(values) - i * width} values; {shape}")
        if len(values) != n * width:
            raise ValueError(f"X of {len(values)} values; {shape}")
        self.__dict__.update(
            provenance=provenance,
            feature_schema=tuple(feature_schema),
            _hashes=hashes,
            _values=values,
            _labels=labels,
        )

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"Dataset is immutable: cannot set {name}")

    @cached_property
    def X(self):
        return _view(self._values, "float64").reshape(len(self), len(self.feature_schema))

    @cached_property
    def hash64(self):
        return _view(self._hashes, "uint64")

    @cached_property
    def labels(self):
        import numpy as np

        labels = np.empty(len(self), dtype=object)
        labels[:] = self._labels
        labels.flags.writeable = False
        return labels

    def __len__(self) -> int:
        return len(self._hashes)

    def __eq__(self, other) -> bool:
        # Equality is content-level. Empty datasets carry no provenance
        # rows and compare equal regardless of it.
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.feature_schema == other.feature_schema
            and (self.provenance == other.provenance or not (len(self) or len(other)))
            and self._hashes == other._hashes
            and self._labels == other._labels
            and self._values == other._values
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Dataset({self.provenance!r}, {len(self)} rows)"

    def replace(self, **changes) -> Dataset:
        """This dataset with the constructor arguments ``changes`` instead."""
        fields = dict(
            provenance=self.provenance,
            hash64=self._hashes,
            X=self._values,
            labels=self._labels,
            feature_schema=self.feature_schema,
        )
        return Dataset(**{**fields, **changes})

    def restrict(self, keys: AbstractSet[int]) -> Dataset:
        """The rows whose flow hash is in ``keys``, in their order."""
        rows = [i for i, h in enumerate(self._hashes) if h in keys]
        return self.replace(
            hash64=array("Q", [self._hashes[i] for i in rows]),
            X=take_rows(self._values, len(self.feature_schema), rows),
            labels=[self._labels[i] for i in rows],
        )

    def hashes(self) -> frozenset[int]:
        return frozenset(self._hashes)

    def label_counts(self) -> dict[str, int]:
        return dict(Counter(self._labels))


def _is_array(value, typecode: str) -> bool:
    return type(value) is array and value.typecode == typecode


def _view(values: array, dtype: str):
    """A read-only numpy view of ``values``."""
    import numpy as np

    view = np.frombuffer(values, dtype=dtype)
    view.flags.writeable = False
    return view


def _first_rows(
    provenance: str, block: SnapshotBlock, labels: Iterable[str | None], min_class_count: int = 0
) -> Dataset:
    """The dataset of ``block``'s first row of each flow hash among the rows
    with a label (not None), less every class with fewer of them than
    ``min_class_count``. The kept rows are copied out of the block's array.
    Raises ValueError when ``block`` and ``labels`` differ in length."""
    first: dict[int, tuple[int, str]] = {}  # flow hash -> (row, label), in row order
    for i, ((fid, _), label) in enumerate(zip(block.flows, labels, strict=True)):
        if label is not None and fid.hash64 not in first:
            first[fid.hash64] = (i, label)
    counts = Counter(label for _, label in first.values())
    kept = {h: row for h, row in first.items() if counts[row[1]] >= min_class_count}
    return Dataset(
        provenance,
        kept,
        take_rows(block.values, len(FEATURE_NAMES), [i for i, _ in kept.values()]),
        [label for _, label in kept.values()],
    )


def build_cf(
    records: SnapshotBlock | Iterable[FlowRecord], labels: Iterable[str], min_class_count: int = 50
) -> Dataset:
    """Apply the complete-flow filters to records, each with its label.

    Drops flows with zero total payload, keeps only the first record for
    any repeated flow hash, and removes every class with fewer surviving
    flows than ``min_class_count``. ``records`` is the meter's block, or
    ``FlowRecord``s that are put in one. Raises ValueError when ``records``
    and ``labels`` differ in length.
    """
    block = records if isinstance(records, SnapshotBlock) else SnapshotBlock(records)
    payload = block.values[_PAYLOAD :: len(FEATURE_NAMES)]
    labels = (label if p else None for p, label in zip(payload, labels, strict=True))
    return _first_rows(CF_PROVENANCE, block, labels, min_class_count)


def build_pf(snapshots: SnapshotBlock, cf: Dataset, trigger: Trigger) -> Dataset:
    """Collect one snapshot per parent flow from ``trigger``'s snapshots.

    Only snapshots whose parent survived the complete-flow filters are
    kept, each parent's first; each inherits its parent's label.
    """
    if cf.provenance != CF_PROVENANCE:
        raise ValueError(f"parent dataset has provenance {cf.provenance!r}, not CF")
    parent_labels = dict(zip(cf._hashes, cf._labels))
    labels = (parent_labels.get(fid.hash64) for fid, _ in snapshots.flows)
    return _first_rows(str(trigger), snapshots, labels)


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
    records: SnapshotBlock | Iterable[FlowRecord], labels: Iterable[str], idle_timeout_s: float
) -> AuditReport:
    """Tally segmentation artifacts over raw (unfiltered) records and their labels.

    "Marginally below the idle timeout" means a flow's maximum packet
    inter-arrival time falls in [0.8 * idle, idle). ``records`` is the
    meter's block, or ``FlowRecord``s that are put in one; the tally reads
    its feature columns and flow keys. Raises ValueError when ``records``
    and ``labels`` differ in length.
    """
    block = records if isinstance(records, SnapshotBlock) else SnapshotBlock(records)
    columns = (block.values[j :: len(FEATURE_NAMES)] for j in _AUDITED)
    zpl: dict[str, int] = {}
    payload: dict[str, int] = {}
    fin, rst = [0, 0], [0, 0]  # [attack, benign]
    near_idle = 0
    lo_ms = 0.8 * idle_timeout_s * 1000
    hi_ms = idle_timeout_s * 1000

    for label, payload_bytes, fins, rsts, max_piat_ms in zip(labels, *columns, strict=True):
        bucket = zpl if payload_bytes == 0 else payload
        bucket[label] = bucket.get(label, 0) + 1
        if fins > 2:
            fin[label == BENIGN] += 1
        if rsts > 2:
            rst[label == BENIGN] += 1
        if lo_ms <= max_piat_ms < hi_ms:
            near_idle += 1
    key_counts = Counter(fid.key for fid, _ in block.flows)

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
    width = len(ds.feature_schema)
    durations_col = ds._values[ds.feature_schema.index("duration_ms") :: width].tolist()
    packets_col = ds._values[ds.feature_schema.index("bidirectional_packets") :: width].tolist()
    groups: dict[str, list[int]] = {}
    for i, label in enumerate(ds._labels):
        groups.setdefault(label, []).append(i)

    per_label = {}
    for label, rows in groups.items():
        # Summed left to right: np.sum, and sum() since Python 3.12, can change the last bit.
        durations = [durations_col[i] for i in rows]
        packets = [int(packets_col[i]) for i in rows]
        per_label[label] = LabelStats(
            count=len(rows),
            min_duration_ms=min(durations),
            mean_duration_ms=reduce(add, durations, 0.0) / len(durations),
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
    width = len(ds.feature_schema)
    features = ",".join("%d" if name in _INT_FIELDS else "%r" for name in ds.feature_schema)
    template = f"{features},%s,%d,{_cell(ds.provenance).replace('%', '%%')}\n"
    labels = {label: _cell(label) for label in set(ds._labels)}
    try:
        with replacing(path, encoding="utf-8", newline="") as fh:
            fh.write(",".join(map(_cell, header)) + "\n")
            for start in range(0, len(ds), _BLOCK_ROWS):
                end = start + _BLOCK_ROWS
                values = iter(ds._values[start * width : end * width].tolist())
                # zip of one iterator ``width`` times: the block's rows as tuples.
                cells = zip(zip(*[values] * width), ds._labels[start:end], ds._hashes[start:end])
                fh.write("".join([template % (*x, labels[label], h) for x, label, h in cells]))
    except OSError as exc:
        raise DatasetIOError(f"cannot write dataset {path}: {exc}") from exc


def read_csv(path) -> Dataset:
    """Read a dataset written by write_csv.

    Raises SchemaMismatchError when the header does not carry the expected
    feature schema, DatasetIOError on unreadable or inconsistent files and
    on a cell that is no integer in an integer column or no finite number in
    a float column. Rows are parsed a block at a time, each block's values
    appended to the dataset's array, so only one block's cell strings and
    the features once are held at once.
    """
    import numpy as np

    expected = list(FEATURE_NAMES) + ["label", "flow_hash", "provenance"]
    parsers = [int if name in _INT_FIELDS else float for name in FEATURE_NAMES]

    def parse(name: str, parser, cells) -> list:
        try:
            return list(map(parser, cells))
        except ValueError as exc:
            raise DatasetIOError(f"{path}: column {name}: {exc}") from None

    hashes = array("Q")
    labels: list[str] = []
    values = array("d")
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
                    rows = np.array(parsed, dtype=np.float64).T
                except OverflowError:
                    raise DatasetIOError(f"{path}: a feature value is out of range") from None
                finite = np.isfinite(rows).all(axis=0)
                if not finite.all():
                    name = FEATURE_NAMES[int(finite.argmin())]
                    raise DatasetIOError(f"{path}: column {name}: a value is not finite")
                values.frombytes(rows.tobytes())
                labels += map(sys.intern, columns[-3])  # one str per distinct label
                try:
                    hashes.extend(parse("flow_hash", int, columns[-2]))
                except OverflowError:
                    raise DatasetIOError(f"{path}: a flow hash is not a 64-bit value") from None
                provenances.update(columns[-1])
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DatasetIOError(f"cannot read dataset {path}: {exc}") from exc

    if len(provenances) > 1:
        raise DatasetIOError(f"{path}: mixed provenance values")
    ordered = np.sort(np.frombuffer(hashes, dtype=np.uint64))
    if (ordered[1:] == ordered[:-1]).any():
        repeated = next(h for h, count in Counter(hashes).items() if count > 1)
        raise DatasetIOError(f"{path}: duplicate flow hash {repeated}")
    return Dataset(
        provenances.pop() if provenances else CF_PROVENANCE, hashes, values, labels
    )
