from __future__ import annotations

import sys
import tracemalloc
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowlab import dataset
from flowlab.dataset import (
    CF_PROVENANCE,
    Dataset,
    align,
    audit,
    build_cf,
    build_pf,
    distribution,
    read_csv,
    write_csv,
)
from flowlab.errors import DatasetIOError, SchemaMismatchError
from flowlab.labeling import LabelRule, RuleSet, label_flow
from flowlab.meter import (
    FEATURE_NAMES,
    INT_FEATURES,
    FeatureVector,
    FlowId,
    FlowKey,
    FlowRecord,
    MeterConfig,
    SnapshotBlock,
    Trigger,
    meter,
)

from conftest import random_trace
from reference import reference_write_csv


def _features(**overrides) -> FeatureVector:
    values = {name: 0 for name in FeatureVector._fields}
    values.update(overrides)
    return FeatureVector(**values)


def _column(ds: Dataset, name: str) -> list[float]:
    return ds.X[:, FEATURE_NAMES.index(name)].tolist()


_KEYS = [
    FlowKey.from_endpoints("10.0.0.1", 1000 + i, "10.0.0.2", 80, 6) for i in range(300)
]


def _record(i, payload=100, label_ip=None, start=0, packets=3, dur=50.0):
    key = (
        _KEYS[i]
        if label_ip is None
        else FlowKey.from_endpoints(label_ip, 1000 + i, "10.0.0.2", 80, 6)
    )
    anchor = (key.endpoint_a, key.endpoint_b)
    return FlowRecord(
        id=FlowId.from_key(key, start),
        direction_anchor=anchor,
        first_us=start,
        last_us=start + int(dur * 1000),
        features=_features(
            bidirectional_payload_bytes=payload,
            bidirectional_packets=packets,
            duration_ms=dur,
        ),
        expiration_reason="end_of_trace",
    )


_ATTACK_RULES = RuleSet(rules=(LabelRule(label="ATTACK", src_ips=("10.9.0.0/16",)),))


def _attack_labels(records) -> list[str]:
    return [label_flow(r, _ATTACK_RULES) for r in records]


class TestBuildCf:
    def test_zpl_flow_dropped(self):
        ds = build_cf([_record(0, payload=0)], ["BENIGN"], min_class_count=1)
        assert len(ds) == 0
        assert ds.provenance == CF_PROVENANCE

    def test_duplicate_hash_keeps_first(self):
        r1 = _record(1, payload=10)
        r2 = _record(1, payload=20)  # same key, same start -> same hash
        ds = build_cf([r1, r2], ["BENIGN"] * 2, min_class_count=1)
        assert len(ds) == 1
        assert _column(ds, "bidirectional_payload_bytes") == [10]

    def test_minority_class_dropped(self):
        records = [_record(i) for i in range(60)]
        records += [_record(100 + i, label_ip="10.9.0.1") for i in range(10)]
        ds = build_cf(records, _attack_labels(records), min_class_count=50)
        assert ds.label_counts() == {"BENIGN": 60}

    def test_matches_brute_force_filter(self):
        rng = np.random.default_rng(31)
        records = []
        for i in range(100):
            records.append(
                _record(
                    int(rng.integers(0, 60)),  # repeated keys force hash dups
                    payload=int(rng.integers(0, 3)) and int(rng.integers(1, 500)),
                    label_ip="10.9.0.1" if rng.random() < 0.15 else None,
                    start=int(rng.integers(0, 2)),
                )
            )
        min_count = 20
        ds = build_cf(records, _attack_labels(records), min_class_count=min_count)

        # oracle: independent three-stage filter
        stage1 = [r for r in records if r.features.bidirectional_payload_bytes > 0]
        seen, stage2 = set(), []
        for r in stage1:
            if r.id.hash64 not in seen:
                seen.add(r.id.hash64)
                stage2.append(r)
        labels = [label_flow(r, _ATTACK_RULES) for r in stage2]
        counts = {l: labels.count(l) for l in set(labels)}
        survivors = [
            (r.id.hash64, l) for r, l in zip(stage2, labels) if counts[l] >= min_count
        ]
        assert list(zip(ds.hash64.tolist(), ds.labels.tolist())) == survivors

    def test_invariants_on_output(self):
        rng = np.random.default_rng(32)
        records = [
            _record(int(rng.integers(0, 80)), payload=int(rng.integers(0, 40)))
            for _ in range(150)
        ]
        ds = build_cf(records, _attack_labels(records), min_class_count=5)
        hashes = ds.hash64.tolist()
        assert len(hashes) == len(set(hashes))
        assert all(v > 0 for v in _column(ds, "bidirectional_payload_bytes"))
        assert all(n >= 5 for n in ds.label_counts().values())

    def test_labels_and_records_of_different_lengths_rejected(self):
        records = [_record(0), _record(1)]
        for labels in (["BENIGN"], ["BENIGN"] * 3):
            with pytest.raises(ValueError):
                build_cf(records, labels, min_class_count=1)
            with pytest.raises(ValueError):
                audit(records, labels, 60)


def _snapshot(record, packets=2):
    return FlowRecord(
        id=record.id,
        direction_anchor=record.direction_anchor,
        first_us=record.first_us,
        last_us=record.first_us + 10,
        features=_features(
            bidirectional_packets=packets,
            bidirectional_payload_bytes=7,
        ),
        expiration_reason="live",
    )


class TestBuildPf:
    def test_orphan_snapshot_excluded(self):
        kept = _record(0)
        zpl = _record(1, payload=0)
        cf = build_cf([kept, zpl], ["BENIGN"] * 2, min_class_count=1)
        pf = build_pf(SnapshotBlock([_snapshot(kept), _snapshot(zpl)]), cf, Trigger("pc", 2))
        assert len(pf) == 1
        assert pf.hash64.tolist() == [kept.id.hash64]
        assert pf.provenance == "PC=2"

    def test_label_inherited_from_parent(self):
        record = _record(0, label_ip="10.9.0.1")
        cf = build_cf([record], ["ATTACK"], min_class_count=1)
        pf = build_pf(SnapshotBlock([_snapshot(record)]), cf, Trigger("pc", 2))
        assert pf.labels.tolist() == ["ATTACK"]

    def test_trigger_filtering(self):
        record = _record(0)
        cf = build_cf([record], ["BENIGN"], min_class_count=1)
        snaps = {
            Trigger("pc", 2): SnapshotBlock([_snapshot(record)]),
            Trigger("fd", 100): SnapshotBlock([_snapshot(record, packets=3)]),
            Trigger("pc", 3): SnapshotBlock(),
        }
        assert len(build_pf(snaps[Trigger("pc", 2)], cf, Trigger("pc", 2))) == 1
        assert len(build_pf(snaps[Trigger("fd", 100)], cf, Trigger("fd", 100))) == 1
        assert len(build_pf(snaps[Trigger("pc", 3)], cf, Trigger("pc", 3))) == 0

    def test_requires_cf_provenance(self):
        record = _record(0)
        cf = build_cf([record], ["BENIGN"], min_class_count=1)
        pf = build_pf(SnapshotBlock([_snapshot(record)]), cf, Trigger("pc", 2))
        with pytest.raises(ValueError):
            build_pf(SnapshotBlock(), pf, Trigger("pc", 2))

    def test_membership_matches_enumeration(self):
        """PC=N membership == flows with >= N packets that survived CF."""
        rng = np.random.default_rng(41)
        trace = random_trace(rng, 600, n_endpoints=8, fin_rst_rate=0.0)
        config = MeterConfig(idle_timeout_s=30, pc_triggers=range(2, 21), fd_triggers_ms=())
        records, snapshots = meter(trace, config)
        cf = build_cf(records, ["BENIGN"] * len(records), min_class_count=1)
        by_hash = {r.id.hash64: r for r in records}
        for n in (2, 3, 5, 8):
            pf = build_pf(snapshots[Trigger("pc", n)], cf, Trigger("pc", n))
            expected = {
                h
                for h in cf.hash64.tolist()
                if by_hash[h].features.bidirectional_packets >= n
            }
            assert pf.hashes() == expected

    def test_pc_dataset_sizes_non_increasing_in_n(self, late_corpus):
        records, snapshots, rules, _ = late_corpus
        cf = build_cf(records, [label_flow(r, rules) for r in records])
        sizes = [
            len(build_pf(snapshots[Trigger("pc", n)], cf, Trigger("pc", n)))
            for n in range(2, 21)
        ]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert sizes[0] == len(cf)  # every kept flow has at least 2 packets


class TestAlign:
    def test_empty_pf(self):
        cf = build_cf([_record(i) for i in range(3)], ["BENIGN"] * 3, min_class_count=1)
        pf = Dataset("PC=2", hash64=[], X=[], labels=[])
        acf, apf = align(cf, pf)
        assert len(acf) == 0 and len(apf) == 0

    def test_first_dataset_must_be_cf(self):
        cf = build_cf([_record(i) for i in range(3)], ["BENIGN"] * 3, min_class_count=1)
        pf = build_pf(SnapshotBlock([_snapshot(_record(0))]), cf, Trigger("pc", 2))
        with pytest.raises(ValueError, match="first dataset has provenance 'PC=2', not CF"):
            align(pf, cf)

    def test_subset_pf(self):
        records = [_record(i) for i in range(10)]
        cf = build_cf(records, ["BENIGN"] * len(records), min_class_count=1)
        pf = build_pf(SnapshotBlock(map(_snapshot, records[:4])), cf, Trigger("pc", 2))
        acf, apf = align(cf, pf)
        assert len(acf) == 4
        assert acf.hashes() == apf.hashes() == pf.hashes()

    def test_key_sets_equal_fuzz(self):
        rng = np.random.default_rng(53)
        for _ in range(1000):
            n_cf = int(rng.integers(0, 12))
            cf_records = [_record(i) for i in range(n_cf)]
            cf = build_cf(cf_records, ["BENIGN"] * n_cf, min_class_count=1)
            overlap = [r for r in cf_records if rng.random() < 0.5]
            strays = [_record(200 + int(rng.integers(0, 10)))]
            dedup = {r.id.hash64: r for r in overlap + strays}
            pf = Dataset(
                "PC=2",
                hash64=list(dedup),
                X=[r.features for r in dedup.values()],
                labels=["BENIGN"] * len(dedup),
            )
            acf, apf = align(cf, pf)
            expected = cf.hashes() & pf.hashes()
            assert acf.hashes() == apf.hashes() == expected


class TestAudit:
    def test_empty_input(self):
        report = audit([], [], 60)
        assert report.fin_gt2_total == 0
        assert report.rst_gt2_total == 0
        assert report.zpl_counts == {}
        assert report.repeated_key_groups == 0

    def test_planted_counts(self):
        records = [
            # benign ZPL
            _record(0, payload=0),
            # attack with payload
            _record(1, label_ip="10.9.0.1"),
            # benign with FIN=3
            _record(2),
            # attack with RST=4
            _record(3, label_ip="10.9.0.2"),
            # near-idle PIAT flow
            _record(4),
            # repeated key pair
            _record(5, start=0),
            _record(5, start=1_000_000),
        ]
        import dataclasses

        records[2] = dataclasses.replace(
            records[2], features=_features(bidirectional_fin_count=3,
                                           bidirectional_payload_bytes=5)
        )
        records[3] = dataclasses.replace(
            records[3], features=_features(bidirectional_rst_count=4,
                                           bidirectional_payload_bytes=5)
        )
        records[4] = dataclasses.replace(
            records[4],
            features=_features(
                bidirectional_max_piat_ms=50_000.0, bidirectional_payload_bytes=5
            ),
        )
        report = audit(records, _attack_labels(records), idle_timeout_s=60)
        assert report.zpl_counts == {"BENIGN": 1}
        assert report.payload_counts == {"BENIGN": 4, "ATTACK": 2}
        assert report.fin_gt2_benign == 1 and report.fin_gt2_attack == 0
        assert report.rst_gt2_attack == 1 and report.rst_gt2_benign == 0
        assert report.fin_gt2_total == 1 and report.rst_gt2_total == 1
        assert report.piat_near_idle == 1
        assert report.repeated_key_groups == 1

    def test_piat_band_boundaries(self):
        import dataclasses

        def with_piat(ms):
            return dataclasses.replace(
                _record(0), features=_features(bidirectional_max_piat_ms=ms)
            )

        assert audit([with_piat(47_999.0)], ["BENIGN"], 60).piat_near_idle == 0
        assert audit([with_piat(48_000.0)], ["BENIGN"], 60).piat_near_idle == 1
        assert audit([with_piat(59_999.0)], ["BENIGN"], 60).piat_near_idle == 1
        assert audit([with_piat(60_000.0)], ["BENIGN"], 60).piat_near_idle == 0


class TestDistribution:
    def test_single_flow(self):
        ds = build_cf([_record(0, packets=5, dur=100.0)], ["BENIGN"], min_class_count=1)
        summary = distribution(ds)
        stats = summary.per_label["BENIGN"]
        assert stats.count == 1
        assert stats.min_duration_ms == stats.mean_duration_ms == stats.max_duration_ms == 100.0
        assert stats.min_packets == stats.max_packets == 5
        assert summary.benign_total == 1
        assert summary.anomaly_total == 0
        assert summary.total == 1

    def test_mean_duration_sums_left_to_right(self):
        # 0.20000000000000004 on every Python; sum() since 3.12 gives 0.19999999999999998.
        records = [_record(i, dur=dur) for i, dur in enumerate((0.1, 0.2, 0.3))]
        ds = build_cf(records, ["BENIGN"] * 3, min_class_count=1)
        assert distribution(ds).per_label["BENIGN"].mean_duration_ms == 0.20000000000000004

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(61)
        records = [
            _record(
                i,
                label_ip="10.9.0.1" if rng.random() < 0.3 else None,
                packets=int(rng.integers(1, 40)),
                dur=float(rng.integers(0, 10_000)),
            )
            for i in range(200)
        ]
        ds = build_cf(records, _attack_labels(records), min_class_count=1)
        summary = distribution(ds)
        for label, stats in summary.per_label.items():
            rows = ds.labels == label
            durations = ds.X[rows, FEATURE_NAMES.index("duration_ms")].tolist()
            packets = ds.X[rows, FEATURE_NAMES.index("bidirectional_packets")].tolist()
            assert stats.count == len(durations)
            assert stats.min_duration_ms == min(durations)
            assert stats.max_duration_ms == max(durations)
            assert abs(stats.mean_duration_ms - np.mean(durations)) < 1e-9
            assert stats.min_packets == min(packets)
            assert abs(stats.mean_packets - np.mean(packets)) < 1e-9
        assert summary.total == sum(s.count for s in summary.per_label.values())
        assert summary.benign_total + summary.anomaly_total == summary.total


def _metered_cf_and_pf() -> tuple[Dataset, Dataset]:
    rng = np.random.default_rng(71)
    trace = random_trace(rng, 700, n_endpoints=10)
    records, snapshots = meter(trace, MeterConfig(idle_timeout_s=1.0))
    cf = build_cf(records, _attack_labels(records), min_class_count=1)
    pf = build_pf(snapshots[Trigger("pc", 3)], cf, Trigger("pc", 3))
    assert len(cf) >= 100 and len(pf) >= 50
    return cf, pf


def _first_row_with(rows: list[list[str]], column: int, cell: str) -> list[list[str]]:
    """The header and the first data row, with one cell replaced."""
    row = list(rows[1])
    row[column] = cell
    return [rows[0], row]


def _assert_round_trip(ds: Dataset, tmp_path) -> None:
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(ds, p1)
    back = read_csv(p1)
    assert back == ds
    assert back.provenance == ds.provenance
    write_csv(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


class TestCsv:
    def test_empty_round_trip(self, tmp_path):
        ds = Dataset("PC=2", hash64=[], X=[], labels=[])
        path = tmp_path / "empty.csv"
        write_csv(ds, path)
        text = path.read_text()
        assert text.count("\n") == 1  # header only
        back = read_csv(path)
        assert back == ds
        assert len(back) == 0

    def test_single_flow_two_lines(self, tmp_path):
        ds = build_cf([_record(0)], ["BENIGN"], min_class_count=1)
        path = tmp_path / "one.csv"
        write_csv(ds, path)
        assert path.read_text().count("\n") == 2

    def test_byte_level_round_trip(self, tmp_path):
        for ds in _metered_cf_and_pf():
            _assert_round_trip(ds, tmp_path)

    def test_round_trip_in_small_blocks(self, tmp_path, monkeypatch):
        # Rows are written and parsed a block at a time; 7 leaves a partial
        # last block and many block boundaries.
        monkeypatch.setattr(dataset, "_BLOCK_ROWS", 7)
        for ds in _metered_cf_and_pf():
            _assert_round_trip(ds, tmp_path)

    def test_int_columns_written_as_ints(self, tmp_path):
        ds = build_cf([_record(0, payload=12, packets=4, dur=2.5)], ["BENIGN"], 1)
        path = tmp_path / "one.csv"
        write_csv(ds, path)
        header, row = (line.split(",") for line in path.read_text().splitlines())
        cells = dict(zip(header, row))
        assert cells["bidirectional_packets"] == "4"
        assert cells["bidirectional_payload_bytes"] == "12"
        assert cells["duration_ms"] == "2.5"
        assert cells["flow_hash"] == str(_record(0).id.hash64)
        int_columns = {name for name in FEATURE_NAMES if cells[name].isdigit()}
        int_fields = {
            name for name, t in get_type_hints(FeatureVector).items() if t is int
        }
        assert len(int_fields) == 21
        assert int_columns == int_fields

    @pytest.mark.parametrize(
        "edit,error,match",
        [
            (lambda rows: rows + [rows[1][:-1]], DatasetIOError, "row with 48 cells"),
            (lambda rows: rows[:2] + [rows[2][:-1] + ["PC=2"]], DatasetIOError, "mixed"),
            (lambda rows: rows + [rows[1]], DatasetIOError, "duplicate flow hash"),
            # An int column, a float column and flow_hash: each names its column.
            *(
                pytest.param(
                    lambda rows, c=column, v=cell: _first_row_with(rows, c, v),
                    DatasetIOError,
                    match,
                    id=f"{kind}_{cell}",
                )
                for kind, column, cell, match in [
                    ("int_column", 1, "1.5", "column bidirectional_packets: .*'1.5'"),
                    ("int_column", 1, "nan", "column bidirectional_packets: .*'nan'"),
                    ("float_column", 0, "nan", "column duration_ms: a value is not finite"),
                    ("float_column", 0, "-inf", "column duration_ms: a value is not finite"),
                    ("float_column", 4, "1e999", "column bidirectional_min_ps: .*not finite"),
                    ("flow_hash", -2, "nan", "column flow_hash: .*'nan'"),
                    ("flow_hash", -2, "abc", "column flow_hash: .*'abc'"),
                ]
            ),
            (lambda rows: _first_row_with(rows, 1, "9" * 400), DatasetIOError, "range"),
            (lambda rows: _first_row_with(rows, -2, "-1"), DatasetIOError, "64-bit"),
            (lambda rows: _first_row_with(rows, -2, str(2**64)), DatasetIOError, "64-bit"),
            (lambda rows: [], SchemaMismatchError, "missing header"),  # an empty file
        ],
    )
    def test_inconsistent_files_rejected(self, tmp_path, edit, error, match):
        ds = build_cf([_record(0), _record(1)], ["BENIGN"] * 2, min_class_count=1)
        assert FEATURE_NAMES[1] == "bidirectional_packets"
        path = tmp_path / "ds.csv"
        write_csv(ds, path)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        path.write_text("".join(",".join(row) + "\n" for row in edit(rows)))
        with pytest.raises(error, match=match):
            read_csv(path)

    def test_arrays_are_read_only_and_shaped(self):
        empty = Dataset("PC=2", hash64=[], X=[], labels=[])
        assert empty.X.shape == (0, len(FEATURE_NAMES))
        ds = build_cf([_record(i) for i in range(3)], ["BENIGN"] * 3, min_class_count=1)
        assert ds.hash64.dtype == np.uint64 and ds.X.dtype == np.float64
        assert ds.labels.dtype == object and ds.labels.tolist() == ["BENIGN"] * 3
        assert ds.X.shape == (3, len(FEATURE_NAMES))
        for array in (ds.hash64, ds.X, ds.labels):
            with pytest.raises(ValueError):
                array[0] = 0
        # Each view is made once and then kept.
        assert ds.X is ds.X and ds.hash64 is ds.hash64 and ds.labels is ds.labels
        with pytest.raises(AttributeError):
            ds.provenance = "PC=2"
        with pytest.raises(ValueError):
            Dataset("CF", hash64=[1, 2], X=ds.X[:2], labels=["BENIGN"])
        with pytest.raises(ValueError, match="shape"):
            Dataset("CF", hash64=[1, 2], X=ds.X[:2].T, labels=["BENIGN"] * 2)
        with pytest.raises(ValueError, match="shape"):
            Dataset("CF", hash64=[1, 2], X=ds.X[:2].ravel(), labels=["BENIGN"] * 2)

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(SchemaMismatchError):
            read_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetIOError):
            read_csv(tmp_path / "nope.csv")

    def test_non_utf8_byte_names_the_file(self, tmp_path):
        ds = build_cf([_record(0), _record(1)], ["BENIGN"] * 2, min_class_count=1)
        path = tmp_path / "ds.csv"
        write_csv(ds, path)
        path.write_bytes(path.read_bytes().replace(b"BENIGN", b"BEN\xffGN", 1))
        with pytest.raises(DatasetIOError, match=f"cannot read dataset {path}: .*0xff"):
            read_csv(path)

    def test_unwritable_path_raises_dataset_io_error(self, tmp_path):
        ds = build_cf([_record(0)], ["BENIGN"], min_class_count=1)
        # No directory to write in, and a directory in the way of the rename.
        for path in (tmp_path / "no_dir" / "ds.csv", tmp_path):
            with pytest.raises(DatasetIOError, match=f"cannot write dataset {path}: "):
                write_csv(ds, path)
        assert list(tmp_path.iterdir()) == []
        assert list(tmp_path.parent.glob(".*.tmp")) == []

    def test_longest_file_name_written(self, tmp_path):
        ds = build_cf([_record(0)], ["BENIGN"], min_class_count=1)
        path = tmp_path / ("d" * 251 + ".csv")
        write_csv(ds, path)
        assert read_csv(path) == ds
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_write_keeps_the_file_at_the_path(self, tmp_path, monkeypatch):
        ds = build_cf([_record(i) for i in range(5)], ["BENIGN"] * 5, min_class_count=1)
        path = tmp_path / "ds.csv"
        write_csv(ds, path)
        before = path.read_bytes()
        # A NaN in an integer column fails in the fourth row, after three are written.
        X = ds.X.copy()
        X[3, FEATURE_NAMES.index("bidirectional_packets")] = np.nan
        monkeypatch.setattr(dataset, "_BLOCK_ROWS", 1)
        with pytest.raises(ValueError, match="NaN"):
            write_csv(Dataset(ds.provenance, ds.hash64, X, ds.labels), path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


class TestDatasetContract:
    def test_equality(self):
        row = [[0.0] * len(FEATURE_NAMES)]
        ds = Dataset("PC=2", [7], row, ["A"])
        assert Dataset("PC=2", [], [], []) == Dataset("FD=5", [], [], [])
        assert Dataset("PC=2", [7], [[-0.0] * len(FEATURE_NAMES)], ["A"]) == ds
        assert Dataset("PC=2", np.array([7], dtype=np.uint64), np.array(row), ("A",)) == ds
        for other in (
            Dataset("PC=3", [7], row, ["A"]),
            Dataset("PC=2", [8], row, ["A"]),
            Dataset("PC=2", [7], row, ["B"]),
            Dataset("PC=2", [7], [[1.0] + row[0][1:]], ["A"]),
            Dataset("PC=2", [7], [[0.0]], ["A"], ("x",)),
        ):
            assert other != ds
        nan = Dataset("PC=2", [7], [[float("nan")] * len(FEATURE_NAMES)], ["A"])
        assert nan != nan  # as numpy compares NaN
        assert ds != "PC=2"

    @pytest.mark.parametrize(
        "hash64, X, labels, error",
        [
            ([1], [[0.0] * 45], ["A"], ValueError),  # a row too short
            ([1], [[0.0] * 47], ["A"], ValueError),  # a row too long
            ([1], [[0.0] * 46] * 2, ["A"], ValueError),  # a row too many
            ([1, 2], [[0.0] * 46] * 2, ["A"], ValueError),  # a label too few
            ([1], [[0.0] * 46], ["A", "B"], ValueError),  # a label too many
            ([2**64], [[0.0] * 46], ["A"], OverflowError),
            ([-1], [[0.0] * 46], ["A"], OverflowError),
            ([1], [["abc"] + [0.0] * 45], ["A"], ValueError),
        ],
    )
    def test_construction_checks(self, hash64, X, labels, error):
        with pytest.raises(error):
            Dataset("CF", hash64, X, labels)

    def test_replace_keeps_the_other_fields(self):
        cf, _ = _metered_cf_and_pf()
        relabelled = cf.replace(labels=["X"] * len(cf))
        assert relabelled.provenance == "CF" and relabelled.label_counts() == {"X": len(cf)}
        assert np.array_equal(relabelled.X, cf.X) and relabelled.hashes() == cf.hashes()
        assert cf.replace(provenance="PC=4") != cf
        with pytest.raises(ValueError, match="labels"):
            cf.replace(labels=["X"])

    def test_read_csv_holds_the_features_once(self, tmp_path):
        # Each parsed block is appended to the dataset's array, so the peak
        # is the features once plus a block; joining the blocks at the end
        # would hold them twice.
        n = 20_000
        rng = np.random.default_rng(3)
        X = np.floor(rng.random((n, len(FEATURE_NAMES))) * 1e6)
        ds = Dataset("PC=5", range(n), X, [("BENIGN", "DoS")[i % 2] for i in range(n)])
        write_csv(ds, tmp_path / "big.csv")
        read_csv(tmp_path / "big.csv")  # the first call's imports stay out of the peak
        tracemalloc.start()
        try:
            back = read_csv(tmp_path / "big.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back == ds
        assert peak < 1.6 * X.nbytes, peak / X.nbytes


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    parents=st.lists(st.integers(0, 9), max_size=30),
    in_cf=st.lists(st.booleans(), min_size=10, max_size=10),
    floats=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6),
    ints=st.lists(st.integers(-(2**53), 2**53), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_pf_round_trips_through_csv(tmp_path, parents, in_cf, floats, ints, seed):
    # A block with repeated parents and parents outside the CF dataset.
    rng = np.random.default_rng(seed)
    ids = [FlowId.from_key(_KEYS[i], 1_000 * i) for i in range(10)]
    cf_ids = [fid for fid, kept in zip(ids, in_cf) if kept]
    cf = Dataset(
        CF_PROVENANCE,
        [fid.hash64 for fid in cf_ids],
        np.zeros((len(cf_ids), len(FEATURE_NAMES))),
        [f"L{i % 3}" for i in range(len(cf_ids))],
    )
    rows = [
        [
            (ints if is_int else floats)[int(rng.integers(0, len(ints if is_int else floats)))]
            for is_int in INT_FEATURES
        ]
        for _ in parents
    ]
    block = SnapshotBlock(
        FlowRecord(ids[p], (), ids[p].start_us, t, FeatureVector(*row), "live")
        for t, (p, row) in enumerate(zip(parents, rows))
    )
    pf = build_pf(block, cf, Trigger("pc", 4))
    first = {}
    for p, row in zip(parents, rows):
        if in_cf[p]:
            first.setdefault(ids[p].hash64, row)
    assert pf.hash64.tolist() == list(first)
    assert pf.X.tolist() == [[float(v) for v in row] for row in first.values()]
    write_csv(pf, tmp_path / "pf.csv")
    back = read_csv(tmp_path / "pf.csv")
    assert back == pf
    assert back.provenance == ("PC=4" if len(pf) else CF_PROVENANCE)


# Where repr of a float switches form (exponent, digits, sign), and the extremes.
_SWITCH_FLOATS = [1e16, 9999999999999998.0, 1e-4, 1e-5, 5e-324, sys.float_info.max, -0.0]
# Integer features at and above 2**53, where a float no longer holds every integer.
_BIG_INTS = [2.0**53, 2.0**53 + 2, 2.0**63, 2.0**64, 1e300]
_TEXT = st.text(
    st.sampled_from(',"\r\n %') | st.characters(blacklist_categories=("Cs", "Cc")),
    max_size=6,
)


@settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    n=st.sampled_from([0, 1, 2, 9, 4097]),
    seed=st.integers(0, 2**32 - 1),
    floats=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
    ints=st.lists(st.integers(-(2**64), 2**64).map(float), max_size=6),
    labels=st.lists(_TEXT | st.sampled_from([" lead", "trail ", "é€😀"]), min_size=1, max_size=4),
    provenance=st.sampled_from(["CF", "PC=5", "FD=100"]) | _TEXT,
)
def test_writer_bytes_equal_the_reference(tmp_path, n, seed, floats, ints, labels, provenance):
    rng = np.random.default_rng(seed)
    X = np.empty((n, len(FEATURE_NAMES)))
    for j, is_int in enumerate(INT_FEATURES):
        pool = np.array((ints + _BIG_INTS) if is_int else (floats + _SWITCH_FLOATS))
        X[:, j] = pool[rng.integers(0, len(pool), n)]
    # An odd multiplier maps distinct row numbers to distinct 64-bit hashes.
    hashes = np.arange(n, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15) + np.uint64(seed)
    ds = Dataset(provenance, hashes, X, [labels[k] for k in rng.integers(0, len(labels), n)])
    path, want = tmp_path / "ds.csv", tmp_path / "want.csv"
    write_csv(ds, path)
    back = read_csv(path)
    assert back == ds
    assert back.provenance == (provenance if n else CF_PROVENANCE)
    if "\r" not in provenance + "".join(ds.labels):
        reference_write_csv(ds, want)
        assert path.read_bytes() == want.read_bytes()
