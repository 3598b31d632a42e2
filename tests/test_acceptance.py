"""End-to-end acceptance gate.

One test per criterion; each prints a PASS line on success (run with -s to
see them). The CICIDS-2017 reproduction criterion needs the real Wednesday
capture and runs only when CICIDS_WEDNESDAY_PCAP points at it; see the
README for the offline recipe.
"""

from __future__ import annotations

import dataclasses
import os
import time

import numpy as np
import pytest

from flowlab.dataset import align, build_cf, build_pf, read_csv
from flowlab.evaluation import compute_metrics, split_keys, sweep
from flowlab.forest import TrainConfig, train, predict_matrix, dataset_matrix
from flowlab.labeling import RuleSet, label_flow
from flowlab.meter import MeterConfig, Trigger, meter
from flowlab.synth import SynthSpec, derive_rules, synth_trace
from flowlab.trace_io import PacketTrace, dedup, reorder

from conftest import corpus_path, random_trace
from reference import assert_meter_equal, brute_force_dedup, reference_meter


def _report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {message}")


def test_criterion_1_meter_oracle_equivalence():
    """meter equals a naive two-pass reference on 200 random traces."""
    rng = np.random.default_rng(1001)
    configs = [
        MeterConfig(),
        MeterConfig(
            idle_timeout_s=0.7,
            active_timeout_s=2.0,
            byte_triggers=(400, 4000),
            fd_triggers_ms=(5, 10, 50, 100, 500, 1000),
        ),
        MeterConfig(fin_rst_expiration=False, idle_timeout_s=1.5, active_timeout_s=3.0),
    ]
    started = time.monotonic()
    for i in range(200):
        n = int(rng.integers(0, 1001))
        trace = random_trace(rng, n, n_endpoints=int(rng.integers(4, 9)))
        config = configs[i % len(configs)]
        assert_meter_equal(
            meter(trace, config),
            reference_meter(list(trace.packets), config),
            rel=1e-9,
        )
    elapsed = time.monotonic() - started
    assert elapsed < 30, f"took {elapsed:.1f}s"
    _report(1, f"200 random traces match the reference meter ({elapsed:.1f}s)")


def test_criterion_2_snapshot_consistency(late_spec):
    """PC=N snapshots have exactly N packets, the final-count snapshot
    equals the record, and FD snapshots sit inside the tolerance band."""
    template = dataclasses.replace(late_spec.templates[0], flows=500)
    template2 = dataclasses.replace(late_spec.templates[1], flows=500)
    spec = dataclasses.replace(late_spec, templates=(template, template2))
    trace, truth = synth_trace(spec, seed=2002)
    assert len(truth) == 1000
    config = MeterConfig()
    records, snapshots = meter(trace, config)
    assert len(records) == 1000

    violations = 0
    by_parent: dict = {}
    for trigger, snaps in snapshots.items():
        for snap in snaps:
            if trigger.kind == "pc":
                if snap.features.bidirectional_packets != trigger.value:
                    violations += 1
                by_parent[(snap.id.hash64, trigger.value)] = snap
            elif trigger.kind == "fd":
                t = trigger.value
                if not (
                    (1 - config.fd_tolerance) * t
                    <= snap.features.duration_ms
                    <= (1 + config.fd_tolerance) * t
                ):
                    violations += 1
    fd_count = sum(len(snaps) for t, snaps in snapshots.items() if t.kind == "fd")
    assert fd_count > 0

    checked = 0
    for record in records:
        m = record.features.bidirectional_packets
        if m in config.pc_triggers:
            snap = by_parent[(record.id.hash64, m)]
            if snap.features != record.features:
                violations += 1
            checked += 1
    assert checked > 500
    assert violations == 0
    _report(
        2,
        f"{sum(map(len, snapshots.values()))} snapshots over 1000 flows, 0 violations "
        f"({checked} record-final matches, {fd_count} FD snapshots)",
    )


def test_criterion_3_preprocessing_properties():
    """Dedup idempotence, first-occurrence survival, window boundaries, and
    reorder stability over 1000 fuzz cases."""
    rng = np.random.default_rng(3003)
    cases = 0
    for _ in range(850):
        n = int(rng.integers(0, 60))
        window = int(rng.integers(0, 20_000))
        pkts = list(
            random_trace(
                rng, n, n_endpoints=2, t_span_us=30_000, sorted_ts=bool(rng.random() < 0.5)
            ).packets
        )
        trace = PacketTrace(packets=tuple(pkts), source="fuzz")
        once = dedup(trace, window)
        # idempotence
        assert dedup(once, window).packets == once.packets
        # brute-force equality (covers boundary behavior generally)
        assert list(once.packets) == brute_force_dedup(pkts, window)
        # first occurrence of every packet value survives, as the first kept
        # of its value (packets are built when read: compared by value)
        firsts, leads = {}, {}
        for p in pkts:
            firsts.setdefault(p.dedup_key(), p)
        for p in once.packets:
            leads.setdefault(p.dedup_key(), p)
        assert leads == firsts
        # reorder: stable sort oracle, multiset preserved
        ordered = reorder(trace)
        decorated = sorted(enumerate(pkts), key=lambda pair: (pair[1].ts_us, pair[0]))
        assert list(ordered.packets) == [p for _, p in decorated]
        cases += 1

    # explicit 10 ms boundary checks: <= window dropped, > window kept
    base = random_trace(np.random.default_rng(1), 1).packets[0]
    for offset in range(9_995, 10_006):
        pair = PacketTrace(
            packets=(base, dataclasses.replace(base, ts_us=base.ts_us + offset)),
            source="boundary",
        )
        kept = len(dedup(pair, 10_000))
        assert kept == (1 if offset <= 10_000 else 2)
        cases += 1
    for offset in (0, 1, 9_999, 10_000, 10_001, 15_000):
        for window in (0, 10_000):
            pair = PacketTrace(
                packets=(base, dataclasses.replace(base, ts_us=base.ts_us + offset)),
                source="boundary",
            )
            assert len(dedup(pair, window)) == (1 if offset <= window else 2)
            cases += 1
    # top up the case count to the stated volume with quick random boundaries
    while cases < 1000:
        offset = int(rng.integers(0, 20_001))
        pair = PacketTrace(
            packets=(base, dataclasses.replace(base, ts_us=base.ts_us + offset)),
            source="boundary",
        )
        assert len(dedup(pair, 10_000)) == (1 if offset <= 10_000 else 2)
        cases += 1
    assert cases >= 1000
    _report(3, f"{cases} preprocessing fuzz cases, 0 violations")


def test_criterion_4_metrics_oracle():
    """compute_metrics matches brute force on 1000 random vectors; the hand
    case comes out exactly."""
    m = compute_metrics(["BENIGN", "BENIGN", "B", "B"], ["BENIGN", "B", "B", "B"], "binary")
    assert m.reported_precision == 2 / 3
    assert m.reported_recall == 1.0
    assert m.reported_f1 == 0.8

    rng = np.random.default_rng(4004)
    labels = ["BENIGN", "DoS A", "DoS B", "Scan"]
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        y_true = [labels[i] for i in rng.integers(0, 4, size=n)]
        y_pred = [labels[i] for i in rng.integers(0, 4, size=n)]

        got = compute_metrics(y_true, y_pred, "binary")
        t = ["ANOMALY" if l != "BENIGN" else l for l in y_true]
        p = ["ANOMALY" if l != "BENIGN" else l for l in y_pred]
        tp = sum(a == b == "ANOMALY" for a, b in zip(t, p))
        fp = sum(a != "ANOMALY" and b == "ANOMALY" for a, b in zip(t, p))
        fn = sum(a == "ANOMALY" and b != "ANOMALY" for a, b in zip(t, p))
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        assert abs(got.reported_precision - prec) <= 1e-12
        assert abs(got.reported_recall - rec) <= 1e-12
        assert abs(got.reported_f1 - f1) <= 1e-12

        got_mc = compute_metrics(y_true, y_pred, "multiclass")
        per = []
        for c in sorted(set(y_true)):
            tp = sum(a == b == c for a, b in zip(y_true, y_pred))
            fp = sum(a != c and b == c for a, b in zip(y_true, y_pred))
            fn = sum(a == c and b != c for a, b in zip(y_true, y_pred))
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            per.append((prec, rec, 2 * prec * rec / (prec + rec) if prec + rec else 0.0))
        assert abs(got_mc.reported_precision - sum(x[0] for x in per) / len(per)) <= 1e-12
        assert abs(got_mc.reported_recall - sum(x[1] for x in per) / len(per)) <= 1e-12
        assert abs(got_mc.reported_f1 - sum(x[2] for x in per) / len(per)) <= 1e-12
    _report(4, "1000 random vectors within 1e-12 of brute force; hand case exact")


def test_criterion_5_classifier_sanity(early_corpus):
    """CF_CF on the separable 2x250 corpus: f1 >= 0.99 and deterministic."""
    started = time.monotonic()
    records, snapshots, rules, _ = early_corpus
    cf = build_cf(records, [label_flow(r, rules) for r in records])
    assert cf.label_counts() == {"BENIGN": 250, "ATTACK": 250}
    split = split_keys(cf, 0.70, seed=5005)
    tc = TrainConfig(n_trees=50, seed=5005)

    # Every flow reaches 2 packets, so the PC=2 file aligns to the whole CF.
    pc2 = Trigger("pc", 2)
    family = {pc2: build_pf(snapshots[pc2], cf, pc2)}
    assert align(cf, family[pc2])[0] == cf

    def cf_cf():
        return sweep(cf, family, tasks=("binary",), tc=tc, split=split, kinds=("CF_CF",)).rows

    m1, m2 = cf_cf(), cf_cf()
    assert m1[0].f1 >= 0.99
    assert m1 == m2

    # forest-level bit determinism across two trainings
    f1, f2 = train(cf, tc), train(cf, tc)
    assert f1.trees == f2.trees
    X, _ = dataset_matrix(cf)
    assert predict_matrix(f1, X) == predict_matrix(f2, X)

    elapsed = time.monotonic() - started
    assert elapsed < 10, f"took {elapsed:.1f}s"
    _report(5, f"CF_CF f1={m1[0].f1:.4f}, deterministic, {elapsed:.1f}s")


def test_criterion_6_degradation_reproduction(late_corpus):
    """Training on complete flows and testing on early snapshots collapses,
    recovers only once the divergence packet is visible."""
    started = time.monotonic()
    records, snapshots, rules, _ = late_corpus
    cf = build_cf(records, [label_flow(r, rules) for r in records])
    split = split_keys(cf, 0.70, seed=6006)
    tc = TrainConfig(n_trees=100, seed=6006)

    family = {
        Trigger("pc", n): build_pf(snapshots[Trigger("pc", n)], cf, Trigger("pc", n))
        for n in range(2, 18)
    }
    report = sweep(cf, family, tasks=("binary",), tc=tc, split=split, kinds=("CF_PF",))
    assert not any(row.skipped_reason for row in report.rows)
    f1 = {Trigger.parse(row.threshold).value: row.f1 for row in report.rows}
    assert sorted(f1) == list(range(2, 18))

    assert f1[2] <= f1[10] - 0.30, f"PC=2 f1 {f1[2]:.3f} vs PC=10 f1 {f1[10]:.3f}"

    target = 0.9 * f1[17]
    first_n = next(n for n in range(2, 18) if f1[n] >= target)
    assert first_n in (7, 8, 9), f"f1 curve: {f1}"

    # monotone information growth across the divergence
    for a, b in [(2, 4), (4, 8), (8, 10)]:
        assert f1[b] >= f1[a] - 0.05

    elapsed = time.monotonic() - started
    assert elapsed < 120, f"took {elapsed:.1f}s"
    _report(
        6,
        f"f1(PC=2)={f1[2]:.3f}, f1(PC=10)={f1[10]:.3f}, f1(PC=17)={f1[17]:.3f}, "
        f"first N >= 0.9*f1(17) at N={first_n} ({elapsed:.1f}s)",
    )


def test_criterion_7_consistency_robustness(early_corpus):
    """Matched train/test on snapshots stays strong at every prefix size."""
    records, snapshots, rules, _ = early_corpus
    cf = build_cf(records, [label_flow(r, rules) for r in records])
    split = split_keys(cf, 0.70, seed=7007)
    tc = TrainConfig(n_trees=50, seed=7007)
    family = {
        Trigger("pc", n): build_pf(snapshots[Trigger("pc", n)], cf, Trigger("pc", n))
        for n in range(2, 13)
    }
    report = sweep(cf, family, tasks=("binary",), tc=tc, split=split, kinds=("PF_PF",))
    assert len(report.rows) == len(family)
    scores = {}
    for row in report.rows:
        assert not row.skipped_reason, row
        scores[row.threshold] = row.f1
        assert row.f1 >= 0.9, f"{row.threshold}: f1={row.f1:.3f}"
    _report(7, "PF_PF f1 >= 0.9 for PC=2..12 (min {:.3f})".format(min(scores.values())))


CICIDS_ENV = "CICIDS_WEDNESDAY_PCAP"


@pytest.mark.skipif(
    CICIDS_ENV not in os.environ,
    reason=f"offline reproduction: set {CICIDS_ENV} to the Wednesday capture "
    "(see README, 'Reproducing the CICIDS-2017 Wednesday tables')",
)
def test_criterion_8_cicids_wednesday_offline():
    """Offline-only: rebuild the Wednesday CF dataset and compare counts to
    the published breakdown. Deviations are reported, not hidden."""
    from flowlab.trace_io import read_trace

    path = os.environ[CICIDS_ENV]
    trace = reorder(dedup(read_trace(path)))
    records, snapshots = meter(trace, MeterConfig())
    rules = RuleSet.from_json(corpus_path("wednesday_rules"))
    cf = build_cf(records, [label_flow(r, rules) for r in records], min_class_count=50)
    counts = cf.label_counts()
    expected = {
        "BENIGN": 326_363,
        "DoS GoldenEye": 7_917,
        "DoS Hulk": 158_680,
        "DoS Slowhttptest": 3_707,
        "DoS Slowloris": 5_683,
    }
    total = sum(counts.values())
    print(f"CF counts: {counts} (total {total}, expected 502350)")
    pf2 = build_pf(snapshots[Trigger("pc", 2)], cf, Trigger("pc", 2))
    benign2 = pf2.label_counts().get("BENIGN", 0)
    print(f"PC=2: total {len(pf2)} (expected 500493), benign {benign2} (expected 324508)")
    assert counts == expected
    assert total == 502_350
    assert len(pf2) == 500_493
