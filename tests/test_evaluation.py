from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from flowlab import evaluation
from flowlab.dataset import Dataset, align, build_cf, build_pf
from flowlab.errors import EmptyInputError, LengthMismatchError
from flowlab.evaluation import binarize, compute_metrics, split_keys, sweep
from flowlab.forest import TrainConfig, dataset_matrix, predict_matrix, train
from flowlab.labeling import label_flow
from flowlab.meter import Trigger


def _dataset(labels: list[str], provenance="CF") -> Dataset:
    n = len(labels)
    X = np.arange(n).reshape(n, 1)
    return Dataset(provenance, range(1000, 1000 + n), X, labels, ("x",))


def _keys_of(ds: Dataset, label: str) -> set[int]:
    return set(ds.hash64[ds.labels == label].tolist())


class TestSplitKeys:
    def test_exact_stratification(self):
        ds = _dataset(["A"] * 10 + ["B"] * 10)
        split = split_keys(ds, 0.7, seed=0)
        a_keys = _keys_of(ds, "A")
        b_keys = _keys_of(ds, "B")
        assert len(split.train_keys & a_keys) == 7
        assert len(split.train_keys & b_keys) == 7
        assert len(split.test_keys) == 6

    def test_deterministic(self):
        ds = _dataset(["A"] * 25 + ["B"] * 13)
        assert split_keys(ds, 0.7, seed=3) == split_keys(ds, 0.7, seed=3)
        assert split_keys(ds, 0.7, seed=3) != split_keys(ds, 0.7, seed=4)

    def test_disjoint_and_complete(self):
        ds = _dataset(["A"] * 9 + ["B"] * 4 + ["C"] * 7)
        split = split_keys(ds, 0.6, seed=1)
        assert not (split.train_keys & split.test_keys)
        assert split.train_keys | split.test_keys == ds.hashes()

    def test_degenerate_class_goes_to_train(self):
        ds = _dataset(["A"] * 8 + ["RARE"])
        split = split_keys(ds, 0.5, seed=2)
        assert split.degenerate_labels == ("RARE",)
        rare_key = _keys_of(ds, "RARE").pop()
        assert rare_key in split.train_keys

    def test_fraction_within_one_flow_fuzz(self):
        rng = np.random.default_rng(47)
        for _ in range(1000):
            labels = []
            for c in range(int(rng.integers(1, 4))):
                labels += [f"C{c}"] * int(rng.integers(2, 30))
            ratio = float(rng.uniform(0.05, 0.95))
            ds = _dataset(labels)
            split = split_keys(ds, ratio, seed=int(rng.integers(0, 10_000)))
            for label in set(labels):
                keys = _keys_of(ds, label)
                got = len(split.train_keys & keys)
                assert abs(got - len(keys) * ratio) <= 1.0
                # both sides non-empty for stratifiable labels
                assert 0 < got < len(keys)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            split_keys(_dataset(["A", "A"]), 1.0, seed=0)


class TestComputeMetrics:
    def test_perfect_prediction(self):
        y = ["BENIGN", "B", "BENIGN"]
        for task in ("binary", "multiclass"):
            m = compute_metrics(y, y, task)
            assert m.reported_precision == 1.0
            assert m.reported_recall == 1.0
            assert m.reported_f1 == 1.0

    def test_hand_case(self):
        m = compute_metrics(
            ["BENIGN", "BENIGN", "B", "B"], ["BENIGN", "B", "B", "B"], "binary"
        )
        assert m.reported_precision == pytest.approx(2 / 3, abs=0)
        assert m.reported_recall == 1.0
        assert m.reported_f1 == pytest.approx(0.8, abs=1e-15)

    def test_confusion_matrix_counts(self):
        m = compute_metrics(
            ["A", "A", "B", "B"], ["A", "B", "B", "B"], "multiclass"
        )
        assert m.confusion == {"A": {"A": 1, "B": 1}, "B": {"A": 0, "B": 2}}

    def test_binary_mapping_default_benign(self):
        m = compute_metrics(
            ["BENIGN", "DoS Hulk"], ["DoS GoldenEye", "DoS Hulk"], "binary"
        )
        # both attack labels map to ANOMALY: TP=1, FP=1, FN=0
        assert m.reported_precision == 0.5
        assert m.reported_recall == 1.0

    def test_binary_invariant_to_anomaly_composition(self):
        y_true = ["BENIGN", "X", "Y", "BENIGN"]
        y_pred = ["X", "Y", "X", "BENIGN"]
        m1 = compute_metrics(y_true, y_pred, "binary")
        m2 = compute_metrics(["BENIGN", "Z", "Z", "BENIGN"], ["Z", "Z", "Z", "BENIGN"], "binary")
        assert (m1.reported_precision, m1.reported_recall, m1.reported_f1) == (
            m2.reported_precision,
            m2.reported_recall,
            m2.reported_f1,
        )

    def test_multiclass_macro_semantics(self):
        # class C absent from predictions scores precision 0
        m = compute_metrics(["A", "B", "C"], ["A", "B", "B"], "multiclass")
        assert m.per_class["C"].precision == 0.0
        assert m.per_class["C"].recall == 0.0
        macro_f1 = (m.per_class["A"].f1 + m.per_class["B"].f1 + m.per_class["C"].f1) / 3
        assert m.reported_f1 == pytest.approx(macro_f1, abs=1e-15)

    def test_macro_only_over_classes_in_truth(self):
        m = compute_metrics(["A", "A"], ["A", "B"], "multiclass")
        # B appears only in predictions; macro averages over {A}
        assert m.reported_recall == m.per_class["A"].recall

    def test_errors(self):
        with pytest.raises(LengthMismatchError):
            compute_metrics(["A"], ["A", "B"], "binary")
        with pytest.raises(EmptyInputError):
            compute_metrics([], [], "binary")
        with pytest.raises(ValueError, match="unknown task 'bin'"):
            compute_metrics(["A"], ["A"], "bin")

    def test_matches_brute_force_on_random_vectors(self):
        rng = np.random.default_rng(59)
        labels = ["BENIGN", "X", "Y", "Z"]
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            y_true = [labels[i] for i in rng.integers(0, len(labels), size=n)]
            y_pred = [labels[i] for i in rng.integers(0, len(labels), size=n)]
            task = "binary" if rng.random() < 0.5 else "multiclass"
            m = compute_metrics(y_true, y_pred, task)

            if task == "binary":
                t = ["ANOMALY" if l != "BENIGN" else "BENIGN" for l in y_true]
                p = ["ANOMALY" if l != "BENIGN" else "BENIGN" for l in y_pred]
                tp = sum(1 for a, b in zip(t, p) if a == b == "ANOMALY")
                fp = sum(1 for a, b in zip(t, p) if a == "BENIGN" and b == "ANOMALY")
                fn = sum(1 for a, b in zip(t, p) if a == "ANOMALY" and b == "BENIGN")
                prec = tp / (tp + fp) if tp + fp else 0.0
                rec = tp / (tp + fn) if tp + fn else 0.0
            else:
                precs, recs, f1s = [], [], []
                for c in sorted(set(y_true)):
                    tp = sum(1 for a, b in zip(y_true, y_pred) if a == b == c)
                    fp = sum(1 for a, b in zip(y_true, y_pred) if a != c and b == c)
                    fn = sum(1 for a, b in zip(y_true, y_pred) if a == c and b != c)
                    precs.append(tp / (tp + fp) if tp + fp else 0.0)
                    recs.append(tp / (tp + fn) if tp + fn else 0.0)
                    pr, rc = precs[-1], recs[-1]
                    f1s.append(2 * pr * rc / (pr + rc) if pr + rc else 0.0)
                prec = sum(precs) / len(precs)
                rec = sum(recs) / len(recs)
            assert abs(m.reported_precision - prec) < 1e-12
            assert abs(m.reported_recall - rec) < 1e-12
            if task == "multiclass":
                assert abs(m.reported_f1 - sum(f1s) / len(f1s)) < 1e-12

    def test_f1_self_consistency(self):
        rng = np.random.default_rng(61)
        labels = ["BENIGN", "X", "Y"]
        for _ in range(200):
            n = int(rng.integers(1, 30))
            y_true = [labels[i] for i in rng.integers(0, 3, size=n)]
            y_pred = [labels[i] for i in rng.integers(0, 3, size=n)]
            m = compute_metrics(y_true, y_pred, "multiclass")
            present = sorted(set(y_true))
            assert m.reported_f1 == pytest.approx(
                sum(m.per_class[c].f1 for c in present) / len(present), abs=1e-15
            )


def _corpus_eval_inputs(corpus):
    records, snapshots, rules, _ = corpus
    cf = build_cf(records, [label_flow(r, rules) for r in records])
    return cf, snapshots


class TestRunScenario:
    """One scenario cell, run as a sweep of one trigger, kind and task."""

    def test_cf_cf_separable(self, early_corpus):
        cf, snapshots = _corpus_eval_inputs(early_corpus)
        pf = build_pf(snapshots[Trigger("pc", 2)], cf, Trigger("pc", 2))
        report = sweep(
            cf,
            {Trigger("pc", 2): pf},
            tasks=("binary",),
            tc=TrainConfig(n_trees=20, seed=0),
            split=split_keys(cf, 0.7, seed=0),
            kinds=("CF_CF",),
        )
        (row,) = report.rows
        assert row.n_train + row.n_test == len(cf)
        assert row.f1 >= 0.99

    def test_key_hygiene(self, early_corpus):
        cf, snapshots = _corpus_eval_inputs(early_corpus)
        split = split_keys(cf, 0.7, seed=5)
        assert not (split.train_keys & split.test_keys)


class TestSweep:
    @pytest.mark.parametrize(
        "kinds,message",
        [
            (("CF_CF", "XX_YY"), "unknown scenario kind 'XX_YY'"),
            (["cf_cf"], "unknown scenario kind 'cf_cf'"),
            (("PF_PF", "PF_PF", "XX_YY"), "duplicate scenario 'PF_PF'"),
            (("CF_CF", "CF_PF", "CF_CF"), "duplicate scenario 'CF_CF'"),
        ],
    )
    def test_bad_kinds_rejected_before_training(self, monkeypatch, kinds, message):
        def no_training(*args, **kwargs):
            raise AssertionError("trained despite bad kinds")

        monkeypatch.setattr(evaluation, "train", no_training)
        cf = _dataset(["A", "B"] * 5)
        pf = _dataset(["A", "B"] * 5, provenance="PC=2")
        with pytest.raises(ValueError, match=message):
            sweep(cf, {Trigger("pc", 2): pf}, tasks=("binary",), kinds=kinds)

    @pytest.mark.parametrize(
        "tasks,message",
        [
            (("binary", "bin"), "unknown task 'bin'"),
            (["Binary"], "unknown task 'Binary'"),
            (("binary", "binary"), "duplicate task 'binary'"),
            (("multiclass", "binary", "multiclass"), "duplicate task 'multiclass'"),
        ],
    )
    def test_bad_tasks_rejected_before_training(self, monkeypatch, tasks, message):
        def no_training(*args, **kwargs):
            raise AssertionError("trained despite bad tasks")

        monkeypatch.setattr(evaluation, "train", no_training)
        cf = _dataset(["A", "B"] * 5)
        pf = _dataset(["A", "B"] * 5, provenance="PC=2")
        with pytest.raises(ValueError, match=message):
            sweep(cf, {Trigger("pc", 2): pf}, tasks=tasks)

    def test_single_threshold_row_count(self, early_corpus):
        cf, snapshots = _corpus_eval_inputs(early_corpus)
        pf = build_pf(snapshots[Trigger("pc", 2)], cf, Trigger("pc", 2))
        report = sweep(
            cf,
            {Trigger("pc", 2): pf},
            tasks=("binary",),
            tc=TrainConfig(n_trees=5, seed=0),
        )
        assert len(report.rows) == 3
        assert [r.scenario for r in report.rows] == ["CF_CF", "PF_PF", "CF_PF"]
        assert all(r.threshold == "PC=2" for r in report.rows)
        assert all(not r.skipped_reason for r in report.rows)

    def test_empty_family_member_skipped(self, early_corpus):
        cf, snapshots = _corpus_eval_inputs(early_corpus)
        pf2 = build_pf(snapshots[Trigger("pc", 2)], cf, Trigger("pc", 2))
        report = sweep(
            cf,
            {Trigger("pc", 2): pf2, Trigger("pc", 19): Dataset("PC=19", [], [], [])},
            tasks=("binary",),
            tc=TrainConfig(n_trees=5, seed=0),
        )
        by_threshold = {}
        for row in report.rows:
            by_threshold.setdefault(row.threshold, []).append(row)
        assert all(r.skipped_reason for r in by_threshold["PC=19"])
        assert all(not r.skipped_reason for r in by_threshold["PC=2"])

    def test_no_test_flow_in_the_pf_set_skips_every_cell(self):
        cf = _dataset(["A", "B"] * 10)
        split = split_keys(cf, 0.7, seed=0)
        pf = cf.restrict(split.train_keys).replace(provenance="PC=2")
        report = sweep(cf, {Trigger("pc", 2): pf}, tasks=("binary",), split=split,
                       tc=TrainConfig(n_trees=2))
        assert [(r.scenario, r.n_train, r.n_test, r.skipped_reason) for r in report.rows] == [
            (kind, 14, 0, "empty test side") for kind in ("CF_CF", "PF_PF", "CF_PF")
        ]

    def test_scoring_error_recorded_as_skipped(self):
        # A PF schema of two features: a CF forest cannot score it.
        cf = _dataset(["A", "B"] * 10)
        pf = Dataset("PC=2", cf.hash64, np.hstack([cf.X, cf.X]), cf.labels, ("x", "y"))
        report = sweep(cf, {Trigger("pc", 2): pf}, tasks=("binary",), tc=TrainConfig(n_trees=2))
        reasons = {r.scenario: r.skipped_reason for r in report.rows}
        assert reasons["CF_CF"] == reasons["PF_PF"] == ""
        assert reasons["CF_PF"] == "expected 1 features, got (6, 2)"
        assert [r.f1 is None for r in report.rows] == [False, False, True]

    def test_row_cardinality_matches_enumeration(self, early_corpus):
        cf, snapshots = _corpus_eval_inputs(early_corpus)
        family = {
            Trigger("pc", n): build_pf(snapshots[Trigger("pc", n)], cf, Trigger("pc", n))
            for n in (2, 3, 4)
        }
        tasks = ("binary", "multiclass")
        report = sweep(cf, family, tasks=tasks, tc=TrainConfig(n_trees=4, seed=0))
        assert len(report.rows) == 3 * len(tasks) * len(family)
        # deterministic ordering by (threshold, scenario, task)
        expected_order = [
            (f"PC={n}", kind, task)
            for n in (2, 3, 4)
            for kind in ("CF_CF", "PF_PF", "CF_PF")
            for task in tasks
        ]
        assert [(r.threshold, r.scenario, r.task) for r in report.rows] == expected_order

    @pytest.mark.parametrize("thin_pc3", [False, True])
    def test_trains_each_distinct_train_side_once(self, early_corpus, monkeypatch, thin_pc3):
        cf, snapshots = _corpus_eval_inputs(early_corpus)
        # Every flow of the corpus reaches 4 packets, so each PF file holds
        # every CF flow and all thresholds share one CF train side, unless
        # PC=3 is thinned: then PC=3 and PC=4 each change the CF train side.
        family = {
            Trigger("pc", n): build_pf(snapshots[Trigger("pc", n)], cf, Trigger("pc", n))
            for n in (2, 3, 4)
        }
        assert all(pf.hashes() == cf.hashes() for pf in family.values())
        if thin_pc3:
            pf3 = family[Trigger("pc", 3)]
            family[Trigger("pc", 3)] = pf3.restrict(frozenset(pf3.hash64[::2].tolist()))
        tasks = ("binary", "multiclass")
        tc = TrainConfig(n_trees=4, seed=3)
        split = split_keys(cf, 0.7, seed=3)
        trained = []
        real_train = evaluation.train

        def counting_train(sides, *args, **kwargs):
            trained.extend(sides)
            return real_train(sides, *args, **kwargs)

        monkeypatch.setattr(evaluation, "train", counting_train)
        report = sweep(cf, family, tasks=tasks, tc=tc, split=split)
        cf_trains = len(family) if thin_pc3 else 1
        assert len(trained) == len(tasks) * (cf_trains + len(family))

        # Oracle: every cell trained afresh from its own train side.
        for row in report.rows:
            trigger = next(t for t in family if str(t) == row.threshold)
            acf, apf = align(cf, family[trigger])
            train_src = apf if row.scenario == "PF_PF" else acf
            test_src = acf if row.scenario == "CF_CF" else apf
            sides = []
            for src, keys in ((train_src, split.train_keys), (test_src, split.test_keys)):
                side = src.restrict(keys)
                if row.task == "binary":
                    side = side.replace(labels=binarize(side.labels))
                sides.append(side)
            forest = train(sides[0], tc)
            X, y_true = dataset_matrix(sides[1])
            m = compute_metrics(y_true, predict_matrix(forest, X), row.task)
            assert (row.n_train, row.n_test) == (len(sides[0]), len(sides[1]))
            assert (row.precision, row.recall, row.f1) == (
                m.reported_precision,
                m.reported_recall,
                m.reported_f1,
            )

    @pytest.mark.parametrize("budget_sides", [None, 1, 3])
    def test_trains_once_per_flush(self, early_corpus, monkeypatch, budget_sides):
        # The sweep calls evaluation.train, the name the benchmark's tracer
        # wraps, once per flush of its queue with every queued side, and
        # flushes once the queue's rows times the trees reach the budget.
        cf, snapshots = _corpus_eval_inputs(early_corpus)
        family = {
            Trigger("pc", n): build_pf(snapshots[Trigger("pc", n)], cf, Trigger("pc", n))
            for n in (2, 3, 4)
        }
        tc = TrainConfig(n_trees=2, seed=0)
        calls = []
        real_train = evaluation.train

        def counting_train(sides, *args, **kwargs):
            calls.append([len(side) for side in sides])
            return real_train(sides, *args, **kwargs)

        monkeypatch.setattr(evaluation, "train", counting_train)
        sweep(cf, family, tc=tc)
        # The default budget holds this corpus's sides in one call: one CF
        # side per task, shared by every threshold, and one PF side per
        # threshold and task.
        (sides,) = calls
        assert len(sides) == 2 * (1 + len(family))
        if budget_sides is None:
            return
        budget = tc.n_trees * sum(sides[:budget_sides])
        monkeypatch.setattr(evaluation, "TRAIN_BUDGET_TREE_ROWS", budget)
        calls.clear()
        sweep(cf, family, tc=tc)
        assert len(calls[0]) == budget_sides
        assert [n for call in calls for n in call] == sides
        for call in calls[:-1]:
            assert tc.n_trees * sum(call) >= budget > tc.n_trees * sum(call[:-1])
        assert tc.n_trees * sum(calls[-1][:-1]) < budget

    @pytest.mark.parametrize("thin_pc3", [False, True])
    def test_results_bytes_independent_of_the_budget(self, early_corpus, monkeypatch, thin_pc3):
        cf, snapshots = _corpus_eval_inputs(early_corpus)
        family = {
            Trigger("pc", n): build_pf(snapshots[Trigger("pc", n)], cf, Trigger("pc", n))
            for n in (2, 3, 4, 5)
        }
        if thin_pc3:
            pf3 = family[Trigger("pc", 3)]
            family[Trigger("pc", 3)] = pf3.restrict(frozenset(pf3.hash64[::2].tolist()))
        tc = TrainConfig(n_trees=3, seed=2)
        whole = sweep(cf, family, tc=tc)
        smallest = min(row.n_train for row in whole.rows)
        monkeypatch.setattr(evaluation, "TRAIN_BUDGET_TREE_ROWS", tc.n_trees * smallest)
        assert sweep(cf, family, tc=tc).to_csv_text() == whole.to_csv_text()

    def test_memory_bounded_by_the_budget_not_the_thresholds(self, early_corpus, monkeypatch):
        # With the budget below one side's tree-rows, every side is trained
        # and scored as soon as it is queued: 6 thresholds must peak near 1.
        cf, snapshots = _corpus_eval_inputs(early_corpus)
        family = {
            Trigger("pc", n): build_pf(snapshots[Trigger("pc", n)], cf, Trigger("pc", n))
            for n in range(2, 8)
        }
        monkeypatch.setattr(evaluation, "TRAIN_BUDGET_TREE_ROWS", 1)

        def peak(family) -> int:
            tracemalloc.start()
            try:
                sweep(cf, family, tc=TrainConfig(n_trees=10, seed=1))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(family) <= 1.5 * peak(dict(list(family.items())[:1]))

    def test_csv_shape(self, early_corpus):
        cf, snapshots = _corpus_eval_inputs(early_corpus)
        pf = build_pf(snapshots[Trigger("pc", 2)], cf, Trigger("pc", 2))
        report = sweep(
            cf, {Trigger("pc", 2): pf}, tasks=("binary",), tc=TrainConfig(n_trees=3, seed=0)
        )
        lines = report.to_csv_text().splitlines()
        assert lines[0] == (
            "threshold,scenario,task,precision,recall,f1,n_train,n_test,skipped_reason"
        )
        assert len(lines) == 4


class TestBinarize:
    def test_every_label_but_benign_is_anomalous(self):
        assert binarize(["BENIGN", "X"]) == ["BENIGN", "ANOMALY"]
