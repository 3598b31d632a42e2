"""Train/test scenarios and metric conventions.

Splits are stratified at the flow-hash level so a parent flow's complete
record and its snapshots can never straddle train and test. Binary metrics
report the anomaly class; multiclass metrics are macro-averaged over the
classes present in the test truth.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset, align
from .errors import EmptyInputError, FlowLabError, LengthMismatchError
from .forest import RandomForest, TrainConfig, dataset_matrix, predict_matrix, train
from .meter import Trigger

BINARY = "binary"
MULTICLASS = "multiclass"
ANOMALY = "ANOMALY"
BENIGN = "BENIGN"

SCENARIO_KINDS = ("CF_CF", "PF_PF", "CF_PF")


@dataclass(frozen=True)
class Split:
    """Disjoint train/test flow-hash sets, stratified by label."""

    train_keys: frozenset[int]
    test_keys: frozenset[int]
    degenerate_labels: tuple[str, ...] = ()


def split_keys(cf: Dataset, ratio: float = 0.70, seed: int = 0) -> Split:
    """Deterministic stratified shuffle split of a dataset's flow hashes.

    Per label the train share is within one flow of ``ratio``. Labels with
    fewer than two flows cannot be stratified; they go wholly to train and
    are flagged in ``degenerate_labels``.
    """
    if not 0 < ratio < 1:
        raise ValueError("ratio must be in (0, 1)")
    rng = np.random.Generator(np.random.PCG64(seed))
    by_label: dict[str, list[int]] = {}
    for label, h in zip(cf.labels.tolist(), cf.hash64.tolist()):
        by_label.setdefault(label, []).append(h)

    train: set[int] = set()
    test: set[int] = set()
    degenerate: list[str] = []
    for label in sorted(by_label):
        hashes = sorted(set(by_label[label]))
        if len(hashes) < 2:
            train.update(hashes)
            degenerate.append(label)
            continue
        order = rng.permutation(len(hashes))
        shuffled = [hashes[i] for i in order]
        k = round(len(hashes) * ratio)
        k = min(max(k, 1), len(hashes) - 1)
        train.update(shuffled[:k])
        test.update(shuffled[k:])
    return Split(
        train_keys=frozenset(train),
        test_keys=frozenset(test),
        degenerate_labels=tuple(degenerate),
    )


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class Metrics:
    task: str
    per_class: dict[str, ClassMetrics]
    reported_precision: float
    reported_recall: float
    reported_f1: float
    confusion: dict[str, dict[str, int]]


def binarize(labels, anomaly_labels=None, benign_label: str = BENIGN) -> list[str]:
    """Map labels onto {BENIGN, ANOMALY}.

    With an explicit ``anomaly_labels`` set, membership decides; otherwise
    everything except ``benign_label`` is anomalous.
    """
    if anomaly_labels is None:
        return [benign_label if l == benign_label else ANOMALY for l in labels]
    return [ANOMALY if l in anomaly_labels else benign_label for l in labels]


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def compute_metrics(
    y_true,
    y_pred,
    task: str = BINARY,
    anomaly_labels=None,
    benign_label: str = BENIGN,
) -> Metrics:
    """Precision/recall/F1 under the binary or multiclass convention.

    Binary: labels are first mapped onto {BENIGN, ANOMALY}; the reported
    metrics are the anomaly class's. Multiclass: one-vs-rest per class;
    reported metrics are unweighted means over the classes present in
    ``y_true``, with never-predicted classes scoring precision 0.
    """
    y_true = list(y_true)
    y_pred = list(y_pred)
    if len(y_true) != len(y_pred):
        raise LengthMismatchError(
            f"y_true has {len(y_true)} items, y_pred {len(y_pred)}"
        )
    if not y_true:
        raise EmptyInputError("empty label vectors")
    if task == BINARY:
        y_true = binarize(y_true, anomaly_labels, benign_label)
        y_pred = binarize(y_pred, anomaly_labels, benign_label)
    elif task != MULTICLASS:
        raise ValueError(f"unknown task {task!r}")

    observed = sorted(set(y_true) | set(y_pred))
    confusion: dict[str, dict[str, int]] = {
        t: {p: 0 for p in observed} for t in observed
    }
    for t, p in zip(y_true, y_pred):
        confusion[t][p] += 1

    per_class: dict[str, ClassMetrics] = {}
    for label in observed:
        tp = confusion[label][label]
        fp = sum(confusion[t][label] for t in observed if t != label)
        fn = sum(confusion[label][p] for p in observed if p != label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        per_class[label] = ClassMetrics(precision, recall, _f1(precision, recall))

    if task == BINARY:
        reported = per_class.get(ANOMALY, ClassMetrics(0.0, 0.0, 0.0))
        rp, rr, rf = reported.precision, reported.recall, reported.f1
    else:
        present = sorted(set(y_true))
        rp = sum(per_class[c].precision for c in present) / len(present)
        rr = sum(per_class[c].recall for c in present) / len(present)
        rf = sum(per_class[c].f1 for c in present) / len(present)

    return Metrics(
        task=task,
        per_class=per_class,
        reported_precision=rp,
        reported_recall=rr,
        reported_f1=rf,
        confusion=confusion,
    )


def _restrict(ds: Dataset, keys: frozenset[int], task: str) -> Dataset:
    """The rows of ``ds`` whose hash is in ``keys``, binarised for a binary task."""
    side = ds.restrict(keys)
    if task == BINARY:
        side = replace(side, labels=binarize(side.labels))
    return side


def _sides(
    kind: str, cf: Dataset, pf: Dataset, split: Split, task: str
) -> tuple[Dataset, Dataset]:
    train_src = cf if kind in ("CF_CF", "CF_PF") else pf
    test_src = cf if kind == "CF_CF" else pf
    return (
        _restrict(train_src, split.train_keys, task),
        _restrict(test_src, split.test_keys, task),
    )


def _score(forest: RandomForest, test: Dataset, task: str) -> Metrics:
    X, y_true = dataset_matrix(test)
    y_pred = predict_matrix(forest, X)
    return compute_metrics(y_true, y_pred, task, anomaly_labels={ANOMALY})


@dataclass(frozen=True)
class SweepRow:
    threshold: str
    scenario: str
    task: str
    precision: float | None
    recall: float | None
    f1: float | None
    n_train: int
    n_test: int
    skipped_reason: str = ""

    def as_csv_row(self) -> list[str]:
        def num(v):
            return "" if v is None else repr(v)

        return [
            self.threshold,
            self.scenario,
            self.task,
            num(self.precision),
            num(self.recall),
            num(self.f1),
            str(self.n_train),
            str(self.n_test),
            self.skipped_reason,
        ]


RESULT_COLUMNS = (
    "threshold",
    "scenario",
    "task",
    "precision",
    "recall",
    "f1",
    "n_train",
    "n_test",
    "skipped_reason",
)


@dataclass(frozen=True)
class Report:
    """Long-format sweep results, one row per (threshold, scenario, task)."""

    rows: tuple[SweepRow, ...]

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        for row in self.rows:
            writer.writerow(row.as_csv_row())
        return buf.getvalue()

    def to_text(self) -> str:
        lines = [
            f"{'threshold':<10} {'scenario':<7} {'task':<10} {'precision':>9} "
            f"{'recall':>9} {'f1':>9} {'n_train':>8} {'n_test':>7}  skipped"
        ]
        for r in self.rows:
            if r.skipped_reason:
                lines.append(
                    f"{r.threshold:<10} {r.scenario:<7} {r.task:<10} {'-':>9} "
                    f"{'-':>9} {'-':>9} {r.n_train:>8} {r.n_test:>7}  {r.skipped_reason}"
                )
            else:
                lines.append(
                    f"{r.threshold:<10} {r.scenario:<7} {r.task:<10} "
                    f"{r.precision:>9.4f} {r.recall:>9.4f} {r.f1:>9.4f} "
                    f"{r.n_train:>8} {r.n_test:>7}"
                )
        return "\n".join(lines)


def sweep(
    cf: Dataset,
    pf_family: dict[Trigger, Dataset],
    tasks=(BINARY, MULTICLASS),
    tc: TrainConfig | None = None,
    split: Split | None = None,
    kinds=SCENARIO_KINDS,
    n_jobs: int = 1,
) -> Report:
    """Run all scenarios over every threshold and task.

    Each threshold's CF side is the complete-flow dataset intersected with
    that partial-flow dataset's hashes; one split (computed on the full CF
    when not supplied) is shared by every cell. Cells whose train or test
    side comes up empty are recorded as skipped, never aborting the sweep.

    Each distinct train side is trained once: CF_CF and CF_PF cells reuse
    the last CF forest of their task, across thresholds too, while its train
    hashes stay the same.

    Raises ValueError, before any training, for a kind outside
    SCENARIO_KINDS or a task outside (BINARY, MULTICLASS), or either repeated.
    """
    for kind in kinds:
        if kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {kind!r}")
        if kinds.count(kind) > 1:
            raise ValueError(f"duplicate scenario {kind!r}")
    for task in tasks:
        if task not in (BINARY, MULTICLASS):
            raise ValueError(f"unknown task {task!r}")
        if tasks.count(task) > 1:
            raise ValueError(f"duplicate task {task!r}")
    if tc is None:
        tc = TrainConfig()
    if split is None:
        split = split_keys(cf, 0.70, tc.seed)

    # Every CF train side filters ``cf`` in its own order, so its hash set
    # determines its flows and their order, and thus the forest.
    cf_forests: dict[str, tuple[frozenset[int], RandomForest]] = {}

    def fit(kind: str, task: str, train_side: Dataset) -> RandomForest:
        if kind == "PF_PF":
            return train(train_side, tc, n_jobs=n_jobs)
        key = frozenset(train_side.hash64.tolist())
        last = cf_forests.get(task)
        if last is None or last[0] != key:
            last = cf_forests[task] = (key, train(train_side, tc, n_jobs=n_jobs))
        return last[1]

    rows: list[SweepRow] = []
    for trigger in sorted(pf_family, key=Trigger.sort_key):
        acf, apf = align(cf, pf_family[trigger])
        for kind in kinds:
            for task in tasks:
                train_side, test_side = _sides(kind, acf, apf, split, task)
                n_train, n_test = len(train_side), len(test_side)
                skipped = ""
                metrics = None
                if n_train == 0:
                    skipped = "empty train side"
                elif n_test == 0:
                    skipped = "empty test side"
                else:
                    try:
                        forest = fit(kind, task, train_side)
                        metrics = _score(forest, test_side, task)
                    except FlowLabError as exc:  # recorded per cell, sweep continues
                        skipped = str(exc)
                rows.append(
                    SweepRow(
                        threshold=str(trigger),
                        scenario=kind,
                        task=task,
                        precision=metrics.reported_precision if metrics else None,
                        recall=metrics.reported_recall if metrics else None,
                        f1=metrics.reported_f1 if metrics else None,
                        n_train=n_train,
                        n_test=n_test,
                        skipped_reason=skipped,
                    )
                )
    return Report(rows=tuple(rows))
