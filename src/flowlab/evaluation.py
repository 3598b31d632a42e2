"""Train/test scenarios and metric conventions.

Splits are stratified at the flow-hash level so a parent flow's complete
record and its snapshots can never straddle train and test. Binary metrics
report the anomaly class; multiclass metrics are macro-averaged over the
classes present in the test truth.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .dataset import Dataset, align
from .errors import EmptyInputError, FlowLabError, LengthMismatchError
from .forest import RandomForest, TrainConfig, dataset_matrix, predict_matrix, train
from .labeling import BENIGN
from .meter import Trigger

BINARY = "binary"
MULTICLASS = "multiclass"
ANOMALY = "ANOMALY"

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


def binarize(labels) -> list[str]:
    """Map labels onto {BENIGN, ANOMALY}: everything except ``BENIGN`` is
    anomalous."""
    return [BENIGN if l == BENIGN else ANOMALY for l in labels]


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def compute_metrics(y_true, y_pred, task: str = BINARY) -> Metrics:
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
        y_true = binarize(y_true)
        y_pred = binarize(y_pred)
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
        # Summed left to right: since Python 3.12, sum() compensates float sums.
        rp = reduce(add, (per_class[c].precision for c in present), 0.0) / len(present)
        rr = reduce(add, (per_class[c].recall for c in present), 0.0) / len(present)
        rf = reduce(add, (per_class[c].f1 for c in present), 0.0) / len(present)

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
        side = side.replace(labels=binarize(side.labels))
    return side


def _train_side(kind: str, acf: Dataset, apf: Dataset, split: Split, task: str) -> Dataset:
    return _restrict(acf if kind in ("CF_CF", "CF_PF") else apf, split.train_keys, task)


def _score(forest: RandomForest, test: Dataset, task: str) -> Metrics:
    X, y_true = dataset_matrix(test)
    y_pred = predict_matrix(forest, X)
    return compute_metrics(y_true, y_pred, task)


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


# The sweep trains its queued train sides in one call once their rows times
# the trees per forest reach this many tree-rows. Growing forests together
# pays where each has few trees, and costs memory for every queued row. On
# the late_divergence corpus at 20k flows (train sides of 14k rows, 2-core
# host) this budget holds 4 sides at 10 trees, which cut eval from 66 s to
# 53 s for 49 MB more peak RSS (medians of 3 runs), and 1 side at 100
# trees, where a run with 6 sides per call gained nothing for 220 MB more.
TRAIN_BUDGET_TREE_ROWS = 2**19


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
) -> Report:
    """Run all scenarios over every threshold and task.

    Each threshold's CF side is the complete-flow dataset intersected with
    that partial-flow dataset's hashes; one split (computed on the full CF
    when not supplied) is shared by every cell. Cells whose train or test
    side comes up empty are recorded as skipped, never aborting the sweep.

    Each distinct train side is trained once: CF_CF and CF_PF cells reuse
    the last CF forest of their task, across thresholds too, while its train
    hashes stay the same. The sweep walks the cells in two passes: it queues
    the distinct train sides, and once their rows times ``tc.n_trees`` reach
    TRAIN_BUDGET_TREE_ROWS, or the cells run out, it grows all their forests
    in one ``train`` call and scores the cells queued so far, building each
    test side then from the test flows of the cell's threshold. An empty
    train side, the one ``train`` rejects with a FlowLabError, is never
    queued: its cells are skipped.

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

    # A cell's slot is a list that receives its train side's forest when
    # the queue is trained; a skipped cell has none.
    queue: list[tuple[Dataset, list]] = []
    # (trigger, PF, test keys, kind, task, n_train, skipped, slot)
    cells: list[tuple] = []
    # Every CF train side filters ``cf`` in its own order, so its hash set
    # determines its flows and their order, and thus the forest.
    last_cf: dict[str, tuple[frozenset[int], list]] = {}
    rows: list[SweepRow] = []

    def flush() -> None:
        if queue:
            forests = train([side for side, _ in queue], tc)
            for (_, slot), forest in zip(queue, forests):
                slot.append(forest)
            queue.clear()
        for trigger, pf, keys, kind, task, n_train, skipped, slot in cells:
            metrics = None
            if slot:
                test = _restrict(cf if kind == "CF_CF" else pf, keys, task)
                try:
                    metrics = _score(slot[0], test, task)
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
                    n_test=len(keys),
                    skipped_reason=skipped,
                )
            )
        cells.clear()

    def walk(trigger: Trigger) -> None:
        """Queue the cells of one threshold, flushing at the budget."""
        pf = pf_family[trigger]
        aligned = align(cf, pf)
        # The test flows of both aligned sides; a cell's test side is built
        # from these when the cell is scored. Hashes are unique in a Dataset.
        keys = split.test_keys.intersection(aligned[0].hash64.tolist())
        for kind in kinds:
            for task in tasks:
                train_side = _train_side(kind, *aligned, split, task)
                n_train = len(train_side)
                skipped = ""
                slot = None
                if n_train == 0:
                    skipped = "empty train side"
                elif not keys:
                    skipped = "empty test side"
                else:
                    key = None if kind == "PF_PF" else frozenset(train_side.hash64.tolist())
                    last = last_cf.get(task)
                    if key is not None and last is not None and last[0] == key:
                        slot = last[1]
                    else:
                        slot = []
                        queue.append((train_side, slot))
                        if key is not None:
                            last_cf[task] = (key, slot)
                cells.append((trigger, pf, keys, kind, task, n_train, skipped, slot))
                if tc.n_trees * sum(len(side) for side, _ in queue) >= TRAIN_BUDGET_TREE_ROWS:
                    flush()

    for trigger in sorted(pf_family, key=Trigger.sort_key):
        walk(trigger)
    flush()
    return Report(rows=tuple(rows))
