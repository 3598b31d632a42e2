"""From-scratch random forest classifier.

Bootstrap-sampled decision trees grown by best-Gini-gain splits over random
feature subsets, voting by plurality. Training is deterministic for a given
(dataset, config) pair: each tree derives its own RNG from the config seed
and the tree index, so no tree depends on the trees and forests grown beside
it.

``train`` grows many forests at once, one per dataset, in lockstep: each
step takes the next node that may split of every tree of every forest whose
dataset has as many labels, recording the leaves before it on the way, and
scores those nodes in few segmented searches over per-feature value ranks,
so numpy's per-call cost is paid per step rather than per node. Each tree
comes out as if grown alone. ``predict_matrix`` likewise walks all of a
forest's trees at once.
"""

from __future__ import annotations

import json
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .dataset import Dataset
from .errors import ANY, STR, Field, TrainConfig, check, replacing
from .errors import EmptyDatasetError, FlowLabError, SchemaMismatchError, UnreadableFileError

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def tree_seed(seed: int, index: int) -> int:
    """Sub-seed for tree ``index``: a splitmix-style 64-bit mix of both."""
    return _splitmix64((seed & _MASK64) + ((index + 1) * _GOLDEN & _MASK64) & _MASK64)


@dataclass(eq=False)
class Tree:
    """One decision tree as parallel arrays over its nodes in preorder.

    Node 0 is the root. Split ``i`` sends a sample to node ``left[i]`` iff
    ``x[feature[i]] <= threshold[i]``, else to node ``right[i]``; both lie
    after ``i``. A leaf has ``feature``, ``left`` and ``right`` -1, threshold
    0 and predicts label index ``value``; a split's ``value`` is -1.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def __post_init__(self) -> None:
        for f in fields(self):
            dtype = float if f.name == "threshold" else np.int64
            setattr(self, f.name, np.asarray(getattr(self, f.name), dtype=dtype))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )


class _Nodes(NamedTuple):
    """A forest's node arrays laid end to end: tree ``t``'s node ``i`` is
    node ``roots[t] + i``, and node ``j``'s children, offset likewise, are
    ``child[2 * j]`` (right) and ``child[2 * j + 1]`` (left)."""

    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray
    child: np.ndarray


def _lay_out(trees: Sequence[Tree]) -> _Nodes:
    roots = np.cumsum([0] + [len(tree.feature) for tree in trees[:-1]])
    feature, threshold, value = (
        np.concatenate([getattr(tree, name) for tree in trees])
        for name in ("feature", "threshold", "value")
    )
    child = np.concatenate(
        [np.stack((t.right, t.left), axis=1).ravel() + root for t, root in zip(trees, roots)]
    )
    return _Nodes(roots, feature, threshold, value, child)


@dataclass(frozen=True)
class RandomForest:
    """Trees and what they predict; ``nodes`` lays the trees' node arrays
    out end to end once, for ``predict_matrix``."""

    trees: tuple[Tree, ...]
    feature_schema: tuple[str, ...]
    labels: tuple[str, ...]  # sorted; vote ties resolve to the smallest index
    train_config: TrainConfig = field(default_factory=TrainConfig)
    nodes: _Nodes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", _lay_out(self.trees))


def _dense_ranks(XT: np.ndarray, out: np.ndarray) -> None:
    """Write to ``out`` each value of the feature-major ``XT`` as its dense
    rank within its feature: equal values share a rank, so ranks order and
    tie as values do."""
    order = XT.argsort(axis=1)
    sv = np.take_along_axis(XT, order, axis=1)
    dense = np.zeros(XT.shape, dtype=np.int32)
    np.cumsum(sv[:, 1:] != sv[:, :-1], axis=1, out=dense[:, 1:])
    np.put_along_axis(out, order, dense, axis=1)


def _search(
    XT: np.ndarray,
    rank: np.ndarray,
    y: np.ndarray,
    counts: np.ndarray,
    features: np.ndarray,
    rows_list: list[np.ndarray],
    min_samples_leaf: int,
) -> list[tuple | None]:
    """Best-Gini-gain split of every node in ``rows_list``, in one pass.

    Node ``c`` holds rows ``rows_list[c]``, label counts ``counts[c]`` and
    sampled features ``features[c]``. Slot ``s`` sorts every node's rows by
    the key (node, rank of its slot-``s`` feature), so row ``s`` of each
    ``m x T`` array lays the nodes' sorted values side by side, and label
    counts restart at each node. Each cut's gain is the single-node formula
    applied element by element, so it has the same bits whatever else shares
    the pass. Cuts inside a run of equal values, or that leave fewer than
    ``min_samples_leaf`` rows on a side, score -1. Ties resolve as in a
    feature-by-feature scan: the first best cut within a slot, then the
    first slot, in sampled order, to reach the best gain.

    Returns per node None, when no cut gains, or the feature, the threshold,
    and its rows in the winning slot's order cut into those ``<=`` the
    threshold and the rest. The order of a node's rows changes none of its
    gains.
    """
    sizes = counts.sum(axis=1)
    parent_gini = 1.0 - ((counts / sizes[:, None]) ** 2).sum(axis=1)
    starts = np.cumsum(sizes) - sizes
    rows = np.concatenate(rows_list)
    total = len(rows)
    nodes = np.arange(len(rows_list))
    node = np.repeat(nodes, sizes)
    n_rows = rank.shape[1]
    key = rank.ravel()[np.repeat(features.T * n_rows, sizes, axis=1) + rows] + node * n_rows
    order = key.argsort(axis=1)
    sorted_rows = rows[order]
    key = key[np.arange(len(key))[:, None], order]
    # Cumulative label counts, labels x slots x rows, less those of the
    # nodes before: exact integers, so the same numbers as float counts.
    left = np.cumsum(y[sorted_rows] == np.arange(counts.shape[1])[:, None, None], axis=2)
    through = np.cumsum(counts, axis=0).T
    right = np.repeat(through, sizes, axis=1)[:, None] - left
    left -= np.repeat(through - counts.T, sizes, axis=1)[:, None]
    n = sizes[node]
    n_left = np.arange(1.0, total + 1.0) - starts[node]
    n_right = n - n_left
    gini_left = 1.0 - np.square(left, out=left).sum(axis=0) / n_left**2
    # n_right is 0 only at a node's last row, which is never a valid cut.
    gini_right = 1.0 - np.square(right, out=right).sum(axis=0) / np.maximum(n_right, 1.0) ** 2
    weighted = (n_left * gini_left + n_right * gini_right) / n
    # A node's last row differs in key from the next node's first: that
    # boundary lies outside every valid cut and every count below.
    boundary = np.ones(key.shape, dtype=bool)
    np.not_equal(key[:, 1:], key[:, :-1], out=boundary[:, :-1])
    valid = boundary & (np.minimum(n_left, n_right) >= min_samples_leaf)
    gains = np.where(valid, parent_gini[node] - weighted, -1.0)
    best = np.maximum.reduceat(gains, starts, axis=1)
    slot = best.argmax(axis=0)
    gain = best[slot, nodes]
    position = np.arange(total)
    win = slot[node] * total + position  # the winning slot's entries, flat
    cut = np.minimum.reduceat(
        np.where(gains.ravel()[win] == gain[node], position, total), starts
    )
    win_rows = sorted_rows.ravel()[win]
    is_boundary = boundary.ravel()[win]
    before = np.cumsum(is_boundary) - is_boundary
    # Known defect, kept so that results stay reproducible: the threshold
    # takes the winning cut's rank k among the node's value boundaries as a
    # position in its sorted values. With tied values, positions k and k + 1
    # lie below the scored cut, so the split made is not the one whose gain
    # won and may leave fewer than min_samples_leaf rows on a side.
    k = starts + before[cut] - before[starts]
    feature = features[nodes, slot]
    a, b = XT[feature, win_rows[k]], XT[feature, win_rows[k + 1]]
    with np.errstate(over="ignore"):
        mid = (a + b) / 2
    # The midpoint of two values past half the float range overflows, and
    # that of two adjacent floats may round to b: either would send every
    # row to one side, so such a cut splits at a.
    threshold = np.where((a < mid) & (mid < b), mid, a)
    ends = starts + np.add.reduceat(XT[feature[node], win_rows] <= threshold[node], starts)
    bounds = zip(starts.tolist(), ends.tolist(), (starts + sizes).tolist())
    return [
        (f, t, win_rows[s:e], win_rows[e:z]) if g > 0.0 else None
        for g, f, t, (s, e, z) in zip(gain.tolist(), feature.tolist(), threshold.tolist(), bounds)
    ]


# A split search batches nodes of at least this many rows in all. A
# _search call costs about 0.14 ms and then about 0.1 us per row-slot (6
# slots, one pinned core), so small nodes share calls. On the 16 train
# sides of the snapshot-sweep eval (140 rows, 10 trees, seed 0; medians of
# 5 fresh eval processes) no floor makes 564 searches at 40.96 MB peak RSS,
# and a floor of 512 rows 310 at 41.01 MB; 1024 rows make 189 at 41.40 MB,
# and one search per step 112 at 49.16 MB.
_MIN_SEARCH_ROWS = 512


def _grow(
    XT: np.ndarray,
    rank: np.ndarray,
    y: np.ndarray,
    n_labels: int,
    config: TrainConfig,
    bounds: list[tuple[int, int]],
) -> list[list[Tree]]:
    """Grow the ``config.n_trees`` trees of one forest per column range
    ``bounds`` of ``XT`` and its ranks, all in lockstep; returns each
    forest's trees.

    Each tree's own RNG draws its bootstrap sample of its forest's rows, if
    any, and then the features of each node that tries a split. Every tree
    expands its nodes in preorder (a node, then its whole left subtree, then
    its right subtree), which fixes the order of those draws and makes a
    split's left child the node after it; a right child learns its index
    when it is popped. A node is labelled when it is made, all of a step's
    new nodes with one ``bincount``, so its stack entry knows whether it
    tries a split. Each step pops, per tree still growing, every node that
    cannot split, as a leaf, up to the first that tries; those are scored by
    one ``_search`` per batch of at most twice the rows of the largest
    forest, or ``_MIN_SEARCH_ROWS`` if more, so the search's arrays do not
    grow with the number of trees or forests. An explicit stack per tree
    keeps deep trees clear of the interpreter's recursion limit.
    """
    n_features = XT.shape[0]
    m = config.resolve_max_features(n_features)
    msl = config.min_samples_leaf
    max_depth = math.inf if config.max_depth is None else config.max_depth
    cap = max(2 * max(hi - lo for lo, hi in bounds), _MIN_SEARCH_ROWS)
    # Per tree, forest by forest: its RNG and its pending (rows, depth, the
    # split this is the right child of, leaf value, label counts), the rows
    # and counts None for a node that cannot split; rows 32-bit because
    # every tree holds up to its forest's row count of them at once.
    rngs, stacks, roots = [], [], []
    for lo, hi in bounds:
        for i in range(config.n_trees):
            rng = np.random.Generator(np.random.PCG64(tree_seed(config.seed, i)))
            n = hi - lo
            rows = lo + rng.integers(0, n, size=n) if config.bootstrap else np.arange(lo, hi)
            rngs.append(rng)
            stacks.append([])
            roots.append((len(roots), rows.astype(np.int32), 0, -1))

    def push(nodes: list[tuple[int, np.ndarray, int, int]]) -> None:
        """Label the nodes ``nodes``, each (tree, rows, depth, parent), and
        push them in order onto their trees' stacks."""
        sizes = np.array([len(rows) for _, rows, _, _ in nodes])
        node = np.repeat(np.arange(len(nodes)), sizes)
        rows = np.concatenate([rows for _, rows, _, _ in nodes])
        counts = np.bincount(node * n_labels + y[rows], minlength=len(nodes) * n_labels)
        counts = counts.reshape(len(nodes), n_labels)
        depth = np.array([d for _, _, d, _ in nodes])
        tries = (counts.max(axis=1) < sizes) & (depth < max_depth) & (sizes >= 2 * msl)
        values = counts.argmax(axis=1).tolist()
        for (t, rows, d, parent), value, c, tried in zip(
            nodes, values, counts.tolist(), tries.tolist()
        ):
            if not tried:
                rows = c = None
            elif parent >= 0:
                # A right child waits while the left subtree grows: copy it
                # out of the search's arrays so they are freed.
                rows = rows.copy()
            stacks[t].append((rows, d, parent, value, c))

    push(roots)
    # Per tree, the columns of its Tree so far, 8 bytes per node each.
    trees = [tuple(array(code) for code in "qdqqq") for _ in stacks]
    live = list(range(len(stacks)))
    while live:
        searched = []  # (tree, rows, depth, leaf value, counts) of each node to score
        for t in live:
            stack, columns = stacks[t], trees[t]
            while stack:
                rows, d, parent, value, counts = stack.pop()
                if parent >= 0:
                    columns[3][parent] = len(columns[0])
                if counts is not None:
                    searched.append((t, rows, d, value, counts))
                    break
                for column, x in zip(columns, (-1, 0.0, -1, -1, value)):
                    column.append(x)
        batches, room = [], 0  # of at most cap rows; no node holds more than cap / 2
        for entry in searched:
            if len(entry[1]) > room:
                batches.append([])
                room = cap
            batches[-1].append(entry)
            room -= len(entry[1])
        children = []
        for batch in batches:
            features = np.array(
                [rngs[t].choice(n_features, size=m, replace=False) for t, *_ in batch]
            )
            counts = np.array([counts for *_, counts in batch])
            rows_list = [rows for _, rows, *_ in batch]
            found = _search(XT, rank, y, counts, features, rows_list, msl)
            for (t, _, d, value, _), split in zip(batch, found):
                columns = trees[t]
                i = len(columns[0])
                if split is None:
                    entry = (-1, 0.0, -1, -1, value)
                else:
                    feature, threshold, left, right = split
                    entry = (feature, threshold, i + 1, -1, -1)
                    children += [(t, right, d + 1, i), (t, left, d + 1, -1)]
                for column, x in zip(columns, entry):
                    column.append(x)
        if children:
            push(children)
        live = [t for t in live if stacks[t]]
    k = config.n_trees
    return [[Tree(*columns) for columns in trees[s : s + k]] for s in range(0, len(trees), k)]


def dataset_matrix(ds: Dataset) -> tuple[np.ndarray, list[str]]:
    """Feature matrix and label list of a dataset, in flow order."""
    return ds.X, list(ds.labels)


def _grow_group(
    datasets: list[Dataset], labels: list[tuple[str, ...]], config: TrainConfig
) -> list[list[Tree]]:
    """The trees of one forest per dataset, grown in lockstep side by side
    in the columns of one feature-major matrix; the datasets have as many
    features and labels, ``labels[d]`` the sorted labels of dataset ``d``."""
    ends = np.cumsum([len(ds) for ds in datasets]).tolist()
    bounds = list(zip([0] + ends[:-1], ends))
    XT = np.empty((datasets[0].X.shape[1], ends[-1]))
    rank = np.empty(XT.shape, dtype=np.int32)
    y = np.empty(ends[-1], dtype=np.int64)
    for ds, ds_labels, (lo, hi) in zip(datasets, labels, bounds):
        np.add(ds.X.T, 0.0, out=XT[:, lo:hi])  # -0.0 made 0.0
        _dense_ranks(XT[:, lo:hi], out=rank[:, lo:hi])
        label_to_index = {label: i for i, label in enumerate(ds_labels)}
        y[lo:hi] = [label_to_index[label] for label in ds.labels.tolist()]
    return _grow(XT, rank, y, len(labels[0]), config, bounds)


def train(
    data: Dataset | Sequence[Dataset], config: TrainConfig | None = None
) -> RandomForest | list[RandomForest]:
    """Train a forest on a Dataset, or a list of forests, one per Dataset of
    a sequence.

    The forests grow together (see ``_grow``), in one group per label and
    feature count, each group's datasets side by side in the columns of one
    feature-major matrix. Groups keep their label count because numpy sums
    8 or more labels pairwise, so zero counts padded onto a node's labels
    can change the bits of its Gini impurity. Every tree depends only on its
    dataset, the config and its index, so neither the grouping nor the other
    datasets of the call change it. A feature value of -0.0 trains as 0.0;
    the two route every sample alike.

    Raises, before any growth, ValueError when a feature value is not finite
    (the split search orders values, and NaN has no order), and
    EmptyDatasetError for a dataset without rows.
    """
    if config is None:
        config = TrainConfig()
    datasets = [data] if isinstance(data, Dataset) else list(data)
    labels = []
    groups: dict[tuple[int, int], list[int]] = {}
    for d, ds in enumerate(datasets):
        if len(ds) == 0:
            raise EmptyDatasetError("cannot train on an empty dataset")
        X, label_list = dataset_matrix(ds)
        finite = np.isfinite(X).all(axis=0)
        if not finite.all():
            name = ds.feature_schema[int(finite.argmin())]
            raise ValueError(f"cannot train on non-finite values of feature {name}")
        labels.append(tuple(sorted(set(label_list))))
        groups.setdefault((len(labels[d]), X.shape[1]), []).append(d)
    trees = [()] * len(datasets)
    for members in groups.values():
        grown = _grow_group([datasets[d] for d in members], [labels[d] for d in members], config)
        for d, forest_trees in zip(members, grown):
            trees[d] = tuple(forest_trees)
    forests = [
        RandomForest(
            trees=trees[d], feature_schema=ds.feature_schema, labels=labels[d], train_config=config
        )
        for d, ds in enumerate(datasets)
    ]
    return forests[0] if isinstance(data, Dataset) else forests


# Prediction walks (row, tree) pairs in blocks of rows of about this many
# pairs, so each per-pair array holds at most 128 KiB at any forest and test
# size, small enough for the allocator to reuse rather than map fresh pages
# for each one; a forest's laid-out nodes hold 40 bytes per node besides.
# 94 trees of 192k nodes in all predict 50k rows in 0.56 s on one pinned
# core, at a traced peak of 1.4 MB. In blocks of 2**16 pairs each array was
# mapped afresh and faulted in: 240k page faults a call, 0.8-1.1 s.
_PREDICT_PAIRS = 1 << 14


def predict_matrix(forest: RandomForest, X: np.ndarray) -> list[str]:
    """Predict labels for a feature matrix (rows match the schema order).

    All the forest's trees walk at once, over ``forest.nodes``: each step
    moves every (row, tree) pair not yet at a leaf down one level, and the
    leaves' votes are tallied per row at the end.
    """
    if X.ndim != 2 or X.shape[1] != len(forest.feature_schema):
        raise SchemaMismatchError(
            f"expected {len(forest.feature_schema)} features, got {X.shape}"
        )
    roots, feature, threshold, value, child = forest.nodes
    k, n_labels = len(roots), len(forest.labels)
    winners = np.empty(X.shape[0], dtype=np.int64)
    block = max(1, _PREDICT_PAIRS // k)
    for lo in range(0, X.shape[0], block):
        Xb = X[lo : lo + block]
        # Pair p is row p // k of the block and tree p % k.
        node = np.tile(roots, len(Xb))
        active = np.flatnonzero(feature[node] >= 0)
        while active.size:
            at = node[active]
            goes_left = Xb[active // k, feature[at]] <= threshold[at]
            at = node[active] = child[2 * at + goes_left]
            active = active[feature[at] >= 0]
        votes = np.bincount(
            np.arange(len(node)) // k * n_labels + value[node], minlength=len(Xb) * n_labels
        )
        # argmax keeps the first maximum: ties go to the smallest label
        # index, which is the lexicographically smallest label.
        winners[lo : lo + block] = votes.reshape(len(Xb), n_labels).argmax(axis=1)
    return [forest.labels[i] for i in winners.tolist()]


def _as_row(forest: RandomForest, x) -> np.ndarray:
    row = np.asarray(x, dtype=float)
    if row.shape != (len(forest.feature_schema),):
        raise SchemaMismatchError(
            f"expected {len(forest.feature_schema)} features, got {row.shape}"
        )
    return row


def predict(forest: RandomForest, x) -> str:
    """Predict one sample: a schema-ordered sequence, such as a FeatureVector."""
    return predict_matrix(forest, _as_row(forest, x).reshape(1, -1))[0]


def save_model(forest: RandomForest, path) -> None:
    """Persist a forest as a JSON document, each tree its five node arrays."""
    doc = {
        "labels": list(forest.labels),
        "feature_schema": list(forest.feature_schema),
        "train_config": forest.train_config.to_dict(),
        "trees": [
            {f.name: getattr(tree, f.name).tolist() for f in fields(Tree)}
            for tree in forest.trees
        ],
    }
    with replacing(path, encoding="utf-8") as fh:
        json.dump(doc, fh)


def _tree_problem(tree: Tree, n_features: int, n_labels: int) -> str:
    """What makes ``tree`` malformed for the schema and labels, or "".

    Children must lie after their split, so every walk from the root ends.
    """
    n = len(tree.feature)
    if n == 0 or any(getattr(tree, f.name).shape != (n,) for f in fields(Tree)):
        return "node arrays must be non-empty, flat and of equal length"
    is_split = tree.feature >= 0
    splits = np.flatnonzero(is_split)
    for child in (tree.left[splits], tree.right[splits]):
        if ((child <= splits) | (child >= n)).any():
            return "a child index is not after its split or out of range"
    if ((tree.feature < -1) | (tree.feature >= n_features)).any():
        return f"a feature index is outside the {n_features}-feature schema"
    value = tree.value[~is_split]
    if ((value < 0) | (value >= n_labels)).any():
        return f"a leaf value is outside the {n_labels} labels"
    return ""


_MODEL_FIELDS = {
    "labels": Field(STR, many=tuple, required=True),
    "feature_schema": Field(STR, many=tuple, required=True),
    "train_config": Field(ANY),
    "trees": Field(ANY, many=tuple, required=True),
}


def load_model(path) -> RandomForest:
    """The forest ``save_model`` wrote; UnreadableFileError for a file that
    cannot be read, FlowLabError for a malformed one."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = check("model", json.load(fh), _MODEL_FIELDS)
        labels, schema, tree_docs = doc["labels"], doc["feature_schema"], doc["trees"]
        # A vote tie goes to the smallest label index, so labels are sorted.
        if not labels or list(labels) != sorted(set(labels)):
            raise ValueError(f"model.labels must be sorted, distinct and non-empty: {list(labels)}")
        if not tree_docs:
            raise ValueError("model.trees must hold at least one tree")
        config = TrainConfig(**doc.get("train_config", {}))
    except OSError as exc:
        raise UnreadableFileError(f"cannot read model {path}: {exc}") from exc
    except (TypeError, ValueError, RecursionError) as exc:
        raise FlowLabError(f"{path}: {exc}") from None
    trees = []
    for i, arrays in enumerate(tree_docs):
        try:
            tree = Tree(**arrays)
        except (TypeError, ValueError, OverflowError) as exc:
            raise FlowLabError(f"{path}: tree {i}: {exc}") from None
        problem = _tree_problem(tree, len(schema), len(labels))
        if problem:
            raise FlowLabError(f"{path}: tree {i}: {problem}")
        trees.append(tree)
    return RandomForest(
        trees=tuple(trees),
        feature_schema=schema,
        labels=labels,
        train_config=config,
    )
