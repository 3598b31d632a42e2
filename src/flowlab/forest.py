"""From-scratch random forest classifier.

Bootstrap-sampled decision trees grown by best-Gini-gain splits over random
feature subsets, voting by plurality. Training is deterministic for a given
(dataset, config) pair: each tree derives its own RNG from the config seed
and the tree index, so serial and parallel training produce identical
forests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .dataset import Dataset
from .errors import ANY, BOOL, INT, STR, Field, check
from .errors import EmptyDatasetError, FlowLabError, SchemaMismatchError

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


@dataclass(frozen=True)
class TrainConfig:
    """Forest hyperparameters; defaults follow common practice."""

    n_trees: int = 100
    max_features: int | str = "sqrt"
    min_samples_leaf: int = 1
    max_depth: int | None = None
    bootstrap: bool = True
    seed: int = 0

    FIELDS = {
        "n_trees": Field(INT, "[1, inf)"),
        "max_features": Field(INT, "[1, inf)", also=("sqrt",)),
        "min_samples_leaf": Field(INT, "[1, inf)"),
        "max_depth": Field(INT, "[1, inf)", also=(None,)),
        "bootstrap": Field(BOOL),
        "seed": Field(INT),
    }

    def __post_init__(self) -> None:
        check("train", self, self.FIELDS)

    def resolve_max_features(self, n_features: int) -> int:
        if self.max_features == "sqrt":
            return max(1, int(math.sqrt(n_features)))
        return min(self.max_features, n_features)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}


@dataclass(frozen=True)
class RandomForest:
    trees: tuple[Tree, ...]
    feature_schema: tuple[str, ...]
    labels: tuple[str, ...]  # sorted; vote ties resolve to the smallest index
    train_config: TrainConfig = field(default_factory=TrainConfig)


def _best_split(
    XT: np.ndarray,
    y: np.ndarray,
    idx: np.ndarray,
    counts: np.ndarray,
    parent_gini: float,
    features: np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, float] | None:
    """Best-Gini-gain ``(feature, threshold)`` split of rows ``idx``, or None.

    Every sampled feature is scored in one pass: row ``j`` of each
    ``m x n`` array holds feature ``features[j]`` over the node's rows sorted
    by that feature, and the gains at all ``n - 1`` cut positions form one
    ``m x (n - 1)`` array. Positions inside a run of equal values, or that
    leave fewer than ``min_samples_leaf`` rows on a side, score -1. Ties
    resolve as in a feature-by-feature scan: the first best cut within a
    feature, and the first feature, in sampled order, to reach the best gain.
    """
    n = len(idx)
    cols = XT[features[:, None], idx]
    order = np.argsort(cols, axis=1, kind="stable")
    sv = np.take_along_axis(cols, order, axis=1)
    onehot = y[idx][order][:, :, None] == np.arange(len(counts))
    left = onehot.cumsum(axis=1, dtype=float)[:, :-1]
    right = counts - left
    n_left = np.arange(1, n, dtype=float)
    n_right = n - n_left
    gini_left = 1.0 - (left**2).sum(axis=2) / n_left**2
    gini_right = 1.0 - (right**2).sum(axis=2) / n_right**2
    weighted = (n_left * gini_left + n_right * gini_right) / n
    boundary = sv[:, 1:] != sv[:, :-1]
    valid = boundary & (n_left >= min_samples_leaf) & (n_right >= min_samples_leaf)
    gains = np.where(valid, parent_gini - weighted, -1.0)
    cut = gains.argmax(axis=1)
    best = gains[np.arange(len(features)), cut]
    j = int(best.argmax())
    if not best[j] > 0.0:
        return None
    # Known defect, kept so that results stay reproducible: the threshold
    # takes the winning cut's rank k among the feature's value boundaries as
    # a position in sv. With tied values, sv[k] and sv[k + 1] lie below the
    # scored cut, so the split made is not the one whose gain won and may
    # leave fewer than min_samples_leaf rows on a side.
    k = int(np.count_nonzero(boundary[j, : cut[j]]))
    return int(features[j]), float((sv[j, k] + sv[j, k + 1]) / 2)


def _grow(XT: np.ndarray, y: np.ndarray, n_labels: int, config: TrainConfig, index: int) -> Tree:
    """Grow tree ``index`` of a forest over the feature-major matrix ``XT``.

    The tree's own RNG draws the bootstrap sample, if any, and then each
    node's features. Nodes are expanded in preorder (a node, then its whole
    left subtree, then its right subtree), which fixes the order of those
    draws and makes a split's left child the node after it. A right child
    learns its index when it is popped. An explicit stack keeps deep trees
    clear of the interpreter's recursion limit.
    """
    rng = np.random.Generator(np.random.PCG64(tree_seed(config.seed, index)))
    idx = rng.integers(0, len(y), size=len(y)) if config.bootstrap else np.arange(len(y))
    n_features = XT.shape[0]
    m = config.resolve_max_features(n_features)
    msl = config.min_samples_leaf
    nodes: list[list] = []  # [feature, threshold, left, right, value] per node
    stack = [(idx, 0, -1)]  # rows, depth, the split this is the right child of
    while stack:
        idx, depth, parent = stack.pop()
        node = len(nodes)
        if parent >= 0:
            nodes[parent][3] = node
        counts = np.bincount(y[idx], minlength=n_labels)
        n = len(idx)
        split = None
        if not (
            np.count_nonzero(counts) <= 1
            or (config.max_depth is not None and depth >= config.max_depth)
            or n < 2 * msl
        ):
            parent_gini = 1.0 - float(((counts / n) ** 2).sum())
            features = rng.choice(n_features, size=m, replace=False)
            split = _best_split(XT, y, idx, counts, parent_gini, features, msl)
        if split is None:
            nodes.append([-1, 0.0, -1, -1, int(counts.argmax())])
            continue
        nodes.append([split[0], split[1], node + 1, -1, -1])
        mask = XT[split[0], idx] <= split[1]
        stack.append((idx[~mask], depth + 1, node))
        stack.append((idx[mask], depth + 1, -1))

    return Tree(*zip(*nodes))


def dataset_matrix(ds: Dataset) -> tuple[np.ndarray, list[str]]:
    """Feature matrix and label list of a dataset, in flow order."""
    return ds.X, list(ds.labels)


def train(ds: Dataset, config: TrainConfig | None = None, n_jobs: int = 1) -> RandomForest:
    """Train a forest; bit-identical results for any ``n_jobs`` >= 1.

    Raises ValueError when ``n_jobs`` is below 1.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    if config is None:
        config = TrainConfig()
    if len(ds) == 0:
        raise EmptyDatasetError("cannot train on an empty dataset")
    X, label_list = dataset_matrix(ds)
    labels = tuple(sorted(set(label_list)))
    label_to_index = {label: i for i, label in enumerate(labels)}
    y = np.array([label_to_index[label] for label in label_list], dtype=np.int64)
    XT = np.ascontiguousarray(X.T)

    if n_jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            trees = tuple(
                pool.map(
                    lambda i: _grow(XT, y, len(labels), config, i),
                    range(config.n_trees),
                )
            )
    else:
        trees = tuple(
            _grow(XT, y, len(labels), config, i) for i in range(config.n_trees)
        )
    return RandomForest(
        trees=trees,
        feature_schema=ds.feature_schema,
        labels=labels,
        train_config=config,
    )


def predict_matrix(forest: RandomForest, X: np.ndarray) -> list[str]:
    """Predict labels for a feature matrix (rows match the schema order)."""
    if X.ndim != 2 or X.shape[1] != len(forest.feature_schema):
        raise SchemaMismatchError(
            f"expected {len(forest.feature_schema)} features, got {X.shape}"
        )
    n = X.shape[0]
    votes = np.zeros((n, len(forest.labels)), dtype=np.int64)
    rows = np.arange(n)
    for tree in forest.trees:
        # Every row not yet at a leaf moves down one level per step.
        node = np.zeros(n, dtype=np.int64)
        active = rows[tree.feature[node] >= 0]
        while active.size:
            at = node[active]
            goes_left = X[active, tree.feature[at]] <= tree.threshold[at]
            node[active] = np.where(goes_left, tree.left[at], tree.right[at])
            active = active[tree.feature[node[active]] >= 0]
        votes[rows, tree.value[node]] += 1
    # argmax keeps the first maximum: ties go to the smallest label index,
    # which is the lexicographically smallest label.
    winners = votes.argmax(axis=1)
    return [forest.labels[i] for i in winners]


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
    with open(path, "w", encoding="utf-8") as fh:
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
    """The forest ``save_model`` wrote; FlowLabError for a malformed file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = check("model", json.load(fh), _MODEL_FIELDS)
        labels, schema, tree_docs = doc["labels"], doc["feature_schema"], doc["trees"]
        config = TrainConfig(**doc.get("train_config", {}))
    except (TypeError, ValueError) as exc:
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
