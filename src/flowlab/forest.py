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
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataset import Dataset
from .errors import EmptyDatasetError, SchemaMismatchError

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


@dataclass(frozen=True, slots=True)
class Leaf:
    label_index: int


@dataclass(frozen=True, slots=True)
class Internal:
    """Routes a sample left iff x[feature_index] <= threshold."""

    feature_index: int
    threshold: float
    left: Leaf | Internal
    right: Leaf | Internal


TreeNode = Leaf | Internal


def _check_int(name: str, value, minimum: int | None = None) -> None:
    """ValueError unless ``value`` is an integer, not a bool, and >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


@dataclass(frozen=True)
class TrainConfig:
    """Forest hyperparameters; defaults follow common practice."""

    n_trees: int = 100
    max_features: int | str = "sqrt"
    min_samples_leaf: int = 1
    max_depth: int | None = None
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_features != "sqrt":
            _check_int("max_features", self.max_features, 1)
        _check_int("n_trees", self.n_trees, 1)
        _check_int("min_samples_leaf", self.min_samples_leaf, 1)
        if self.max_depth is not None:
            _check_int("max_depth", self.max_depth, 1)
        if not isinstance(self.bootstrap, bool):
            raise ValueError(f"bootstrap must be true or false, got {self.bootstrap!r}")
        _check_int("seed", self.seed)

    def resolve_max_features(self, n_features: int) -> int:
        if self.max_features == "sqrt":
            return max(1, int(math.sqrt(n_features)))
        return min(self.max_features, n_features)

    def to_dict(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "max_features": self.max_features,
            "min_samples_leaf": self.min_samples_leaf,
            "max_depth": self.max_depth,
            "bootstrap": self.bootstrap,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class RandomForest:
    trees: tuple[TreeNode, ...]
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


def _grow(
    XT: np.ndarray,
    y: np.ndarray,
    idx: np.ndarray,
    n_labels: int,
    rng: np.random.Generator,
    config: TrainConfig,
) -> TreeNode:
    """Grow one tree over rows ``idx`` of the feature-major matrix ``XT``.

    Nodes are expanded in preorder (a node, then its whole left subtree,
    then its right subtree), which fixes the order of the ``rng`` draws. An
    explicit stack keeps deep trees clear of the interpreter's recursion
    limit.
    """
    n_features = XT.shape[0]
    m = config.resolve_max_features(n_features)
    msl = config.min_samples_leaf
    preorder: list[Leaf | tuple[int, float]] = []
    stack = [(idx, 0)]
    while stack:
        idx, depth = stack.pop()
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
            preorder.append(Leaf(int(counts.argmax())))
            continue
        preorder.append(split)
        mask = XT[split[0], idx] <= split[1]
        stack.append((idx[~mask], depth + 1))
        stack.append((idx[mask], depth + 1))

    return _from_preorder(preorder)


def _from_preorder(preorder: Sequence[Leaf | tuple[int, float]]) -> TreeNode:
    """The tree whose preorder lists leaves and (feature, threshold) splits."""
    # Reversed preorder meets each node after its right, then left subtree.
    built: list[TreeNode] = []
    for node in reversed(preorder):
        if isinstance(node, Leaf):
            built.append(node)
        else:
            left = built.pop()
            built.append(Internal(node[0], node[1], left, built.pop()))
    return built[0]


def _build_tree(
    XT: np.ndarray, y: np.ndarray, n_labels: int, config: TrainConfig, index: int
) -> TreeNode:
    rng = np.random.Generator(np.random.PCG64(tree_seed(config.seed, index)))
    n = len(y)
    if config.bootstrap:
        idx = rng.integers(0, n, size=n)
    else:
        idx = np.arange(n)
    return _grow(XT, y, idx, n_labels, rng, config)


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
                    lambda i: _build_tree(XT, y, len(labels), config, i),
                    range(config.n_trees),
                )
            )
    else:
        trees = tuple(
            _build_tree(XT, y, len(labels), config, i) for i in range(config.n_trees)
        )
    return RandomForest(
        trees=trees,
        feature_schema=ds.feature_schema,
        labels=labels,
        train_config=config,
    )


def _route_tree(node: TreeNode, X: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    stack = [(node, rows)]
    while stack:
        node, rows = stack.pop()
        if isinstance(node, Leaf):
            out[rows] = node.label_index
            continue
        mask = X[rows, node.feature_index] <= node.threshold
        for child, child_rows in ((node.left, rows[mask]), (node.right, rows[~mask])):
            if child_rows.size:
                stack.append((child, child_rows))


def predict_matrix(forest: RandomForest, X: np.ndarray) -> list[str]:
    """Predict labels for a feature matrix (rows match the schema order)."""
    if X.ndim != 2 or X.shape[1] != len(forest.feature_schema):
        raise SchemaMismatchError(
            f"expected {len(forest.feature_schema)} features, got {X.shape}"
        )
    n = X.shape[0]
    votes = np.zeros((n, len(forest.labels)), dtype=np.int64)
    out = np.empty(n, dtype=np.int64)
    rows = np.arange(n)
    for tree in forest.trees:
        _route_tree(tree, X, rows, out)
        votes[rows, out] += 1
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


def _to_preorder(tree: TreeNode, labels: tuple[str, ...]) -> list:
    """A tree as a flat preorder list: a label per leaf, [feature, threshold]
    per split."""
    out: list = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            out.append(labels[node.label_index])
        else:
            out.append([node.feature_index, node.threshold])
            stack.append(node.right)
            stack.append(node.left)
    return out


def save_model(forest: RandomForest, path) -> None:
    """Persist a forest as a JSON document, each tree a flat preorder list."""
    doc = {
        "labels": list(forest.labels),
        "feature_schema": list(forest.feature_schema),
        "train_config": forest.train_config.to_dict(),
        "trees": [_to_preorder(t, forest.labels) for t in forest.trees],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_model(path) -> RandomForest:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    labels = tuple(doc["labels"])
    label_to_index = {label: i for i, label in enumerate(labels)}
    config = doc.get("train_config", {})
    trees = tuple(
        _from_preorder(
            [
                Leaf(label_to_index[node])
                if isinstance(node, str)
                else (int(node[0]), float(node[1]))
                for node in tree
            ]
        )
        for tree in doc["trees"]
    )
    return RandomForest(
        trees=trees,
        feature_schema=tuple(doc["feature_schema"]),
        labels=labels,
        train_config=TrainConfig(**config),
    )
