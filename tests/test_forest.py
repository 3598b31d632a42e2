from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowlab import forest as forest_module
from flowlab.dataset import Dataset, build_cf
from flowlab.errors import EmptyDatasetError, FlowLabError, SchemaMismatchError
from flowlab.forest import (
    RandomForest,
    TrainConfig,
    Tree,
    load_model,
    predict,
    predict_matrix,
    save_model,
    train,
    tree_seed,
)
from flowlab.labeling import LabelRule, RuleSet
from flowlab.meter import MeterConfig, meter

from conftest import random_trace
from reference import reference_predict, reference_train

SRC = str(Path(__file__).resolve().parent.parent / "src")
PYTHONPATH = os.environ.get("PYTHONPATH")


def _toy_dataset(rows: list[tuple[float, float, str]]) -> Dataset:
    """A 2-feature dataset; the package's Dataset is schema-agnostic."""
    return Dataset(
        provenance="toy",
        hash64=range(len(rows)),
        X=[(x, y) for x, y, _ in rows],
        labels=[label for _, _, label in rows],
        feature_schema=("x", "y"),
    )


def _leaf(label_index: int) -> Tree:
    return Tree([-1], [0.0], [-1], [-1], [label_index])


def _stump(feature: int, threshold: float) -> Tree:
    """x[feature] <= threshold -> label 0, else label 1."""
    return Tree([feature, -1, -1], [threshold, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [-1, 0, 1])


def _leaves(tree: Tree, X: np.ndarray):
    """(depth, rows of ``X`` that reach it) for every leaf, found by walking
    ``tree`` from the root node by node."""
    stack = [(0, 0, np.arange(len(X)))]
    while stack:
        node, depth, rows = stack.pop()
        if tree.feature[node] < 0:
            yield depth, rows
            continue
        mask = X[rows, tree.feature[node]] <= tree.threshold[node]
        stack.append((tree.left[node], depth + 1, rows[mask]))
        stack.append((tree.right[node], depth + 1, rows[~mask]))


def _walk(tree: Tree, row) -> int:
    """The label index one sample reaches, one node at a time."""
    node = 0
    while tree.feature[node] >= 0:
        go_left = row[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] if go_left else tree.right[node]
    return int(tree.value[node])


def _separable(n_per_class=20, seed=0) -> Dataset:
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_per_class):
        rows.append((float(rng.uniform(0, 1)), float(rng.uniform(0, 10)), "A"))
        rows.append((float(rng.uniform(2, 3)), float(rng.uniform(0, 10)), "B"))
    return _toy_dataset(rows)


class TestTrain:
    def test_single_class_predicts_that_class(self):
        ds = _toy_dataset([(1.0, 2.0, "ONLY"), (3.0, 4.0, "ONLY")])
        forest = train(ds, TrainConfig(n_trees=5, seed=1))
        assert predict(forest, (0.0, 0.0)) == "ONLY"
        assert predict_matrix(forest, np.array([[9.0, 9.0], [1.0, 2.0]])) == ["ONLY", "ONLY"]

    def test_axis_separable_perfect_training_accuracy(self):
        ds = _separable()
        forest = train(
            ds, TrainConfig(n_trees=1, max_features=2, bootstrap=False, seed=3)
        )
        X = ds.X
        preds = predict_matrix(forest, X)
        assert preds == list(ds.labels)

    def test_bootstrap_forest_consistent_on_separable_data(self):
        ds = _separable(50)
        forest = train(ds, TrainConfig(n_trees=25, seed=5))
        X = ds.X
        assert predict_matrix(forest, X) == list(ds.labels)

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDatasetError):
            train(_toy_dataset([]), TrainConfig(n_trees=1))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected(self, value):
        # The split search ranks each feature's values, and NaN has no rank.
        ds = _toy_dataset([(1.0, 2.0, "A"), (3.0, value, "B")])
        with pytest.raises(ValueError, match="non-finite values of feature y"):
            train(ds, TrainConfig(n_trees=1))

    def test_determinism_runs_and_parallelism(self):
        # The same trees from two runs, and when grown beside another forest.
        ds = _separable(40, seed=9)
        tc = TrainConfig(n_trees=12, seed=11)
        f1 = train(ds, tc)
        f2 = train(ds, tc)
        f3 = train([_separable(25, seed=1), ds], tc)[1]
        assert f1.trees == f2.trees == f3.trees

    def test_split_gain_positive_and_children_nonempty(self):
        ds = _separable(30, seed=13)
        forest = train(ds, TrainConfig(n_trees=10, seed=13))

        for tree in forest.trees:
            split = tree.feature >= 0
            assert ((tree.feature[split] >= 0) & (tree.feature[split] < 2)).all()
            assert np.isfinite(tree.threshold[split]).all()
            assert sum(1 for _ in _leaves(tree, ds.X)) == np.count_nonzero(~split)

    def test_min_samples_leaf(self):
        ds = _separable(30, seed=17)
        forest = train(
            ds, TrainConfig(n_trees=5, min_samples_leaf=8, bootstrap=False, seed=17)
        )

        for tree in forest.trees:
            assert all(len(rows) >= 8 for _, rows in _leaves(tree, ds.X))

    def test_max_depth_limits_tree(self):
        ds = _separable(30, seed=19)
        forest = train(ds, TrainConfig(n_trees=3, max_depth=1, seed=19))

        assert all(depth <= 1 for t in forest.trees for depth, _ in _leaves(t, ds.X))

    def test_deep_tree_trains_and_predicts(self, tmp_path):
        # Alternating labels along one sorted feature: each split peels off
        # a row or two, so the tree is about as deep as the data is long.
        ds = _toy_dataset([(float(i), 0.0, "AB"[i % 2]) for i in range(2000)])
        forest = train(ds, TrainConfig(n_trees=1, max_features=2, bootstrap=False))
        X = ds.X
        assert predict_matrix(forest, X) == list(ds.labels)
        assert max(depth for depth, _ in _leaves(forest.trees[0], X)) > 1000
        path, again = tmp_path / "deep.json", tmp_path / "again.json"
        save_model(forest, path)
        back = load_model(path)
        assert back == forest
        save_model(back, again)
        assert again.read_bytes() == path.read_bytes()
        assert predict_matrix(back, X) == list(ds.labels)
        assert repr(forest).startswith("RandomForest(trees=(Tree(feature=array(")

    @pytest.mark.parametrize(
        "low,high",
        [
            (1e308, 1.5e308),  # the midpoint overflows to inf
            (-1.5e308, -1e308),  # ... and to -inf
            (1.0 + 2.0**-52, 1.0 + 2.0**-51),  # adjacent floats: it rounds to high
        ],
    )
    def test_split_between_extreme_or_adjacent_values_ends(self, tmp_path, low, high):
        # Each midpoint sends both rows to one side, whose child then repeats
        # its parent: with no max_depth, training never ended. A subprocess
        # bounds the time the case may take.
        code = (
            "import sys\n"
            "from flowlab.dataset import Dataset\n"
            "from flowlab.forest import TrainConfig, save_model, train\n"
            "a, b = float(sys.argv[1]), float(sys.argv[2])\n"
            "ds = Dataset('toy', [0, 1], [[a, a], [b, b]], ['A', 'B'], ('x', 'y'))\n"
            "save_model(train(ds, TrainConfig(n_trees=2, bootstrap=False)), sys.argv[3])\n"
        )
        path = tmp_path / "model.json"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, PYTHONPATH))))
        argv = [sys.executable, "-c", code, repr(low), repr(high), str(path)]
        subprocess.run(argv, env=env, check=True, timeout=30)
        forest = load_model(path)
        X = np.array([[low, low], [high, high]])
        for tree in forest.trees:
            assert sorted(rows.tolist() for _, rows in _leaves(tree, X)) == [[0], [1]]
            assert np.isfinite(tree.threshold).all()
        assert predict_matrix(forest, X) == ["A", "B"]

    def test_numpy_integer_settings_grow_the_python_int_forest(self, tmp_path):
        ds = _separable(30, seed=7)
        settings = {"n_trees": 3, "max_features": 1, "min_samples_leaf": 2, "max_depth": 4,
                    "seed": 3}
        config = TrainConfig(**{k: np.int64(v) for k, v in settings.items()})
        assert config == TrainConfig(**settings)
        assert all(type(v) is int for k, v in config.to_dict().items() if k in settings)
        forest = train(ds, config)
        assert forest == train(ds, TrainConfig(**settings))
        path = tmp_path / "model.json"
        save_model(forest, path)
        assert load_model(path) == forest

    def test_failed_save_keeps_the_file_at_the_path(self, tmp_path):
        forest = train(_separable(10, seed=3), TrainConfig(n_trees=2, seed=3))
        path = tmp_path / "model.json"
        save_model(forest, path)
        before = path.read_bytes()
        # json.dump has begun the document when it reaches the unwritable label.
        broken = RandomForest(forest.trees, forest.feature_schema, ("A", object()))
        with pytest.raises(TypeError, match="not JSON serializable"):
            save_model(broken, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_tree_seed_mixing(self):
        seeds = {tree_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert tree_seed(42, 0) != tree_seed(43, 0)
        assert all(0 <= s < 2**64 for s in seeds)


def _tie_heavy(n_labels: int, seed: int = 0) -> Dataset:
    """Small-integer features, so most candidate cuts fall inside a tie."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=(150, 5)).astype(float)
    y = (X[:, 0] + X[:, 1] + rng.integers(0, 3, size=150)) % n_labels
    labels = [f"L{int(c)}" for c in y]
    return Dataset("toy", range(len(X)), X, labels, feature_schema=tuple("abcde"))


@pytest.mark.parametrize(
    "min_samples_leaf,max_depth,bootstrap,n_labels",
    list(itertools.product((1, 3), (None, 2), (True, False), (2, 9))),
)
def test_trees_equal_reference(min_samples_leaf, max_depth, bootstrap, n_labels):
    ds = _tie_heavy(n_labels)
    tc = TrainConfig(
        n_trees=4,
        min_samples_leaf=min_samples_leaf,
        max_depth=max_depth,
        bootstrap=bootstrap,
        seed=7,
    )
    assert train(ds, tc).trees == reference_train(ds, tc)


@settings(max_examples=60, deadline=None)
@given(
    n_rows=st.integers(1, 40),
    n_features=st.integers(1, 4),
    n_labels=st.integers(2, 9),
    n_trees=st.integers(1, 12),
    min_samples_leaf=st.sampled_from((1, 3)),
    max_depth=st.sampled_from((None, 2)),
    bootstrap=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_trees_equal_reference_at_any_lockstep_width(
    n_rows, n_features, n_labels, n_trees, min_samples_leaf, max_depth, bootstrap, seed
):
    # Every tree of the forest grows in one lockstep; each must not notice.
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, size=(n_rows, n_features)).astype(float)
    labels = [f"L{c}" for c in rng.integers(0, n_labels, size=n_rows)]
    ds = Dataset("toy", range(n_rows), X, labels, feature_schema=tuple("abcd"[:n_features]))
    tc = TrainConfig(
        n_trees=n_trees,
        max_features=rng.integers(1, n_features + 1).item(),
        min_samples_leaf=min_samples_leaf,
        max_depth=max_depth,
        bootstrap=bootstrap,
        seed=seed,
    )
    assert train(ds, tc).trees == reference_train(ds, tc)


def _labelled(n_rows: int, n_labels: int, n_features: int, rng) -> Dataset:
    """Tie-heavy integer features and shuffled cycling labels, so every
    label appears once there are as many rows."""
    X = rng.integers(0, 3, size=(n_rows, n_features)).astype(float)
    labels = [f"L{c}" for c in rng.permutation(np.arange(n_rows) % n_labels)]
    return Dataset("toy", range(n_rows), X, labels, feature_schema=tuple("abcd"[:n_features]))


@pytest.mark.parametrize(
    "min_samples_leaf,max_depth,bootstrap,data_seed",
    list(itertools.product((1, 3), (None, 2), (True, False), (1, 2, 3))),
)
def test_training_many_equals_training_each(min_samples_leaf, max_depth, bootstrap, data_seed):
    # Label counts 2, 3, 4, 5 and 9 in one call, so each group of forests
    # grows in its own lockstep; sides of 1 row and of 2 * min_samples_leaf
    # rows grow beside larger ones.
    rng = np.random.default_rng(min_samples_leaf * 8 + data_seed)
    shapes = [(40, 2), (1, 2), (2 * min_samples_leaf, 2), (30, 3), (2, 3), (60, 9), (25, 9)]
    shapes += [(50, 4), (45, 5)]
    datasets = [_labelled(n_rows, n_labels, 3, rng) for n_rows, n_labels in shapes]
    assert sorted({len(set(ds.labels.tolist())) for ds in datasets}) == [1, 2, 3, 4, 5, 9]
    tc = TrainConfig(
        n_trees=5,
        max_features=2,
        min_samples_leaf=min_samples_leaf,
        max_depth=max_depth,
        bootstrap=bootstrap,
        seed=13,
    )
    assert train(datasets, tc) == [train(ds, tc) for ds in datasets]


def test_forests_with_fewer_labels_keep_their_gini_bits():
    # Cutting x halves a node of label counts (2, 4, 6, 10) into two of
    # (1, 2, 3, 5): no gain, so the tree is a single leaf. Summed over 9
    # labels, zeros padded, the node's Gini impurity comes out 2^-53 higher
    # and the cut would gain; a forest of 9 labels in the same call must
    # not change the sum.
    labels = [f"L{c}" for c, n in enumerate((1, 2, 3, 5)) for _ in range(n)]
    four = Dataset("toy", range(22), [[x] for x in (0.0, 1.0) for _ in labels], labels * 2, ("x",))
    nine = Dataset("toy", range(9), [[float(i)] for i in range(9)], list("ABCDEFGHI"), ("x",))
    tc = TrainConfig(n_trees=1, bootstrap=False)
    forests = train([four, nine], tc)
    assert forests == [train(four, tc), train(nine, tc)]
    assert forests[0].trees == reference_train(four, tc) == (_leaf(3),)


@settings(max_examples=40, deadline=None)
@given(
    shapes=st.lists(
        st.tuples(st.integers(1, 30), st.sampled_from((2, 3, 4, 5, 9)), st.integers(1, 3)),
        min_size=1,
        max_size=5,
    ),
    n_trees=st.integers(1, 6),
    min_samples_leaf=st.sampled_from((1, 3)),
    max_depth=st.sampled_from((None, 2)),
    bootstrap=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_training_many_equals_training_each_at_any_mix(
    shapes, n_trees, min_samples_leaf, max_depth, bootstrap, seed
):
    rng = np.random.default_rng(seed)
    datasets = [_labelled(*shape, rng) for shape in shapes]
    tc = TrainConfig(
        n_trees=n_trees,
        min_samples_leaf=min_samples_leaf,
        max_depth=max_depth,
        bootstrap=bootstrap,
        seed=seed,
    )
    assert train(datasets, tc) == [train(ds, tc) for ds in datasets]


def test_training_many_rejects_before_growing(monkeypatch):
    def no_growth(*args, **kwargs):
        raise AssertionError("grew despite a rejected dataset")

    monkeypatch.setattr(forest_module, "_grow", no_growth)
    good = _separable(5)
    with pytest.raises(EmptyDatasetError):
        train([good, _toy_dataset([])], TrainConfig(n_trees=1))
    with pytest.raises(ValueError, match="non-finite values of feature x"):
        train([good, _toy_dataset([(np.nan, 1.0, "A")])], TrainConfig(n_trees=1))
    assert train([], TrainConfig(n_trees=1)) == []


@pytest.fixture()
def searches(monkeypatch):
    """(row count, found a split) of each node, per call of the batched
    split search, for the trainings made in the test."""
    calls = []
    search = forest_module._search

    def recorded(XT, rank, y, counts, features, rows_list, min_samples_leaf):
        found = search(XT, rank, y, counts, features, rows_list, min_samples_leaf)
        calls.append([(len(rows), split is not None) for rows, split in zip(rows_list, found)])
        return found

    monkeypatch.setattr(forest_module, "_search", recorded)
    return calls


def test_search_with_and_without_a_valid_cut(searches):
    # Feature y is constant, so a node that samples only y has no valid cut
    # and becomes a leaf, beside nodes in the same search that split on x.
    ds = _toy_dataset([(float(i % 4), 7.0, "AB"[i % 4 // 2 ^ i % 3 // 2]) for i in range(40)])
    tc = TrainConfig(n_trees=8, max_features=1, seed=2)
    assert train(ds, tc).trees == reference_train(ds, tc)
    assert any({split for _, split in call} == {True, False} for call in searches)


@pytest.mark.parametrize("min_samples_leaf", [1, 3])
def test_node_of_twice_min_samples_leaf(searches, min_samples_leaf):
    # A node of exactly 2 * min_samples_leaf rows has a single cut that
    # leaves enough rows on both sides; it is scored beside other nodes.
    ds = _toy_dataset([(float(i % 7), float(i % 3), "ABA"[i % 5 // 2]) for i in range(60)])
    tc = TrainConfig(n_trees=6, min_samples_leaf=min_samples_leaf, seed=5)
    assert train(ds, tc).trees == reference_train(ds, tc)
    assert any(
        len(call) > 1 and any(n == 2 * min_samples_leaf for n, _ in call) for call in searches
    )


@pytest.mark.parametrize("floor", [1, 2**30])
def test_trees_do_not_depend_on_search_batching(monkeypatch, searches, floor):
    # With no floor, a search holds at most twice the largest side's rows;
    # with a floor above every step, one search holds all of a step's
    # nodes. Sides of more than 512 rows grow beside small ones.
    monkeypatch.setattr(forest_module, "_MIN_SEARCH_ROWS", floor)
    rng = np.random.default_rng(41)
    shapes = [(700, 2), (530, 2), (40, 2), (3, 2), (600, 3)]
    datasets = [_labelled(n_rows, n_labels, 3, rng) for n_rows, n_labels in shapes]
    tc = TrainConfig(n_trees=3, max_features=2, seed=41)
    forests = train(datasets, tc)
    # The first step of the 2-label group: one search, or batches of at
    # most 1,400 rows.
    rows = sum(n for n, _ in searches[0])
    assert rows > 1400 if floor > 1 else rows <= 1400
    assert forests == [train(ds, tc) for ds in datasets]
    for ds, forest in zip(datasets, forests):
        assert forest.trees == reference_train(ds, tc)


def test_trained_model_bytes_pinned(tmp_path):
    # Any change to a tree, its split or its threshold shows here.
    ds = _tie_heavy(3)
    save_model(train(ds, TrainConfig(n_trees=4, min_samples_leaf=2, seed=7)), tmp_path / "m.json")
    digest = hashlib.sha256((tmp_path / "m.json").read_bytes()).hexdigest()
    assert digest == "7258cfefe027f45385e0526742f6a7a2f3bfa4c25a6540ae338b13cd2c9611d7"


def test_training_memory_does_not_grow_with_the_number_of_trees():
    # Trees grow in lockstep, but each split search takes at most twice the
    # training rows: 20 trees must peak near 1 tree, not near 20 of them.
    rng = np.random.default_rng(0)
    X = np.repeat(rng.integers(0, 20, size=(1000, 1)), 6, axis=1).astype(float)
    ds = Dataset("toy", range(1000), X, [f"L{int(v) // 5}" for v in X[:, 0]], tuple("abcdef"))

    def peak(n_trees: int) -> int:
        tracemalloc.start()
        try:
            train(ds, TrainConfig(n_trees=n_trees, seed=1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(20) <= 3 * peak(1)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "values",
        [
            {"n_trees": True},
            {"n_trees": 2.0},
            {"n_trees": 0},
            {"max_features": True},
            {"max_features": 0},
            {"max_features": "log2"},
            {"min_samples_leaf": False},
            {"min_samples_leaf": 2.5},
            {"min_samples_leaf": "2"},
            {"max_depth": "3"},
            {"max_depth": 0},
            {"max_depth": 2.0},
            {"max_depth": True},
            {"bootstrap": "no"},
            {"bootstrap": 0},
            {"seed": True},
            {"seed": 1.5},
        ],
    )
    def test_wrongly_typed_values_rejected(self, values):
        with pytest.raises(ValueError, match=next(iter(values))):
            TrainConfig(**values)

    def test_valid_values_accepted(self):
        tc = TrainConfig(
            n_trees=1, max_features=3, min_samples_leaf=2, max_depth=1, bootstrap=False, seed=-4
        )
        assert tc.to_dict() == {
            "n_trees": 1,
            "max_features": 3,
            "min_samples_leaf": 2,
            "max_depth": 1,
            "bootstrap": False,
            "seed": -4,
        }
        assert TrainConfig().max_features == "sqrt"


class TestPredict:
    def _hand_forest(self) -> RandomForest:
        # tree 1: x <= 1.5 -> A else B ; tree 2: y <= 5 -> A else B
        t1 = _stump(0, 1.5)
        t2 = _stump(1, 5.0)
        return RandomForest(
            trees=(t1, t2), feature_schema=("x", "y"), labels=("A", "B")
        )

    def test_single_tree_forest_equals_leaf_route(self):
        forest = RandomForest(
            trees=(_stump(0, 1.5),),
            feature_schema=("x", "y"),
            labels=("A", "B"),
        )
        assert predict(forest, (1.0, 0.0)) == "A"
        assert predict(forest, (2.0, 0.0)) == "B"

    def test_majority_vote(self):
        t_a = _leaf(0)
        t_b1 = _leaf(1)
        t_b2 = _leaf(1)
        forest = RandomForest(
            trees=(t_a, t_b1, t_b2), feature_schema=("x",), labels=("A", "B")
        )
        assert predict(forest, (0.0,)) == "B"

    def test_tie_breaks_to_lexicographically_smallest(self):
        forest = RandomForest(
            trees=(_leaf(1), _leaf(0)), feature_schema=("x",), labels=("A", "B")
        )
        assert predict(forest, (0.0,)) == "A"
        forest_z = RandomForest(
            trees=(_leaf(0), _leaf(1)), feature_schema=("x",), labels=("B", "Z")
        )
        assert predict(forest_z, (0.0,)) == "B"

    def test_vote_invariant_to_tree_order(self):
        forest = self._hand_forest()
        flipped = RandomForest(
            trees=forest.trees[::-1],
            feature_schema=forest.feature_schema,
            labels=forest.labels,
        )
        rng = np.random.default_rng(23)
        X = rng.uniform(-1, 11, size=(50, 2))
        assert predict_matrix(forest, X) == predict_matrix(flipped, X)

    def test_matches_manual_tree_walk_oracle(self):
        trained = train(_separable(25, seed=29), TrainConfig(n_trees=7, seed=29))
        rng = np.random.default_rng(29)
        X = rng.uniform(-2, 12, size=(100, 2))

        for forest in (self._hand_forest(), trained):
            for row in X:
                votes = [_walk(t, row) for t in forest.trees]
                counts = {i: votes.count(i) for i in set(votes)}
                best = min(
                    counts, key=lambda i: (-counts[i], forest.labels[i])
                )
                assert predict(forest, row) == forest.labels[best]

    def test_right_child_after_left_subtree(self):
        # x <= 1.5 -> (y <= 5 -> A else B) else C; node 4 is the root's right.
        tree = Tree(
            [0, 1, -1, -1, -1],
            [1.5, 5.0, 0.0, 0.0, 0.0],
            [1, 2, -1, -1, -1],
            [4, 3, -1, -1, -1],
            [-1, -1, 0, 1, 2],
        )
        forest = RandomForest(trees=(tree,), feature_schema=("x", "y"), labels=("A", "B", "C"))
        X = np.array([[1.0, 4.0], [1.0, 6.0], [2.0, 4.0], [1.5, 5.0]])
        assert predict_matrix(forest, X) == ["A", "B", "C", "A"]

    def test_batch_matches_single(self):
        ds = _separable(25, seed=31)
        forest = train(ds, TrainConfig(n_trees=9, seed=31))
        rng = np.random.default_rng(31)
        X = rng.uniform(0, 3, size=(40, 2))
        assert predict_matrix(forest, X) == [predict(forest, tuple(r)) for r in X]

    def test_metered_feature_vector_predicts_as_its_row(self):
        records, _ = meter(random_trace(np.random.default_rng(37), 400), MeterConfig())
        rules = RuleSet(rules=(LabelRule(label="ATTACK", src_ips=("10.0.0.1",)),))
        cf = build_cf(records, rules, min_class_count=1)
        assert len(cf.label_counts()) == 2
        forest = train(cf, TrainConfig(n_trees=5, seed=37))
        by_hash = {r.id.hash64: r for r in records}
        expected = predict_matrix(forest, cf.X)
        for h, label in zip(cf.hash64.tolist(), expected):
            fv = by_hash[h].features
            assert predict(forest, fv) == predict(forest, tuple(fv)) == label

    def test_schema_mismatch(self):
        forest = self._hand_forest()
        with pytest.raises(SchemaMismatchError):
            predict(forest, (1.0, 2.0, 3.0))
        with pytest.raises(SchemaMismatchError):
            predict_matrix(forest, np.zeros((3, 5)))


def _random_tree(rng, n_features: int, n_labels: int, depth: int) -> Tree:
    """A random tree of at most ``depth`` levels, a single leaf at 0, whose
    thresholds fall on and between the integers 0-4."""
    nodes = []

    def add(level: int) -> None:
        i = len(nodes)
        if level == depth or rng.random() < 0.25:
            nodes.append([-1, 0.0, -1, -1, int(rng.integers(n_labels))])
            return
        nodes.append([int(rng.integers(n_features)), rng.integers(0, 9) / 2, i + 1, -1, -1])
        add(level + 1)
        nodes[i][3] = len(nodes)
        add(level + 1)

    add(0)
    return Tree(*zip(*nodes))


def _caterpillar(depth: int, n_labels: int) -> Tree:
    """Split j sends x0 <= j + 0.5 to a leaf and the rest to split j + 1,
    ``depth`` splits in all, so its last leaf lies ``depth`` levels down."""
    n = 2 * depth + 1
    is_split = np.arange(n) % 2 == 0
    is_split[-1] = False
    return Tree(
        np.where(is_split, 0, -1),
        np.where(is_split, np.arange(n) / 2 + 0.5, 0.0),
        np.where(is_split, np.arange(n) + 1, -1),
        np.where(is_split, np.arange(n) + 2, -1),
        np.where(is_split, -1, np.arange(n) // 2 % n_labels),
    )


@settings(max_examples=60, deadline=None)
@given(
    n_trees=st.integers(1, 12),
    n_rows=st.integers(0, 40),
    n_features=st.integers(1, 3),
    n_labels=st.integers(1, 5),
    deep=st.booleans(),
    pairs=st.sampled_from((1, 5, 64, forest_module._PREDICT_PAIRS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_predict_matrix_equals_reference(
    n_trees, n_rows, n_features, n_labels, deep, pairs, seed
):
    # Single leaves, trees of mixed depth, the depth-1,999 tree, and blocks
    # of as few as 1 row each: every pair walks as it would alone.
    rng = np.random.default_rng(seed)
    trees = [
        _random_tree(rng, n_features, n_labels, int(rng.integers(0, 9))) for _ in range(n_trees)
    ]
    X = rng.integers(0, 5, size=(n_rows, n_features)).astype(float)
    if deep:
        trees.insert(int(rng.integers(0, n_trees + 1)), _caterpillar(1999, n_labels))
        X[:, 0] = rng.integers(0, 2001, size=n_rows)
    labels = tuple(f"L{i}" for i in range(n_labels))
    forest = RandomForest(tuple(trees), tuple("abc"[:n_features]), labels)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forest_module, "_PREDICT_PAIRS", pairs)
        assert predict_matrix(forest, X) == reference_predict(forest, X)


def test_forest_lays_out_its_nodes_once(tmp_path, monkeypatch):
    # train and load_model lay the node arrays out as they build a forest;
    # every later prediction walks those same arrays.
    ds = _separable(30, seed=5)
    forest = train(ds, TrainConfig(n_trees=4, seed=5))
    save_model(forest, tmp_path / "model.json")
    calls = []
    lay_out = forest_module._lay_out
    monkeypatch.setattr(
        forest_module, "_lay_out", lambda trees: calls.append(len(trees)) or lay_out(trees)
    )
    nodes = forest.nodes
    first = predict_matrix(forest, ds.X)
    assert all(predict_matrix(forest, ds.X) == first for _ in range(3))
    assert predict(forest, ds.X[0]) == first[0]
    assert calls == [] and forest.nodes is nodes
    back = load_model(tmp_path / "model.json")
    assert calls == [4]
    assert all(np.array_equal(a, b) for a, b in zip(back.nodes, nodes))
    assert predict_matrix(back, ds.X) == first and calls == [4]


class TestPersistence:
    def test_round_trip(self, tmp_path):
        ds = _separable(30, seed=37)
        forest = train(ds, TrainConfig(n_trees=7, seed=37))
        path = tmp_path / "model.json"
        save_model(forest, path)
        back = load_model(path)
        assert back.labels == forest.labels
        assert back.feature_schema == forest.feature_schema
        assert back.trees == forest.trees
        assert back.train_config == forest.train_config
        rng = np.random.default_rng(37)
        X = rng.uniform(0, 3, size=(60, 2))
        assert predict_matrix(back, X) == predict_matrix(forest, X)

    def test_trees_differ_by_any_array(self):
        tree = _stump(0, 1.5)
        assert tree == _stump(0, 1.5)
        assert tree != _stump(0, 2.5)
        assert tree != _stump(1, 1.5)
        assert tree != Tree([0, -1, -1], [1.5, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [-1, 1, 0])
        assert tree != _leaf(0)
        assert tree != "tree"

    @pytest.mark.parametrize(
        "edit,problem",
        [
            pytest.param(lambda t: t["threshold"].pop(), "equal length", id="unequal_lengths"),
            pytest.param(lambda t: [a.clear() for a in t.values()], "non-empty", id="empty"),
            pytest.param(
                lambda t: t.update(value=[[v] for v in t["value"]]), "flat", id="nested"
            ),
            pytest.param(
                lambda t: t["left"].__setitem__(0, 0), "child index", id="left_child_is_itself"
            ),
            pytest.param(
                lambda t: t["right"].__setitem__(_last_split(t), 0),
                "child index",
                id="right_child_points_back",
            ),
            pytest.param(
                lambda t: t["right"].__setitem__(0, len(t["feature"])),
                "out of range",
                id="child_out_of_range",
            ),
            pytest.param(
                lambda t: t["feature"].__setitem__(0, 2), "2-feature schema", id="feature_past"
            ),
            pytest.param(
                lambda t: t["feature"].__setitem__(0, -2), "2-feature schema", id="feature_below"
            ),
            pytest.param(
                lambda t: t["value"].__setitem__(-1, 2), "outside the 2 labels", id="value_past"
            ),
            pytest.param(
                lambda t: t["value"].__setitem__(-1, -1), "outside the 2 labels", id="value_below"
            ),
            pytest.param(
                lambda t: t["threshold"].__setitem__(0, "x"), "convert", id="non_numeric"
            ),
            pytest.param(lambda t: t.pop("right"), "right", id="missing_array"),
        ],
    )
    def test_malformed_tree_rejected(self, tmp_path, edit, problem):
        # Each edit breaks the saved forest's first tree. The loader must
        # refuse it before any walk: a child that points back would loop.
        forest = train(_separable(30, seed=41), TrainConfig(n_trees=2, seed=41))
        assert len(forest.labels) == 2
        path = tmp_path / "model.json"
        save_model(forest, path)
        doc = json.loads(path.read_text())
        edit(doc["trees"][0])
        path.write_text(json.dumps(doc))
        with pytest.raises(FlowLabError, match=f"tree 0: .*{problem}"):
            load_model(path)


    @pytest.mark.parametrize(
        "edit,problem",
        [
            pytest.param(
                lambda d: d["train_config"].update(n_tree=3), "n_tree", id="unknown_config_key"
            ),
            pytest.param(lambda d: d["train_config"].update(n_trees=0), "n_trees", id="zero_trees"),
            pytest.param(lambda d: d.update(train_config=5), "mapping", id="config_not_object"),
            pytest.param(lambda d: d.pop("labels"), "labels must be a list", id="missing_labels"),
            pytest.param(lambda d: d.update(labels=[1, 2]), "labels must be", id="labels_not_str"),
            pytest.param(
                lambda d: d.update(feature_schema="ab"), "feature_schema must", id="schema_str"
            ),
            pytest.param(lambda d: d.update(trees=5), "trees must be a list", id="trees_not_list"),
            pytest.param(lambda d: d.update(tree=[]), "unknown model", id="unknown_key"),
            pytest.param(lambda d: d.update(trees=[]), "at least one tree", id="no_trees"),
            pytest.param(lambda d: d.update(labels=[]), "labels must be sorted", id="no_labels"),
            pytest.param(
                lambda d: d.update(labels=["B", "A"]), "labels must be sorted", id="unsorted_labels"
            ),
            pytest.param(
                lambda d: d.update(labels=["A", "A"]), "labels must be sorted", id="repeated_labels"
            ),
        ],
    )
    def test_malformed_document_rejected(self, tmp_path, edit, problem):
        forest = train(_separable(30, seed=43), TrainConfig(n_trees=2, seed=43))
        path = tmp_path / "model.json"
        save_model(forest, path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(FlowLabError, match=f"^{re.escape(str(path))}: .*{problem}"):
            load_model(path)

    @pytest.mark.parametrize("text", ["[]", "5", '"model"', "{", ""])
    def test_document_not_a_json_object_rejected(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(FlowLabError, match=f"^{re.escape(str(path))}: "):
            load_model(path)


def _last_split(tree: dict) -> int:
    return max(i for i, f in enumerate(tree["feature"]) if f >= 0)
