from __future__ import annotations

import itertools
import json
import re

import numpy as np
import pytest

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
from reference import reference_train


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

    def test_determinism_runs_and_parallelism(self):
        ds = _separable(40, seed=9)
        tc = TrainConfig(n_trees=12, seed=11)
        f1 = train(ds, tc)
        f2 = train(ds, tc)
        f3 = train(ds, tc, n_jobs=4)
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
    "min_samples_leaf,max_depth,bootstrap,n_labels,n_jobs",
    list(itertools.product((1, 3), (None, 2), (True, False), (2, 9), (1, 2))),
)
def test_trees_equal_reference(min_samples_leaf, max_depth, bootstrap, n_labels, n_jobs):
    ds = _tie_heavy(n_labels)
    tc = TrainConfig(
        n_trees=4,
        min_samples_leaf=min_samples_leaf,
        max_depth=max_depth,
        bootstrap=bootstrap,
        seed=7,
    )
    assert train(ds, tc, n_jobs=n_jobs).trees == reference_train(ds, tc)


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
