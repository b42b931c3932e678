"""CART decision trees.

The fitted tree is stored in flat arrays (``children_left``,
``children_right``, ``feature``, ``threshold``, ``value``) exactly like
scikit-learn's ``tree_`` attribute. That representation is load-bearing for
the reproduction: predicate-based model pruning (§4.1), model/query
splitting (§2), model inlining to SQL ``CASE`` expressions (§4.2) and NN
translation (§4.2) all walk these arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import MLError
from repro.ml.base import (
    BaseEstimator,
    ClassifierMixin,
    RegressorMixin,
    as_matrix,
    as_vector,
)

LEAF = -1  # sentinel in the `feature` array, same as sklearn's TREE_UNDEFINED


@dataclass
class TreeStructure:
    """The flat-array encoding of a fitted binary decision tree.

    Internal node ``i`` tests ``x[feature[i]] <= threshold[i]``: true goes
    to ``children_left[i]``, false to ``children_right[i]``. Leaves have
    ``feature[i] == LEAF``. ``value[i]`` is the prediction payload: class
    distribution for classifiers, mean target for regressors.
    """

    children_left: np.ndarray
    children_right: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray
    n_node_samples: np.ndarray = field(default=None)  # type: ignore[assignment]

    @property
    def node_count(self) -> int:
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        return int((self.feature == LEAF).sum())

    def is_leaf(self, node: int) -> bool:
        return self.feature[node] == LEAF

    def levels(self, roots=0) -> list[np.ndarray]:
        """The nodes below ``roots``, one array per depth (vectorized
        level frontier); the arrays may hold several trees."""
        levels = []
        frontier = np.asarray(roots, dtype=np.int64).reshape(-1)
        while frontier.size:
            levels.append(frontier)
            internal = frontier[self.feature[frontier] != LEAF]
            frontier = np.concatenate(
                (self.children_left[internal], self.children_right[internal])
            )
        return levels

    def max_depth(self, roots=0) -> int:
        """Longest root-to-leaf path length."""
        return len(self.levels(roots)) - 1

    def used_features(self) -> set[int]:
        """Feature indices tested anywhere in the tree."""
        return set(int(f) for f in self.feature[self.feature != LEAF])

    def decision_path_apply(self, X: np.ndarray, roots=0) -> np.ndarray:
        """Leaf index reached by each row: ``(rows,)`` from the one root
        ``roots``, or ``(rows, len(roots))`` when the arrays hold several
        trees and ``roots`` lists theirs.

        Fully vectorized: leaves are turned into self-loops (their
        children point back at themselves, their test feature is
        clamped to 0), so every row can be advanced ``max_depth`` times
        with three gathers and one ``where`` per level — no boolean
        masking or shrinking index sets, which keeps the hot arrays
        contiguous for the whole descent. A NaN feature fails its test
        and goes right.
        """
        roots = np.asarray(roots, dtype=np.int64)
        n = X.shape[0]
        node = np.full((n,) + roots.shape, roots)
        if n == 0:
            return node
        idx = np.arange(self.node_count, dtype=np.int64)
        leaf = self.feature == LEAF
        left = np.where(leaf, idx, self.children_left)
        right = np.where(leaf, idx, self.children_right)
        feat = np.where(leaf, 0, self.feature)
        rows = np.arange(n).reshape((n,) + (1,) * roots.ndim)
        for _ in range(self.max_depth(roots)):
            go_left = X[rows, feat[node]] <= self.threshold[node]
            node = np.where(go_left, left[node], right[node])
        return node

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """The ``value`` rows for each input row's leaf."""
        return self.value[self.decision_path_apply(X)]

    def paths(self) -> list[list[tuple[int, float, bool]]]:
        """All root-to-leaf paths as ``(feature, threshold, goes_left)``
        condition lists, paired with the leaf node id.

        Returned as a list aligned with leaves in DFS order; each entry is
        the condition list, and the leaf id is appended via
        :meth:`leaves_dfs`. Used by model inlining to emit one CASE branch
        per leaf.
        """
        result = []
        stack: list[tuple[int, list[tuple[int, float, bool]]]] = [(0, [])]
        while stack:
            node, conditions = stack.pop()
            if self.is_leaf(node):
                result.append(conditions)
                continue
            f = int(self.feature[node])
            t = float(self.threshold[node])
            # Right pushed first so left-first DFS order comes out of the stack.
            stack.append(
                (int(self.children_right[node]), conditions + [(f, t, False)])
            )
            stack.append(
                (int(self.children_left[node]), conditions + [(f, t, True)])
            )
        return result

    def leaves_dfs(self) -> list[int]:
        """Leaf node ids in the same DFS order as :meth:`paths`."""
        result = []
        stack = [0]
        while stack:
            node = stack.pop()
            if self.is_leaf(node):
                result.append(node)
                continue
            stack.append(int(self.children_right[node]))
            stack.append(int(self.children_left[node]))
        return result

    def copy(self) -> "TreeStructure":
        return TreeStructure(
            self.children_left.copy(),
            self.children_right.copy(),
            self.feature.copy(),
            self.threshold.copy(),
            self.value.copy(),
            None if self.n_node_samples is None else self.n_node_samples.copy(),
        )


class _TreeBuilder:
    """Grows a CART tree greedily, best split by impurity decrease."""

    def __init__(
        self,
        criterion: str,
        max_depth: int | None,
        min_samples_split: int,
        min_samples_leaf: int,
        max_features: int | None,
        rng: np.random.Generator,
        n_outputs: int,
    ):
        self.criterion = criterion
        self.max_depth = max_depth if max_depth is not None else 2**31
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng
        self.n_outputs = n_outputs

    def build(self, X: np.ndarray, y: np.ndarray) -> TreeStructure:
        left: list[int] = []
        right: list[int] = []
        feature: list[int] = []
        threshold: list[float] = []
        value: list[np.ndarray] = []
        samples: list[int] = []

        def node_value(idx: np.ndarray) -> np.ndarray:
            if self.criterion == "mse":
                return np.array([y[idx].mean()])
            counts = np.bincount(
                y[idx].astype(np.int64), minlength=self.n_outputs
            ).astype(np.float64)
            return counts / counts.sum()

        def new_node() -> int:
            left.append(LEAF)
            right.append(LEAF)
            feature.append(LEAF)
            threshold.append(0.0)
            value.append(np.zeros(max(self.n_outputs, 1)))
            samples.append(0)
            return len(left) - 1

        root = new_node()
        stack: list[tuple[int, np.ndarray, int]] = [
            (root, np.arange(len(y)), 0)
        ]
        while stack:
            node, idx, depth = stack.pop()
            value[node] = node_value(idx)
            samples[node] = len(idx)
            if (
                depth >= self.max_depth
                or len(idx) < self.min_samples_split
                or self._is_pure(y[idx])
            ):
                continue
            split = self._best_split(X, y, idx)
            if split is None:
                continue
            f, t = split
            mask = X[idx, f] <= t
            left_idx, right_idx = idx[mask], idx[~mask]
            if (
                len(left_idx) < self.min_samples_leaf
                or len(right_idx) < self.min_samples_leaf
            ):
                continue
            feature[node] = f
            threshold[node] = t
            left_child, right_child = new_node(), new_node()
            left[node] = left_child
            right[node] = right_child
            stack.append((left_child, left_idx, depth + 1))
            stack.append((right_child, right_idx, depth + 1))

        return TreeStructure(
            np.asarray(left, dtype=np.int64),
            np.asarray(right, dtype=np.int64),
            np.asarray(feature, dtype=np.int64),
            np.asarray(threshold, dtype=np.float64),
            np.vstack(value),
            np.asarray(samples, dtype=np.int64),
        )

    def _is_pure(self, y: np.ndarray) -> bool:
        if self.criterion == "mse":
            return bool(y.std() < 1e-12)
        return bool((y == y[0]).all())

    def _impurity(self, y_sorted_cumulative, total_counts, n_left, n_total):
        """Weighted child impurity for every candidate split position.

        ``y_sorted_cumulative`` is the per-class cumulative count matrix
        for classification, or ``(cumsum, cumsum_sq)`` for regression.
        """
        n_right = n_total - n_left
        if self.criterion == "mse":
            csum, csum_sq = y_sorted_cumulative
            left_sum = csum[n_left - 1]
            left_sq = csum_sq[n_left - 1]
            right_sum = csum[-1] - left_sum
            right_sq = csum_sq[-1] - left_sq
            left_var = left_sq / n_left - (left_sum / n_left) ** 2
            right_var = right_sq / np.maximum(n_right, 1) - (
                right_sum / np.maximum(n_right, 1)
            ) ** 2
            return (n_left * left_var + n_right * right_var) / n_total
        counts_left = y_sorted_cumulative[n_left - 1]
        counts_right = total_counts - counts_left
        if self.criterion == "entropy":
            def entropy(counts, n):
                p = counts / np.maximum(n, 1)[..., None]
                with np.errstate(divide="ignore", invalid="ignore"):
                    logs = np.log2(p, out=np.zeros_like(p), where=p > 0)
                return -(p * logs).sum(axis=-1)

            left_imp = entropy(counts_left, n_left)
            right_imp = entropy(counts_right, n_right)
        else:  # gini
            p_left = counts_left / np.maximum(n_left, 1)[..., None]
            p_right = counts_right / np.maximum(n_right, 1)[..., None]
            left_imp = 1.0 - (p_left**2).sum(axis=-1)
            right_imp = 1.0 - (p_right**2).sum(axis=-1)
        return (n_left * left_imp + n_right * right_imp) / n_total

    def _best_split(
        self, X: np.ndarray, y: np.ndarray, idx: np.ndarray
    ) -> tuple[int, float] | None:
        n_features = X.shape[1]
        if self.max_features is not None and self.max_features < n_features:
            candidates = self.rng.choice(
                n_features, size=self.max_features, replace=False
            )
        else:
            candidates = np.arange(n_features)
        best: tuple[float, int, float] | None = None
        y_sub = y[idx]
        n_total = len(idx)
        for f in candidates:
            x = X[idx, f]
            order = np.argsort(x, kind="stable")
            x_sorted = x[order]
            y_sorted = y_sub[order]
            distinct = np.nonzero(np.diff(x_sorted))[0]
            if len(distinct) == 0:
                continue
            if self.criterion == "mse":
                csum = np.cumsum(y_sorted)
                csum_sq = np.cumsum(y_sorted**2)
                cumulative = (csum, csum_sq)
                totals = None
            else:
                onehot = np.zeros((n_total, self.n_outputs))
                onehot[np.arange(n_total), y_sorted.astype(np.int64)] = 1.0
                cumulative = np.cumsum(onehot, axis=0)
                totals = cumulative[-1]
            n_left = distinct + 1
            impurities = self._impurity(cumulative, totals, n_left, n_total)
            pos = int(np.argmin(impurities))
            score = float(impurities[pos])
            split_at = distinct[pos]
            t = float((x_sorted[split_at] + x_sorted[split_at + 1]) / 2.0)
            if best is None or score < best[0]:
                best = (score, int(f), t)
        if best is None:
            return None
        return best[1], best[2]


class DecisionTreeClassifier(BaseEstimator, ClassifierMixin):
    """A CART classifier with gini/entropy splitting."""

    def __init__(
        self,
        criterion: str = "gini",
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        random_state: int | None = None,
    ):
        if criterion not in ("gini", "entropy"):
            raise MLError(f"unknown criterion {criterion!r}")
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.tree_: TreeStructure | None = None
        self.classes_: np.ndarray | None = None
        self.n_features_in_: int | None = None

    def fit(self, X, y) -> "DecisionTreeClassifier":
        X, y = as_matrix(X), as_vector(y)
        self.classes_ = np.unique(y)
        codes = np.searchsorted(self.classes_, y)
        self.n_features_in_ = X.shape[1]
        builder = _TreeBuilder(
            self.criterion,
            self.max_depth,
            self.min_samples_split,
            self.min_samples_leaf,
            self.max_features,
            np.random.default_rng(self.random_state),
            n_outputs=len(self.classes_),
        )
        self.tree_ = builder.build(X, codes.astype(np.float64))
        return self

    def predict_proba(self, X) -> np.ndarray:
        self.check_fitted("tree_")
        return self.tree_.leaf_values(as_matrix(X))

    def predict(self, X) -> np.ndarray:
        self.check_fitted("tree_", "classes_")
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]


class DecisionTreeRegressor(BaseEstimator, RegressorMixin):
    """A CART regressor with variance-reduction splitting."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        random_state: int | None = None,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.tree_: TreeStructure | None = None
        self.n_features_in_: int | None = None

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X, y = as_matrix(X), as_vector(y)
        self.n_features_in_ = X.shape[1]
        builder = _TreeBuilder(
            "mse",
            self.max_depth,
            self.min_samples_split,
            self.min_samples_leaf,
            self.max_features,
            np.random.default_rng(self.random_state),
            n_outputs=1,
        )
        self.tree_ = builder.build(X, y)
        return self

    def predict(self, X) -> np.ndarray:
        self.check_fitted("tree_")
        return self.tree_.leaf_values(as_matrix(X))[:, 0]
