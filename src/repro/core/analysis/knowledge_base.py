"""The static analyzer's API knowledge base.

The paper builds this from ~4.6M public notebooks; ours is hand-curated but
plays the same role: it maps qualified names of data-science APIs (both
``sklearn.*``/``pandas.*`` spellings and this package's ``repro.*`` ones)
onto the classes they construct. The analyzer consults it when it sees an
imported name called in a script, and rebuilds the estimator from the
call's literal arguments; a call it does not know builds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ml.cluster import KMeans
from repro.ml.ensemble import (
    GradientBoostingRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)
from repro.ml.linear import Lasso, LinearRegression, LogisticRegression, Ridge
from repro.ml.neural import MLPClassifier, MLPRegressor
from repro.ml.pipeline import ColumnTransformer, FeatureUnion, Pipeline
from repro.ml.preprocessing import (
    Binarizer,
    LabelEncoder,
    MinMaxScaler,
    OneHotEncoder,
    SimpleImputer,
    StandardScaler,
)
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor


@dataclass(frozen=True)
class ApiEntry:
    """One known API: the class it constructs."""

    constructor: type


_ALIASES: dict[str, tuple[str, ...]] = {
    # canonical class -> every import path the analyzer recognizes
    "Pipeline": ("sklearn.pipeline.Pipeline", "repro.ml.pipeline.Pipeline"),
    "FeatureUnion": (
        "sklearn.pipeline.FeatureUnion",
        "repro.ml.pipeline.FeatureUnion",
    ),
    "ColumnTransformer": (
        "sklearn.compose.ColumnTransformer",
        "repro.ml.pipeline.ColumnTransformer",
    ),
    "StandardScaler": (
        "sklearn.preprocessing.StandardScaler",
        "repro.ml.preprocessing.StandardScaler",
    ),
    "MinMaxScaler": (
        "sklearn.preprocessing.MinMaxScaler",
        "repro.ml.preprocessing.MinMaxScaler",
    ),
    "OneHotEncoder": (
        "sklearn.preprocessing.OneHotEncoder",
        "repro.ml.preprocessing.OneHotEncoder",
    ),
    "Binarizer": (
        "sklearn.preprocessing.Binarizer",
        "repro.ml.preprocessing.Binarizer",
    ),
    "SimpleImputer": (
        "sklearn.impute.SimpleImputer",
        "repro.ml.preprocessing.SimpleImputer",
    ),
    "LabelEncoder": (
        "sklearn.preprocessing.LabelEncoder",
        "repro.ml.preprocessing.LabelEncoder",
    ),
    "DecisionTreeClassifier": (
        "sklearn.tree.DecisionTreeClassifier",
        "repro.ml.tree.DecisionTreeClassifier",
    ),
    "DecisionTreeRegressor": (
        "sklearn.tree.DecisionTreeRegressor",
        "repro.ml.tree.DecisionTreeRegressor",
    ),
    "RandomForestClassifier": (
        "sklearn.ensemble.RandomForestClassifier",
        "repro.ml.ensemble.RandomForestClassifier",
    ),
    "RandomForestRegressor": (
        "sklearn.ensemble.RandomForestRegressor",
        "repro.ml.ensemble.RandomForestRegressor",
    ),
    "GradientBoostingRegressor": (
        "sklearn.ensemble.GradientBoostingRegressor",
        "repro.ml.ensemble.GradientBoostingRegressor",
    ),
    "LinearRegression": (
        "sklearn.linear_model.LinearRegression",
        "repro.ml.linear.LinearRegression",
    ),
    "LogisticRegression": (
        "sklearn.linear_model.LogisticRegression",
        "repro.ml.linear.LogisticRegression",
    ),
    "Ridge": ("sklearn.linear_model.Ridge", "repro.ml.linear.Ridge"),
    "Lasso": ("sklearn.linear_model.Lasso", "repro.ml.linear.Lasso"),
    "MLPClassifier": (
        "sklearn.neural_network.MLPClassifier",
        "repro.ml.neural.MLPClassifier",
    ),
    "MLPRegressor": (
        "sklearn.neural_network.MLPRegressor",
        "repro.ml.neural.MLPRegressor",
    ),
    "KMeans": ("sklearn.cluster.KMeans", "repro.ml.cluster.KMeans"),
}

_CLASSES: dict[str, type] = {
    "Pipeline": Pipeline,
    "FeatureUnion": FeatureUnion,
    "ColumnTransformer": ColumnTransformer,
    "StandardScaler": StandardScaler,
    "MinMaxScaler": MinMaxScaler,
    "OneHotEncoder": OneHotEncoder,
    "Binarizer": Binarizer,
    "SimpleImputer": SimpleImputer,
    "LabelEncoder": LabelEncoder,
    "DecisionTreeClassifier": DecisionTreeClassifier,
    "DecisionTreeRegressor": DecisionTreeRegressor,
    "RandomForestClassifier": RandomForestClassifier,
    "RandomForestRegressor": RandomForestRegressor,
    "GradientBoostingRegressor": GradientBoostingRegressor,
    "LinearRegression": LinearRegression,
    "LogisticRegression": LogisticRegression,
    "Ridge": Ridge,
    "Lasso": Lasso,
    "MLPClassifier": MLPClassifier,
    "MLPRegressor": MLPRegressor,
    "KMeans": KMeans,
}


class KnowledgeBase:
    """Lookup from import paths / bare class names to API entries."""

    def __init__(self):
        self._by_path: dict[str, ApiEntry] = {}
        for canonical, paths in _ALIASES.items():
            entry = ApiEntry(_CLASSES[canonical])
            self._by_path[canonical] = entry
            for path in paths:
                self._by_path[path] = entry

    def lookup(self, name: str) -> ApiEntry | None:
        """Resolve a (possibly dotted) name; None if unknown."""
        if name in self._by_path:
            return self._by_path[name]
        # Try the last dotted component (``from x import StandardScaler``).
        tail = name.rsplit(".", 1)[-1]
        return self._by_path.get(tail)

    def register(self, path: str, constructor: type) -> None:
        """Extend the KB at runtime (the paper calls the set 'easily
        extensible')."""
        self._by_path[path] = ApiEntry(constructor)

    def known_paths(self) -> list[str]:
        return sorted(self._by_path)


DEFAULT_KNOWLEDGE_BASE = KnowledgeBase()
