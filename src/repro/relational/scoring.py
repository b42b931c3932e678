"""The one PREDICT scorer: how a model payload becomes ``Table -> outputs``.

A catalog model (:meth:`Database.resolve_scorer`), a payload the plan
carries (:meth:`Database.resolve_inline_scorer`) and a payload shipped to
a pool worker are all scored by what :func:`build_scorer` returns.
Chunking, the thread pool and the column attach stay in the ``Executor``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from repro.errors import ExecutionError
from repro.relational.table import Table

#: Bound on :func:`session_scorer`'s cache, per process (coordinator or worker).
MAX_CACHED_SCORERS = 32


def build_scorer(
    flavor: str,
    payload: object,
    feature_names: Sequence[str] | None,
    backend: str = "numpy",
    external_runtime: Callable[[str], Callable | None] | None = None,
) -> Callable[[Table], np.ndarray]:
    """The raw ``Table -> ndarray`` scorer for one model payload.

    ``feature_names`` distinguishes empty from unknown: ``()`` means the
    model consumes *zero* columns (fully pruned to a constant), ``None``
    that the whole table is passed. ``external_runtime(language)`` is the
    database's registry lookup, consulted on every call.
    """
    features = list(feature_names) if feature_names is not None else None
    if flavor == "ml.pipeline":
        predict = None
        if backend != "numpy":
            from repro.tensor.backends import compiled_pipeline_scorer

            predict = compiled_pipeline_scorer(
                payload, len(features) if features else None, backend
            )
        if predict is None:  # the interpreter: asked for, or translation failed
            predict = payload.predict
        return lambda table: np.asarray(
            predict(table.to_matrix(features)), dtype=np.float64
        )
    if flavor == "tensor.graph":
        from repro.tensor.session import InferenceSession

        session = InferenceSession(payload, backend=backend)
        input_name = session.input_names[0]

        def score_graph(table: Table) -> np.ndarray:
            outputs = session.run({input_name: table.to_matrix(features)})
            return np.asarray(outputs[0]).reshape(len(table), -1)

        return score_graph
    if flavor == "python.script":

        def score_script(table: Table) -> np.ndarray:
            runner = external_runtime("python") if external_runtime else None
            if runner is None:
                raise ExecutionError(
                    "model flavor 'python.script' has no in-process scorer; "
                    "use the out-of-process runtime "
                    "(Database.register_external_runtime('python', ...))"
                )
            return np.asarray(runner(str(payload), table), dtype=np.float64)

        return score_script
    raise ExecutionError(f"model flavor {flavor!r} has no scorer")


class _Pinned:
    """A payload as a cache key: equal only to itself, and kept alive by
    the entry — a recycled ``id()`` can never alias a retired model."""

    __slots__ = ("payload",)

    def __init__(self, payload: object):
        self.payload = payload

    def __hash__(self) -> int:
        return id(self.payload)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Pinned) and self.payload is other.payload


@lru_cache(maxsize=MAX_CACHED_SCORERS)
def session_scorer(pinned: _Pinned, features, backend, flavor):
    """:func:`build_scorer` for a payload whose scorer owns an inference
    session, cached by payload identity: NN translation + fusion run once
    per plan (or per worker), and retired versions age out of the LRU."""
    return build_scorer(flavor, pinned.payload, features, backend)


def payload_scorer(
    payload: object,
    feature_names: Sequence[str] | None,
    output_columns: Sequence[tuple],
    backend: str = "numpy",
    flavor: str = "ml.pipeline",
    external_runtime: Callable[[str], Callable | None] | None = None,
) -> Callable[[Table], dict[str, np.ndarray]]:
    """Scorer for a plan-embedded payload, bound to its output names.

    An interpreted pipeline or a script is a closure over the payload,
    free to rebuild; only compiled pipelines and tensor graphs are cached.
    """
    backend = (backend or "numpy").lower()
    if flavor == "tensor.graph" or (flavor == "ml.pipeline" and backend != "numpy"):
        features = None if feature_names is None else tuple(feature_names)
        scorer = session_scorer(_Pinned(payload), features, backend, flavor)
    else:
        scorer = build_scorer(
            flavor, payload, feature_names, backend, external_runtime
        )
    return _bind_output_names(scorer, [name for name, _dtype in output_columns])


def _bind_output_names(
    scorer: Callable[[Table], np.ndarray], output_names: Sequence[str]
) -> Callable[[Table], dict[str, np.ndarray]]:
    def run(table: Table) -> dict[str, np.ndarray]:
        raw = np.asarray(scorer(table))
        if raw.ndim == 1:
            raw = raw.reshape(-1, 1)
        if raw.shape[1] < len(output_names):
            raise ExecutionError(
                f"model produced {raw.shape[1]} outputs, query declared "
                f"{len(output_names)}"
            )
        return {name: raw[:, i] for i, name in enumerate(output_names)}

    return run
