"""Shared exception hierarchy for the repro package.

Every layer of the system (relational engine, ML library, tensor runtime,
Raven core) raises subclasses of :class:`ReproError`, so callers can catch
one base type at an API boundary without masking unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------------------
# Relational engine
# ---------------------------------------------------------------------------


class RelationalError(ReproError):
    """Base class for errors from the relational substrate."""


class SQLSyntaxError(RelationalError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (at line {line}, column {column})"
        super().__init__(message)


class BindError(RelationalError):
    """A name in the query could not be resolved against the catalog."""


class SchemaError(RelationalError):
    """A schema is malformed or two schemas are incompatible."""


class CatalogError(RelationalError):
    """A catalog object is missing, duplicated, or otherwise invalid."""


class TransactionError(RelationalError):
    """Invalid transaction state transition (e.g. commit without begin)."""


class ExecutionError(RelationalError):
    """A physical operator failed while executing a plan."""


# ---------------------------------------------------------------------------
# ML library
# ---------------------------------------------------------------------------


class MLError(ReproError):
    """Base class for errors from the ML substrate."""


class NotFittedError(MLError):
    """An estimator was used before ``fit`` was called."""


class ModelFormatError(MLError):
    """A serialized model bundle is malformed or has an unknown flavor."""


# ---------------------------------------------------------------------------
# Tensor runtime
# ---------------------------------------------------------------------------


class TensorError(ReproError):
    """Base class for errors from the tensor runtime."""


class GraphValidationError(TensorError):
    """A tensor graph is structurally invalid (cycle, dangling edge...)."""


class UnsupportedOpError(TensorError):
    """An op kind has no registered kernel or converter."""


# ---------------------------------------------------------------------------
# Raven core
# ---------------------------------------------------------------------------


class RavenError(ReproError):
    """Base class for errors from the Raven core (IR/analysis/optimizer)."""


class StaticAnalysisError(RavenError):
    """The static analyzer could not process an input script."""


class OptimizerError(RavenError):
    """A transformation rule produced an invalid rewrite."""


class CodegenError(RavenError):
    """The runtime code generator could not emit SQL for a plan."""


class RuntimeDispatchError(RavenError):
    """No runtime (in-process/external) can execute an operator."""


# ---------------------------------------------------------------------------
# Serving layer
# ---------------------------------------------------------------------------


class ServingError(ReproError):
    """Base class for errors from the concurrent serving layer."""


class ParameterBindError(ServingError):
    """A prepared query was executed with missing or extra parameters."""


class ServerOverloadedError(ServingError):
    """The server's bounded admission queue rejected a request."""


class ServerClosedError(ServingError):
    """A request was submitted to a server that has been shut down."""
