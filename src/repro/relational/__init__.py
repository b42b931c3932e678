"""The relational substrate: a columnar mini-RDBMS with native scoring.

Public surface:

* :class:`~repro.relational.database.Database` — SQL in, tables out.
* :class:`~repro.relational.table.Table` — the columnar batch format.
* :class:`~repro.relational.types.Schema` / :class:`DataType`.
* :mod:`repro.relational.expressions` — scalar expression trees.
"""

from repro.relational.database import Database
from repro.relational.table import Table
from repro.relational.types import Column, DataType, Schema

__all__ = ["Database", "Table", "Column", "DataType", "Schema"]
