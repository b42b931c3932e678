"""Runtime code generation: the optimized plan back to SQL."""

from repro.core.codegen.sql_codegen import generate_sql

__all__ = ["generate_sql"]
