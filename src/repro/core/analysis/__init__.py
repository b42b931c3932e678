"""Static analysis: SQL queries and Python scripts to the one logical plan
(``SQLAnalyzer``, ``PythonStaticAnalyzer``), with the API knowledge base
that rebuilds a script's estimators."""

from repro.core.analysis.knowledge_base import DEFAULT_KNOWLEDGE_BASE, KnowledgeBase
from repro.core.analysis.python_analyzer import AnalysisResult, PythonStaticAnalyzer
from repro.core.analysis.sql_analyzer import SQLAnalyzer

__all__ = [
    "AnalysisResult",
    "DEFAULT_KNOWLEDGE_BASE",
    "KnowledgeBase",
    "PythonStaticAnalyzer",
    "SQLAnalyzer",
]
