"""Static analysis: SQL to the unified plan, Python scripts to pipelines
and dataflow sketches."""

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
