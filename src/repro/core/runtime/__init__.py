"""Execution runtimes: integrated and out-of-process."""

from repro.core.runtime.executor import RavenExecutor
from repro.core.runtime.outofprocess import OutOfProcessRuntime

__all__ = [
    "OutOfProcessRuntime",
    "RavenExecutor",
]
