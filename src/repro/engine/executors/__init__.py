"""Per-node-family executor modules and their dispatch registry.

Importing this package populates :data:`~repro.engine.executors.registry.
EXECUTORS` by loading every family module for its registration side
effects.
"""

from repro.engine.executors.registry import EXECUTORS, executor
from repro.engine.executors import (  # noqa: F401 - registration side effects
    events,
    gateways,
    subprocesses,
    tasks,
)

__all__ = ["EXECUTORS", "executor"]
