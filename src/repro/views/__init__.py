"""CQRS read models over the engine's event-sourced write side.

See DESIGN.md §Read models.  Layout:

* :mod:`repro.views.projections` — the three fixed tables
  (``InstancesByState`` and ``WorklistQueues``: live records plus a
  finished tier of rank pages; ``DefinitionStats``), compact-record
  constructors, and the ``merge_ranked`` k-way merge.
* :mod:`repro.views.manager` — ``ProjectionManager``: the group-commit
  apply hook, the one image cursor (``view/__cursor``), recovery (load /
  tail replay / rebuild).
* :mod:`repro.views.cluster` — ``ClusterViews``: cluster-wide
  aggregates (definition stats, open work items, per-shard status).
* :mod:`repro.views.rebuild` — offline full rebuild for closed stores
  (``repro views rebuild``).
"""

from repro.views.cluster import ClusterViews
from repro.views.manager import CURSOR_KEY, VIEW_PREFIX, ProjectionManager
from repro.views.projections import (
    DefinitionStats,
    InstancesByState,
    WorklistQueues,
    compact_instance,
    compact_instance_obj,
    compact_item,
    compact_item_obj,
    creation_rank,
    merge_ranked,
)
from repro.views.rebuild import rebuild_store_views

__all__ = [
    "CURSOR_KEY",
    "VIEW_PREFIX",
    "ClusterViews",
    "DefinitionStats",
    "InstancesByState",
    "ProjectionManager",
    "WorklistQueues",
    "compact_instance",
    "compact_instance_obj",
    "compact_item",
    "compact_item_obj",
    "creation_rank",
    "merge_ranked",
    "rebuild_store_views",
]
