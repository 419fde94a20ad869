"""``ClusterViews``: the cluster-wide aggregates of the per-shard read models.

Each shard's :class:`~repro.views.manager.ProjectionManager` is that
shard's only instance and work-item index.  Cross-shard *lists*
(``instances``, ``find_instances``, ``work_items``) are the shards' own
answers merged per query by :func:`~repro.views.projections.merge_ranked`
on ``(creation rank, shard index)``; :class:`~repro.cluster.sharded.ShardedEngine`
does that itself and nothing caches the result.  What lives here are
the aggregates the CLI, the dashboard readers and the benchmark call:
``definition_stats`` and ``open_work_items``; per-shard view lag is a
column of :meth:`ShardedEngine.status`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.analytics.kpis import CycleTimeAggregate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.sharded import ShardedEngine


def merge_definition_stats(
    reports: Iterable[dict[str, dict[str, Any]]],
) -> dict[str, dict[str, Any]]:
    """Per-definition analytics of several read models, merged.

    Counters and per-state censuses sum; cycle-time aggregates merge via
    :class:`CycleTimeAggregate`.
    """
    merged: dict[str, dict[str, Any]] = {}
    for report in reports:
        for definition, record in report.items():
            slot = merged.get(definition)
            if slot is None:
                merged[definition] = {
                    "total": record["total"],
                    "states": dict(record["states"]),
                    "cycle": dict(record["cycle"]),
                }
                continue
            slot["total"] += record["total"]
            for state, count in record["states"].items():
                slot["states"][state] = slot["states"].get(state, 0) + count
            slot["cycle"] = (
                CycleTimeAggregate.from_dict(slot["cycle"])
                .merge(CycleTimeAggregate.from_dict(record["cycle"]))
                .to_dict()
            )
    return {definition: merged[definition] for definition in sorted(merged)}


class ClusterViews:
    """Cluster-wide read-model aggregates for ``ShardedEngine``.

    Each per-shard read takes that shard's dispatch lock, one shard at a
    time."""

    def __init__(self, cluster: "ShardedEngine") -> None:
        self._cluster = cluster

    def open_work_items(self) -> int:
        """Cluster-wide open (non-terminal) work items, O(shards)."""
        return sum(shard.views.open_work_items() for shard in self._cluster.shards)

    def definition_stats(self) -> dict[str, dict[str, Any]]:
        """Per-definition analytics merged across shards."""
        return merge_definition_stats(
            self._cluster._each_shard(lambda shard: shard.views.definition_stats())
        )
