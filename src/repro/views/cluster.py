"""``ClusterViews``: cross-shard queries served from per-shard read models.

Each shard's :class:`~repro.views.manager.ProjectionManager` is that
shard's only instance and work-item index: per-state and per-key buckets
are materialized and rank-ordered, so a query costs O(matches) per shard
plus one O(T log k) k-way merge — flat in shard count at equal total
size.  The per-shard answer is the shard's own
query (``shard.instances`` / ``find_instances`` / ``worklist.items``),
exact whatever the commit policy: the views fold in a shard's
uncommitted puts before they answer.

Ordering contract: creation rank interleaved across shards with shard
index as the tie-break, through the
:func:`~repro.views.projections.merge_ranked` k-way merge.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.analytics.kpis import CycleTimeAggregate
from repro.views.projections import creation_rank, merge_ranked

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.sharded import ShardedEngine
    from repro.engine.instance import InstanceState, ProcessInstance
    from repro.worklist.items import WorkItem, WorkItemState


def _instance_rank(instance: "ProcessInstance") -> int:
    return creation_rank(instance.id)


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
    """Pre-merged, view-backed cross-shard queries for ``ShardedEngine``.

    Each per-shard read takes that shard's dispatch lock (inside the
    shard's own query), one shard at a time."""

    def __init__(self, cluster: "ShardedEngine") -> None:
        self._cluster = cluster
        # the *pre-merged* ordering: merged per-state instance lists keyed
        # by state value, each stamped with the per-shard dispatch-seq
        # fingerprint it was computed at.  A repeated query over a
        # quiescent cluster (the dashboard steady state) returns a copy of
        # the merged list — O(total) copy, zero per-shard scans, zero
        # re-merges — and any shard commit changes the fingerprint, which
        # lazily invalidates on the next read.
        self._merge_cache: dict[
            str | None, tuple[tuple[int, ...], list["ProcessInstance"]]
        ] = {}

    def _fingerprint(self) -> tuple[int, ...]:
        return tuple(
            shard.dispatch_log.seq for shard in self._cluster.shards
        )

    def instances(
        self, state: "InstanceState | None" = None
    ) -> list["ProcessInstance"]:
        """All instances (optionally by state), cluster creation order."""
        key = None if state is None else state.value
        fingerprint = self._fingerprint()
        cached = self._merge_cache.get(key)
        if cached is not None and cached[0] == fingerprint:
            return list(cached[1])
        merged = merge_ranked(
            [shard.instances(state) for shard in self._cluster.shards],
            _instance_rank,
        )
        self._merge_cache[key] = (fingerprint, merged)
        return list(merged)

    def find_instances(self, **filters: Any) -> list["ProcessInstance"]:
        """Cross-shard ``find_instances`` over the per-shard read models."""
        # a pure state filter is exactly the pre-merged per-state list
        if all(value is None for name, value in filters.items() if name != "state"):
            return self.instances(filters.get("state"))
        return merge_ranked(
            [shard.find_instances(**filters) for shard in self._cluster.shards],
            _instance_rank,
        )

    def work_items(
        self, state: "WorkItemState | None" = None
    ) -> list["WorkItem"]:
        """All work items across shards, per-shard creation order."""
        return [
            item
            for shard in self._cluster.shards
            for item in shard.worklist.items(state)
        ]

    def open_work_items(self) -> int:
        """Cluster-wide open (non-terminal) work items, O(shards)."""
        return sum(shard.views.open_work_items() for shard in self._cluster.shards)

    def definition_stats(self) -> dict[str, dict[str, Any]]:
        """Per-definition analytics merged across shards."""
        reports = []
        for shard in self._cluster.shards:
            with shard._dispatch_lock:
                reports.append(shard.views.definition_stats())
        return merge_definition_stats(reports)

    def status(self) -> dict[str, Any]:
        """Per-shard projection cursors and lag (``repro cluster status``)."""
        per_shard = []
        for index, shard in enumerate(self._cluster.shards):
            manager = shard.views
            with shard._dispatch_lock:
                per_shard.append(
                    {
                        "shard": index,
                        "applied_seq": manager.applied_seq,
                        "dispatch_seq": shard.dispatch_log.seq,
                        "lag": shard.dispatch_log.seq - manager.applied_seq,
                        "recovered_mode": manager.recovered_mode,
                    }
                )
        return {"per_shard": per_shard}
