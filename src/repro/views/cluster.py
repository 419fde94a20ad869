"""``ClusterViews``: cross-shard queries served from per-shard read models.

The scatter-gather the cluster facade shipped with (PR 5) touches every
instance on every shard and sorts the union — O(total) work per query
with a constant factor that grows with shard count (one lock, one scan,
one merge per shard).  This facade answers the same queries from each
shard's :class:`~repro.views.manager.ProjectionManager`: per-state and
per-key buckets are already materialized and rank-ordered, so a query
costs O(matches) per shard plus one O(T log k) k-way merge — flat in
shard count at equal total size (the F15 bench gate).

Freshness gate: a shard's in-memory projections advance at group-commit
time, so they lag the shard's in-memory base state while a flush is
pending (inside ``batch()``, or below a ``commit_interval`` threshold).
Each per-shard read therefore checks ``has_pending_writes()`` under the
shard's dispatch lock and falls back to the engine's always-current
in-memory indexes for that shard only — correctness never depends on
the commit policy, the view path is purely an optimization that is
active whenever the shard is quiescent (the overwhelmingly common case
for autocommit engines).

Ordering contract: identical to the scatter-gather path — creation rank
interleaved across shards with shard index as the tie-break — because
both paths feed rank-ordered per-shard lists through the same
:func:`~repro.views.projections.merge_ranked` k-way merge.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.analytics.kpis import CycleTimeAggregate
from repro.views.projections import creation_rank, merge_ranked

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.sharded import ShardedEngine
    from repro.engine.engine import ProcessEngine
    from repro.engine.instance import InstanceState, ProcessInstance
    from repro.worklist.items import WorkItem, WorkItemState


def _instance_rank(instance: "ProcessInstance") -> int:
    return creation_rank(instance.id)


def _matches(instance: "ProcessInstance", filters: dict[str, Any]) -> bool:
    """The residual predicate of ``find_instances`` (index filters done)."""
    state = filters.get("state")
    if state is not None and instance.state is not state:
        return False
    definition_key = filters.get("definition_key")
    if definition_key is not None and instance.definition_key != definition_key:
        return False
    where = filters.get("where")
    if where is not None and any(
        instance.variables.get(name) != value for name, value in where.items()
    ):
        return False
    waiting_at = filters.get("waiting_at")
    if waiting_at is not None and not any(
        token.node_id == waiting_at for token in instance.tokens
    ):
        return False
    return True


class ClusterViews:
    """Pre-merged, view-backed cross-shard queries for ``ShardedEngine``."""

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

    # -- per-shard reads (each under that shard's dispatch lock) ---------------

    def _shard_instances(
        self, shard: "ProcessEngine", state: "InstanceState | None"
    ) -> list["ProcessInstance"]:
        manager = shard.views
        if manager is None or shard.has_pending_writes():
            return shard.instances(state)
        ids = manager.instance_ids(None if state is None else state.value)
        instances = shard._instances
        return [instances[i] for i in ids if i in instances]

    def _shard_find(
        self, shard: "ProcessEngine", filters: dict[str, Any]
    ) -> list["ProcessInstance"]:
        manager = shard.views
        business_key = filters.get("business_key")
        if (
            manager is None
            or shard.has_pending_writes()
            or (business_key is not None and business_key.startswith("__"))
        ):
            return shard.find_instances(**filters)
        state = filters.get("state")
        if business_key is not None:
            ids = manager.ids_for_business_key(business_key)
        elif state is not None:
            ids = manager.instance_ids(state.value)
        else:
            ids = manager.instance_ids()
        instances = shard._instances
        return [
            instance
            for instance in (instances.get(i) for i in ids)
            if instance is not None and _matches(instance, filters)
        ]

    def _shard_items(
        self, shard: "ProcessEngine", state: "WorkItemState | None"
    ) -> list["WorkItem"]:
        manager = shard.views
        if manager is None or shard.has_pending_writes():
            return shard.worklist.items(state)
        ids = manager.work_item_ids(None if state is None else state.value)
        items = shard.worklist._items
        return [items[i] for i in ids if i in items]

    # -- cross-shard queries ----------------------------------------------------

    def instances(
        self, state: "InstanceState | None" = None
    ) -> list["ProcessInstance"]:
        """All instances (optionally by state), cluster creation order."""
        key = None if state is None else state.value
        fingerprint = self._fingerprint()
        cached = self._merge_cache.get(key)
        if cached is not None and cached[0] == fingerprint:
            return list(cached[1])
        per_shard = []
        for shard in self._cluster.shards:
            with shard._dispatch_lock:
                per_shard.append(self._shard_instances(shard, state))
        merged = merge_ranked(per_shard, _instance_rank)
        self._merge_cache[key] = (fingerprint, merged)
        return list(merged)

    def find_instances(self, **filters: Any) -> list["ProcessInstance"]:
        """Cross-shard ``find_instances`` over the per-shard read models."""
        # a pure state filter is exactly the pre-merged per-state list
        if all(value is None for name, value in filters.items() if name != "state"):
            return self.instances(filters.get("state"))
        per_shard = []
        for shard in self._cluster.shards:
            with shard._dispatch_lock:
                per_shard.append(self._shard_find(shard, filters))
        return merge_ranked(per_shard, _instance_rank)

    def work_items(
        self, state: "WorkItemState | None" = None
    ) -> list["WorkItem"]:
        """All work items across shards, per-shard creation order."""
        collected: list["WorkItem"] = []
        for shard in self._cluster.shards:
            with shard._dispatch_lock:
                collected.extend(self._shard_items(shard, state))
        return collected

    def open_work_items(self) -> int:
        """Cluster-wide open (non-terminal) work items, O(shards)."""
        total = 0
        for shard in self._cluster.shards:
            with shard._dispatch_lock:
                manager = shard.views
                if manager is not None and not shard.has_pending_writes():
                    total += manager.open_work_items()
                else:
                    total += shard.worklist.open_count
        return total

    def definition_stats(self) -> dict[str, dict[str, Any]]:
        """Per-definition analytics merged across shards.

        Counters and per-state censuses sum; cycle-time aggregates merge
        via :class:`CycleTimeAggregate`.  Reflects each shard's last
        commit (shards mid-batch contribute their committed image).
        """
        merged: dict[str, dict[str, Any]] = {}
        for shard in self._cluster.shards:
            if shard.views is None:
                continue
            with shard._dispatch_lock:
                report = shard.views.definition_stats()
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

    def status(self) -> dict[str, Any]:
        """Per-shard projection cursors and lag (``repro cluster status``)."""
        per_shard = []
        for index, shard in enumerate(self._cluster.shards):
            manager = shard.views
            if manager is None:
                per_shard.append({"shard": index, "enabled": False})
                continue
            with shard._dispatch_lock:
                per_shard.append(
                    {
                        "shard": index,
                        "enabled": True,
                        "applied_seq": manager.applied_seq,
                        "dispatch_seq": shard.dispatch_log.seq,
                        "lag": shard.dispatch_log.seq - manager.applied_seq,
                        "recovered_mode": manager.recovered_mode,
                    }
                )
        return {"per_shard": per_shard}
