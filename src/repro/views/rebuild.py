"""Offline projection rebuild: replay a store's base records into views.

``repro views rebuild --store DIR`` uses this to (re)materialize the
``view/`` namespace of a closed store — after disabling/enabling views,
after upgrading across a projection-schema change, or to repair a store
whose view records are suspect.  The rebuild is linear in store size
(one scan of ``instance/``, ``workitem/``, and ``dispatch/``) and
produces records byte-identical to incremental maintenance (the
projection determinism contract; see :mod:`repro.views.projections`).
"""

from __future__ import annotations

from typing import Any

from repro.engine.dispatch import DISPATCH_PREFIX
from repro.engine.instance import INSTANCE_PREFIX
from repro.views.manager import VIEW_PREFIX, ProjectionManager
from repro.views.projections import compact_instance, compact_item
from repro.worklist.service import WORKITEM_PREFIX


def rebuild_store_views(store: Any) -> dict[str, int]:
    """Rebuild all projections of one store in a single transaction.

    Stale ``view/`` keys that the rebuilt image no longer produces are
    deleted in the same transaction, so the namespace never mixes
    epochs.  Returns counts for reporting.
    """
    instances = [compact_instance(raw) for _, raw in store.scan(INSTANCE_PREFIX)]
    items = [compact_item(raw) for _, raw in store.scan(WORKITEM_PREFIX)]
    seq = 0
    for _, raw in store.scan(DISPATCH_PREFIX):
        seq = max(seq, int(raw.get("seq", 0)))
    manager = ProjectionManager()
    writes = manager.rebuild(instances, items, seq)
    stale = [key for key, _ in store.scan(VIEW_PREFIX) if key not in writes]
    with store.transaction():
        for key in stale:
            store.delete(key)
        for key in sorted(writes):
            store.put(key, writes[key])
    store.sync()
    return {
        "instances": len(instances),
        "work_items": len(items),
        "records": len(writes),
        "deleted": len(stale),
        "seq": seq,
    }
