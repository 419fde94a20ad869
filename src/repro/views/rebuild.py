"""Offline projection rebuild: replay a store's base records into views.

``repro views rebuild --store DIR`` uses this to (re)materialize the
``view/`` namespace of a closed store — after disabling/enabling views,
after upgrading across a projection-schema change, or to repair a store
whose view records are suspect.  The rebuild is linear in store size
(one scan of ``instance/`` and ``workitem/``; the ``dispatch/`` keys) and
produces records byte-identical to incremental maintenance (the
tables' determinism rules; see :mod:`repro.views.projections`).
"""

from __future__ import annotations

from typing import Any

from repro.engine.dispatch import DISPATCH_PREFIX, entry_seq
from repro.views.manager import VIEW_PREFIX, ProjectionManager


def stored_dispatch_seq(store: Any) -> int:
    """Highest persisted dispatch sequence in a store (0 when empty): read
    off the last key, since every key starts with its zero-padded seq."""
    keys = store.keys(DISPATCH_PREFIX)
    return entry_seq(keys[-1]) if keys else 0


def rebuild_store_views(store: Any) -> dict[str, int]:
    """Rebuild the three view tables of one store in a single transaction.

    Stale ``view/`` keys that the rebuilt image no longer produces are
    deleted in the same transaction, so the namespace never mixes
    epochs.  Returns counts for reporting.
    """
    return ProjectionManager().rebuild_store(
        store, stored_dispatch_seq(store), store.keys(VIEW_PREFIX)
    )
