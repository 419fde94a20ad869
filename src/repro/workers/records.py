"""The durable unit of asynchronous service execution.

An :class:`InvocationRecord` is written under ``invocation/<id>`` in the
same group commit as the dispatch that enqueued it, and deleted in the
same commit as the :class:`~repro.engine.commands.CompleteServiceInvocation`
that resolved it — so at any crash point the store holds exactly the set
of acknowledged-but-unresolved invocations, and ``recover()`` re-enqueues
precisely those.  Dead-lettered records move to ``dlq/<id>`` with the
failure context attached (see the ``repro dlq`` CLI).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.model.elements import RetryPolicy
from repro.storage.serializers import from_record, to_record


@dataclass
class InvocationRecord:
    """One pending service invocation, serializable for the store."""

    id: str
    instance_id: str
    token_id: int
    node_id: str
    service: str
    arguments: dict[str, Any] = field(default_factory=dict)
    #: snapshot of the node's :class:`RetryPolicy` at enqueue time, so a
    #: recovery (or a requeue after redeployment) retries under the policy
    #: the invocation was admitted with
    retry: dict[str, Any] = field(default_factory=dict)
    enqueued_at: float = 0.0
    #: times this record came back from the dead-letter queue; part of the
    #: completion dedup key so a requeued execution is a *new* completion
    requeues: int = 0

    @classmethod
    def for_node(
        cls,
        invocation_id: str,
        instance_id: str,
        token_id: int,
        node: Any,
        arguments: dict[str, Any],
        enqueued_at: float,
    ) -> "InvocationRecord":
        policy = getattr(node, "retry", None)
        retry = to_record(policy) if policy is not None else {}
        return cls(
            id=invocation_id,
            instance_id=instance_id,
            token_id=token_id,
            node_id=node.id,
            service=node.service,
            arguments=dict(arguments),
            retry=retry,
            enqueued_at=enqueued_at,
        )

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(**self.retry) if self.retry else RetryPolicy()

    def completion_dedup_key(self) -> str:
        return f"inv:{self.id}:{self.requeues}"

    def to_dict(self) -> dict[str, Any]:
        return to_record(self)

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "InvocationRecord":
        # dead-letter records carry extra context (error, failed_at, ...);
        # rebuilding for a requeue keeps only the record fields
        return from_record(cls, raw)
