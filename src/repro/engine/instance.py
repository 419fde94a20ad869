"""Process instances and tokens: the engine's runtime state.

An instance's control-flow state is a set of tokens, each sitting at one
node.  ``ACTIVE`` tokens are ready for the interpreter to execute;
``WAITING`` tokens are parked on an external trigger (work-item completion,
timer, message, child process, join partner).  The instance completes when
its last token is consumed by an end event.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

#: store-key family of process instances (``instance/<instance id>``)
INSTANCE_PREFIX = "instance/"


class InstanceState(enum.Enum):
    RUNNING = "running"
    COMPLETED = "completed"
    TERMINATED = "terminated"
    FAILED = "failed"
    SUSPENDED = "suspended"

    @property
    def is_finished(self) -> bool:
        return self in (
            InstanceState.COMPLETED,
            InstanceState.TERMINATED,
            InstanceState.FAILED,
        )


class TokenState(enum.Enum):
    ACTIVE = "active"
    WAITING = "waiting"


@dataclass
class Token:
    """One locus of control within an instance."""

    id: int
    node_id: str
    state: TokenState = TokenState.ACTIVE
    arrived_via: str | None = None  # flow id, for join bookkeeping
    # what a WAITING token is parked on (execution.park sets it; DESIGN.md
    # §Command pipeline has the wait table), by reason, keys in order:
    #   user_task      work_item_id, node_id
    #   service        invocation_id, node_id   (worker-pool invocation)
    #   async_service  job_id, node_id
    #   timer          job_id, node_id
    #   message        message_name, correlation, node_id
    #   child          node_id, child_id (once the child has started)
    #   mi             node_id, remaining, total, next_index, children,
    #                  collected
    #   join           node_id
    #   event_race     gateway_id, job_ids (the race timers)
    waiting_on: dict[str, Any] = field(default_factory=dict)

    def wait(self, reason: str, **details: Any) -> None:
        """Park the token on an external trigger."""
        self.state = TokenState.WAITING
        self.waiting_on = {"reason": reason, **details}

    def resume(self, node_id: str | None = None, arrived_via: str | None = None) -> None:
        """Reactivate the token, optionally moving it."""
        self.state = TokenState.ACTIVE
        self.waiting_on = {}
        if node_id is not None:
            self.node_id = node_id
            self.arrived_via = arrived_via

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "node_id": self.node_id,
            "state": self.state.value,
            "arrived_via": self.arrived_via,
            "waiting_on": dict(self.waiting_on),
        }

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "Token":
        token = cls(
            id=raw["id"],
            node_id=raw["node_id"],
            arrived_via=raw.get("arrived_via"),
            waiting_on=dict(raw.get("waiting_on", ())),
        )
        token.state = TokenState(raw.get("state", "active"))
        return token


@dataclass
class ProcessInstance:
    """One running (or finished) case of a deployed definition."""

    id: str
    definition_id: str  # "key:version"
    business_key: str | None = None
    variables: dict[str, Any] = field(default_factory=dict)
    state: InstanceState = InstanceState.RUNNING
    tokens: list[Token] = field(default_factory=list)
    created_at: float = 0.0
    ended_at: float | None = None
    # set when this instance was started by a call activity:
    parent_instance_id: str | None = None
    parent_token_id: int | None = None
    failure: str | None = None
    # completed activities with a compensation handler, in completion
    # order ({"node_id": ..., "handler_id": ...}); compensation runs the
    # handlers in reverse and pops entries as each one succeeds
    compensations: list[dict[str, Any]] = field(default_factory=list)
    _token_seq: int = 0

    @property
    def definition_key(self) -> str:
        return self.definition_id.rsplit(":", 1)[0]

    # -- tokens ----------------------------------------------------------------

    def new_token(self, node_id: str, arrived_via: str | None = None) -> Token:
        """Create an ACTIVE token at a node."""
        self._token_seq += 1
        token = Token(id=self._token_seq, node_id=node_id, arrived_via=arrived_via)
        self.tokens.append(token)
        return token

    def remove_token(self, token: Token) -> None:
        """Consume a token (end event, join merge, interrupt)."""
        self.tokens.remove(token)

    def token(self, token_id: int) -> Token | None:
        """Find a token by id, if still live."""
        return next((t for t in self.tokens if t.id == token_id), None)

    def active_tokens(self) -> list[Token]:
        """Tokens the interpreter can execute now."""
        return [t for t in self.tokens if t.state is TokenState.ACTIVE]

    def tokens_at(self, node_id: str) -> list[Token]:
        """All tokens currently sitting at one node."""
        return [t for t in self.tokens if t.node_id == node_id]

    # -- persistence ----------------------------------------------------------
    #
    # to_dict/from_dict copy every container the engine writes in place
    # (variables, a token's waiting_on): a store keeping value objects
    # (MemoryKV) must hold what was committed, not a live alias of it.
    # A finished case's variables are only ever rebound, never written in
    # place (compensation is the one writer left), so its record shares
    # them instead of keeping a second copy of every finished case

    def to_dict(self) -> dict[str, Any]:
        variables = self.variables
        return {
            "id": self.id,
            "definition_id": self.definition_id,
            "business_key": self.business_key,
            "variables": variables if self.state.is_finished else dict(variables),
            "state": self.state.value,
            "tokens": [t.to_dict() for t in self.tokens],
            "created_at": self.created_at,
            "ended_at": self.ended_at,
            "parent_instance_id": self.parent_instance_id,
            "parent_token_id": self.parent_token_id,
            "failure": self.failure,
            "compensations": [dict(entry) for entry in self.compensations],
            "token_seq": self._token_seq,
        }

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "ProcessInstance":
        instance = cls(
            id=raw["id"],
            definition_id=raw["definition_id"],
            business_key=raw.get("business_key"),
            variables=dict(raw.get("variables", ())),
            tokens=[Token.from_dict(t) for t in raw.get("tokens", [])],
            created_at=raw.get("created_at", 0.0),
            ended_at=raw.get("ended_at"),
            parent_instance_id=raw.get("parent_instance_id"),
            parent_token_id=raw.get("parent_token_id"),
            failure=raw.get("failure"),
            compensations=[dict(e) for e in raw.get("compensations", ())],
        )
        instance.state = InstanceState(raw.get("state", "running"))
        instance._token_seq = raw.get("token_seq", len(instance.tokens))
        return instance

    def __repr__(self) -> str:
        return (
            f"ProcessInstance({self.id!r}, {self.definition_id!r}, "
            f"{self.state.value}, tokens={len(self.tokens)})"
        )
