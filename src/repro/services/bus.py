"""The retained-message buffer: messages that arrived before their receiver.

Correlation is an engine step (:meth:`ProcessEngine.publish_message
<repro.engine.engine.ProcessEngine.publish_message>`): a send task or a
``CorrelateMessage`` is matched directly against the engine's message
waits, and a message no wait takes is retained here per message name, so
a receiver activating later still gets it (at-least-once, buffer
semantics).  A cluster passes one buffer to every shard, which makes
retention cluster-wide.

The buffer's lock is innermost everywhere: it is taken under an engine's
dispatch lock, never around one.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Message:
    """One published message."""

    id: int
    name: str
    correlation: Any = None
    payload: dict[str, Any] = field(default_factory=dict, hash=False, compare=False)


class MessageBus:
    """Undelivered messages per name, oldest first, with monotonic ids."""

    def __init__(self) -> None:
        self._retained: dict[str, list[Message]] = {}
        # next() on a count is atomic, so minting needs no lock
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def message(
        self, name: str, correlation: Any = None, payload: dict[str, Any] | None = None
    ) -> Message:
        """A new message with the next id (not yet retained)."""
        return Message(next(self._ids), name, correlation, dict(payload or {}))

    def retain(self, message: Message) -> None:
        """Buffer a message no receiver took."""
        with self._lock:
            self._retained.setdefault(message.name, []).append(message)

    def retained(self, name: str) -> list[Message]:
        """Undelivered messages for a name, oldest first."""
        with self._lock:
            return list(self._retained.get(name, ()))

    def consume_retained(
        self, name: str, correlation: Any = None, match_any: bool = False
    ) -> Message | None:
        """Pop the oldest retained message matching name (and correlation).

        ``match_any=True`` ignores the correlation value (used by catch
        events without a correlation expression).
        """
        with self._lock:
            queue = self._retained.get(name)
            if not queue:
                return None
            for index, message in enumerate(queue):
                if match_any or message.correlation == correlation:
                    return queue.pop(index)
            return None

    @property
    def retained_count(self) -> int:
        """Total undelivered messages across names."""
        with self._lock:
            return sum(len(q) for q in self._retained.values())
