"""Service integration: the 'invoked applications' of the WfMC architecture.

Service tasks call named services through a
:class:`~repro.services.invoker.ServiceInvoker` that layers retry (with
backoff) and a circuit breaker over a plain
:class:`~repro.services.registry.ServiceRegistry`.  The engine correlates
messages to waiting instances itself;
:class:`~repro.services.bus.MessageBus` is only the in-memory buffer of
messages that arrived before their receiver.  :mod:`repro.services.edi`
provides an EDIFACT-style flat-file codec for the legacy-integration
scenarios the BPM literature of the era cares about (cargo manifests,
customs declarations).
Fault injection (:mod:`repro.services.faults`) drives the resilience
experiment T6.
"""

from repro.services.breaker import CircuitBreaker, CircuitOpenError, CircuitState
from repro.services.bus import Message, MessageBus
from repro.services.edi import EdiDecodeError, EdiMessage, EdiSegment, decode_edi, encode_edi
from repro.services.errors import (
    ServiceError,
    ServiceFailure,
    ServiceNotFoundError,
)
from repro.services.faults import FaultInjector
from repro.services.invoker import InvocationResult, ServiceInvoker
from repro.services.registry import ServiceRegistry

__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "CircuitState",
    "EdiDecodeError",
    "EdiMessage",
    "EdiSegment",
    "FaultInjector",
    "InvocationResult",
    "Message",
    "MessageBus",
    "ServiceError",
    "ServiceFailure",
    "ServiceInvoker",
    "ServiceNotFoundError",
    "ServiceRegistry",
    "decode_edi",
    "encode_edi",
]
