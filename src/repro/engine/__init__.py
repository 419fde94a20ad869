"""The process engine: token-game enactment of process definitions.

The engine is the WfMC 'workflow enactment service': it deploys versioned
definitions, starts instances, advances tokens through nodes, creates work
items for user tasks, invokes services, schedules timers, correlates
messages, records history, persists every quiescent state, and recovers
in-flight instances from storage after a crash.

Every external mutation is a typed :class:`~repro.engine.commands.Command`
executed through :meth:`ProcessEngine.dispatch`; the public methods are
thin constructors over that single path.
"""

from repro.engine.commands import (
    COMMAND_TYPES,
    AdvanceTime,
    ClaimWorkItem,
    Command,
    CompleteWorkItem,
    CorrelateMessage,
    DeployDefinition,
    MigrateInstance,
    ResumeInstance,
    RunDueJobs,
    StartInstance,
    StartWorkItem,
    SuspendInstance,
    TerminateInstance,
    command_from_dict,
)
from repro.engine.dispatch import Dispatcher
from repro.engine.engine import ProcessEngine
from repro.engine.errors import (
    BpmnError,
    DefinitionNotFoundError,
    EngineError,
    IllegalInstanceStateError,
    InstanceNotFoundError,
    MigrationError,
    NoFlowSelectedError,
)
from repro.engine.instance import InstanceState, ProcessInstance, Token, TokenState
from repro.engine.jobs import Job, JobScheduler
from repro.engine.migration import MigrationPlan

__all__ = [
    "AdvanceTime",
    "BpmnError",
    "COMMAND_TYPES",
    "ClaimWorkItem",
    "Command",
    "CompleteWorkItem",
    "CorrelateMessage",
    "DefinitionNotFoundError",
    "DeployDefinition",
    "Dispatcher",
    "EngineError",
    "IllegalInstanceStateError",
    "InstanceNotFoundError",
    "InstanceState",
    "Job",
    "JobScheduler",
    "MigrateInstance",
    "MigrationError",
    "MigrationPlan",
    "NoFlowSelectedError",
    "ProcessEngine",
    "ProcessInstance",
    "ResumeInstance",
    "RunDueJobs",
    "StartInstance",
    "StartWorkItem",
    "SuspendInstance",
    "TerminateInstance",
    "Token",
    "TokenState",
    "command_from_dict",
]
