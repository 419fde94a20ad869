"""Reference rules (REF001–REF004): do the model's bindings resolve?

A process model names things that live outside it: services in the
:class:`~repro.services.registry.ServiceRegistry`, roles in the
:class:`~repro.worklist.resources.OrganizationalModel`, decision tables in
the engine's decision registry, and other deployed processes.  The
:class:`AnalysisContext` carries snapshots of those namespaces; any that is
``None`` is *unknown* and its checks are skipped (e.g. linting a standalone
file with no engine in sight).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.rules import REF001, REF002, REF003, REF004
from repro.model.elements import (
    BusinessRuleTask,
    CallActivity,
    MultiInstanceActivity,
    ServiceTask,
    UserTask,
)
from repro.model.process import ProcessDefinition


@dataclass(frozen=True)
class AnalysisContext:
    """Known external namespaces; ``None`` means "don't check"."""

    services: frozenset[str] | None = None
    roles: frozenset[str] | None = None
    decisions: frozenset[str] | None = None
    process_keys: frozenset[str] | None = None

    @classmethod
    def from_engine(cls, engine: object) -> "AnalysisContext":
        """Snapshot an engine's registries and the keys its definition
        repository has deployed (duck-typed to avoid an import cycle with
        :mod:`repro.engine.engine`)."""
        services = frozenset(engine.services.names())  # type: ignore[attr-defined]
        organization = engine.organization  # type: ignore[attr-defined]
        roles = frozenset(
            role
            for resource in organization.all()
            for role in resource.roles
        )
        decisions = frozenset(engine.decisions.names())  # type: ignore[attr-defined]
        deployed = engine.definitions()  # type: ignore[attr-defined]
        process_keys = frozenset(d.key for d in deployed)
        return cls(
            services=services,
            roles=roles,
            decisions=decisions,
            process_keys=process_keys,
        )


def reference_pass(
    definition: ProcessDefinition, context: AnalysisContext
) -> list[Diagnostic]:
    """Check every external binding the model makes."""
    diagnostics: list[Diagnostic] = []
    for node in definition.nodes.values():
        if isinstance(node, ServiceTask) and context.services is not None:
            if node.service not in context.services:
                diagnostics.append(Diagnostic(
                    rule=REF001.id,
                    severity=REF001.severity,
                    element_id=node.id,
                    message=(
                        f"service {node.service!r} is not registered"
                        + _known(context.services)
                    ),
                    hint=f"register it: engine.services.register"
                         f"({node.service!r}, handler)",
                ))
        elif isinstance(node, UserTask) and context.roles is not None:
            if node.role not in context.roles:
                diagnostics.append(Diagnostic(
                    rule=REF002.id,
                    severity=REF002.severity,
                    element_id=node.id,
                    message=(
                        f"no resource holds role {node.role!r}"
                        + _known(context.roles)
                    ),
                    hint=f"add a resource with the role: "
                         f"engine.organization.add(name, "
                         f"roles=[{node.role!r}])",
                ))
        elif isinstance(node, BusinessRuleTask) and context.decisions is not None:
            if node.decision not in context.decisions:
                diagnostics.append(Diagnostic(
                    rule=REF003.id,
                    severity=REF003.severity,
                    element_id=node.id,
                    message=(
                        f"decision table {node.decision!r} is not registered"
                        + _known(context.decisions)
                    ),
                    hint="register the table with the engine's decision "
                         "registry before deploying",
                ))
        elif isinstance(node, (CallActivity, MultiInstanceActivity)):
            if context.process_keys is not None:
                known = context.process_keys | {definition.key}
                if node.process_key not in known:
                    diagnostics.append(Diagnostic(
                        rule=REF004.id,
                        severity=REF004.severity,
                        element_id=node.id,
                        message=(
                            f"called process {node.process_key!r} is not "
                            f"deployed"
                        ),
                        hint="deploy the called process first (deployment "
                             "order matters for call activities)",
                    ))
    return diagnostics


def _known(names: frozenset[str]) -> str:
    if not names:
        return " (none are registered)"
    shown = sorted(names)[:5]
    suffix = ", ..." if len(names) > 5 else ""
    return f" (known: {', '.join(shown)}{suffix})"
