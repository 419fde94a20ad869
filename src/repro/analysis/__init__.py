"""repro.analysis — static process verification & lint.

One entry point, :func:`analyze`, runs four passes over a
:class:`~repro.model.process.ProcessDefinition`:

1. **structural** (STR*) — graph shape, gateway discipline, expression
   syntax; the checks the engine refuses to run without.
2. **data-flow** (DF*) — definite assignment, racy reads, dead writes,
   unconsumed values, derived from the same expression ASTs the engine
   evaluates.
3. **behavioural** (SND*) — deadlock / lack-of-synchronization / dead
   activity anti-patterns, via the WF-net translation and its state space.
4. **reference** (REF*) — do services, roles, decision tables, and called
   processes resolve against an :class:`AnalysisContext` snapshot?

Per-element suppression rides on the model:
``definition.attributes["lint.suppress"]`` maps element ids to rule-id
lists (or ``"*"``); the element key ``"*"`` suppresses process-wide.
Suppressed findings are counted, not shown.  Use
``ProcessBuilder.suppress()`` or ``<repro:lintSuppress/>`` in BPMN XML to
record suppressions next to the model.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping

from repro.analysis.antipatterns import behavioral_pass
from repro.analysis.cache import AnalysisCache, content_hash
from repro.analysis.cfg import ControlFlowGraph, build_cfg, node_effects
from repro.analysis.choreography import (
    choreography_pass,
    choreography_summary,
    render_choreography,
)
from repro.analysis.dataflow import dataflow_pass
from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity
from repro.analysis.interproc import (
    DefinitionInterface,
    DeploymentGraph,
    extract_interface,
    interproc_pass,
)
from repro.analysis.reference import AnalysisContext, reference_pass
from repro.analysis.reporting import (
    Baseline,
    exit_code,
    render_console,
    render_json,
)
from repro.analysis.rules import RULES, RuleSpec
from repro.analysis.structural import structural_pass
from repro.model.process import ProcessDefinition

__all__ = [
    "AnalysisCache",
    "AnalysisContext",
    "AnalysisReport",
    "Baseline",
    "ControlFlowGraph",
    "DefinitionInterface",
    "DeploymentGraph",
    "DeploymentReport",
    "Diagnostic",
    "RULES",
    "RuleSpec",
    "Severity",
    "analyze",
    "analyze_deployment",
    "behavioral_pass",
    "build_cfg",
    "choreography_pass",
    "choreography_summary",
    "content_hash",
    "dataflow_pass",
    "exit_code",
    "extract_interface",
    "interproc_pass",
    "node_effects",
    "reference_pass",
    "render_choreography",
    "render_console",
    "render_deployment_console",
    "render_deployment_json",
    "render_json",
    "structural_pass",
]


def analyze(
    definition: ProcessDefinition,
    *,
    context: AnalysisContext | None = None,
    behavioral: bool = True,
    max_states: int = 50_000,
    severity_overrides: Mapping[str, Severity] | None = None,
) -> AnalysisReport:
    """Run every applicable pass and return a consolidated report.

    The behavioural pass only runs on structurally clean models (the
    Petri translation assumes a well-formed graph) and can be disabled
    with ``behavioral=False`` for speed.  ``severity_overrides`` remaps
    rule severities (e.g. deploy downgrades REF* errors to warnings when
    the engine is not in strict-reference mode).
    """
    diagnostics = structural_pass(definition)
    structurally_ok = not any(
        d.severity is Severity.ERROR for d in diagnostics
    )
    if structurally_ok:
        diagnostics.extend(dataflow_pass(build_cfg(definition)))
        if behavioral:
            diagnostics.extend(behavioral_pass(definition, max_states))
    if context is not None:
        diagnostics.extend(reference_pass(definition, context))

    if severity_overrides:
        diagnostics = [
            replace(d, severity=severity_overrides[d.rule])
            if d.rule in severity_overrides
            else d
            for d in diagnostics
        ]

    diagnostics = [_with_provenance(definition, d) for d in diagnostics]

    kept, suppressed = _apply_suppressions(definition, diagnostics)
    return AnalysisReport(
        definition_key=definition.key,
        diagnostics=kept,
        suppressed=suppressed,
    )


# Deployment-wide analysis builds on analyze(); imported after its
# definition so the module is importable from analyze_deployment's lazy
# internals without a cycle.
from repro.analysis.deployment import (  # noqa: E402
    DeploymentReport,
    analyze_deployment,
    render_deployment_console,
    render_deployment_json,
)


def _with_provenance(
    definition: ProcessDefinition, diagnostic: Diagnostic
) -> Diagnostic:
    source = getattr(definition, "source_path", None)
    if source is None:
        return diagnostic
    lines = getattr(definition, "source_lines", {})
    return replace(
        diagnostic,
        source=source,
        line=lines.get(diagnostic.element_id),
    )


def _apply_suppressions(
    definition: ProcessDefinition, diagnostics: list[Diagnostic]
) -> tuple[list[Diagnostic], int]:
    raw = definition.attributes.get("lint.suppress")
    if not isinstance(raw, Mapping) or not raw:
        return diagnostics, 0

    def suppressed(diagnostic: Diagnostic) -> bool:
        for element_key in (diagnostic.element_id, "*"):
            rules = raw.get(element_key)
            if rules is None:
                continue
            if rules == "*":
                return True
            if isinstance(rules, (list, tuple)) and diagnostic.rule in rules:
                return True
        return False

    kept = [d for d in diagnostics if not suppressed(d)]
    return kept, len(diagnostics) - len(kept)
