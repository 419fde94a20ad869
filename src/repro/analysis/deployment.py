"""Deployment-wide analysis: per-model + interprocess + choreography.

:func:`analyze_deployment` is to a whole registry what
:func:`repro.analysis.analyze` is to one definition: it snapshots every
definition into a :class:`~repro.analysis.interproc.DeploymentGraph`, runs
the per-model passes on each, layers the interprocess rules (MSG*/CALL*)
and the composed-net choreography check (CHOR*) on top, and returns one
:class:`DeploymentReport` with a per-definition
:class:`~repro.analysis.diagnostics.AnalysisReport` each.

Give it an :class:`~repro.analysis.cache.AnalysisCache` and repeated runs
skip everything that did not change: local reports re-run only for edited
definitions, interprocess results only when some definition's message/call
*interface* changed, choreography only when a member of the communicating
component changed.  ``repro lint --deployment`` and the engine's deploy
path both go through here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping

from repro.analysis.cache import AnalysisCache
from repro.analysis.choreography import (
    choreography_pass,
    communicating_components,
)
from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity
from repro.analysis.interproc import DeploymentGraph, interproc_pass
from repro.analysis.reference import AnalysisContext
from repro.model.process import ProcessDefinition


@dataclass
class DeploymentReport:
    """Per-definition reports for one deployment snapshot."""

    reports: dict[str, AnalysisReport] = field(default_factory=dict)
    cache_stats: dict[str, int] | None = None

    @property
    def diagnostics(self) -> list[Diagnostic]:
        """Every finding, grouped by definition key."""
        return [
            d
            for key in sorted(self.reports)
            for d in self.reports[key].diagnostics
        ]

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def suppressed(self) -> int:
        return sum(r.suppressed for r in self.reports.values())

    @property
    def ok(self) -> bool:
        return not self.errors

    def by_rule(self, rule_id: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.rule == rule_id]

    def at_least(self, threshold: Severity) -> list[Diagnostic]:
        """Findings at/above a severity (drives the CLI exit code)."""
        return [d for d in self.diagnostics if d.severity >= threshold]

    def apply_baseline(self, baseline: Any) -> "DeploymentReport":
        """Apply a known-issue :class:`~repro.analysis.reporting.Baseline`
        to every per-definition report (scoped fingerprints supported)."""
        applied = DeploymentReport(cache_stats=self.cache_stats)
        for key in self.reports:
            applied.reports[key] = baseline.apply(self.reports[key], scope=key)
        return applied

    def fingerprints(self) -> list[str]:
        """Scoped ``"KEY::RULE:element"`` fingerprints of every finding —
        what ``repro lint --write-baseline`` records."""
        return sorted(
            f"{key}::{d.fingerprint}"
            for key, report in self.reports.items()
            for d in report.diagnostics
        )

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "definitions": [
                self.reports[key].to_dict() for key in sorted(self.reports)
            ],
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "suppressed": self.suppressed,
            },
        }
        if self.cache_stats is not None:
            payload["cache"] = dict(self.cache_stats)
        return payload


def analyze_deployment(
    definitions: Iterable[ProcessDefinition],
    *,
    context: AnalysisContext | None = None,
    behavioral: bool = True,
    max_states: int = 50_000,
    choreography: bool = True,
    choreography_max_states: int = 20_000,
    severity_overrides: Mapping[str, Severity] | None = None,
    cache: AnalysisCache | None = None,
) -> DeploymentReport:
    """Lint a whole deployment; one report per definition key.

    When ``context`` is ``None`` a context is synthesized whose
    ``process_keys`` are exactly the snapshot's keys, so intra-deployment
    REF004 findings resolve without an engine.  The newest version wins
    when several versions of one key are supplied.
    """
    snapshot = list(definitions)
    interfaces = (
        {d.key: cache.interface(d) for d in snapshot} if cache else None
    )
    graph = DeploymentGraph.build(snapshot, interfaces=interfaces)
    if context is None:
        context = AnalysisContext(
            process_keys=frozenset(graph.definitions),
        )

    options = _options_token(
        context, behavioral, max_states, severity_overrides
    )
    registry = graph.fingerprint()
    report = DeploymentReport()
    chor_results = (
        _choreography(graph, choreography_max_states, cache)
        if choreography
        else {}
    )
    for key in sorted(graph.definitions):
        definition = graph.definitions[key]
        local = _local_report(definition, context, behavioral, max_states,
                              severity_overrides, options, cache)
        extra = _interproc_diagnostics(
            definition, graph, registry, severity_overrides, cache
        )
        extra.extend(chor_results.get(key, []))
        merged = _merge(definition, local, extra)
        report.reports[key] = merged
    if cache is not None:
        report.cache_stats = cache.stats()
    return report


def candidate_findings(
    candidate: ProcessDefinition,
    deployed: Iterable[ProcessDefinition],
    cache: AnalysisCache,
    severity_overrides: Mapping[str, Severity] | None = None,
) -> list[Diagnostic]:
    """Interprocess findings (MSG*/CALL*) for one deploy candidate.

    The candidate is checked against ``deployed`` — the latest version of
    every definition in the registry; one with the candidate's own key is
    replaced by it.  Results are memoized in ``cache``, keyed on the
    candidate's content hash plus the registry's interface fingerprint,
    so redeploys and interface-neutral edits skip the graph walk.
    """
    snapshot = [d for d in deployed if d.key != candidate.key]
    snapshot.append(candidate)
    interfaces = {d.key: cache.interface(d) for d in snapshot}
    graph = DeploymentGraph.build(snapshot, interfaces=interfaces)
    extra = _interproc_diagnostics(
        candidate, graph, graph.fingerprint(), severity_overrides, cache
    )
    return _merge(candidate, AnalysisReport(candidate.key), extra).diagnostics


def render_deployment_console(report: DeploymentReport) -> str:
    """Human-readable deployment report: summary line + per-definition."""
    from repro.analysis.reporting import render_console

    lines = [
        f"deployment: {len(report.reports)} definition(s), "
        f"{len(report.errors)} error(s), {len(report.warnings)} warning(s)"
        + (
            f", {report.suppressed} suppressed"
            if report.suppressed
            else ""
        )
    ]
    for key in sorted(report.reports):
        lines.append(render_console(report.reports[key]))
    return "\n".join(lines)


def render_deployment_json(report: DeploymentReport) -> str:
    """The deployment report as one JSON document."""
    import json

    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


def _local_report(
    definition: ProcessDefinition,
    context: AnalysisContext,
    behavioral: bool,
    max_states: int,
    severity_overrides: Mapping[str, Severity] | None,
    options: str,
    cache: AnalysisCache | None,
) -> AnalysisReport:
    from repro.analysis import analyze

    if cache is None:
        return analyze(
            definition,
            context=context,
            behavioral=behavioral,
            max_states=max_states,
            severity_overrides=severity_overrides,
        )
    key = cache.local_key(definition, options)
    cached = cache.get_local(key)
    if cached is not None:
        return cached
    fresh = analyze(
        definition,
        context=context,
        behavioral=behavioral,
        max_states=max_states,
        severity_overrides=severity_overrides,
    )
    cache.put_local(key, fresh)
    return fresh


def _interproc_diagnostics(
    definition: ProcessDefinition,
    graph: DeploymentGraph,
    registry_fingerprint: str,
    severity_overrides: Mapping[str, Severity] | None,
    cache: AnalysisCache | None,
) -> list[Diagnostic]:
    """Raw interprocess findings, cached on (content, registry interface)."""
    if cache is None:
        raw = interproc_pass(definition, graph)
    else:
        key = cache.interproc_key(definition, registry_fingerprint)
        cached = cache.get_interproc(key)
        if cached is not None:
            raw = cached
        else:
            raw = interproc_pass(definition, graph)
            cache.put_interproc(key, raw)
    if severity_overrides:
        raw = [
            replace(d, severity=severity_overrides[d.rule])
            if d.rule in severity_overrides
            else d
            for d in raw
        ]
    return raw


def _choreography(
    graph: DeploymentGraph,
    max_states: int,
    cache: AnalysisCache | None,
) -> dict[str, list[Diagnostic]]:
    """Composed-net findings per key; cached per communicating component.

    The cache key is the member definitions' content hashes — stricter
    than the interface fingerprint, because a purely internal change (a
    new gateway guard) can alter the composed behaviour.
    """
    if cache is None:
        return choreography_pass(graph, max_states)
    results: dict[str, list[Diagnostic]] = {}
    for component in communicating_components(graph):
        hashes = ":".join(
            cache.content_hash(graph.definitions[key]) for key in component
        )
        key = f"chor:{hashes}:{max_states}"
        cached = cache.get_interproc(key)
        if cached is not None:
            member_diags = cached
        else:
            sub = DeploymentGraph(
                definitions={k: graph.definitions[k] for k in component},
                interfaces={k: graph.interfaces[k] for k in component},
            )
            per_key = choreography_pass(sub, max_states)
            member_diags = [
                replace(d, element_id=f"{k}\x00{d.element_id}")
                for k, diags in per_key.items()
                for d in diags
            ]
            cache.put_interproc(key, member_diags)
        for diagnostic in member_diags:
            owner, _, element_id = diagnostic.element_id.partition("\x00")
            results.setdefault(owner, []).append(
                replace(diagnostic, element_id=element_id)
            )
    return results


def _merge(
    definition: ProcessDefinition,
    local: AnalysisReport,
    extra: list[Diagnostic],
) -> AnalysisReport:
    """Attach provenance/suppressions to the extra findings and merge."""
    from repro.analysis import _apply_suppressions, _with_provenance

    decorated = [_with_provenance(definition, d) for d in extra]
    kept, suppressed = _apply_suppressions(definition, decorated)
    return AnalysisReport(
        definition_key=local.definition_key,
        diagnostics=list(local.diagnostics) + kept,
        suppressed=local.suppressed + suppressed,
    )


def _options_token(
    context: AnalysisContext,
    behavioral: bool,
    max_states: int,
    severity_overrides: Mapping[str, Severity] | None,
) -> str:
    """Everything besides the definition that shapes a local report."""
    def names(values: frozenset[str] | None) -> str:
        return "-" if values is None else ",".join(sorted(values))

    overrides = "-" if not severity_overrides else ",".join(
        f"{rule}={severity.value}"
        for rule, severity in sorted(severity_overrides.items())
    )
    return "|".join((
        f"b{int(behavioral)}",
        f"s{max_states}",
        names(context.services),
        names(context.roles),
        names(context.decisions),
        names(context.process_keys),
        overrides,
    ))
