"""The definition repository (WfMC Interface 1), apart from enactment:
deployed definitions, their versions, the deploy gate and restore.  A
``ProcessEngine`` builds its own; a ``ShardedEngine`` hands one to every
shard (DESIGN.md §Definition repository)."""

from __future__ import annotations

import threading
from typing import Any

from repro.model.process import ProcessDefinition
from repro.model.serialization import definition_from_dict, definition_to_dict
from repro.obs import Observability

#: store-key family of deployed definitions (``definition/<key>:<version>``)
DEFINITION_PREFIX = "definition/"
#: warnings, not errors, unless an engine has ``strict_references``
LENIENT_RULES = ("REF001", "REF002", "REF003", "REF004", "CALL001")
BEHAVIOURAL_RULES = {"SND001", "SND002", "SND003", "SND005"}


class Repository:
    """Each engine, keyed by its shard tag (its *holder*), sees only the
    versions its own store holds; engines holding one version share one
    decoded object.  Reads take no lock (an engine holds a definition
    before its version becomes that engine's latest); :meth:`deploy` and
    :meth:`load` take the innermost lock of the system, under a shard's
    dispatch lock."""

    def __init__(self, obs: Observability | None = None) -> None:
        self._obs = obs if obs is not None else Observability()
        self._lock = threading.Lock()
        # identifier -> its stored record, and the one object decoded from it
        self._records: dict[str, dict[str, Any]] = {}
        self._decoded: dict[str, ProcessDefinition] = {}
        # holder -> the definitions its store holds by identifier, and
        # the latest version of each key among them
        self._held: dict[str, dict[str, ProcessDefinition]] = {}
        self._latest: dict[str, dict[str, int]] = {}
        self._cache: Any | None = None  # an AnalysisCache, on the first gate
        counter = self._obs.registry.counter
        self._c_lint_warnings = counter("engine.lint.warnings")
        self._c_lint_blocked = counter("engine.lint.deploy_blocked")
        self._c_interproc_warnings = counter("engine.lint.interproc_warnings")
        self._c_interproc_blocked = counter("engine.lint.interproc_blocked")

    def held(self, holder: str) -> dict[str, ProcessDefinition]:
        """Engine ``holder``'s definitions by identifier (a live view)."""
        return self._held.setdefault(holder, {})

    def latest_version(self, holder: str, key: str) -> int:
        return self._latest.get(holder, {}).get(key, 0)

    def latest(self, holder: str = "") -> list[ProcessDefinition]:
        """The latest version of each key engine ``holder`` holds."""
        held = self.held(holder)
        return [held[f"{k}:{v}"] for k, v in self._latest.get(holder, {}).items()]

    def deploy(self, engine: Any, cmd: Any) -> tuple[ProcessDefinition, dict]:
        """The deployed definition and store record ``engine`` records for
        a ``DeployDefinition``.

        The newest version minted from the same content that ``engine``'s
        store does not hold yet is this deploy reaching another shard: it
        is recorded as minted.  Anything else passes the gate with
        ``engine``'s registries and is minted the next version of its key.
        """
        record = definition_to_dict(cmd.definition)
        key, holder = record["key"], engine.shard_tag
        held = self.held(holder)
        with self._lock:
            minted = [
                r["version"]
                for identifier, r in self._records.items()
                if identifier not in held and r == {**record, "version": r["version"]}
            ]
            if minted:
                identifier = f"{key}:{max(minted)}"
            else:
                self._gate(engine, cmd)
                version = 1 + max(
                    (r["version"] for r in self._records.values() if r["key"] == key),
                    default=0,
                )
                identifier = self._add({**record, "version": version})
            return self._hold(holder, identifier), self._records[identifier]

    def load(self, store: Any, holder: str = "") -> int:
        """Restore the ``definition/`` records of engine ``holder``'s
        store; returns the records read.  Each identifier is decoded once,
        from the first store holding it; a later store holds it only if
        its record has the same content (see :meth:`held_by_all`)."""
        count = 0
        with self._lock:
            for key, raw in store.scan(DEFINITION_PREFIX):
                identifier = key[len(DEFINITION_PREFIX):]
                if identifier not in self._records:
                    self._add(raw)
                if self._records[identifier] == raw:
                    self._hold(holder, identifier)
                count += 1
        return count

    def held_by_all(self, holders: list[str]) -> bool:
        """Whether the store of every engine in ``holders`` holds every
        deployed definition, with the same content."""
        return all(self._records.keys() <= self.held(h).keys() for h in holders)

    def _add(self, record: dict[str, Any]) -> str:
        deployed = definition_from_dict(record)
        self._decoded[deployed.identifier] = deployed
        self._records[deployed.identifier] = record
        return deployed.identifier

    def _hold(self, holder: str, identifier: str) -> ProcessDefinition:
        """Engine ``holder``'s store holds ``identifier`` from now on."""
        deployed = self._decoded[identifier]
        self.held(holder)[identifier] = deployed
        latest = self._latest.setdefault(holder, {})
        latest[deployed.key] = max(latest.get(deployed.key, 0), deployed.version)
        return deployed

    def _gate(self, engine: Any, cmd: Any) -> None:
        """Lint the candidate against ``engine``'s registries and the
        latest deployed definitions; raise unless it may deploy."""
        from repro.analysis import AnalysisCache, AnalysisContext, Severity, analyze
        from repro.analysis.deployment import candidate_findings
        from repro.engine.errors import EngineError  # cycle guard

        definition = cmd.definition
        overrides = None
        if not engine.strict_references:
            overrides = dict.fromkeys(LENIENT_RULES, Severity.WARNING)
        report = analyze(
            definition,
            context=AnalysisContext.from_engine(engine),
            behavioral=bool(cmd.verify),
            severity_overrides=overrides,
        )
        if self._cache is None:
            self._cache = AnalysisCache()
        interproc = candidate_findings(
            definition, self.latest(engine.shard_tag), self._cache, overrides
        )
        # one observability event per non-info finding
        for event, found in (
            ("lint.diagnostic", report.diagnostics),
            ("lint.interproc", interproc),
        ):
            for d in found:
                if d.severity is not Severity.INFO:
                    self._obs.event(
                        event,
                        process=definition.key,
                        rule=d.rule,
                        severity=d.severity.value,
                        element=d.element_id,
                        message=d.message,
                    )
        self._c_lint_warnings.inc(len(report.warnings))
        self._c_interproc_warnings.inc(
            sum(1 for d in interproc if d.severity is Severity.WARNING)
        )
        if cmd.force:
            return
        if not report.ok:
            structural = [
                d for d in report.errors if d.rule not in BEHAVIOURAL_RULES
            ]
            self._c_lint_blocked.inc()
            raise EngineError(
                f"definition {definition.key!r} "
                f"{'invalid' if structural else 'unsound'}: "
                + _describe(structural or report.errors)
            )
        errors = [d for d in interproc if d.severity is Severity.ERROR]
        if errors:
            self._c_interproc_blocked.inc()
            raise EngineError(
                f"definition {definition.key!r} breaks the deployment: "
                + _describe(errors)
            )


def _describe(diagnostics: list) -> str:
    return "; ".join(f"[{d.rule}] {d.element_id}: {d.message}" for d in diagnostics)
