"""A restricted statement language for script tasks.

A script is a sequence of assignment statements, one per line (or separated
by ``;``), each of the form ``name = expression`` or ``name += expression``
(and the other augmented forms).  Blank lines and ``#`` comments are
allowed.  Scripts read and write the instance-variable dictionary and cannot
touch anything else — there is no attribute assignment, no loops, and no
imports, by construction.

The grammar lives here and only here: :func:`parse_statement` is the single
source of truth shared by the runtime (:func:`run_script`) and the static
analyser (:mod:`repro.analysis`), so what lints clean is exactly what runs.

>>> variables = {"amount": 120}
>>> run_script("fee = amount * 0.05\\ntotal = amount + fee", variables)
{'amount': 120, 'fee': 6.0, 'total': 126.0}
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, MutableMapping

from repro.expr.errors import EvaluationError, ParseError
from repro.expr.evaluator import CompiledExpression, compile_expression

_ASSIGN_RE = re.compile(
    r"^\s*(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*(?P<op>=|\+=|-=|\*=|/=)\s*(?P<expr>.+)$"
)

_RESERVED = {"and", "or", "not", "in", "if", "else", "true", "false", "null", "True", "False", "None"}

#: augmented-assignment operators (every op except plain ``=`` reads its target)
AUGMENTED_OPS = ("+=", "-=", "*=", "/=")


class ScriptSyntaxError(ParseError):
    """A statement is not an assignment (or assigns to a keyword).

    Raised by :func:`parse_statement` for structural problems with the
    statement itself; expression-level parse failures propagate as plain
    :class:`~repro.expr.errors.ParseError` so callers can tell them apart.
    """

    def __init__(
        self, message: str, line_no: int, statement: str, reason: str = "syntax"
    ) -> None:
        super().__init__(message)
        self.line_no = line_no
        self.statement = statement
        #: "syntax" (not an assignment) or "keyword" (reserved target name)
        self.reason = reason


@dataclass(frozen=True)
class ScriptStatement:
    """One parsed assignment: ``target op expression`` at ``line_no``."""

    line_no: int
    target: str
    op: str
    expression: CompiledExpression
    source: str

    @property
    def reads_target(self) -> bool:
        """True for augmented assignments, which read before they write."""
        return self.op != "="


def split_statements(script: str) -> list[tuple[int, str]]:
    """Split a script into ``(line_no, statement_text)`` pairs."""
    statements: list[tuple[int, str]] = []
    for line_no, raw_line in enumerate(script.splitlines(), start=1):
        for piece in raw_line.split(";"):
            stripped = piece.strip()
            if stripped and not stripped.startswith("#"):
                statements.append((line_no, stripped))
    return statements


# backward-compatible alias (pre-existing callers imported the private name)
_split_statements = split_statements


def parse_statement(line_no: int, statement: str) -> ScriptStatement:
    """Parse one statement; raises :class:`ScriptSyntaxError` when it is not
    an assignment and :class:`~repro.expr.errors.ParseError` when the
    right-hand expression does not parse."""
    match = _ASSIGN_RE.match(statement)
    if match is None:
        raise ScriptSyntaxError(
            f"line {line_no}: expected 'name = expression', got {statement!r}",
            line_no,
            statement,
        )
    name = match.group("name")
    if name in _RESERVED:
        raise ScriptSyntaxError(
            f"line {line_no}: cannot assign to keyword {name!r}",
            line_no,
            statement,
            reason="keyword",
        )
    return ScriptStatement(
        line_no=line_no,
        target=name,
        op=match.group("op"),
        expression=compile_expression(match.group("expr")),
        source=statement,
    )


def iter_statements(script: str) -> Iterator[ScriptStatement]:
    """Lazily parse a script statement by statement.

    Parse errors surface when the offending statement is reached, matching
    the runtime behaviour of :func:`run_script` (earlier statements have
    already executed by then).
    """
    for line_no, statement in split_statements(script):
        yield parse_statement(line_no, statement)


_SCRIPT_CACHE: dict[str, tuple[ScriptStatement, ...]] = {}
_SCRIPT_CACHE_LIMIT = 4096


def _statements(script: str) -> Iterable[ScriptStatement]:
    """The script's statements, parsed once per script text.

    Only a script that parses completely is cached; any other is handed
    back lazily, so its leading statements still execute before the bad
    one raises.
    """
    cached = _SCRIPT_CACHE.get(script)
    if cached is None:
        try:
            cached = tuple(iter_statements(script))
        except ParseError:
            return iter_statements(script)
        if len(_SCRIPT_CACHE) >= _SCRIPT_CACHE_LIMIT:
            _SCRIPT_CACHE.clear()
        _SCRIPT_CACHE[script] = cached
    return cached


def run_script(
    script: str,
    variables: MutableMapping[str, Any],
) -> MutableMapping[str, Any]:
    """Execute a script against (and mutating) ``variables``.

    Returns the same mapping for chaining.  Raises :class:`ParseError` for
    malformed statements and :class:`EvaluationError` for runtime failures.
    """
    for statement in _statements(script):
        name = statement.target
        line_no = statement.line_no
        value = statement.expression.evaluate(variables)
        if statement.op == "=":
            variables[name] = value
        else:
            if name not in variables:
                raise EvaluationError(
                    f"line {line_no}: augmented assignment to undefined {name!r}"
                )
            current = variables[name]
            try:
                if statement.op == "+=":
                    variables[name] = current + value
                elif statement.op == "-=":
                    variables[name] = current - value
                elif statement.op == "*=":
                    variables[name] = current * value
                else:
                    variables[name] = current / value
            except TypeError as exc:
                raise EvaluationError(f"line {line_no}: {exc}") from exc
            except ZeroDivisionError as exc:
                raise EvaluationError(f"line {line_no}: division by zero") from exc
    return variables
