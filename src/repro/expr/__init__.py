"""A small, sandboxed expression language.

Gateway conditions and script tasks in process models are data, not code:
they are persisted with the model, evaluated against instance variables, and
must not reach the host interpreter (``eval`` would let a deployed model run
arbitrary Python).  This package provides:

* :func:`compile_expression` — parse once, evaluate many times;
* :func:`evaluate` — one-shot expression evaluation against an environment;
* :func:`run_script` — a restricted statement language (assignments only)
  used by script tasks to update instance variables.

The language is a Python-expression subset: literals, arithmetic,
comparisons (chained), boolean logic, ``x if c else y``, list/dict
displays, indexing, ``in``, attribute access on mappings, and a whitelist
of builtin functions (``len``, ``min``, ``max``, ...).
"""

from repro.expr.ast_nodes import Node
from repro.expr.errors import EvaluationError, ExpressionError, ParseError
from repro.expr.evaluator import CompiledExpression, compile_expression, evaluate
from repro.expr.names import collect_names
from repro.expr.parser import parse
from repro.expr.script import ScriptStatement, ScriptSyntaxError, run_script
from repro.expr.tokenizer import Token, TokenType, tokenize

__all__ = [
    "CompiledExpression",
    "EvaluationError",
    "ExpressionError",
    "Node",
    "ParseError",
    "ScriptStatement",
    "ScriptSyntaxError",
    "Token",
    "TokenType",
    "collect_names",
    "compile_expression",
    "evaluate",
    "parse",
    "run_script",
    "tokenize",
]
