"""Deterministic JSON (de)serialization for storage payloads, and the one
record codec for the dataclasses the engine stores.

Keys are sorted so identical values produce identical bytes (stable CRCs,
meaningful diffs).  Values must be JSON-representable.

:func:`to_record` / :func:`from_record` turn a dataclass into a JSON-safe
dict keyed by its field names and back.  They are shallow: a dict or list
value is copied one level deep in both directions, so a stored record
never aliases live state; a field declared ``tuple`` is written as a list
and read back as a tuple; a field whose default factory is itself a
dataclass (``ServiceTask.retry``) is a nested record.  Each class's
fields are read once and cached.  Decoding ignores unknown keys, and a
missing key takes the field's default.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from typing import Any, TypeVar

from repro.storage.errors import StorageError

R = TypeVar("R")


# built once: json.dumps() with non-default arguments constructs an encoder
# per call, which costs as much as encoding a small record
_encode = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False
).encode


def json_encode(value: Any) -> bytes:
    """Encode a value to canonical UTF-8 JSON bytes."""
    try:
        return _encode(value).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise StorageError(f"value is not JSON-serializable: {exc}") from exc


def json_decode(payload: bytes) -> Any:
    """Decode UTF-8 JSON bytes; raises :class:`StorageError` on bad input."""
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StorageError(f"payload is not valid JSON: {exc}") from exc


class _FieldCache(dict):
    """class -> ``(name, kind)`` per field, computed on first use: ``kind``
    is the nested record class, ``tuple`` for a declared tuple, or
    ``None``."""

    def __missing__(self, cls: type) -> tuple[tuple[str, Any], ...]:
        out = []
        for f in fields(cls):
            factory = f.default_factory
            if isinstance(factory, type) and is_dataclass(factory):
                kind: Any = factory
            elif str(f.type).startswith("tuple"):
                kind = tuple
            else:
                kind = None
            out.append((f.name, kind))
        spec = self[cls] = tuple(out)
        return spec


_FIELDS = _FieldCache()


def to_record(obj: Any) -> dict[str, Any]:
    """The fields of dataclass ``obj`` as a JSON-safe dict."""
    record: dict[str, Any] = {}
    for name, kind in _FIELDS[type(obj)]:
        value = getattr(obj, name)
        if isinstance(value, (dict, list)):
            value = dict(value) if isinstance(value, dict) else list(value)
        elif kind is not None and value is not None:
            value = list(value) if kind is tuple else to_record(value)
        record[name] = value
    return record


def from_record(cls: type[R], raw: dict[str, Any]) -> R:
    """Rebuild a ``cls`` from :func:`to_record` output."""
    kwargs: dict[str, Any] = {}
    for name, kind in _FIELDS[cls]:
        if name not in raw:
            continue
        value = raw[name]
        if isinstance(value, dict):
            nested = kind is not None and kind is not tuple
            value = from_record(kind, value) if nested else dict(value)
        elif isinstance(value, list):
            value = tuple(value) if kind is tuple else list(value)
        kwargs[name] = value
    return cls(**kwargs)
