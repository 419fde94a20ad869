"""Deterministic JSON (de)serialization for storage payloads.

Keys are sorted so identical values produce identical bytes (stable CRCs,
meaningful diffs).  Values must be JSON-representable; tuples round-trip as
lists by design — callers normalize on read.
"""

from __future__ import annotations

import json
from typing import Any

from repro.storage.errors import StorageError


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
