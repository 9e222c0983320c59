"""Trace export: digests and JSONL files.

The digest is the determinism oracle the tests and the CI smoke step
rely on: it hashes every record's identity projection (wall-clock
sidecars excluded), so two same-seed runs must produce the same hex
string byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.observe.tracer import TraceRecord


def trace_digest(records: "Iterable[TraceRecord]") -> str:
    """SHA-256 over the deterministic projection of a record stream."""
    hasher = hashlib.sha256()
    for record in records:
        hasher.update(record.to_json(include_wall=False).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def iter_jsonl(path: str | pathlib.Path) -> Iterator[dict]:
    """Stream a trace file's records as plain dicts, one line at a time.

    A truncated or otherwise corrupt line raises
    :class:`~repro.errors.SimulationError` naming the 1-based line
    number, so a bad artifact points at itself instead of surfacing as
    a bare ``JSONDecodeError`` (or worse, a crash deep in analysis).
    """
    source = pathlib.Path(path)
    with source.open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SimulationError(
                    f"{source}: corrupt JSONL at line {lineno}: {exc.msg}"
                ) from exc
            if not isinstance(payload, dict):
                raise SimulationError(
                    f"{source}: corrupt JSONL at line {lineno}: expected an "
                    f"object, got {type(payload).__name__}"
                )
            yield payload


def read_jsonl(path: str | pathlib.Path) -> list[dict]:
    """Parse a trace file back into plain dicts (analysis, CI checks)."""
    return list(iter_jsonl(path))


def digest_of_jsonl(path: str | pathlib.Path) -> str:
    """Recompute the wall-excluding digest from an exported trace file.

    Lets the CI smoke step verify determinism from the artifacts alone:
    strip each line's ``wall`` sidecar, re-canonicalize, hash.
    """
    hasher = hashlib.sha256()
    for payload in iter_jsonl(path):
        payload.pop("wall", None)
        line = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        hasher.update(line.encode())
        hasher.update(b"\n")
    return hasher.hexdigest()
