"""One record format for every JSONL file repro writes, and one reader.

Every line is one JSON object in the same envelope::

    {"body": {...}, "kind": "span", "schema": "repro.obs/v1", "ts": null}

``kind`` says what ``body`` holds:

* ``span`` — one trace span or event (``SpanRecord.to_dict``), written
  by ``Tracer.to_jsonl``, ``export_json`` and flight bundles;
* ``metrics`` — ``{"metrics": <registry snapshot>}``, written by
  ``export_json`` and flight bundles;
* ``export`` — one cumulative snapshot of a ``REPRO_OBS_EXPORT``
  stream: ``seq``, ``phase`` (``live``, ``final`` or ``snapshot``) and
  ``metrics``;
* ``exchange`` — one serve session's frames (``ExchangeRecord``),
  written by ``python -m repro.serve serve --record``;
* ``entry`` — one input and what it did (``CorpusEntry``): a
  conformance corpus is a file of them;
* ``frame`` — one recent wire frame and the channel it crossed.

A flight-recorder bundle is one ``entry`` followed by the context of
the failure: ``frame``, ``metrics`` and ``span`` records.  ``ts`` is the
wall-clock time a record was taken, or ``null`` where the bytes must not
vary between runs (corpus entries; spans carry their own clocks).

:func:`read` skips blank lines and a torn last line (a writer killed
mid-line leaves at most one, without its newline), and raises
``ValueError`` on any other line that does not decode or that carries
another schema.  :func:`follow` tails a growing file like ``tail -f``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, TextIO, Union

SCHEMA = "repro.obs/v1"

#: A path, or an open text stream.
Source = Union[str, os.PathLike, TextIO]


class Record(NamedTuple):
    """One line: what it holds, its body, and when it was taken."""

    kind: str
    body: Dict[str, Any]
    ts: Optional[float] = None


def dumps(record: Record) -> str:
    """One record as a JSON line, without the newline."""
    return json.dumps(
        {"schema": SCHEMA, "kind": record.kind, "ts": record.ts, "body": record.body},
        sort_keys=True,
    )


def loads(line: str, where: str = "<line>") -> Record:
    """Parse one line; ``ValueError`` naming ``where`` if it is no record."""
    try:
        raw = json.loads(line)
    except json.JSONDecodeError:
        raise ValueError(f"{where}: undecodable line") from None
    if not isinstance(raw, dict) or raw.get("schema") != SCHEMA:
        schema = raw.get("schema") if isinstance(raw, dict) else None
        raise ValueError(f"{where}: not a {SCHEMA} record (schema {schema!r})")
    try:
        return Record(raw["kind"], raw["body"], raw["ts"])
    except KeyError as missing:
        raise ValueError(f"{where}: {SCHEMA} record without {missing}") from None


def write(target: Source, records: Iterable[Record], mode: str = "w") -> int:
    """Write records to a path (``mode`` ``"w"`` or ``"a"``) or a text stream.

    Returns how many were written.
    """
    lines = [dumps(record) + "\n" for record in records]
    if hasattr(target, "write"):
        target.write("".join(lines))
    else:
        with open(target, mode, encoding="utf-8") as handle:
            handle.write("".join(lines))
    return len(lines)


def read(source: Source) -> List[Record]:
    """Every record in a file or an open text stream, oldest first."""
    if hasattr(source, "read"):
        text, where = source.read(), getattr(source, "name", "<stream>")
    else:
        with open(source, "r", encoding="utf-8") as handle:
            text, where = handle.read(), os.fspath(source)
    lines = text.split("\n")
    records = []
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        if number == len(lines) and _torn(line):  # no newline after it
            break
        records.append(loads(line, f"{where}:{number}"))
    return records


def _torn(line: str) -> bool:
    try:
        json.loads(line)
    except json.JSONDecodeError:
        return True
    return False


def follow(
    path: str, poll: float = 0.1, stop_after: Optional[int] = None
) -> Iterator[Record]:
    """Yield records as they are appended to ``path``.

    A line is yielded once its newline lands.  A file that shrinks (a
    new run truncated it) is read again from its start, and a missing
    file is waited for.  Stops after ``stop_after`` records, if given.
    """
    position, buffer, number, yielded = 0, b"", 0, 0
    while stop_after is None or yielded < stop_after:
        try:
            size = os.path.getsize(path)
        except OSError:
            size = position
        if size < position:
            position, buffer, number = 0, b"", 0
        if size == position:
            time.sleep(poll)
            continue
        with open(path, "rb") as handle:
            handle.seek(position)
            buffer += handle.read()
            position = handle.tell()
        *lines, buffer = buffer.split(b"\n")
        for line in lines:
            number += 1
            if line.strip():
                yield loads(line.decode("utf-8"), f"{path}:{number}")
                yielded += 1
                if yielded == stop_after:
                    return
