"""The replayable corpus: interesting inputs and counterexamples on disk.

A corpus is a file of ``entry`` records (:mod:`repro.obs.records`), one
:class:`CorpusEntry` each, with a null ``ts`` so that one seed always
writes the same bytes.  A conformance run writes exactly its own
entries, replacing the file.  Its use is **replay**: every reported
failure carries the exact bytes (original and shrunk) plus the
classification it produced, so ``python -m repro.conformance --replay
FILE`` re-runs each entry and verifies the behaviour is still
reproducible — the regression gate for every future codec/runtime
change.

A flight-recorder bundle leads with one entry too, so ``--replay`` and
``--triage`` read bundles and corpora alike.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.obs import records as obs_records


@dataclass
class CorpusEntry:
    """One persisted input: where it came from and what it did."""

    engine: str  # "fuzz" | "differential" | "machine"
    subject: str  # spec or machine name
    outcome: str  # classification label at record time
    data: bytes  # the original input (bytes or encoded event list)
    shrunk: Optional[bytes] = None  # minimized reproducer, when one exists
    seed: Optional[int] = None  # run seed that produced it
    detail: str = ""  # free-text context (exception repr, field, ...)
    meta: Dict[str, str] = field(default_factory=dict)

    def reproducer(self) -> bytes:
        """The bytes to replay: the shrunk form when available."""
        return self.shrunk if self.shrunk is not None else self.data

    def to_dict(self) -> Dict[str, Any]:
        """The ``entry`` record body: every field, bytes as hex."""
        shrunk = None if self.shrunk is None else self.shrunk.hex()
        return dict(vars(self), data=self.data.hex(), shrunk=shrunk)

    @classmethod
    def from_dict(cls, body: Dict[str, Any]) -> "CorpusEntry":
        """Inverse of :meth:`to_dict`."""
        shrunk = None if body["shrunk"] is None else bytes.fromhex(body["shrunk"])
        return cls(**dict(body, data=bytes.fromhex(body["data"]), shrunk=shrunk))


class Corpus:
    """An append-only collection of entries with JSONL persistence."""

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self.entries: List[CorpusEntry] = []
        if path is not None and os.path.exists(path):
            self.entries = load_entries(path)

    def add(self, entry: CorpusEntry) -> None:
        """Record an entry (in memory; call :meth:`save` to persist)."""
        self.entries.append(entry)

    def by_subject(self, subject: str) -> List[CorpusEntry]:
        """Entries for one spec or machine, oldest first."""
        return [e for e in self.entries if e.subject == subject]

    def failures(self) -> List[CorpusEntry]:
        """Entries whose outcome is a bug classification."""
        return [e for e in self.entries if e.outcome.startswith("bug")]

    def save(self, path: Optional[str] = None) -> str:
        """Write all entries as ``entry`` records; returns the path written."""
        target = path or self.path
        if target is None:
            raise ValueError("no corpus path configured")
        directory = os.path.dirname(target)
        if directory:
            os.makedirs(directory, exist_ok=True)
        obs_records.write(
            target, [obs_records.Record("entry", e.to_dict()) for e in self.entries]
        )
        return target

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[CorpusEntry]:
        return iter(self.entries)


def load_entries(path: str) -> List[CorpusEntry]:
    """The entries in a corpus file or flight-recorder bundle."""
    records = obs_records.read(path)
    return [CorpusEntry.from_dict(r.body) for r in records if r.kind == "entry"]
