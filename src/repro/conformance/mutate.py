"""The structure-aware mutation fuzzer: valid packets, hostile derivatives.

Random bytes rarely get past the first length field; mutations of *valid*
encodings reach deep into a decoder.  The fuzzer starts every case from a
valid packet (via the registry's generator), uses the codec's field spans
to aim mutations at individual fields — bit flips, boundary stuffing,
length skews — plus framing-level mutations (truncate, extend, splice),
and classifies what the decoder does with the result:

======================  ================================================
outcome                 meaning
======================  ================================================
``accept``              decoded, verified, re-encodes bit-exactly — fine
``reject_decode``       a declared :class:`DecodeError` subclass — fine
``reject_verify``       decoded but failed verification — fine
``bug_crash``           any *undeclared* exception escaped — a bug
``bug_nonverbatim``     verified but re-encodes differently — a bug
======================  ================================================

The two ``bug_*`` outcomes are exactly the behaviours the paper says a
typed protocol DSL makes impossible; finding one means a codec invariant
broke.  Every bug is shrunk before being reported and persisted to the
corpus for replay.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.core.codec import DecodeError, _patch_bits, encode_with_spans
from repro.core.packet import PacketSpec, VerificationError
from repro.conformance.corpus import Corpus, CorpusEntry
from repro.conformance.coverage import FIELD_MUTATIONS, CoverageMap
from repro.conformance.registry import SpecEntry
from repro.conformance.shrink import shrink_bytes
from repro.obs.live import flightrec
from repro.testing import GenerationError

ACCEPT = "accept"
REJECT_DECODE = "reject_decode"
REJECT_VERIFY = "reject_verify"
BUG_CRASH = "bug_crash"
BUG_NONVERBATIM = "bug_nonverbatim"

#: Framing-level mutation strategies (field-level ones are per-field).
_FRAMING_OPS = ("truncate", "extend", "drop_byte", "dup_byte", "splice")


@dataclass
class Finding:
    """One confirmed decoder bug, minimized and replayable."""

    subject: str
    outcome: str
    data: bytes
    shrunk: bytes
    detail: str

    def __str__(self) -> str:
        return (
            f"[{self.outcome}] spec {self.subject!r}: {self.detail} "
            f"(reproducer: {self.shrunk.hex() or '<empty>'}, "
            f"{len(self.shrunk)}/{len(self.data)} bytes after shrinking)"
        )


def classify(spec: PacketSpec, data: bytes) -> Tuple[str, str]:
    """Run one input through decode → verify → re-encode; label the outcome."""
    try:
        packet = spec.decode(data)
    except DecodeError as exc:
        return REJECT_DECODE, type(exc).__name__
    except Exception as exc:  # undeclared failure mode
        return BUG_CRASH, f"decode raised {exc!r}"
    try:
        spec.verify(packet)
    except VerificationError as exc:
        names = ",".join(sorted(v.constraint_name for v in exc.violations))
        return REJECT_VERIFY, names
    except Exception as exc:
        return BUG_CRASH, f"verify raised {exc!r}"
    try:
        reencoded = spec.encode(packet)
    except Exception as exc:
        return BUG_CRASH, f"re-encode raised {exc!r}"
    if reencoded != data:
        return BUG_NONVERBATIM, (
            "verified input does not re-encode bit-exactly "
            f"(got {reencoded.hex()!r})"
        )
    return ACCEPT, ""


def _in_range(data: bytes, start: int, width: int) -> int:
    """How many bits of ``[start, start + width)`` lie inside ``data``.

    Pool inputs can be shorter than the spans they are mutated under, so
    both helpers clip the range at the end of the buffer.
    """
    return max(0, min(width, 8 * len(data) - start))


def _set_bits(data: bytes, start: int, width: int, value: int) -> bytes:
    """Overwrite a bit range (big-endian within the range) in a copy.

    A range running past the end writes only the top in-range bits of
    ``value``, as if the field were cut at the end of the buffer.
    """
    out = bytearray(data)
    count = _in_range(data, start, width)
    _patch_bits(out, start, count, value >> (width - count))
    return bytes(out)


def _get_bits(data: bytes, start: int, width: int) -> int:
    """Read a bit range big-endian; a clipped range yields its in-range bits."""
    count = _in_range(data, start, width)
    if count == 0:
        return 0
    end = start + count
    byte_end = (end + 7) >> 3
    span = int.from_bytes(data[start >> 3 : byte_end], "big")
    return (span >> ((byte_end << 3) - end)) & ((1 << count) - 1)


class MutationFuzzer:
    """Coverage-guided mutation fuzzing of one packet spec."""

    def __init__(
        self,
        entry: SpecEntry,
        rng: random.Random,
        coverage: CoverageMap,
        corpus: Optional[Corpus] = None,
        seed: Optional[int] = None,
        shrink_budget: int = 600,
    ) -> None:
        self.entry = entry
        self.spec = entry.spec
        self.rng = rng
        self.coverage = coverage
        self.corpus = corpus
        self.seed = seed
        self.shrink_budget = shrink_budget
        self.cases = 0
        self._pool: List[bytes] = []  # inputs that reached new coverage

    # -- input construction ----------------------------------------------

    def _fresh_base(self) -> Optional[Tuple[bytes, Dict[str, Tuple[int, int]]]]:
        """A valid encoding plus its field spans; None if generation fails.

        One ``encode_with_spans`` pass produces both — spans used to come
        from a second, redundant encode of the same packet.
        """
        try:
            packet = self.entry.generate(self.rng)
        except GenerationError:
            return None
        return encode_with_spans(self.spec, packet.values)

    def _pick_strategy(self, spans: Dict[str, Tuple[int, int]]) -> str:
        """Field names and framing ops compete on coverage, least-hit first."""
        candidates = list(spans) + list(_FRAMING_OPS)
        return self.coverage.pick(
            self.rng,
            candidates,
            key=lambda c: (
                FIELD_MUTATIONS,
                {"spec": self.spec.name, "field": c},
            ),
        )

    def _mutate(
        self, wire: bytes, spans: Dict[str, Tuple[int, int]], strategy: str
    ) -> bytes:
        rng = self.rng
        if strategy in spans:
            self.coverage.record_field_mutation(self.spec.name, strategy)
            start, end = spans[strategy]
            width = end - start
            if width == 0 or not wire:
                return wire + bytes((rng.randrange(256),))
            roll = rng.random()
            if roll < 0.4:  # flip 1-3 bits inside the field
                out = wire
                for _ in range(rng.randrange(1, 4)):
                    position = start + rng.randrange(width)
                    bit = _get_bits(out, position, 1) ^ 1
                    out = _set_bits(out, position, 1, bit)
                return out
            if roll < 0.65:  # boundary-stuff the whole field
                value = 0 if rng.random() < 0.5 else (1 << width) - 1
                return _set_bits(wire, start, width, value)
            # Skew the carried value by a small delta: the length-field
            # attack — dependent shapes downstream now disagree.
            value = _get_bits(wire, start, width)
            delta = rng.choice((-2, -1, 1, 2, 7, 64))
            return _set_bits(wire, start, width, (value + delta) % (1 << width))
        self.coverage.record_field_mutation(self.spec.name, strategy)
        if strategy == "truncate":
            if not wire:
                return wire
            return wire[: rng.randrange(len(wire))]
        if strategy == "extend":
            extra = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 9)))
            return wire + extra
        if strategy == "drop_byte":
            if not wire:
                return wire
            index = rng.randrange(len(wire))
            return wire[:index] + wire[index + 1 :]
        if strategy == "dup_byte":
            if not wire:
                return wire
            index = rng.randrange(len(wire))
            return wire[: index + 1] + wire[index:]
        # splice: head of this input, tail of a pool (or reversed) input
        other = rng.choice(self._pool) if self._pool else wire[::-1]
        if not wire or not other:
            return wire + other
        return wire[: rng.randrange(1, len(wire) + 1)] + other[
            rng.randrange(len(other)) :
        ]

    # -- the loop -----------------------------------------------------------

    def run(self, budget: int) -> List[Finding]:
        """Run ``budget`` mutation cases; returns minimized bug findings."""
        findings: List[Finding] = []
        seen_bugs: set = set()
        base = self._fresh_base()
        if base is None:
            return findings
        for _ in range(budget):
            if self.rng.random() < 0.2 or base is None:
                base = self._fresh_base() or base
            wire, spans = base
            if self._pool and self.rng.random() < 0.3:
                # Mutate a previously interesting input under the same spans.
                wire = self.rng.choice(self._pool)
            strategy = self._pick_strategy(spans)
            mutated = self._mutate(wire, spans, strategy)
            self.cases += 1
            outcome, detail = classify(self.spec, mutated)
            fresh = self.coverage.record_outcome("fuzz", self.spec.name, outcome)
            if outcome in (REJECT_DECODE, REJECT_VERIFY):
                for path in detail.split(","):
                    if path and self.coverage.record_error_path(
                        self.spec.name, path
                    ):
                        fresh = True
            if fresh:
                self._pool.append(mutated)
                if self.corpus is not None:
                    self.corpus.add(
                        CorpusEntry(
                            engine="fuzz",
                            subject=self.spec.name,
                            outcome=f"interesting:{outcome}",
                            data=mutated,
                            seed=self.seed,
                            detail=detail,
                        )
                    )
            if outcome in (BUG_CRASH, BUG_NONVERBATIM):
                key = (outcome, detail.split("(")[0])
                if key in seen_bugs:
                    continue
                seen_bugs.add(key)
                shrunk = shrink_bytes(
                    mutated,
                    lambda d, o=outcome: classify(self.spec, d)[0] == o,
                    max_evaluations=self.shrink_budget,
                )
                finding = Finding(
                    subject=self.spec.name,
                    outcome=outcome,
                    data=mutated,
                    shrunk=shrunk,
                    detail=classify(self.spec, shrunk)[1] or detail,
                )
                findings.append(finding)
                entry = CorpusEntry(
                    engine="fuzz",
                    subject=self.spec.name,
                    outcome=outcome,
                    data=mutated,
                    shrunk=shrunk,
                    seed=self.seed,
                    detail=finding.detail,
                )
                # Arm REPRO_OBS_FLIGHTREC and every confirmed bug also
                # drops a replayable bundle (no-op when unarmed).
                flightrec.record_crash(replace(entry, meta={"strategy": strategy}))
                if self.corpus is not None:
                    self.corpus.add(entry)
        return findings


def replay_entry(entry: CorpusEntry, spec: PacketSpec) -> Tuple[bool, str]:
    """Re-classify a corpus entry; True when the recorded outcome holds.

    ``interesting:*`` entries replay against their recorded classification;
    bug entries replay the *shrunk* reproducer.
    """
    expected = entry.outcome.split(":", 1)[-1]
    outcome, detail = classify(spec, entry.reproducer())
    if outcome == expected:
        return True, detail
    return False, (
        f"outcome drifted: recorded {expected!r}, replay produced "
        f"{outcome!r} ({detail})"
    )
